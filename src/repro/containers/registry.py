"""An OCI-compliant container registry (blobs + manifests + tags).

"A container registry is important to leverage in this workflow as it
provides persistence to container images which could help in portability,
debugging with old versions, or general future reproducibility" (paper
§4.2) — so the registry keeps every manifest it has ever seen, supports
content-addressed blob dedup, and tracks transfer statistics for the layer
benchmarks.

The class has two planes.  The *metadata plane* — manifests and their
log, cache-manifest pointers, signatures, attestations, the ownership
policy, tenants and their quota ledgers — and the request paths over it
(push, pull, cache export/import) exist once, here.  The *blob plane* is
a handful of methods on ``self`` (``_store_blob``, ``_serve_blob``,
``_drop_blob``, ``has_blob``, ``blob_size``, ``blob_at_rest``,
``storage_bytes``, ``serving_endpoints``); this class implements them on
one :class:`~repro.cas.ContentStore`, and
:class:`~repro.cluster.fleet.RegistryFleet` implements them on sharded,
replicated stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

from ..archive import TarArchive
from ..cas.store import CasError, ContentStore, blob_digest
from ..errors import RegistryError, TransientError
from ..obs.trace import maybe_span
from .oci import ImageConfig, ImageRef, Manifest

__all__ = ["FleetAuthError", "FleetError", "FleetQuotaError", "Registry",
           "Tenant", "TransferStats"]


class FleetError(RegistryError):
    """A fleet or tenancy registry operation failed."""


class FleetAuthError(FleetError):
    """Missing or wrong tenant token (the 401/403 of this world)."""


class FleetQuotaError(TransientError, FleetError):
    """Push rejected: tenant byte quota exhausted.  Retryable — quota
    frees up when the tenant deletes images or is re-provisioned."""


@dataclass
class TransferStats:
    """Bytes and blob counts moved over the wire."""

    blobs_pushed: int = 0
    blobs_push_skipped: int = 0  # dedup hits: layer already present
    bytes_pushed: int = 0
    bytes_push_skipped: int = 0  # bytes the dedup saved on the wire
    blobs_pulled: int = 0
    bytes_pulled: int = 0
    blobs_pull_skipped: int = 0  # puller already held the blob locally
    bytes_pull_skipped: int = 0  # egress bytes the local CAS saved

    def as_dict(self) -> dict:
        return {
            "blobs_pushed": self.blobs_pushed,
            "blobs_push_skipped": self.blobs_push_skipped,
            "bytes_pushed": self.bytes_pushed,
            "bytes_push_skipped": self.bytes_push_skipped,
            "blobs_pulled": self.blobs_pulled,
            "bytes_pulled": self.bytes_pulled,
            "blobs_pull_skipped": self.blobs_pull_skipped,
            "bytes_pull_skipped": self.bytes_pull_skipped,
        }


@dataclass
class Tenant:
    """One namespace: auth token, quota, and private per-tenant stats."""

    name: str
    token: Optional[str] = None
    quota_bytes: Optional[int] = None
    public: bool = False             # anyone may pull (pushes stay gated)
    digests: set[str] = field(default_factory=set)
    bytes_used: int = 0              # unique blob bytes under this tenant
    pushes: int = 0
    pulls: int = 0
    quota_rejections: int = 0
    auth_rejections: int = 0

    def stats(self) -> dict:
        """This tenant's view only — never names another tenant's blobs."""
        return {
            "tenant": self.name,
            "bytes_used": self.bytes_used,
            "quota_bytes": self.quota_bytes,
            "blobs": len(self.digests),
            "digests": sorted(self.digests),
            "pushes": self.pushes,
            "pulls": self.pulls,
            "quota_rejections": self.quota_rejections,
            "auth_rejections": self.auth_rejections,
        }


def _parse(ref: ImageRef | str) -> ImageRef:
    return ImageRef.parse(ref) if isinstance(ref, str) else ref


class Registry:
    """One registry service (e.g. the GitLab Container Registry of §4.2).

    Blob bytes live in a :class:`~repro.cas.ContentStore`; passing a
    shared store to several registries (or to storage drivers) dedups
    identical layers across images, repositories, and services.  Every
    blob this registry accepts is refcounted so a bounded shared store
    can never evict it — registry persistence is the §4.2 property.

    Repositories are namespaced ``tenant/repo:tag``.  A registered
    tenant's repos are private: pushes and pulls must present the
    tenant's token, and pushes beyond its byte quota are rejected with a
    *retryable* error.  Unregistered namespaces stay open.
    """

    def __init__(self, name: str, *, store: Optional[ContentStore] = None):
        self.name = name
        self.store = store if store is not None else ContentStore()
        # digest -> size of every blob this registry references
        self._blobs: dict[str, int] = {}
        # (repo, tag) -> arch -> Manifest  (a minimal OCI manifest list)
        self._manifests: dict[tuple[str, str], dict[str, Manifest]] = {}
        self._manifest_log: list[tuple[str, str, str]] = []  # persistence
        # (repo, tag) -> cache-manifest blob digest (BuildKit-style)
        self._cache_manifests: dict[tuple[str, str], str] = {}
        self._policies: dict[str, bool] = {}  # repo -> require_flattened
        # (repo, tag) -> detached signatures (one per signed manifest
        # variant; verification matches on the served manifest's digest)
        self._signatures: dict[tuple[str, str], list] = {}
        # (repo, tag) -> attestation kind -> blob digest
        self._attestations: dict[tuple[str, str], dict[str, str]] = {}
        self.tenants: dict[str, Tenant] = {}
        self.stats = TransferStats()
        #: Optional :class:`~repro.supply.Signer` — when set, every push
        #: records a signature over the manifest digest (sign-on-push).
        self.signer = None
        #: Optional :class:`~repro.supply.PolicyGate` — when set, every
        #: pull verifies the served manifest's signature and raises
        #: :class:`~repro.errors.SupplyPolicyError` on failure.
        self.policy_gate = None
        #: Optional :class:`~repro.obs.SyscallTracer` — registries have no
        #: kernel of their own, so callers attach one explicitly to get
        #: push/pull spans.
        self.tracer = None
        #: Optional :class:`~repro.sim.RegistryFaultInjector` — when set,
        #: ``fetch_blob``/``push`` raise ``TransientRegistryError`` inside
        #: the plan's flake windows and callers retry per their policy.
        self.fault_injector = None

    def _now(self) -> float:
        """Virtual time for retry hints: the fault plan's clock, if any."""
        if self.fault_injector is not None:
            return self.fault_injector.clock.now
        return 0.0

    # -- blob plane: one content store ------------------------------------------------

    def has_blob(self, digest: str) -> bool:
        return self.store.has(digest)

    def blob_size(self, digest: str) -> int:
        """Size at rest of one blob (no transfer is counted)."""
        if not self.store.has(digest):
            raise RegistryError(f"{self.name}: no blob {digest[:19]}...")
        return self.store.size_of(digest)

    def blob_at_rest(self, digest: str) -> bytes:
        """One blob's bytes without counting a transfer (audit-side
        reads; clients fetching over the wire use :meth:`fetch_blob`)."""
        try:
            return self.store.get(digest)
        except CasError:
            raise RegistryError(f"{self.name}: no blob {digest[:19]}...")

    def storage_bytes(self) -> int:
        """Bytes at rest attributable to this registry's blobs.  On a
        shared store the sum over registries can exceed the store's
        physical size — that gap *is* the cross-service dedup saving."""
        return sum(self.store.size_of(d) for d in self._blobs
                   if self.store.has(d))

    def serving_endpoints(self, digest: Optional[str] = None) -> list:
        """The network endpoints that serve blob reads: all of them when
        *digest* is None (what a deploy topology attaches), else the one
        a read of *digest* is routed to.  A single registry is its own
        and only endpoint."""
        return [self]

    def _store_blob(self, digest: str, blob: bytes) -> bool:
        """Keep *blob* at rest; returns whether its bytes crossed the
        wire (False is a dedup hit: already in the store, possibly from
        another repo or another registry on a shared store)."""
        moved = not self.store.has(digest)
        if moved:
            self.store.put(blob)
        if digest not in self._blobs:
            self.store.incref(digest)
        return moved

    def _serve_blob(self, digest: str) -> bytes:
        """Read one blob for a client transfer (the caller counts it)."""
        return self.blob_at_rest(digest)

    def _drop_blob(self, digest: str) -> None:
        """Release one blob a failed request placed."""
        self.store.decref(digest)
        self.store.discard(digest)

    # -- blob accounting + transactions -----------------------------------------------

    def _put_blob(self, blob: bytes,
                  txn: Optional[list[tuple[str, bool]]] = None) -> str:
        digest = blob_digest(blob)
        fresh = digest not in self._blobs
        moved = self._store_blob(digest, blob)
        if moved:
            self.stats.blobs_pushed += 1
            self.stats.bytes_pushed += len(blob)
        else:
            self.stats.blobs_push_skipped += 1
            self.stats.bytes_push_skipped += len(blob)
        if fresh:
            self._blobs[digest] = len(blob)
            if txn is not None:
                txn.append((digest, moved))
        return digest

    def _accept(self, tenant: Optional[Tenant],
                blobs: Sequence[bytes]) -> list[str]:
        """Charge, place, and commit *blobs* all-or-nothing: the quota is
        checked first, and a placement failure part-way through drops
        every blob this request introduced and un-counts it — so the
        tenant ledger and the push counters always match stored bytes.
        Blobs that pre-existed the request are left alone (another image
        or tenant legitimately references them)."""
        new = self._reserve_quota(tenant, blobs)
        txn: list[tuple[str, bool]] = []
        try:
            digests = [self._put_blob(blob, txn) for blob in blobs]
        except Exception:
            for digest, moved in reversed(txn):
                size = self._blobs.pop(digest)
                self._drop_blob(digest)
                if moved:
                    self.stats.blobs_pushed -= 1
                    self.stats.bytes_pushed -= size
                else:
                    self.stats.blobs_push_skipped -= 1
                    self.stats.bytes_push_skipped -= size
            raise
        if tenant is not None:
            tenant.digests.update(new)
            tenant.bytes_used += sum(new.values())
        return digests

    def fetch_blob(self, digest: str, *,
                   local_store: Optional[ContentStore] = None) -> bytes:
        """Pull one blob by digest.  If the caller's node-local
        *local_store* already holds the bytes, they are served from there
        and the wire transfer is skipped (counted as a pull-skip — the
        mirror of push-side dedup).  A freshly pulled blob is dropped into
        *local_store* so the next puller on that node skips too."""
        if local_store is not None and local_store.has(digest):
            blob = local_store.get(digest)
            self.stats.blobs_pull_skipped += 1
            self.stats.bytes_pull_skipped += len(blob)
            return blob
        if self.fault_injector is not None:
            self.fault_injector.check("fetch_blob")
        blob = self._serve_blob(digest)
        self.stats.blobs_pulled += 1
        self.stats.bytes_pulled += len(blob)
        if local_store is not None:
            local_store.put(blob)
        return blob

    # -- tenancy ----------------------------------------------------------------------

    def add_tenant(self, name: str, *, token: Optional[str] = None,
                   quota_bytes: Optional[int] = None,
                   public: bool = False) -> Tenant:
        if "/" in name:
            raise FleetError(f"tenant names are single path segments: "
                             f"{name!r}")
        tenant = Tenant(name, token=token, quota_bytes=quota_bytes,
                        public=public)
        self.tenants[name] = tenant
        return tenant

    def tenant_stats(self, name: str) -> dict:
        try:
            return self.tenants[name].stats()
        except KeyError:
            raise FleetError(f"{self.name}: unknown tenant {name!r}")

    def _tenant_of(self, repository: str) -> Optional[Tenant]:
        return self.tenants.get(repository.split("/", 1)[0])

    def _authorize(self, tenant: Optional[Tenant], token: Optional[str],
                   op: str) -> None:
        if tenant is None:
            return                       # unregistered namespace: open
        if op == "pull" and tenant.public:
            return
        if token != tenant.token or tenant.token is None:
            tenant.auth_rejections += 1
            raise FleetAuthError(
                f"{self.name}: {op} to tenant {tenant.name!r} denied "
                f"(bad or missing token)")

    def _reserve_quota(self, tenant: Optional[Tenant],
                       blobs: Sequence[bytes]) -> dict[str, int]:
        """Check the quota without touching the ledger; returns the
        not-yet-charged digests (digest -> size) :meth:`_accept` commits
        once every blob is placed."""
        if tenant is None:
            return {}
        new = {}
        for blob in blobs:
            d = blob_digest(blob)
            if d not in tenant.digests:
                new[d] = len(blob)
        added = sum(new.values())
        if tenant.quota_bytes is not None \
                and tenant.bytes_used + added > tenant.quota_bytes:
            tenant.quota_rejections += 1
            raise FleetQuotaError(
                f"{self.name}: tenant {tenant.name!r} quota exhausted "
                f"({tenant.bytes_used} + {added} > {tenant.quota_bytes} B)",
                retry_at=self._now())
        return new

    # -- metadata plane ---------------------------------------------------------------

    def put_manifest(self, ref: ImageRef | str, manifest: Manifest) -> None:
        """Record *manifest* for *ref* (its layer blobs are placed
        separately — no blob transfer happens here)."""
        ref = _parse(ref)
        variants = self._manifests.setdefault((ref.repository, ref.tag), {})
        variants[manifest.config.arch] = manifest
        self._manifest_log.append((ref.repository, ref.tag,
                                   manifest.digest()))

    def record_signature(self, ref: ImageRef | str, signature) -> None:
        """Attach a detached signature to *ref* (sign-on-push, or a
        signer working out of band).  Signatures accumulate — one per
        signed manifest variant; verification matches on payload."""
        ref = _parse(ref)
        sigs = self._signatures.setdefault((ref.repository, ref.tag), [])
        if signature not in sigs:
            sigs.append(signature)

    def signatures_of(self, ref: ImageRef | str) -> list:
        """Every signature recorded for *ref* (may be empty)."""
        ref = _parse(ref)
        return list(self._signatures.get((ref.repository, ref.tag), ()))

    def attestation_digests(self, ref: ImageRef | str) -> dict[str, str]:
        """kind -> blob digest of every attestation on *ref*."""
        ref = _parse(ref)
        return dict(self._attestations.get((ref.repository, ref.tag), {}))

    def fetch_attestation(self, ref: ImageRef | str, kind: str) -> bytes:
        """One attestation statement, read at rest (no transfer counted
        — audits run registry-side, not over the wire)."""
        ref = _parse(ref)
        digests = self._attestations.get((ref.repository, ref.tag), {})
        if kind not in digests:
            raise RegistryError(
                f"{self.name}: no {kind} attestation for "
                f"{ref.repository}:{ref.tag}")
        return self.blob_at_rest(digests[kind])

    def take_over(self, other: "Registry") -> None:
        """Stand in for *other*: carry its whole metadata table —
        manifests and their log, cache pointers, signatures,
        attestations, ownership policies, tenants and their ledgers —
        and re-place every blob it holds through this registry's blob
        plane (counted as pushes)."""
        for digest in sorted(other._blobs):
            self._put_blob(other.blob_at_rest(digest))
        for key, variants in other._manifests.items():
            self._manifests.setdefault(key, {}).update(variants)
        self._manifest_log.extend(other._manifest_log)
        self._cache_manifests.update(other._cache_manifests)
        for key, sigs in other._signatures.items():
            mine = self._signatures.setdefault(key, [])
            mine.extend(s for s in sigs if s not in mine)
        for key, kinds in other._attestations.items():
            self._attestations.setdefault(key, {}).update(kinds)
        self._policies.update(other._policies)
        self.tenants.update({n: replace(t, digests=set(t.digests))
                             for n, t in other.tenants.items()})

    def _count_supply(self, event: str) -> None:
        if self.tracer is not None:
            self.tracer.metrics.count_supply(event)

    def _verify_served(self, ref: ImageRef, manifest: Manifest) -> None:
        """The pull-time supply check: count unsigned pulls, and when a
        policy gate is attached, verify the served manifest's signature
        (raising :class:`~repro.errors.SupplyPolicyError`)."""
        if not self._signatures.get((ref.repository, ref.tag)):
            self._count_supply("unsigned_pull")
        if self.policy_gate is not None:
            self.policy_gate.verify_pull(self, ref, manifest)

    # -- ownership policy (§6.2.5 proposed OCI extension) -------------------------------

    def set_repo_policy(self, repository: str, *,
                        require_flattened: bool) -> None:
        """§6.2.5: 'explicit marking of images to disallow, allow, or
        require them to be ownership-flattened' — enforced per repository."""
        self._policies[repository] = require_flattened

    def _check_policy(self, ref: ImageRef,
                      layers: list[TarArchive]) -> None:
        if not self._policies.get(ref.repository, False):
            return
        for layer in layers:
            for m in layer:
                if (m.uid, m.gid) != (0, 0) or m.mode & 0o6000:
                    raise RegistryError(
                        f"{self.name}: repository {ref.repository!r} "
                        f"requires ownership-flattened images; member "
                        f"{m.path!r} is {m.uid}:{m.gid} mode {m.mode:o}")

    # -- push / pull ------------------------------------------------------------------

    def push(self, ref: ImageRef | str, config: ImageConfig,
             layers: Iterable[TarArchive], *,
             token: Optional[str] = None,
             attestations: Optional[dict[str, bytes]] = None) -> Manifest:
        """Push an image: layers become content-addressed blobs (already-
        present layers are not re-sent, like real registries).  With
        *attestations* (kind -> statement bytes), the statements become
        blobs too, charged to the tenant's quota with the layers.
        Placement and charging are all-or-nothing."""
        ref = _parse(ref)
        layers = list(layers)
        tenant = self._tenant_of(ref.repository)
        att_blobs = dict(sorted(attestations.items())) if attestations \
            else {}
        with maybe_span(self.tracer,
                        f"push {ref.repository}:{ref.tag}", "push",
                        registry=self.name, layers=len(layers)):
            if self.fault_injector is not None:
                self.fault_injector.check("push")
            self._authorize(tenant, token, "push")
            self._check_policy(ref, layers)
            blobs = [layer.serialize() for layer in layers]
            if not blobs:
                raise RegistryError("cannot push an image with no layers")
            digests = self._accept(tenant, blobs + list(att_blobs.values()))
            manifest = Manifest(config=config,
                                layers=tuple(digests[:len(blobs)]))
            self.put_manifest(ref, manifest)
            if att_blobs:
                self._attestations.setdefault(
                    (ref.repository, ref.tag), {}).update(
                        zip(att_blobs, digests[len(blobs):]))
            if self.signer is not None:
                self.record_signature(ref,
                                      self.signer.sign(manifest.digest()))
                self._count_supply("signed")
            if att_blobs:
                self._count_supply("attested")
            if tenant is not None:
                tenant.pushes += 1
        return manifest

    def pull(self, ref: ImageRef | str, *, arch: Optional[str] = None,
             local_store: Optional[ContentStore] = None,
             token: Optional[str] = None
             ) -> tuple[ImageConfig, list[TarArchive]]:
        """Pull an image (optionally a specific architecture variant);
        returns (config, layers base-first).  With *local_store* (the
        pulling node's CAS), layer blobs already held locally are not
        re-sent over the wire — the pull-side mirror of push dedup."""
        ref = _parse(ref)
        tenant = self._tenant_of(ref.repository)
        with maybe_span(self.tracer,
                        f"pull {ref.repository}:{ref.tag}", "pull",
                        registry=self.name):
            self._authorize(tenant, token, "pull")
            manifest = self.manifest(ref, arch=arch)
            self._verify_served(ref, manifest)
            layers = [TarArchive.deserialize(
                          self.fetch_blob(d, local_store=local_store))
                      for d in manifest.layers]
            if tenant is not None:
                tenant.pulls += 1
        return manifest.config, layers

    def image_blob_digests(self, ref: ImageRef | str, *,
                           arch: Optional[str] = None) -> list[str]:
        """The layer blob digests an image pull would transfer, base
        first — what a deploy distributor needs to plan with."""
        return list(self.manifest(ref, arch=arch).layers)

    def manifest(self, ref: ImageRef | str, *,
                 arch: Optional[str] = None) -> Manifest:
        ref = _parse(ref)
        try:
            variants = self._manifests[(ref.repository, ref.tag)]
        except KeyError:
            raise RegistryError(
                f"{self.name}: manifest unknown: {ref.repository}:{ref.tag}")
        if arch is not None:
            if arch in variants:
                return variants[arch]
            if len(variants) == 1:
                # single-arch manifest: served regardless of the requested
                # platform (real clients warn and proceed — the mismatch
                # surfaces later as ENOEXEC, the §4.2 laptop trap)
                return next(iter(variants.values()))
            raise RegistryError(
                f"{self.name}: {ref.repository}:{ref.tag} has no "
                f"{arch} variant (available: {sorted(variants)})")
        if len(variants) == 1:
            return next(iter(variants.values()))
        raise RegistryError(
            f"{self.name}: {ref.repository}:{ref.tag} is multi-arch "
            f"({sorted(variants)}); specify an architecture")

    # -- build-cache manifests (BuildKit-style cache export) ---------------------------

    def push_cache(self, ref: ImageRef | str, manifest: bytes,
                   blobs: Iterable[bytes], *,
                   token: Optional[str] = None) -> str:
        """Accept a build-cache export: the diff blobs plus the JSON cache
        manifest naming them, tracked under *ref* like an OCI artifact.
        Already-present blobs are deduplicated like layers, and charging
        is all-or-nothing like a push; returns the manifest blob digest."""
        ref = _parse(ref)
        blobs = list(blobs)
        tenant = self._tenant_of(ref.repository)
        with maybe_span(self.tracer,
                        f"push-cache {ref.repository}:{ref.tag}", "push",
                        registry=self.name, blobs=len(blobs)):
            self._authorize(tenant, token, "push")
            digest = self._accept(tenant, blobs + [manifest])[-1]
            self._cache_manifests[(ref.repository, ref.tag)] = digest
        return digest

    def _cache_manifest_of(self, ref: ImageRef) -> str:
        try:
            return self._cache_manifests[(ref.repository, ref.tag)]
        except KeyError:
            raise RegistryError(
                f"{self.name}: cache manifest unknown: "
                f"{ref.repository}:{ref.tag}")

    def pull_cache(self, ref: ImageRef | str, *,
                   local_store: Optional[ContentStore] = None,
                   token: Optional[str] = None
                   ) -> tuple[bytes, Callable[[str], bytes]]:
        """Fetch a cache manifest pushed by :meth:`push_cache`; returns
        ``(manifest_bytes, fetch)`` where *fetch* retrieves diff blobs by
        digest (and counts them as pulled, or as pull-skips when
        *local_store* already holds them)."""
        ref = _parse(ref)
        self._authorize(self._tenant_of(ref.repository), token, "pull")
        digest = self._cache_manifest_of(ref)
        with maybe_span(self.tracer,
                        f"pull-cache {ref.repository}:{ref.tag}", "pull",
                        registry=self.name):
            manifest = self.fetch_blob(digest, local_store=local_store)

        def fetch(d: str) -> bytes:
            return self.fetch_blob(d, local_store=local_store)

        return manifest, fetch

    def cache_blob_digests(self, ref: ImageRef | str) -> list[str]:
        """Every blob a cache import of *ref* would transfer: the diff
        blobs the manifest names, then the manifest blob itself (no
        transfer is counted — this is planning data for a distributor)."""
        digest = self._cache_manifest_of(_parse(ref))
        manifest = json.loads(self.blob_at_rest(digest))
        diffs = [entry["diff"] for entry in manifest.get("records", ())]
        # preserve first-seen order, dedup (records may share diffs)
        seen: set[str] = set()
        ordered = [d for d in diffs if not (d in seen or seen.add(d))]
        return ordered + [digest]

    def has_cache(self, ref: ImageRef | str) -> bool:
        ref = _parse(ref)
        return (ref.repository, ref.tag) in self._cache_manifests

    def has(self, ref: ImageRef | str) -> bool:
        ref = _parse(ref)
        return (ref.repository, ref.tag) in self._manifests

    def tags(self, repository: str) -> list[str]:
        return sorted(t for (r, t) in self._manifests if r == repository)

    def repositories(self) -> list[str]:
        return sorted({r for (r, _) in self._manifests})

    def history(self, repository: str) -> list[str]:
        """All manifest digests ever pushed to *repository* (old versions
        stay reachable — the §4.2 persistence property)."""
        return [d for (r, _, d) in self._manifest_log if r == repository]
