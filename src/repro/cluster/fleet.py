"""A multi-tenant sharded registry fleet (the ROADMAP's scale-out story).

One :class:`~repro.containers.registry.Registry` per world is the §4.2
seed ("a dedicated login node with a docker registry on networked
storage"); production means millions of users hammering push/pull.  This
module grows that seed into a *fleet*:

* **Consistent-hash placement** — blobs land on shards via a
  :class:`HashRing` of sha256 virtual nodes.  Placement is a pure
  function of (digest, shard names, vnodes): two worlds with the same
  fleet shape place every blob identically, and adding a shard relocates
  only ~K/N keys (the minimal-movement property the ring tests pin).
* **Replication with read fan-out** — every blob is written to R
  distinct shards clockwise from its hash point; reads go to the
  *nearest live* holder (least queue depth, ring order as tie-break), so
  a shard crash just re-routes to the replicas.
* **Peer-to-peer shard fill** — replicas and rebalance targets are
  filled shard-to-shard with the existing binomial-tree broadcast
  (:func:`~repro.cluster.broadcast.distribute_blobs`), not with origin
  re-uploads; the moved bytes are accounted as ``rebalance_bytes``, never
  as client push/pull traffic (the zero-double-counting invariant).
* **Admission control with backpressure** — each shard is a FIFO server
  on the sim clock with a bounded queue; an arrival that would exceed
  the bound gets a 503-style :class:`FleetOverloadError` carrying
  ``retry_at``, which composes with the PR-6
  :class:`~repro.sim.RetryPolicy` exactly like a registry flake.

:class:`RegistryFleet` *is* a :class:`Registry`: the metadata plane
(manifests, signatures, attestations, cache pointers, tenants and their
quotas) and every request path over it are inherited unchanged, and the
fleet overrides only the blob plane — where bytes are stored and which
shard serves them.  Podman pushes, ch-image pulls, and the tree-broadcast
deploy path therefore work unchanged when :func:`deploy_fleet` swaps a
fleet in as the world's site registry.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..cas.store import ContentStore
from ..containers.oci import ImageRef
from ..containers.registry import (FleetAuthError, FleetError,
                                   FleetQuotaError, Registry, Tenant)
from ..errors import TransientError

__all__ = [
    "FleetError",
    "FleetAuthError",
    "FleetQuotaError",
    "FleetOverloadError",
    "HashRing",
    "RegistryShard",
    "RegistryFleet",
    "Tenant",
    "deploy_fleet",
]


class FleetOverloadError(TransientError, FleetError):
    """Shard admission queue full (the 503 of this world).  ``retry_at``
    is the earliest virtual time a queue slot can free up."""


# --------------------------------------------------------------------------
# Consistent-hash ring


def _ring_hash(key: str) -> int:
    """Deterministic 64-bit ring position (sha256 prefix — no process
    randomization, so placement agrees across worlds and runs)."""
    return int.from_bytes(
        hashlib.sha256(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Each shard contributes ``vnodes`` points at
    ``sha256(f"{shard}#{i}")``; a key is owned by the first ``n``
    *distinct* shards clockwise from ``sha256(key)``.  Determinism and
    the minimal-movement property both follow from the points being a
    pure function of the shard name.

    Placement changes only when a shard joins or leaves, so
    :meth:`holders` memoizes each ``(key, n)`` answer of the ring scan
    (:meth:`_scan`, the oracle) and :meth:`add`/:meth:`remove` clear the
    memo.
    """

    def __init__(self, shards: Iterable[str] = (), *, vnodes: int = 64):
        if vnodes <= 0:
            raise FleetError(f"vnodes must be positive: {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []  # sorted (hash, shard)
        self._shards: set[str] = set()
        self._placed: dict[tuple[str, int], tuple[str, ...]] = {}
        for name in shards:
            self.add(name)

    @property
    def shards(self) -> list[str]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    def _vnode_points(self, name: str) -> list[tuple[int, str]]:
        return [(_ring_hash(f"{name}#{i}"), name)
                for i in range(self.vnodes)]

    def add(self, name: str) -> None:
        if name in self._shards:
            return
        self._shards.add(name)
        for point in self._vnode_points(name):
            insort(self._points, point)
        self._placed.clear()

    def remove(self, name: str) -> None:
        if name not in self._shards:
            return
        self._shards.discard(name)
        dead = set(self._vnode_points(name))
        self._points = [p for p in self._points if p not in dead]
        self._placed.clear()

    def holders(self, key: str, n: int = 1) -> list[str]:
        """The first *n* distinct shards clockwise from *key*'s point,
        primary first.  ``n`` is clamped to the shard count."""
        placed = self._placed.get((key, n))
        if placed is None:
            placed = self._placed[key, n] = tuple(self._scan(key, n))
        return list(placed)

    def _scan(self, key: str, n: int) -> list[str]:
        """The uncached ring walk behind :meth:`holders`."""
        if not self._shards:
            raise FleetError("hash ring has no shards")
        n = min(n, len(self._shards))
        start = bisect_right(self._points, (_ring_hash(key), "￿"))
        found: list[str] = []
        for i in range(len(self._points)):
            _, shard = self._points[(start + i) % len(self._points)]
            if shard not in found:
                found.append(shard)
                if len(found) == n:
                    break
        return found

    def placement(self, keys: Iterable[str], n: int = 1
                  ) -> dict[str, list[str]]:
        """``{key: holders}`` for many keys at once (test/rebalance aid)."""
        return {key: self.holders(key, n) for key in keys}


# --------------------------------------------------------------------------
# Shards


@dataclass
class ShardStats:
    """Admission + service accounting for one shard (JSON-friendly)."""

    admitted: int = 0
    rejected: int = 0                # overload 503s returned
    served_blobs: int = 0
    served_bytes: int = 0
    queue_depth_max: int = 0
    busy_seconds: float = 0.0        # virtual service time reserved

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "served_blobs": self.served_blobs,
            "served_bytes": self.served_bytes,
            "queue_depth_max": self.queue_depth_max,
            "busy_seconds": round(self.busy_seconds, 9),
        }


class RegistryShard:
    """One blob holder of the fleet: a content store, the set of blobs
    it owns, and a bounded FIFO admission queue on the sim clock.

    The shard is a broadcast endpoint in both directions: a target
    (``hostname`` + ``content_store``) and a source (``fetch_blob`` +
    ``blob_size`` + ``serving_endpoints``), so
    :func:`~repro.cluster.broadcast.distribute_blobs` can fill shards
    from one another peer-to-peer like compute nodes.
    """

    def __init__(self, name: str, *, queue_limit: Optional[int] = None,
                 service_bandwidth: float = 256 * 1024,
                 service_latency: float = 1e-4):
        if queue_limit is not None and queue_limit <= 0:
            raise FleetError(f"queue_limit must be positive: {queue_limit}")
        self.name = name
        self.content_store = ContentStore()
        self.owned: set[str] = set()
        self.alive = True
        self.queue_limit = queue_limit
        self.service_bandwidth = service_bandwidth
        self.service_latency = service_latency
        self.stats = ShardStats()
        self._busy_until = 0.0
        #: in-flight op end times, non-decreasing: :meth:`reserve` starts
        #: each op at ``max(now, _busy_until)``, so ends only grow
        self._completions: deque[float] = deque()

    @property
    def hostname(self) -> str:
        return self.name

    # -- blobs -------------------------------------------------------------

    def has_blob(self, digest: str) -> bool:
        return self.content_store.has(digest)

    def blob_size(self, digest: str) -> int:
        return self.content_store.size_of(digest)

    def fetch_blob(self, digest: str) -> bytes:
        """The bytes of one resident blob, uncounted (the shard-to-shard
        fill reads this way; the fleet books that as rebalance traffic)."""
        return self.content_store.get(digest)

    def serve(self, digest: str) -> bytes:
        """One client read of a resident blob, counted as served."""
        blob = self.content_store.get(digest)
        self.stats.served_blobs += 1
        self.stats.served_bytes += len(blob)
        return blob

    def serving_endpoints(self, digest: Optional[str] = None) -> list:
        return [self]

    def hold(self, digest: str, blob: Optional[bytes] = None) -> None:
        """Own *digest*, storing *blob* under it first when given (a
        placement: the front door hashed the blob on accept); without it
        the bytes must already be resident (a peer fill landed them)."""
        store = self.content_store
        if blob is not None and not store.has(digest):
            store.put(blob, digest=digest)
        if not store.has(digest):
            raise FleetError(
                f"{self.name}: cannot hold absent blob {digest[:19]}...")
        if digest not in self.owned:
            self.owned.add(digest)
            store.incref(digest)

    def drop(self, digest: str) -> None:
        """Release one owned blob and reclaim its bytes."""
        if digest in self.owned:
            self.owned.discard(digest)
            self.content_store.decref(digest)
            self.content_store.discard(digest)

    def storage_bytes(self) -> int:
        store = self.content_store
        return sum(store.size_of(d) for d in self.owned if store.has(d))

    # -- admission queue ---------------------------------------------------

    def queue_depth(self, now: float) -> int:
        """Operations queued or in service at virtual time *now* (those
        done by then are trimmed off the sorted front)."""
        completions = self._completions
        while completions and completions[0] <= now:
            completions.popleft()
        return len(completions)

    def retry_hint(self, now: float) -> float:
        """Earliest time a queue slot can free up: the first pending
        end, since ends are sorted."""
        for end in self._completions:
            if end > now:
                return end
        return now

    def check_admission(self, now: float, extra: int = 0) -> None:
        """Raise :class:`FleetOverloadError` if one more operation (plus
        *extra* already planned in this request) would exceed the bound.
        Does not reserve — callers reserve with :meth:`reserve` once the
        whole request is admissible."""
        if self.queue_limit is None:
            return
        if self.queue_depth(now) + extra >= self.queue_limit:
            self.stats.rejected += 1
            raise FleetOverloadError(
                f"{self.name}: admission queue full "
                f"({self.queue_limit} deep at t={now:.3f})",
                retry_at=self.retry_hint(now))

    def reserve(self, now: float, nbytes: int) -> float:
        """Reserve FIFO service for *nbytes*; returns the completion
        time.  Callers must have passed :meth:`check_admission`."""
        start = max(now, self._busy_until)
        service = self.service_latency + nbytes / self.service_bandwidth
        end = start + service
        self._busy_until = end
        self._completions.append(end)
        self.stats.admitted += 1
        self.stats.busy_seconds += service
        self.stats.queue_depth_max = max(self.stats.queue_depth_max,
                                         self.queue_depth(now))
        return end

    def as_dict(self) -> dict:
        d = self.stats.as_dict()
        d["alive"] = self.alive
        d["storage_bytes"] = self.storage_bytes()
        return d


# --------------------------------------------------------------------------
# The fleet


class RegistryFleet(Registry):
    """N blob shards behind one consistent-hash front door.

    A :class:`Registry` whose blob plane is sharded and replicated: the
    one metadata table and every request path (push, pull, cache
    export/import, tenancy, signing, verify-on-pull) are inherited, so
    every client works against a fleet unchanged.  The front door counts
    every placed blob as pushed — unlike a single registry it books no
    dedup skips — and routes pulls to the nearest live holder.
    """

    def __init__(self, name: str, *, n_shards: int, replicas: int = 1,
                 vnodes: int = 64, queue_limit: Optional[int] = None,
                 service_bandwidth: float = 256 * 1024,
                 service_latency: float = 1e-4,
                 clock=None, tracer=None):
        if n_shards <= 0:
            raise FleetError(f"n_shards must be positive: {n_shards}")
        if not 1 <= replicas <= n_shards:
            raise FleetError(
                f"replicas must be in [1, {n_shards}]: {replicas}")
        super().__init__(name)
        self.store = None                # blobs live on the shards
        self.replicas = replicas
        self.shards: list[RegistryShard] = [
            RegistryShard(f"{name}.s{i:02d}", queue_limit=queue_limit,
                          service_bandwidth=service_bandwidth,
                          service_latency=service_latency)
            for i in range(n_shards)
        ]
        self._by_name = {s.name: s for s in self.shards}
        self.ring = HashRing((s.name for s in self.shards), vnodes=vnodes)
        self.rebalance_bytes = 0         # shard-to-shard fill traffic
        self.rebalance_blobs = 0
        #: Optional sim clock; admission control needs time to queue
        #: against, so backpressure is active only when a clock is bound.
        self.clock = clock
        self.tracer = tracer

    # -- time / liveness ---------------------------------------------------

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.now
        return super()._now()

    def _is_live(self, shard: RegistryShard, now: float) -> bool:
        """Alive, and not crashed by the plan of an installed fault
        injector (a crash re-routes reads to the replicas)."""
        if not shard.alive:
            return False
        plan = None if self.fault_injector is None \
            else self.fault_injector.plan
        return plan is None or not plan.crashed_by(shard.name, now)

    def live_shards(self) -> list[RegistryShard]:
        now = self._now()
        return [s for s in self.shards if self._is_live(s, now)]

    # -- placement / routing -----------------------------------------------

    def blob_holders(self, digest: str) -> list[str]:
        """Shard names that must hold *digest* (primary first)."""
        return self.ring.holders(digest, self.replicas)

    def serving_endpoints(self, digest: Optional[str] = None) -> list:
        """Every shard when *digest* is None, else the nearest live
        holder of *digest*: least queue depth wins, ring order breaks
        ties.  This is the read fan-out — and how
        :func:`~repro.cluster.broadcast.distribute_blobs` routes per-blob
        registry pulls instead of assuming one origin."""
        if digest is None:
            return list(self.shards)
        return [self._route(digest)]

    def _route(self, digest: str) -> RegistryShard:
        """The least-loaded live holder, in one pass in ring order: a
        strict ``<`` keeps the earlier holder on a tie."""
        now = self._now()
        holders = self.blob_holders(digest)
        best, best_depth = None, 0
        for shard in map(self._by_name.__getitem__, holders):
            if self._is_live(shard, now) and shard.has_blob(digest):
                depth = shard.queue_depth(now)
                if best is None or depth < best_depth:
                    best, best_depth = shard, depth
        if best is None:
            raise FleetError(
                f"{self.name}: no live shard holds {digest[:19]}... "
                f"(placement: {holders})")
        return best

    def _resident(self, digest: str) -> RegistryShard:
        """A shard holding *digest* at rest: its placement first, then
        any shard (a copy a rebalance has not yet released)."""
        for shard in map(self._by_name.__getitem__,
                         self.blob_holders(digest)):
            if shard.has_blob(digest):
                return shard
        for shard in self.shards:
            if shard.has_blob(digest):
                return shard
        raise FleetError(f"{self.name}: no blob {digest[:19]}...")

    # -- blob plane: ring placement over the shards ------------------------

    def has_blob(self, digest: str) -> bool:
        return any(s.has_blob(digest) for s in self.shards)

    def blob_size(self, digest: str) -> int:
        return self._resident(digest).blob_size(digest)

    def blob_at_rest(self, digest: str) -> bytes:
        return self._resident(digest).fetch_blob(digest)

    def storage_bytes(self) -> int:
        """Bytes at rest across all shards (replication included)."""
        return sum(s.storage_bytes() for s in self.shards)

    def _store_blob(self, digest: str, blob: bytes) -> bool:
        """Write *blob* to its first live holder and fill the other live
        holders shard-to-shard.  Every placement is counted as pushed."""
        now = self._now()
        live = [s for s in map(self._by_name.__getitem__,
                               self.blob_holders(digest))
                if self._is_live(s, now)]
        if not live:
            raise FleetError(
                f"{self.name}: no live shard to place {digest[:19]}...")
        primary = live[0]
        primary.hold(digest, blob)
        fill = [s for s in live[1:] if not s.has_blob(digest)]
        if fill:
            self._fill(primary, [digest], fill)
        return True

    def _serve_blob(self, digest: str) -> bytes:
        """Ring routing and admission, then the shard serves."""
        shard = self._route(digest)
        if self.clock is not None:
            now = self._now()
            shard.check_admission(now)
            shard.reserve(now, shard.blob_size(digest))
        return shard.serve(digest)

    def _drop_blob(self, digest: str) -> None:
        for shard in self.shards:
            shard.drop(digest)

    def _fill(self, origin: RegistryShard, digests: Sequence[str],
              targets: Sequence[RegistryShard]) -> None:
        """Peer-to-peer shard fill: re-use the binomial-tree broadcast to
        move *digests* from *origin* to *targets*, shard links only —
        the origin is hit once per blob, peers re-serve.  The moved bytes
        are accounted as rebalance traffic, not client traffic."""
        from .broadcast import distribute_blobs, make_deploy_topology
        topo = make_deploy_topology(origin, targets)
        rep = distribute_blobs(origin, list(digests), targets, topo,
                               strategy="tree")
        moved = rep.registry_egress_bytes + rep.peer_bytes
        self.rebalance_bytes += moved
        self.rebalance_blobs += rep.blobs * len(targets)
        for shard in targets:
            for digest in digests:
                shard.hold(digest)
        if self.tracer is not None:
            self.tracer.metrics.count_net("fleet_rebalance_bytes", moved)

    # -- the workload generator's request path -----------------------------

    def timed_pull(self, ref: ImageRef | str, *,
                   now: Optional[float] = None,
                   token: Optional[str] = None) -> float:
        """One workload-generator pull: route and *admission-check every
        layer first* (all-or-nothing, so a rejected request reserves no
        service and no bytes are double-counted on retry), then reserve
        and serve; returns the virtual completion time."""
        if isinstance(ref, str):
            ref = ImageRef.parse(ref)
        now = self._now() if now is None else now
        tenant = self._tenant_of(ref.repository)
        self._authorize(tenant, token, "pull")
        if self.fault_injector is not None:
            self.fault_injector.check("fetch_blob")
        manifest = self.manifest(ref)
        self._verify_served(ref, manifest)
        planned: list[tuple[RegistryShard, str, int]] = []
        pending: dict[str, int] = {}
        for digest in manifest.layers:
            shard = self._route(digest)
            shard.check_admission(now, extra=pending.get(shard.name, 0))
            pending[shard.name] = pending.get(shard.name, 0) + 1
            planned.append((shard, digest, shard.blob_size(digest)))
        end = now
        for shard, digest, size in planned:
            end = max(end, shard.reserve(now, size))
            blob = shard.serve(digest)
            self.stats.blobs_pulled += 1
            self.stats.bytes_pulled += len(blob)
        if tenant is not None:
            tenant.pulls += 1
        return end

    # -- fleet operations --------------------------------------------------

    def crash_shard(self, name: str) -> None:
        """Mark a shard dead (tests / explicit ops; fault plans do this
        on the clock instead).  Reads re-route to the replicas."""
        self._by_name[name].alive = False

    def restore_shard(self, name: str) -> None:
        self._by_name[name].alive = True
        self.repair()

    def add_shard(self, *, queue_limit: Optional[int] = None) -> RegistryShard:
        """Grow the fleet by one shard and rebalance: only the ~K/N keys
        the ring moves are filled (peer-to-peer), and shards that are no
        longer holders release their copies."""
        shard = RegistryShard(
            f"{self.name}.s{len(self.shards):02d}",
            queue_limit=(queue_limit if queue_limit is not None
                         else self.shards[0].queue_limit),
            service_bandwidth=self.shards[0].service_bandwidth,
            service_latency=self.shards[0].service_latency)
        self.shards.append(shard)
        self._by_name[shard.name] = shard
        self.ring.add(shard.name)
        self.rebalance()
        return shard

    def rebalance(self) -> int:
        """Converge every known blob onto its current holder set: fill
        missing replicas shard-to-shard (grouped by origin so the tree
        broadcast batches), then release copies on ex-holders — in that
        order, since an ex-holder may be the only origin of a fill.  An
        ex-holder keeps its copy while a crashed holder lacks the blob:
        it may be the last copy.  Returns the number of blob movements."""
        now = self._now()
        moved = 0
        fills: dict[str, dict[str, list[str]]] = {}  # origin -> target -> d
        release: list[tuple[RegistryShard, str]] = []
        for digest in sorted(self._blobs):
            holders = self.blob_holders(digest)
            current = [s for s in self.shards if s.has_blob(digest)]
            sources = [s for s in current if self._is_live(s, now)]
            if not sources:
                continue
            origin = sources[0].name
            placed = True
            for name in holders:
                shard = self._by_name[name]
                if shard.has_blob(digest):
                    continue
                if self._is_live(shard, now):
                    fills.setdefault(origin, {}).setdefault(
                        name, []).append(digest)
                    moved += 1
                else:
                    placed = False
            if placed:
                release.extend((s, digest) for s in current
                               if s.name not in holders)
        for origin, by_target in sorted(fills.items()):
            # batch: all targets missing the same digest set fill in one
            # tree; otherwise per-target
            by_digests: dict[tuple, list[RegistryShard]] = {}
            for target, digests in sorted(by_target.items()):
                by_digests.setdefault(tuple(digests), []).append(
                    self._by_name[target])
            for digests, targets in by_digests.items():
                self._fill(self._by_name[origin], list(digests), targets)
        for shard, digest in release:
            shard.drop(digest)
        return moved

    def repair(self) -> int:
        """Re-fill replicas after a shard returns (alias of rebalance)."""
        return self.rebalance()

    # -- reporting ---------------------------------------------------------

    def hit_ratio(self) -> float:
        """Front-door pull hit ratio: fraction of requested blobs served
        from the caller's local CAS instead of shard egress."""
        served = self.stats.blobs_pulled + self.stats.blobs_pull_skipped
        return self.stats.blobs_pull_skipped / served if served else 0.0

    def report(self) -> dict:
        return {
            "fleet": self.name,
            "shards": len(self.shards),
            "replicas": self.replicas,
            "tenants": sorted(self.tenants),
            "stats": self.stats.as_dict(),
            "hit_ratio": round(self.hit_ratio(), 6),
            "rebalance_bytes": self.rebalance_bytes,
            "rebalance_blobs": self.rebalance_blobs,
            "per_shard": {s.name: s.as_dict() for s in self.shards},
        }


def deploy_fleet(world, *, n_shards: int, replicas: int = 1,
                 name: Optional[str] = None, **kwargs) -> RegistryFleet:
    """Replace *world*'s site registry with a fleet of *n_shards*.

    The fleet takes over the old registry's whole metadata table
    (manifests, signatures, attestations, cache pointers, tenants) and
    re-places its blobs through the ring, so already-published images
    stay pullable and verifiable; the network entry and
    ``world.site_registry`` both point at the fleet afterwards, so every
    workflow (Podman push, ch-image pull, tree broadcast) routes through
    it transparently.
    """
    old = world.site_registry
    if isinstance(old, RegistryFleet):
        return old
    fleet = RegistryFleet(name or old.name, n_shards=n_shards,
                          replicas=replicas, **kwargs)
    fleet.take_over(old)
    world.network.registries[fleet.name] = fleet
    world.site_registry = fleet
    return fleet
