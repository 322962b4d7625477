"""Stateful property test: a fleet under churn behaves like one registry.

A Hypothesis ``RuleBasedStateMachine`` drives a :class:`RegistryFleet`
of 1–4 shards (any replica count up to the shard count) through pushes
(with and without attestations, with good, bad, and missing tokens),
pulls, cache pushes and pulls, shard crashes and restores, shard
additions, rebalances, and repairs.  A plain :class:`Registry` with the
same tenants is the model: it is fed every operation the fleet accepted.

Invariants:

* every tenant's ledger equals the unique bytes it has resident, on the
  fleet and on the model alike;
* after ``repair`` (and ``rebalance``, ``restore_shard``, ``add_shard``,
  which run it), every blob of every manifest that still has a live copy
  is held by every live shard of its placement — ``min(R, live)`` live
  holders whenever its placement is all live — and, once its whole
  placement holds it, by no other shard (an ex-holder keeps its copy
  while a crashed placement shard lacks the blob: it may be the last);
* the ring's placement memo never goes stale: after every rule, each
  known digest's holders equal those of a freshly built ring over the
  same shards (a memo kept across ``add_shard`` would fail this);
* every successful pull and cache pull is digest-identical to the
  model's, and a request the fleet refuses for auth or quota the model
  refuses with the same exception type.  The fleet may additionally fail
  a request with :class:`FleetError` when no live shard can place or
  serve a blob — never with anything else.
"""

import json

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.archive import TarArchive, TarMember
from repro.cas.store import blob_digest
from repro.cluster import HashRing, RegistryFleet
from repro.cluster.fleet import FleetAuthError, FleetError, FleetQuotaError
from repro.containers import ImageConfig, Registry
from repro.kernel import FileType
from repro.supply import KeyRegistry

TENANTS = {"alice": "tok-a", "bob": "tok-b"}   # "open" is unregistered
NAMESPACES = ["alice", "bob", "open"]
QUOTA = 24_000
MAX_SHARDS = 6


def layer(seed: int) -> TarArchive:
    data = bytes([seed % 251]) * (600 + 97 * seed)
    return TarArchive([TarMember(f"f{seed}", FileType.REG, 0o644, 0, 0,
                                 data=data)])


def digests_of(layers) -> list[str]:
    return [blob_digest(a.serialize()) for a in layers]


def provision(registry: Registry) -> Registry:
    registry.signer = KeyRegistry(seed=0).signer("site-ci")
    for name, token in TENANTS.items():
        registry.add_tenant(name, token=token, quota_bytes=QUOTA,
                            public=name == "bob")
    return registry


class FleetVersusRegistry(RuleBasedStateMachine):
    @initialize(n_shards=st.integers(1, 4), data=st.data())
    def setup(self, n_shards, data):
        replicas = data.draw(st.integers(1, n_shards), label="replicas")
        self.fleet = provision(RegistryFleet("site", n_shards=n_shards,
                                             replicas=replicas))
        self.model = provision(Registry("model"))
        self.images: list[str] = []
        self.caches: list[str] = []
        self.version = 0

    # -- helpers -----------------------------------------------------------

    def token(self, ns: str, choice: str):
        return {"good": TENANTS.get(ns), "bad": "nope", "none": None}[choice]

    def both(self, op, *args, **kwargs):
        """Run *op* on the fleet; on success replay it on the model and
        return both results; on an auth/quota refusal, check the model
        refuses alike.  Returns None when the request did not succeed."""
        try:
            got = getattr(self.fleet, op)(*args, **kwargs)
        except (FleetAuthError, FleetQuotaError) as err:
            try:
                getattr(self.model, op)(*args, **kwargs)
            except type(err):
                return None
            raise AssertionError(f"model accepted what the fleet refused "
                                 f"with {type(err).__name__}")
        except FleetError:
            return None              # no live shard to place or serve
        return got, getattr(self.model, op)(*args, **kwargs)

    def live_names(self) -> set[str]:
        return {s.name for s in self.fleet.live_shards()}

    # -- requests ----------------------------------------------------------

    @rule(ns=st.sampled_from(NAMESPACES),
          tok=st.sampled_from(["good", "good", "bad", "none"]),
          seeds=st.lists(st.integers(0, 30), min_size=1, max_size=3),
          attest=st.booleans())
    def push(self, ns, tok, seeds, attest):
        self.version += 1
        ref = f"{ns}/app:v{self.version}"
        atts = {"sbom": json.dumps({"seeds": seeds}).encode()} \
            if attest else None
        out = self.both("push", ref, ImageConfig(),
                        [layer(s) for s in seeds],
                        token=self.token(ns, tok), attestations=atts)
        if out is not None:
            assert out[0].digest() == out[1].digest()
            self.images.append(ref)

    @precondition(lambda self: self.images)
    @rule(data=st.data(), tok=st.sampled_from(["good", "bad", "none"]))
    def pull(self, data, tok):
        ref = data.draw(st.sampled_from(self.images), label="ref")
        ns = ref.split("/", 1)[0]
        out = self.both("pull", ref, token=self.token(ns, tok))
        if out is not None:
            (c1, l1), (c2, l2) = out
            assert c1 == c2
            assert digests_of(l1) == digests_of(l2)
            assert self.fleet.signatures_of(ref) \
                == self.model.signatures_of(ref)
            assert self.fleet.attestation_digests(ref) \
                == self.model.attestation_digests(ref)

    @rule(ns=st.sampled_from(NAMESPACES),
          tok=st.sampled_from(["good", "good", "bad"]),
          seeds=st.lists(st.integers(31, 50), min_size=1, max_size=3,
                         unique=True))
    def push_cache(self, ns, tok, seeds):
        self.version += 1
        ref = f"{ns}/cache:v{self.version}"
        diffs = [bytes([s]) * (300 + s) for s in seeds]
        manifest = json.dumps({"records": [
            {"diff": blob_digest(d)} for d in diffs]}).encode()
        out = self.both("push_cache", ref, manifest, diffs,
                        token=self.token(ns, tok))
        if out is not None:
            assert out[0] == out[1]
            self.caches.append(ref)

    @precondition(lambda self: self.caches)
    @rule(data=st.data())
    def pull_cache(self, data):
        ref = data.draw(st.sampled_from(self.caches), label="ref")
        ns = ref.split("/", 1)[0]
        out = self.both("pull_cache", ref, token=self.token(ns, "good"))
        if out is None:
            return
        (m1, fetch1), (m2, fetch2) = out
        assert m1 == m2
        wanted = self.model.cache_blob_digests(ref)
        assert self.fleet.cache_blob_digests(ref) == wanted
        for digest in wanted[:-1]:
            try:
                blob = fetch1(digest)
            except FleetError:
                continue             # no live holder of this diff
            assert blob == fetch2(digest)
            assert blob_digest(blob) == digest

    # -- fleet operations --------------------------------------------------

    @rule(i=st.integers(0, MAX_SHARDS - 1))
    def crash(self, i):
        shards = self.fleet.shards
        self.fleet.crash_shard(shards[i % len(shards)].name)

    @rule(i=st.integers(0, MAX_SHARDS - 1))
    def restore(self, i):
        shards = self.fleet.shards
        self.fleet.restore_shard(shards[i % len(shards)].name)
        self.check_placement()

    @precondition(lambda self: len(self.fleet.shards) < MAX_SHARDS)
    @rule()
    def add_shard(self):
        self.fleet.add_shard()
        self.check_placement()

    @rule()
    def rebalance(self):
        self.fleet.rebalance()
        self.check_placement()

    @rule()
    def repair(self):
        self.fleet.repair()
        self.check_placement()

    # -- invariants --------------------------------------------------------

    def check_placement(self):
        live = self.live_names()
        for ref in self.images:
            for digest in self.fleet.image_blob_digests(ref):
                holding = {s.name for s in self.fleet.shards
                           if s.has_blob(digest)}
                if not holding & live:
                    continue         # every copy is on a crashed shard
                placement = set(self.fleet.blob_holders(digest))
                assert placement & live <= holding, \
                    f"{digest[:19]}: live placement not filled"
                if placement <= holding:
                    assert holding == placement, \
                        f"{digest[:19]}: ex-holder kept its copy"
                if placement <= live:
                    assert len(holding & live) == min(
                        self.fleet.replicas, len(live))

    @invariant()
    def placement_memo_matches_a_fresh_ring(self):
        ring = self.fleet.ring
        fresh = HashRing(ring.shards, vnodes=ring.vnodes)
        known = {d for ref in self.images
                 for d in self.fleet.image_blob_digests(ref)}
        known.update(d for ref in self.caches
                     for d in self.fleet.cache_blob_digests(ref))
        for digest in sorted(known):
            assert ring.holders(digest, self.fleet.replicas) \
                == fresh.holders(digest, self.fleet.replicas), \
                f"{digest[:19]}: stale placement memo"

    @invariant()
    def ledgers_equal_resident_bytes(self):
        for name in TENANTS:
            tenant = self.fleet.tenants[name]
            total = 0
            for digest in tenant.digests:
                assert self.fleet.has_blob(digest), \
                    f"{name} charged for unstored {digest[:19]}..."
                total += self.fleet.blob_size(digest)
            assert tenant.bytes_used == total
            model = self.model.tenants[name]
            assert (tenant.bytes_used, tenant.digests) \
                == (model.bytes_used, model.digests)


FleetVersusRegistry.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much])
TestFleetVersusRegistry = FleetVersusRegistry.TestCase
