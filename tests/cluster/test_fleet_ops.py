"""Fleet operations that move blobs between stores: growing the fleet
(``add_shard``) and swapping a fleet in for a registry (``deploy_fleet``),
and the shard admission queue those requests pass through.

Regressions pinned here: ``add_shard`` released an ex-holder's copy
before filling the new shard from it; a repair released an ex-holder's
last copy while the blob's new holder was down; and ``deploy_fleet``
re-pushed manifests only, dropping signatures and cache manifests.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.archive import TarArchive, TarMember
from repro.cas.store import blob_digest
from repro.cluster import RegistryFleet, deploy_fleet
from repro.cluster.fleet import (FleetAuthError, FleetOverloadError,
                                 RegistryShard)
from repro.containers import ImageConfig, Registry
from repro.kernel import FileType
from repro.supply import KeyRegistry


def layer(name, data):
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=data)])


def payload(i):
    return bytes([i % 251]) * (1000 + i)


class TestAddShard:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_every_image_still_pulls(self, replicas):
        fleet = RegistryFleet("site", n_shards=2, replicas=replicas)
        refs = [f"app:v{i}" for i in range(20)]
        for i, ref in enumerate(refs):
            fleet.push(ref, ImageConfig(), [layer("bin", payload(i))])
        fleet.add_shard()
        for i, ref in enumerate(refs):
            _, layers = fleet.pull(ref)
            assert layers[0].members[0].data == payload(i)

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_only_the_moved_keys_are_filled(self, replicas):
        fleet = RegistryFleet("site", n_shards=2, replicas=replicas)
        digests = set()
        for i in range(20):
            manifest = fleet.push(f"app:v{i}", ImageConfig(),
                                  [layer("bin", payload(i))])
            digests.update(manifest.layers)
        filled = fleet.rebalance_blobs
        new = fleet.add_shard()
        moved = {d for d in digests if new.name in fleet.blob_holders(d)}
        assert moved, "the ring moved no key onto the new shard"
        assert new.owned == moved
        assert fleet.rebalance_blobs - filled == len(moved)
        # every shard now holds exactly its placement: ex-holders let go
        for shard in fleet.shards:
            assert shard.owned == {d for d in digests
                                   if shard.name in fleet.blob_holders(d)}

    def test_repair_keeps_the_last_copy_while_its_holder_is_down(self):
        """A blob stranded on a crashed ex-holder when the ring moved it
        to a new shard must survive a repair that runs while the new
        holder is down in turn — the ex-holder has the only copy."""
        fleet = RegistryFleet("site", n_shards=1, replicas=1)
        refs = [f"app:v{i}" for i in range(20)]
        for i, ref in enumerate(refs):
            fleet.push(ref, ImageConfig(), [layer("bin", payload(i))])
        old = fleet.shards[0]
        fleet.add_shard()
        fleet.crash_shard(old.name)
        new = fleet.add_shard()            # no live copy to fill it from
        stranded = {d for d in old.owned
                    if fleet.blob_holders(d) == [new.name]}
        assert stranded and not any(new.has_blob(d) for d in stranded)
        fleet.crash_shard(new.name)
        fleet.restore_shard(old.name)      # repair with the holder down
        assert all(old.has_blob(d) for d in stranded)
        fleet.restore_shard(new.name)
        assert stranded <= new.owned and not stranded & old.owned
        for i, ref in enumerate(refs):
            _, layers = fleet.pull(ref)
            assert layers[0].members[0].data == payload(i)


class TestDeployFleetCarriesMetadata:
    CACHE_DIFF = b"diff-blob" * 100

    def site_world(self):
        site = Registry("site")
        site.signer = KeyRegistry(seed=0).signer("site-ci")
        site.push("hpc/app:v1", ImageConfig(), [layer("bin", b"x" * 2000)])
        cache = json.dumps({"records": [
            {"diff": blob_digest(self.CACHE_DIFF)}]}).encode()
        site.push_cache("hpc/app:cache", cache, [self.CACHE_DIFF])
        world = SimpleNamespace(
            site_registry=site,
            network=SimpleNamespace(registries={"site": site}))
        return world, site, cache

    def test_signatures_and_cache_manifests_survive(self):
        world, site, cache = self.site_world()
        assert len(site.signatures_of("hpc/app:v1")) == 1
        fleet = deploy_fleet(world, n_shards=2)
        assert world.site_registry is fleet
        assert world.network.registries["site"] is fleet
        assert fleet.signatures_of("hpc/app:v1") \
            == site.signatures_of("hpc/app:v1")
        assert fleet.has_cache("hpc/app:cache")
        manifest, fetch = fleet.pull_cache("hpc/app:cache")
        assert manifest == cache
        assert fetch(blob_digest(self.CACHE_DIFF)) == self.CACHE_DIFF
        assert fleet.cache_blob_digests("hpc/app:cache") \
            == site.cache_blob_digests("hpc/app:cache")
        assert fleet.history("hpc") == site.history("hpc")
        _, layers = fleet.pull("hpc/app:v1")
        assert layers[0].members[0].data == b"x" * 2000

    def test_blobs_are_placed_through_the_ring(self):
        world, site, _ = self.site_world()
        fleet = deploy_fleet(world, n_shards=3, replicas=2)
        digests = site.image_blob_digests("hpc/app:v1") \
            + site.cache_blob_digests("hpc/app:cache")
        for digest in digests:
            holding = {s.name for s in fleet.shards if s.has_blob(digest)}
            assert holding == set(fleet.blob_holders(digest))

    def test_attestations_and_tenants_survive(self):
        world, site, _ = self.site_world()
        site.add_tenant("alice", token="tok", quota_bytes=100_000)
        site.push("alice/app:v1", ImageConfig(), [layer("lib", b"y" * 900)],
                  token="tok", attestations={"sbom": b'{"packages":[]}'})
        used = site.tenant_stats("alice")["bytes_used"]
        fleet = deploy_fleet(world, n_shards=2)
        assert fleet.fetch_attestation("alice/app:v1", "sbom") \
            == b'{"packages":[]}'
        assert fleet.tenant_stats("alice")["bytes_used"] == used
        with pytest.raises(FleetAuthError):
            fleet.pull("alice/app:v1")
        _, layers = fleet.pull("alice/app:v1", token="tok")
        assert layers[0].members[0].data == b"y" * 900


class TestSingleRegistryTenancy:
    """Tenancy lives in the shared request path, so a single registry
    enforces tokens and quotas exactly like a fleet."""

    def test_private_namespace_needs_the_token(self):
        reg = Registry("site")
        reg.add_tenant("alice", token="tok")
        with pytest.raises(FleetAuthError):
            reg.push("alice/app:v1", ImageConfig(), [layer("bin", b"z")])
        reg.push("alice/app:v1", ImageConfig(), [layer("bin", b"z")],
                 token="tok")
        with pytest.raises(FleetAuthError):
            reg.pull("alice/app:v1")
        assert reg.tenant_stats("alice")["pushes"] == 1

    def test_unregistered_namespace_stays_open(self):
        reg = Registry("site")
        reg.add_tenant("alice", token="tok")
        reg.push("carol/app:v1", ImageConfig(), [layer("bin", b"z")])
        _, layers = reg.pull("carol/app:v1")
        assert len(layers) == 1


class ListQueue:
    """The admission queue as a list filter: every read rescans all the
    in-flight end times.  The oracle of :class:`RegistryShard`'s sorted
    deque, which trims done ends off its front instead."""

    def __init__(self, limit, bandwidth, latency):
        self.limit, self.bandwidth, self.latency = limit, bandwidth, latency
        self.busy_until = 0.0
        self.completions = []
        self.depth_max = 0
        self.rejected = 0

    def queue_depth(self, now):
        self.completions = [t for t in self.completions if t > now]
        return len(self.completions)

    def retry_hint(self, now):
        pending = [t for t in self.completions if t > now]
        return min(pending) if pending else now

    def check_admission(self, now, extra=0):
        """None when admitted, else the ``retry_at`` of the refusal."""
        if self.limit is None or self.queue_depth(now) + extra < self.limit:
            return None
        self.rejected += 1
        return self.retry_hint(now)

    def reserve(self, now, nbytes):
        service = self.latency + nbytes / self.bandwidth
        end = max(now, self.busy_until) + service
        self.busy_until = end
        self.completions.append(end)
        self.depth_max = max(self.depth_max, self.queue_depth(now))
        return end


#: service = 0.25 s + bytes / 4 B/s, so quarter-second steps land
#: ``now`` exactly on an end time (the ``t > now`` boundary) often
OPS = st.tuples(
    st.one_of(st.integers(0, 8).map(lambda k: k / 4),
              st.floats(0.0, 2.0)),            # time since the last op
    st.sampled_from(["admit", "depth", "hint"]),
    st.integers(0, 12),                        # bytes to reserve
    st.integers(0, 3))                         # extra planned ops


class TestAdmissionQueue:
    @given(limit=st.one_of(st.none(), st.integers(1, 6)),
           ops=st.lists(OPS, max_size=60))
    def test_sorted_deque_matches_the_list_filter(self, limit, ops):
        shard = RegistryShard("s", queue_limit=limit,
                              service_bandwidth=4.0, service_latency=0.25)
        model = ListQueue(limit, 4.0, 0.25)
        now = 0.0
        for gap, op, nbytes, extra in ops:
            now += gap
            if op == "depth":
                assert shard.queue_depth(now) == model.queue_depth(now)
            elif op == "hint":
                assert shard.retry_hint(now) == model.retry_hint(now)
            else:
                retry_at = model.check_admission(now, extra)
                try:
                    shard.check_admission(now, extra)
                except FleetOverloadError as err:
                    assert err.retry_at == retry_at
                else:
                    assert retry_at is None
                    assert shard.reserve(now, nbytes) \
                        == model.reserve(now, nbytes)
        assert shard.stats.queue_depth_max == model.depth_max
        assert shard.stats.rejected == model.rejected
        assert shard.queue_depth(now) == model.queue_depth(now)


class TestRouting:
    def test_least_loaded_live_holder_ties_go_to_ring_order(self):
        fleet = RegistryFleet("site", n_shards=3, replicas=3,
                              clock=SimpleNamespace(now=0.0))
        digest = fleet.push("app:v1", ImageConfig(),
                            [layer("bin", payload(1))]).layers[0]
        by_name = {s.name: s for s in fleet.shards}
        first, second, third = map(by_name.get, fleet.blob_holders(digest))
        assert fleet.serving_endpoints(digest) == [first]
        first.reserve(0.0, 1000)
        assert fleet.serving_endpoints(digest) == [second]
        second.reserve(0.0, 1000)
        assert fleet.serving_endpoints(digest) == [third]
        third.reserve(0.0, 1000)
        assert fleet.serving_endpoints(digest) == [first]
        fleet.crash_shard(first.name)
        assert fleet.serving_endpoints(digest) == [second]
