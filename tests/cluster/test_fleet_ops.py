"""Fleet operations that move blobs between stores: growing the fleet
(``add_shard``) and swapping a fleet in for a registry (``deploy_fleet``).

Regressions pinned here: ``add_shard`` released an ex-holder's copy
before filling the new shard from it; a repair released an ex-holder's
last copy while the blob's new holder was down; and ``deploy_fleet``
re-pushed manifests only, dropping signatures and cache manifests.
"""

import json
from types import SimpleNamespace

import pytest

from repro.archive import TarArchive, TarMember
from repro.cas.store import blob_digest
from repro.cluster import RegistryFleet, deploy_fleet
from repro.cluster.fleet import FleetAuthError
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
