"""Image references, manifests, and registry behaviour."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.archive import TarArchive, TarMember
from repro.containers import ImageConfig, ImageRef, Manifest, Registry
from repro.errors import RegistryError, SupplyPolicyError
from repro.kernel import FileType
from repro.supply import KeyRegistry, PolicyGate, SupplyPolicy


def layer(name: str, data: bytes = b"payload") -> TarArchive:
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0, data=data)])


class TestImageRef:
    @pytest.mark.parametrize(
        "text,repo,tag,registry",
        [
            ("centos:7", "centos", "7", None),
            ("centos", "centos", "latest", None),
            ("debian:buster", "debian", "buster", None),
            ("library/ubuntu:20.04", "library/ubuntu", "20.04", None),
            ("gitlab.lanl.gov/app:v1", "app", "v1", "gitlab.lanl.gov"),
            ("localhost/foo", "foo", "latest", "localhost"),
        ],
    )
    def test_parse(self, text, repo, tag, registry):
        ref = ImageRef.parse(text)
        assert ref.repository == repo
        assert ref.tag == tag
        assert ref.registry == registry

    def test_parse_invalid(self):
        with pytest.raises(RegistryError):
            ImageRef.parse("UPPER CASE!!")

    def test_str_roundtrip(self):
        assert str(ImageRef.parse("gitlab.x.gov/a/b:v2")) == \
            "gitlab.x.gov/a/b:v2"

    def test_flat_name(self):
        assert "/" not in ImageRef.parse("a/b:c").flat_name
        assert ":" not in ImageRef.parse("a/b:c").flat_name


class TestRegistry:
    def test_push_pull_roundtrip(self):
        r = Registry("hub")
        cfg = ImageConfig(arch="x86_64", env=("A=1",))
        r.push("app:v1", cfg, [layer("f1"), layer("f2", b"other")])
        config, layers = r.pull("app:v1")
        assert config.env == ("A=1",)
        assert [m.path for l in layers for m in l] == ["f1", "f2"]
        assert all(map(r.has_blob, r.image_blob_digests("app:v1")))
        assert not r.has_blob("sha256:" + "0" * 64)

    def test_pull_unknown(self):
        with pytest.raises(RegistryError):
            Registry("hub").pull("nope:1")

    def test_blob_dedup_on_push(self):
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        r.push("a:1", ImageConfig(), [base, layer("d1", b"1")])
        before = r.stats.bytes_pushed
        r.push("a:2", ImageConfig(), [base, layer("d2", b"2")])
        # base layer not re-sent
        assert r.stats.blobs_push_skipped == 1
        assert r.stats.bytes_pushed - before < base.serialize().__len__()

    def test_multiarch_variants(self):
        r = Registry("hub")
        r.push("centos:7", ImageConfig(arch="x86_64"), [layer("x")])
        r.push("centos:7", ImageConfig(arch="aarch64"), [layer("a")])
        cfg, _ = r.pull("centos:7", arch="aarch64")
        assert cfg.arch == "aarch64"
        with pytest.raises(RegistryError):
            r.pull("centos:7")  # ambiguous without arch

    def test_single_arch_served_for_any_platform(self):
        """The laptop trap: an x86-only image pulls fine on aarch64."""
        r = Registry("hub")
        r.push("app:v1", ImageConfig(arch="x86_64"), [layer("x")])
        cfg, _ = r.pull("app:v1", arch="aarch64")
        assert cfg.arch == "x86_64"

    def test_tags_and_repositories(self):
        r = Registry("hub")
        r.push("app:v1", ImageConfig(), [layer("x")])
        r.push("app:v2", ImageConfig(), [layer("y")])
        r.push("other:1", ImageConfig(), [layer("z")])
        assert r.tags("app") == ["v1", "v2"]
        assert r.repositories() == ["app", "other"]

    def test_history_persists_old_manifests(self):
        """§4.2: registry persistence for debugging old versions."""
        r = Registry("hub")
        r.push("app:v1", ImageConfig(labels=(("gen", "1"),)), [layer("x")])
        r.push("app:v1", ImageConfig(labels=(("gen", "2"),)),
               [layer("x", b"new")])
        assert len(r.history("app")) == 2

    def test_empty_image_rejected(self):
        with pytest.raises(RegistryError):
            Registry("hub").push("a:1", ImageConfig(), [])

    def test_pull_counts_bytes(self):
        r = Registry("hub")
        r.push("a:1", ImageConfig(), [layer("x", b"d" * 50)])
        r.pull("a:1")
        assert r.stats.blobs_pulled == 1
        assert r.stats.bytes_pulled > 0

    def test_push_skip_counts_bytes_saved(self):
        """The dedup saving is measured in bytes, not just blob counts."""
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        size = len(base.serialize())
        r.push("a:1", ImageConfig(), [base])
        assert r.stats.bytes_push_skipped == 0
        r.push("a:2", ImageConfig(), [base])
        assert r.stats.blobs_push_skipped == 1
        assert r.stats.bytes_push_skipped == size
        assert r.stats.bytes_pushed == size  # stored exactly once

    def test_stats_as_dict(self):
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        r.push("a:1", ImageConfig(), [base])
        r.push("a:2", ImageConfig(), [base])
        r.pull("a:1")
        d = r.stats.as_dict()
        assert set(d) == {"blobs_pushed", "blobs_push_skipped",
                          "bytes_pushed", "bytes_push_skipped",
                          "blobs_pulled", "bytes_pulled",
                          "blobs_pull_skipped", "bytes_pull_skipped"}
        assert d["blobs_push_skipped"] == 1
        assert d["bytes_push_skipped"] == len(base.serialize())
        assert all(isinstance(v, int) for v in d.values())

    def test_pull_skip_counts_local_blobs(self):
        """A node whose local CAS already holds a layer does not re-pull
        it over the wire (the pull-side mirror of push dedup)."""
        from repro.cas import ContentStore
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        size = len(base.serialize())
        r.push("a:1", ImageConfig(), [base])
        node_store = ContentStore()
        r.pull("a:1", local_store=node_store)          # first pull: wire
        assert r.stats.blobs_pulled == 1
        assert r.stats.blobs_pull_skipped == 0
        r.pull("a:1", local_store=node_store)          # second: local hit
        assert r.stats.blobs_pulled == 1               # unchanged
        assert r.stats.blobs_pull_skipped == 1
        assert r.stats.bytes_pull_skipped == size
        # a different node with an empty store still pays the wire cost
        r.pull("a:1", local_store=ContentStore())
        assert r.stats.blobs_pulled == 2


class TestSharedContentStore:
    """Registries backed by one CAS dedup blobs across services."""

    def test_cross_registry_dedup(self):
        from repro.cas import ContentStore
        store = ContentStore()
        hub = Registry("hub", store=store)
        site = Registry("site", store=store)
        base = layer("base", b"x" * 100)
        hub.push("a:1", ImageConfig(), [base])
        site.push("b:1", ImageConfig(), [base])
        # the second service never re-stored the bytes...
        assert site.stats.blobs_push_skipped == 1
        assert store.blob_count == 1
        # ...but both account for (and can serve) them
        assert hub.storage_bytes() == site.storage_bytes() > 0
        _, layers = site.pull("b:1")
        assert layers[0].digest() == base.digest()

    def test_registry_blobs_survive_store_gc(self):
        from repro.cas import ContentStore
        store = ContentStore()
        r = Registry("hub", store=store)
        r.push("a:1", ImageConfig(), [layer("x")])
        orphan = store.put(b"nobody references this")
        assert store.gc() == [orphan]
        assert r.pull("a:1")  # still servable

    def test_cache_manifest_roundtrip(self):
        r = Registry("hub")
        blobs = [b"diff one", b"diff two"]
        digest = r.push_cache("alice/cache:latest", b'{"v": 1}', blobs)
        assert r.has_cache("alice/cache:latest")
        assert not r.has_cache("alice/other:latest")
        manifest, fetch = r.pull_cache("alice/cache:latest")
        assert manifest == b'{"v": 1}'
        from repro.cas import blob_digest
        assert fetch(blob_digest(b"diff one")) == b"diff one"
        with pytest.raises(RegistryError):
            r.pull_cache("alice/missing:1")


class TestManifest:
    def test_digests_are_stable(self):
        cfg = ImageConfig(arch="x86_64")
        assert cfg.digest() == ImageConfig(arch="x86_64").digest()
        assert cfg.digest() != ImageConfig(arch="aarch64").digest()

    def test_config_history(self):
        cfg = ImageConfig().with_history("step 1").with_history("step 2")
        assert cfg.history == ("step 1", "step 2")


def fresh_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def config_oracle(cfg: ImageConfig) -> str:
    """The config digest hashed afresh from its canonical body."""
    return fresh_digest(repr(cfg))


def manifest_oracle(manifest: Manifest) -> str:
    return fresh_digest(config_oracle(manifest.config)
                        + "".join(manifest.layers))


TEXT = st.text("abcxyz=/ 0123", max_size=8)
CONFIGS = st.builds(ImageConfig,
                    arch=st.sampled_from(["x86_64", "aarch64"]),
                    env=st.lists(TEXT, max_size=3).map(tuple),
                    history=st.lists(TEXT, max_size=3).map(tuple))
LAYERS = st.lists(st.binary(max_size=16).map(
    lambda b: fresh_digest(b.hex())), min_size=1, max_size=4).map(tuple)


class TestDigestMemo:
    """``Manifest.digest()`` and ``ImageConfig.digest()`` hash once per
    object; the memo must never be visible or outlive its content."""

    @given(cfg=CONFIGS, layers=LAYERS)
    def test_digest_is_sha256_of_the_canonical_body(self, cfg, layers):
        manifest = Manifest(config=cfg, layers=layers)
        for _ in range(2):                 # the hashing call, then the memo
            assert cfg.digest() == config_oracle(cfg)
            assert manifest.digest() == manifest_oracle(manifest)

    @given(cfg=CONFIGS, layers=LAYERS, other=LAYERS)
    def test_replace_yields_a_fresh_digest(self, cfg, layers, other):
        manifest = Manifest(config=cfg, layers=layers)
        manifest.digest()
        swapped = replace(manifest, layers=other)
        assert swapped.digest() == manifest_oracle(swapped)
        assert (swapped.digest() == manifest.digest()) == (other == layers)
        history = cfg.with_history("RUN true")
        cfg.digest()
        assert history.digest() == config_oracle(history) != cfg.digest()

    def test_equality_hash_and_repr_ignore_the_memo(self):
        cfg, twin_cfg = ImageConfig(env=("A=1",)), ImageConfig(env=("A=1",))
        manifest = Manifest(config=cfg, layers=(fresh_digest("l"),))
        twin = Manifest(config=twin_cfg, layers=(fresh_digest("l"),))
        before = repr(manifest)
        manifest.digest()                  # memoizes on manifest and cfg
        assert manifest == twin and cfg == twin_cfg
        assert hash(manifest) == hash(twin) and hash(cfg) == hash(twin_cfg)
        assert repr(manifest) == repr(twin) == before
        assert repr(cfg) == repr(twin_cfg)
        assert cfg.digest() == twin_cfg.digest()

    def test_tampered_manifest_is_rejected_after_the_original_verified(self):
        keys = KeyRegistry(seed=0)
        reg = Registry("site")
        reg.signer = keys.signer("site-ci")
        gate = PolicyGate(SupplyPolicy(require_sbom=False,
                                       require_provenance=False), keys=keys)
        original = reg.push("app:v1", ImageConfig(),
                            [layer("bin", b"b" * 100), layer("lib")])
        gate.verify_pull(reg, "app:v1", original)
        tampered = replace(original, layers=(original.layers[0],
                                             fresh_digest("forged")))
        with pytest.raises(SupplyPolicyError, match="does not match"):
            gate.verify_pull(reg, "app:v1", tampered)
        reg.policy_gate = gate
        reg.put_manifest("app:v1", tampered)
        with pytest.raises(SupplyPolicyError):
            reg.pull("app:v1")
        assert reg.stats.bytes_pulled == 0
