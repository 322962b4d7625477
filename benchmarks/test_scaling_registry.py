"""Registry-fleet scaling: sustained pulls/sec vs shard count.

The ROADMAP's "heavy traffic" axis, measured: the same seeded open-loop
workload (Poisson arrivals, Zipf image popularity, two-tenant mix) is
played against fleets of 1/2/4/8 shards.  A single shard saturates — the
queue grows and the drain makespan stretches — so throughput there is
service capacity; consistent-hash placement plus 2-way replication with
least-queue-depth read fan-out spreads the same offered load across the
fleet, and the acceptance gate is 8 shards sustaining >= 4x the
single-shard pulls/sec with digest-identical deploys.

Emits ``.bench_out/BENCH_registry.json``; ``benchmarks/gate.py`` gates
it on pulls/sec and p99 latency equal to the committed baseline at every
shard level (both are simulated-time values, so any drift is a behaviour
change) and on the replay and deploy identity bits.
"""

import hashlib
from types import SimpleNamespace

from repro.archive import TarArchive, TarMember
from repro.cluster import RegistryFleet, make_astra, make_world
from repro.cluster import fleet as fleet_module
from repro.cluster.astra import astra_build_workflow
from repro.containers import ImageConfig
from repro.containers import oci
from repro.kernel import FileType
from repro.sim import WorkloadSpec, run_workload
from repro.supply import KeyRegistry, PolicyGate, SupplyPolicy

from .conftest import ATSE_DOCKERFILE, report, write_bench

SHARD_LEVELS = (1, 2, 4, 8)

SPEC = WorkloadSpec(seed=17, rate=200.0, duration=5.0, zipf_s=1.1,
                    images=[f"app:v{i}" for i in range(16)],
                    tenants=[("alice", 3.0), ("bob", 1.0)])


def layer(name, data):
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=data)])


def fresh_fleet(n_shards: int, keys=None) -> RegistryFleet:
    """The seeded image set on a new fleet; with *keys*, every push is
    signed and every pull verifies the signature."""
    fleet = RegistryFleet("site", n_shards=n_shards,
                          replicas=min(2, n_shards))
    if keys is not None:
        fleet.signer = keys.signer("site-ci")
        fleet.policy_gate = PolicyGate(
            SupplyPolicy(require_sbom=False, require_provenance=False),
            keys=keys)
    for i, ref in enumerate(SPEC.refs()):
        fleet.push(ref, ImageConfig(),
                   [layer("bin", bytes([i % 251]) * 3000),
                    layer("lib", bytes([(i * 7) % 251]) * 1500)])
    return fleet


def run_level(n_shards: int):
    fleet = fresh_fleet(n_shards)
    rep = run_workload(fleet, SPEC)
    assert rep.completed == rep.offered, rep.as_dict()
    return rep, fleet


def deploy_trees(registry_shards: int):
    world = make_world()
    cluster = make_astra(world, n_compute=4)
    rep = astra_build_workflow(cluster, "alice", ATSE_DOCKERFILE, "atse",
                               n_nodes=4, registry_shards=registry_shards,
                               registry_replicas=min(2, registry_shards))
    assert rep.success, rep.phases
    return {n.hostname: sorted(n.content_store.digests())
            for n in cluster.scheduler.nodes[:4]}


def test_scaling_registry_fleet():
    """The tentpole gate: 8 shards sustain >= 4x single-shard pulls/sec
    on the seeded Zipf workload, replays are byte-identical, and deploys
    land digest-identical node stores through a fleet.  Emits the
    BENCH_registry.json artifact ``benchmarks/gate.py`` gates."""
    throughput, p99, details = {}, {}, {}
    for n in SHARD_LEVELS:
        rep, fleet = run_level(n)
        throughput[n] = rep.pulls_per_sec
        p99[n] = rep.p99
        details[n] = rep.as_dict()
        # conservation + zero double-counting at every level
        assert rep.completed + rep.dropped + rep.failed == rep.offered
        assert sum(s.stats.served_bytes for s in fleet.shards) \
            == fleet.stats.bytes_pulled

    # more shards never hurt, and the headline gate holds
    assert throughput[8] >= throughput[4] >= throughput[2] >= throughput[1]
    speedup = throughput[8] / throughput[1]
    assert speedup >= 4.0, f"8-shard speedup only {speedup:.2f}x"
    assert p99[8] <= p99[1]

    # seeded replay at 4 shards is byte-identical (the CI identity gate)
    replay_a, _ = run_level(4)
    replay_b, _ = run_level(4)
    assert replay_a.as_dict() == replay_b.as_dict()

    # deploys through a fleet are digest-identical to a single registry
    trees = {n: deploy_trees(n) for n in (1, 4)}
    assert trees[1] == trees[4]

    write_bench("registry", {
        "benchmark": "registry-scaling",
        "workload": {"seed": SPEC.seed, "rate": SPEC.rate,
                     "duration": SPEC.duration, "zipf_s": SPEC.zipf_s,
                     "images": len(SPEC.images),
                     "tenants": [t for t, _ in SPEC.tenants]},
        "shard_levels": list(SHARD_LEVELS),
        "pulls_per_sec": {str(n): round(throughput[n], 6)
                          for n in SHARD_LEVELS},
        "p99_seconds": {str(n): round(p99[n], 9) for n in SHARD_LEVELS},
        "speedup_8_over_1": round(speedup, 6),
        "replay_identical": True,
        "deploys_digest_identical": True,
    })

    report("Registry fleet scaling (seeded Zipf workload)", [
        *((f"pulls/sec N={n}",
           f"{throughput[n]:8.2f} (p99 {p99[n] * 1e3:8.1f} ms, "
           f"{details[n]['completed']} pulls)")
          for n in SHARD_LEVELS),
        ("8-shard speedup", f"{speedup:.2f}x (gate: >= 4x)"),
        ("replay @4 shards", "byte-identical"),
        ("deploy stores", "digest-identical, 1 vs 4 shards"),
    ])


def test_backpressure_under_overload():
    """Bounded queues shed load with retryable 503s instead of melting:
    the same hot workload against a queue-limited single shard completes
    what capacity allows, drops the rest after the retry budget, and
    counts every served byte exactly once."""
    fleet = RegistryFleet("site", n_shards=2, replicas=2, queue_limit=8)
    for i, ref in enumerate(SPEC.refs()):
        fleet.push(ref, ImageConfig(),
                   [layer("bin", bytes([i % 251]) * 3000),
                    layer("lib", bytes([(i * 7) % 251]) * 1500)])
    hot = WorkloadSpec(seed=SPEC.seed, rate=400.0, duration=2.0,
                       zipf_s=SPEC.zipf_s, images=SPEC.images,
                       tenants=SPEC.tenants)
    rep = run_workload(fleet, hot)
    assert rep.overloads > 0
    assert rep.completed + rep.dropped == rep.offered
    assert rep.completed > 0
    per_image = sum(
        fleet.blob_size(d)
        for d in fleet.image_blob_digests(hot.refs()[0]))
    assert fleet.stats.bytes_pulled == rep.completed * per_image

    report("Backpressure under 2x overload (queue_limit=8)", [
        ("offered", str(rep.offered)),
        ("completed", str(rep.completed)),
        ("dropped", str(rep.dropped)),
        ("503s seen", str(rep.overloads)),
        ("retries", str(rep.retries)),
    ])


def counted(fn, calls: list):
    """*fn*, appending each call's arguments to *calls*."""
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


def test_registry_read_path_hashes_each_key_once(monkeypatch):
    """The exact work-count gate of the read path, at 4 shards with a
    signed, verify-on-pull fleet: the ring hashes each vnode point and
    each placed or routed digest once (placement is memoized), and the
    pulls re-hash no manifest or config (their digests are memoized at
    push time, while the signature check still runs on every pull)."""
    ring_keys, oci_hashes, verifies = [], [], []
    monkeypatch.setattr(fleet_module, "_ring_hash",
                        counted(fleet_module._ring_hash, ring_keys))
    monkeypatch.setattr(oci, "hashlib", SimpleNamespace(
        sha256=counted(hashlib.sha256, oci_hashes)))
    keys = KeyRegistry(seed=0)
    monkeypatch.setattr(keys, "verify", counted(keys.verify, verifies))

    fleet = fresh_fleet(4, keys)
    pushed_hashes = len(oci_hashes)
    rep = run_workload(fleet, SPEC)
    assert rep.completed == rep.offered > 1000, rep.as_dict()
    assert len(verifies) == rep.offered + rep.retries

    manifests = [fleet.manifest(ref) for ref in SPEC.refs()]
    digests = {d for m in manifests for d in m.layers}
    vnode_points = 4 * fleet.ring.vnodes
    assert len(ring_keys) <= len(digests) + vnode_points, \
        f"{len(ring_keys)} ring hashes for {len(digests)} digests"
    # one manifest and one config digest per push, none per pull
    assert pushed_hashes <= 2 * len(manifests)
    pull_hashes = len(oci_hashes) - pushed_hashes
    assert pull_hashes <= len(manifests), \
        f"{pull_hashes} manifest/config hashes over {rep.completed} pulls"
