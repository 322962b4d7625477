"""Deployment scaling: the Figure 6 workflow's deploy phase across an
increasing node count (the §6.3 'parallel across node types' impact story),
as an ablation of the two distribution strategies.

* ``registry`` — every node pulls from the site registry: total transfer
  is O(N·image) through one uplink, makespan O(N).  This is the baseline
  fan-out a naive `srun ch-image pull` produces, and the linear shape the
  original figure reproduced.
* ``tree`` — binomial-tree broadcast: the registry is hit once per blob,
  peers re-serve chunks, egress O(image), makespan O(log N).

Either way no daemon serializes anything (§3.1): the transfers are
initiated by the user's own ranks, and the deployed trees are
byte-identical.
"""

import itertools

import pytest

from repro.cas import snapshot_digest, snapshot_tree
from repro.cluster import astra_build_workflow, make_astra, make_world
from repro.containers import ImageRef

from .conftest import ATSE_DOCKERFILE, report

_tags = (f"atse-{i}" for i in itertools.count())

NODE_COUNTS = (1, 2, 4, 8)


def _deploy(n_nodes, strategy, tag=None):
    world = make_world()
    astra = make_astra(world, n_compute=n_nodes)
    rep = astra_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                               tag or next(_tags), n_nodes=n_nodes,
                               deploy_strategy=strategy)
    return world, astra, rep


def _node_tree_digest(node, registry_ref):
    """Digest of one node's deployed (flattened) image tree."""
    flat = ImageRef.parse(registry_ref).flat_name
    path = f"/var/tmp/alice.ch/img/{flat}"
    return snapshot_digest(snapshot_tree(node.root_sys(), path))


@pytest.mark.parametrize("strategy", ["registry", "tree"])
@pytest.mark.parametrize("n_nodes", list(NODE_COUNTS))
def test_scaling_deploy(benchmark, n_nodes, strategy):
    world = make_world()
    astra = make_astra(world, n_compute=n_nodes)
    registry = world.site_registry

    def run():
        return astra_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                    next(_tags), n_nodes=n_nodes,
                                    deploy_strategy=strategy)

    rep = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rep.success
    assert len(rep.deploy.nodes) == n_nodes
    dist = rep.distribution
    assert dist is not None and dist.strategy == strategy
    if strategy == "registry":
        # the baseline pull storm: each node pulled every blob itself
        assert registry.stats.blobs_pulled >= n_nodes
        assert dist.registry_blobs_pulled == n_nodes * dist.blobs
        assert dist.peer_sends == 0
    else:
        # tree mode hits the registry exactly once per blob, whatever N is
        assert dist.registry_blobs_pulled == dist.blobs
        assert registry.stats.blobs_pulled == dist.blobs
        if n_nodes > 1:
            assert dist.peer_sends == (n_nodes - 1) * dist.blobs
    # the node-side pulls were all served from the pre-seeded local CAS
    assert registry.stats.blobs_pull_skipped >= n_nodes * dist.blobs


def test_ablation_registry_vs_tree():
    """Makespan-vs-nodes curves for both strategies, one shared tag so the
    deployed trees are digest-comparable across runs."""
    makespan = {s: {} for s in ("registry", "tree")}
    egress = {s: {} for s in ("registry", "tree")}
    tree_digests = {}
    for strategy in ("registry", "tree"):
        for n in NODE_COUNTS:
            _, astra, rep = _deploy(n, strategy, tag="atse")
            assert rep.success
            makespan[strategy][n] = rep.deploy_makespan
            egress[strategy][n] = rep.distribution.registry_egress_bytes
            if n == max(NODE_COUNTS):
                tree_digests[strategy] = [
                    _node_tree_digest(node, rep.pushed_ref)
                    for node in astra.compute]

    # every node got the byte-identical image, whichever path the bytes took
    assert len(set(tree_digests["registry"] + tree_digests["tree"])) == 1
    # at one node the strategies coincide (one registry pull either way)
    assert egress["tree"][1] == egress["registry"][1]
    assert makespan["tree"][1] <= makespan["registry"][1] + 1e-9
    # the asymptotic win at 8 nodes: >=4x less egress, >=2x less makespan,
    # and tree strictly below registry-direct
    n_max = max(NODE_COUNTS)
    assert makespan["tree"][n_max] < makespan["registry"][n_max]
    assert egress["registry"][n_max] >= 4 * egress["tree"][n_max]
    assert makespan["registry"][n_max] >= 2 * makespan["tree"][n_max]

    report("Deploy scaling ablation (registry-direct vs tree broadcast)", [
        *((f"makespan n={n}",
           f"registry {makespan['registry'][n] * 1e3:8.1f} ms | "
           f"tree {makespan['tree'][n] * 1e3:8.1f} ms")
          for n in NODE_COUNTS),
        (f"registry egress n={n_max}",
         f"registry {egress['registry'][n_max]} B | "
         f"tree {egress['tree'][n_max]} B "
         f"({egress['registry'][n_max] / egress['tree'][n_max]:.1f}x less)"),
        ("shape", "egress O(N·image) vs O(image); "
                  "makespan O(N) vs O(log N); no daemon either way"),
    ])


def test_scaling_transfer_linear():
    """Registry-direct baseline: bytes pulled grow linearly in node count,
    per-node cost constant (the original pre-ablation shape)."""
    per_node = {}
    for n in (1, 4):
        world, _, rep = _deploy(n, "registry", tag="atse")
        assert rep.success
        per_node[n] = world.site_registry.stats.bytes_pulled / n
    ratio = per_node[4] / per_node[1]
    assert 0.8 < ratio < 1.2  # constant per-node transfer
    report("Deploy scaling (registry-direct baseline)", [
        ("per-node bytes (1 node)", f"{per_node[1]:.0f}"),
        ("per-node bytes (4 nodes)", f"{per_node[4]:.0f}"),
        ("shape", "linear total, constant per node, no daemon bottleneck"),
    ])


def test_scaling_tree_egress_constant():
    """Tree broadcast: registry egress is O(image), independent of N."""
    egress = {}
    for n in (1, 8):
        _, _, rep = _deploy(n, "tree", tag="atse")
        assert rep.success
        egress[n] = rep.distribution.registry_egress_bytes
    assert egress[8] == egress[1]
