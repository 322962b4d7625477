"""What each metric measures, and what it is expected to move.

``BENCHMARK.json`` holds the names, units and directions the harness
gates on; it has no room for anything else.  This table adds, for each
per-layer metric, the layer it measures and the end-to-end metric and
workload a change to that layer should move, and marks the metrics
that are deterministic and must repeat exactly for a given seed.  The
tests keep it and ``BENCHMARK.json`` in step.
"""

from __future__ import annotations

__all__ = ["LAYERS", "EXACT"]

#: per-layer metric -> (layer, end-to-end metric and workload it should
#: move; "-" where the metric is itself an end-to-end figure that the
#: harness cannot gate)
LAYERS = {
    "kernel.login.ticks": (
        "kernel", "pipeline_s on build-10k; none on registry-mix"),
    "kernel.node.ticks": (
        "kernel", "pipeline_s on deploy-wide (node unpack)"),
    "kernel.syscalls": (
        "kernel", "pipeline_s on build-10k, then deploy-wide"),
    "core.build.fakeroot.wall_s": ("core.builder", "pipeline_s on build-10k"),
    "core.build.seccomp.wall_s": ("core.builder", "pipeline_s on build-10k"),
    "cas.members_hashed": ("cas", "pipeline_s on build-10k"),
    "cas.walk_full": ("cas", "pipeline_s on build-10k"),
    "cas.walk_dirty": ("cas", "pipeline_s on build-10k"),
    "containers.podman.build.wall_s": (
        "containers", "pipeline_s on deploy-wide (small)"),
    "containers.podman.push.wall_s": (
        "containers", "pipeline_s on deploy-wide (small)"),
    "archive.pack.wall_s": ("archive", "pipeline_s on build-10k"),
    "cluster.fleet.push.bytes": ("core.push", "pipeline_s on build-10k"),
    "supply.attest.wall_s": ("supply", "pipeline_s on build-10k"),
    "supply.gate.wall_s": (
        "supply", "pipeline_s on build-10k; ops_per_s on registry-mix"),
    "supply.gate.packages": ("supply", "pipeline_s on build-10k"),
    "cluster.broadcast.distribute.wall_s": (
        "cluster.broadcast", "pipeline_s on deploy-wide; none elsewhere"),
    "cluster.broadcast.distribute.self_share": (
        "cluster.broadcast", "pipeline_s on deploy-wide; none elsewhere"),
    "sim.events": ("sim", "pipeline_s on deploy-wide, ops_per_s on "
                          "registry-mix"),
    "sim.chunks_tx": ("sim", "pipeline_s on deploy-wide"),
    "cluster.broadcast.registry_egress_bytes": (
        "cluster.broadcast", "pipeline_s on deploy-wide"),
    "cluster.broadcast.peer_bytes": (
        "cluster.broadcast", "pipeline_s on deploy-wide"),
    "cluster.scheduler.srun.wall_s": (
        "cluster.scheduler", "pipeline_s on deploy-wide"),
    "core.pull.wall_s.p50": ("core.runtime", "pipeline_s on deploy-wide"),
    "core.pull.wall_s.p90": ("core.runtime", "pipeline_s on deploy-wide"),
    "core.runtime.run.wall_s.p50": (
        "core.runtime", "pipeline_s on deploy-wide"),
    "core.runtime.run.wall_s.p90": (
        "core.runtime", "pipeline_s on deploy-wide"),
    "cluster.fleet.timed_pull.wall_s.p50": (
        "cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.timed_pull.wall_s.p99": (
        "cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.push.wall_s.p50": (
        "cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.push.wall_s.p99": (
        "cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.overloads": ("cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.retries": ("cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.dropped": ("cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.queue_depth_max": (
        "cluster.fleet", "ops_per_s on registry-mix"),
    "cluster.fleet.tenant.bytes_used": (
        "cluster.fleet", "ops_per_s on registry-mix"),
    "pull_p50_vs": ("-", "virtual pull latency on registry-mix"),
    "pull_p999_vs": ("-", "virtual pull latency on registry-mix"),
    "failed_share": ("-", "failed or dropped operations, all workloads"),
    "trace.overhead": ("-", "cost of the traced run over the untraced"),
}

#: Metrics that are a pure function of the workload and its seed.  Every
#: pass of a run must produce the same value, and a change that keeps
#: the program's outputs bit-identical must leave them unchanged.
EXACT = frozenset({
    "kernel.login.ticks", "kernel.node.ticks", "kernel.syscalls",
    "cas.members_hashed", "cas.walk_full", "cas.walk_dirty",
    "cluster.fleet.push.bytes", "supply.gate.packages",
    "sim.events", "sim.chunks_tx",
    "cluster.broadcast.registry_egress_bytes",
    "cluster.broadcast.peer_bytes",
    "cluster.fleet.overloads", "cluster.fleet.retries",
    "cluster.fleet.dropped", "cluster.fleet.queue_depth_max",
    "cluster.fleet.tenant.bytes_used",
    "pull_p50_vs", "pull_p999_vs", "deploy_makespan_vs",
})
