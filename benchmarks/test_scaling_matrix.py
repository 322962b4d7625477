"""Matrix scaling: cache amplification on the 64-cell example family.

The committed ``examples/matrix_family.spec`` (2 bases × 4 MPI flavors ×
8 frameworks) is the tentpole's acceptance fixture.  Its template is
layered so the Merkle planner can collapse it: 384 stage builds across
the 64 cells fold to 86 unique chains — predicted amplification 4.47×,
and the prediction is *exact*: on a cold shared cache the farm records
one diff store per unique stage build, no more.

Gates:

* cache amplification >= 3x on the 64-cell family;
* every variant digest identical to its sequentially built counterpart
  (a fresh ``--parallelism 1`` world) — scheduling changes *when*,
  never *what*;
* measured cold-cache stores == the plan's unique stage builds.

Emits ``.bench_out/BENCH_matrix.json``; ``benchmarks/gate.py`` requires
its plan counts, amplification, sharing histogram, stores and pushes to
equal the committed baseline exactly.
"""

import pathlib

from repro.cluster import make_machine, make_world
from repro.cluster.fleet import RegistryFleet
from repro.matrix import build_matrix, parse_spec_text, plan_matrix

from .conftest import report, write_bench

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "examples" / "matrix_family.spec"

PARALLELISM_LEVELS = (1, 8)

AMPLIFICATION_GATE = 3.0


def family_spec():
    return parse_spec_text(SPEC_PATH.read_text())


def run_matrix(parallelism: int, *, fleet=None, token=None):
    """One cold-cache matrix run in a fresh world."""
    spec = family_spec()
    world = make_world(arches=("x86_64",))
    login = make_machine("login1", network=world.network)
    return build_matrix(login, login.login("alice"), spec,
                        parallelism=parallelism, fleet=fleet, token=token)


def test_scaling_matrix_amplification():
    """The tentpole gate: >= 3x amplification, digest identity vs the
    sequential per-variant baseline, plan == measurement; emits the
    BENCH_matrix.json artifact ``benchmarks/gate.py`` gates."""
    spec = family_spec()
    plan = plan_matrix(spec)
    assert plan.n_cells >= 64
    assert plan.amplification >= AMPLIFICATION_GATE, plan.as_dict()

    runs = {}
    for n in PARALLELISM_LEVELS:
        fleet = RegistryFleet("site", n_shards=4, replicas=2) if n > 1 \
            else None
        rep = run_matrix(n, fleet=fleet, token="s3cret")
        assert rep.success, [c.error for c in rep.cells if not c.success]
        # the static plan is exact on a cold cache: one store per unique
        # stage build, regardless of parallelism
        assert rep.measured_stores == plan.unique_stage_builds, \
            (n, rep.measured_stores, plan.unique_stage_builds)
        runs[n] = rep

    # digest identity: every variant equals its sequentially built
    # counterpart — the farm schedule changes *when*, never *what*
    sequential, parallel = runs[1].digests(), runs[8].digests()
    assert sequential == parallel
    assert len(sequential) == plan.n_cells

    # parallelism pays: 8 workers on 64 independent cells beat serial
    speedup = runs[1].makespan / runs[8].makespan
    assert speedup > 1.0, (runs[1].makespan, runs[8].makespan)

    # the family landed in the fleet under the spec's tenant
    pushed = runs[8]
    assert pushed.pushed == plan.n_cells
    assert pushed.fleet_report is not None
    assert pushed.tenant == spec.tenant

    write_bench("matrix", {
        "benchmark": "matrix-scaling",
        "fixture": "examples/matrix_family.spec",
        "cells": plan.n_cells,
        "unique_cell_builds": plan.unique_cell_builds,
        "total_stage_builds": plan.total_stage_builds,
        "unique_stage_builds": plan.unique_stage_builds,
        "amplification": round(plan.amplification, 6),
        "amplification_gate": AMPLIFICATION_GATE,
        "sharing_histogram": {
            str(k): v for k, v in plan.sharing_histogram().items()},
        "measured_stores": runs[8].measured_stores,
        "measured_hits": runs[8].measured_hits,
        "makespan_seconds": {str(n): runs[n].makespan
                             for n in PARALLELISM_LEVELS},
        "parallel_speedup": round(speedup, 6),
        "digests_identical": True,
        "pushed": pushed.pushed,
        "tenant": spec.tenant,
    })

    report("Build-matrix scaling (64-cell base x MPI x framework)", [
        ("cells", f"{plan.n_cells} "
                  f"({plan.unique_cell_builds} unique images)"),
        ("stage builds", f"{plan.total_stage_builds} -> "
                         f"{plan.unique_stage_builds} unique"),
        ("amplification", f"{plan.amplification:.2f}x "
                          f"(gate: >= {AMPLIFICATION_GATE}x)"),
        ("plan vs measured", f"{plan.unique_stage_builds} predicted == "
                             f"{runs[8].measured_stores} stores"),
        ("digests", "identical at parallelism 1 and 8"),
        ("speedup", f"{speedup:.2f}x at parallelism 8"),
        ("pushed", f"{pushed.pushed} images as tenant {spec.tenant!r}"),
    ])


def test_scaling_matrix_amplification_grows_with_depth():
    """Amplification scales with how much of the template is shared:
    widening the per-cell tail dilutes it, deepening the shared prefix
    concentrates it.  (A quick sanity sweep, not a gate.)"""
    spec = family_spec()
    base_amp = plan_matrix(spec).amplification

    # appending a per-cell instruction dilutes sharing
    diluted_spec = parse_spec_text(
        SPEC_PATH.read_text().rstrip("\n")
        + "\n  RUN echo package ${fw}+${mpi} > /opt/site/manifest\n")
    diluted = plan_matrix(diluted_spec).amplification
    assert diluted < base_amp

    # single-flight identity: identical dockerfiles share whole-image
    # plan keys only when cells really render identically — here none do
    plan = plan_matrix(spec)
    assert plan.unique_cell_builds == plan.n_cells
