#!/usr/bin/env python3
"""Layered Fig 6 benchmark: build, gate, push, broadcast and run, timed.

Run from the repository root:

    python3 perfbench/run.py --workload build-10k --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics, the tracing overhead among them,
and writes the spans to ``.bench_out/<workload>.spans.jsonl``.  Each pass
sets up a fresh world (timed as set-up), then runs the workload's
pipeline once (timed as the pass).  One warm-up pass runs first and is
checked but not timed.  Every pass's outputs are checked; a failed check
prints ``"correct": false`` and exits 1.  A run that would time a
different program than the default one (tracing forced on, reference
engine) is refused with exit 2 and no result, as is a checkout without
the program's sources.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 2          # measured passes of each kind, at the least

_PERCENTILE = re.compile(r"(.+)\.wall_s\.p(\d+)$")


class Refused(Exception):
    """The run would not measure the default program; nothing is timed."""


@dataclass
class Pass:
    traced: bool
    setup_s: float
    pipeline_s: float
    out: object                         # workloads.PassOutput
    exact: dict
    spans: list = field(default_factory=list)


def environment_problems() -> list[str]:
    """Settings under which a timing would describe another program."""
    from repro.sim import opts
    problems = []
    if os.environ.get("REPRO_TRACE"):
        problems.append("REPRO_TRACE is set: every kernel is traced")
    if os.environ.get("REPRO_SIM_REFERENCE"):
        problems.append("REPRO_SIM_REFERENCE is set")
    if not opts.optimizations_enabled():
        problems.append("the reference engine is active")
    return problems


def _attach_tracers(site) -> None:
    from repro.obs import attach_tracer
    for kernel in site.kernels():
        attach_tracer(kernel, ring_size=1)


def _untraced_guard(site) -> None:
    tracers = [k for k in site.kernels() if k.tracer is not None]
    if tracers or site.fleet.tracer is not None \
            or site.gate.tracer is not None:
        raise Refused("a tracer is attached during an untraced pass")


def one_pass(workload, inputs, traced: bool) -> Pass:
    """Set up a fresh site, run the pipeline once, collect counters."""
    from repro.sim.profile import COUNTERS
    from spans import NULL_RECORDER, Recorder
    problems = environment_problems()
    if problems:
        raise Refused("; ".join(problems))
    gc.collect()
    t0 = time.perf_counter()
    site = workload.setup(inputs)
    t1 = time.perf_counter()
    if traced:
        _attach_tracers(site)
    rec = Recorder() if traced else NULL_RECORDER
    kernels = site.kernels()
    ticks = [k.ticks for k in kernels]
    pushed = site.fleet.stats.bytes_pushed
    counters = COUNTERS.snapshot()
    t2 = time.perf_counter()
    with rec.span("pass"):
        out = workload.pipeline(site, inputs, rec)
    t3 = time.perf_counter()
    counts = COUNTERS.delta(counters)
    if not traced:
        _untraced_guard(site)
    deltas = [k.ticks - t for k, t in zip(kernels, ticks)]
    login = 1 if site.login is not None else 0
    exact = dict(out.exact)
    exact.update({
        "kernel.login.ticks": sum(deltas[:login]),
        "kernel.node.ticks": sum(deltas[login:]),
        "cas.members_hashed": counts.get("digest.memo_miss", 0),
        "cas.walk_full": counts.get("snapshot.walk_full", 0),
        "cas.walk_dirty": counts.get("snapshot.walk_dirty", 0),
        "cluster.fleet.push.bytes": site.fleet.stats.bytes_pushed - pushed,
    })
    if traced:
        exact["kernel.syscalls"] = sum(
            sum(k.tracer.metrics.syscalls.values()) for k in kernels)
    return Pass(traced, t1 - t0, t3 - t2, out, exact, list(rec.spans))


def run_passes(workload, seed: int, seconds: float, trace: bool
               ) -> list[Pass]:
    """A warm-up pass, then passes until *seconds* of them have run.
    With *trace*, measured passes alternate traced and untraced."""
    inputs = workload.inputs(seed)
    passes = [one_pass(workload, inputs, traced=False)]
    start = time.perf_counter()
    while True:
        measured = passes[1:]
        kinds = {True, False} if trace else {False}
        enough = all(sum(p.traced == kind for p in measured) >= MIN_PASSES
                     for kind in kinds)
        if enough and time.perf_counter() - start >= seconds:
            return passes
        traced = trace and len(measured) % 2 == 0
        passes.append(one_pass(workload, inputs, traced))


def check_repeats(passes: list[Pass]) -> None:
    """Deterministic outputs must be identical on every pass."""
    from workloads import CheckFailed
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        if p.out.identity != first.out.identity:
            raise CheckFailed(f"pass {i} produced other images or reports "
                              f"than pass 0")
    for name in first.exact:
        values = {p.exact[name] for p in passes}
        if len(values) != 1:
            raise CheckFailed(f"{name} differs between passes: "
                              f"{sorted(values)}")
    traced = [p for p in passes if p.traced]
    if len({p.exact["kernel.syscalls"] for p in traced}) > 1:
        raise CheckFailed("kernel.syscalls differs between traced passes")


def operations(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) operations: passes, ranks, pulls, pushes."""
    return (sum(p.out.attempted + 1 for p in passes),
            sum(p.out.failed for p in passes))


def _span_totals(p: Pass) -> dict[str, int]:
    totals: dict[str, int] = {}
    for span in p.spans:
        totals[span.name] = totals.get(span.name, 0) + span.duration
    return totals


def end_to_end(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """Metric -> (value, how it was taken)."""
    measured = passes[1:]
    n = f"median of {len(measured)} passes"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(p.setup_s for p in measured), n),
        "pipeline_s": (statistics.median(p.pipeline_s for p in measured),
                       n),
        "ops_per_s": (statistics.median(p.out.ops / p.pipeline_s
                                        for p in measured), n),
        "deploy_makespan_vs": (passes[0].exact["deploy_makespan_vs"],
                               "exact"),
        "peak_rss_mb": (peak_kb / 1024, "whole run"),
    }


def per_layer(passes: list[Pass], names: list[str]
              ) -> dict[str, tuple[float, str]]:
    """Metric -> (value, how it was taken), from the traced passes'
    spans and every pass's exact counters."""
    from catalog import EXACT
    from spans import percentile, self_times
    measured = passes[1:]
    traced = [p for p in measured if p.traced]
    plain = [p for p in measured if not p.traced]
    totals = [_span_totals(p) for p in traced]
    tn = f"median of {len(traced)} traced passes"
    attempted, failed = operations(passes)
    out = {}
    for name in names:
        pct = _PERCENTILE.fullmatch(name)
        if name in EXACT:
            out[name] = (traced[0].exact.get(name, 0), "exact")
        elif name.endswith(".wall_s"):
            span = name[:-len(".wall_s")]
            out[name] = (statistics.median(t.get(span, 0) for t in totals)
                         / 1e9, tn)
        elif pct is not None:
            samples = [s.duration for p in traced for s in p.spans
                       if s.name == pct.group(1)]
            digits = pct.group(2)
            value = percentile(samples, int(digits) / 10 ** len(digits))
            out[name] = ((value or 0) / 1e9,
                         f"{len(samples)} calls" if value is not None else
                         f"not reported: {len(samples)} calls")
        elif name == "cluster.broadcast.distribute.self_share":
            shares = []
            for p in traced:
                own = self_times(p.spans)
                root = next(s for s in p.spans if s.name == "pass")
                mine = sum(own[s.id] for s in p.spans
                           if s.name == "cluster.broadcast.distribute")
                shares.append(100.0 * mine / root.duration)
            out[name] = (statistics.median(shares), tn)
        elif name == "trace.overhead":
            on = statistics.median(p.pipeline_s for p in traced)
            off = statistics.median(p.pipeline_s for p in plain)
            out[name] = (100.0 * (on / off - 1.0),
                         f"{len(traced)} traced vs {len(plain)} untraced")
        elif name == "failed_share":
            out[name] = (failed / attempted, f"{failed} of {attempted}")
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, CheckFailed
    from repro.errors import ReproError

    workload = WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    passes: list[Pass] = []
    correct, error = True, ""
    try:
        passes = run_passes(workload, args.seed, args.seconds,
                            bool(args.trace))
        check_repeats(passes)
    except Refused as err:
        print(f"perfbench: refused: {err}", file=sys.stderr)
        return 2
    except (CheckFailed, ReproError) as err:
        correct, error = False, f"{type(err).__name__}: {err}"
    if not passes or not correct:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, len(passes)),
                          "failed": max(1, len(passes)), "metrics": {}}))
        return 1

    values = (per_layer(passes, list(units)) if args.trace
              else end_to_end(passes))
    if args.trace:
        from spans import write_spans
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(OUT_DIR / f"{args.workload}.spans.jsonl",
                    [(i, p.spans) for i, p in enumerate(passes) if p.traced])
    print(f"{args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{len(passes) - 1} measured passes + 1 warm-up")
    for name, unit in units.items():
        value, how = values[name]
        print(f"  {name:<42} {value:>14.6g} {unit:<6} {how}")
    attempted, failed = operations(passes)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
