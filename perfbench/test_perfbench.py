"""The benchmark's own tests: ``python -m pytest perfbench``."""

import json
import shutil

import pytest

import run
from catalog import EXACT, LAYERS
from spans import (MIN_TAIL, Recorder, Span, percentile, self_times,
                   valid_metric_name)
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize("q, enough", [(0.50, 20), (0.90, 100),
                                       (0.99, 1000), (0.999, 10000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert percentile(range(enough), q) is not None
    assert percentile(range(enough - 1), q) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))                 # 1..100, shuffled below
    values.reverse()
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.90) == 90
    tail = [v for v in values if v > percentile(values, 0.90)]
    assert len(tail) == MIN_TAIL


def test_percentile_rejects_bad_quantiles():
    with pytest.raises(ValueError):
        percentile(range(100), 1.0)


# -- metric names -------------------------------------------------------------


def test_every_declared_name_is_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", ["", "-lead", ".lead", "a b", "a/b",
                                  "café", "x" * 65])
def test_invalid_names_are_refused(name):
    assert not valid_metric_name(name)


def test_catalog_matches_benchmark_json():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert list(LAYERS) == per_layer
    assert EXACT <= set(per_layer) | set(end_to_end)
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


# -- self time ----------------------------------------------------------------


def _span(id, parent, start, end, name="s"):
    span = Span(id, name, 1, parent, start)
    span.end = end
    return span


def test_self_time_subtracts_nested_children():
    spans = [_span(0, -1, 0, 100), _span(1, 0, 10, 40),
             _span(2, 1, 20, 30), _span(3, 0, 50, 70)]
    assert self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 20}


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    spans = [_span(0, -1, 0, 100), _span(1, 0, 10, 40),
             _span(2, 0, 30, 60), _span(3, 0, 90, 120)]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_recorder_nests_and_shares_trace_ids():
    rec = Recorder()
    with rec.span("pass") as root:
        with rec.span("layer") as child:
            pass
        with rec.span("request", trace=rec.new_trace()) as request:
            pass
    assert child.parent == root.id and child.trace == root.trace
    assert request.parent == root.id and request.trace != root.trace
    assert root.start <= child.start <= child.end <= root.end
    own = self_times(rec.spans)
    assert own[root.id] == (root.duration - child.duration
                            - request.duration)


# -- seeds --------------------------------------------------------------------


def test_seeds_change_every_workloads_inputs():
    from repro.sim import generate_requests
    build, deploy, mix = (WORKLOADS[n] for n in
                          ("build-10k", "deploy-wide", "registry-mix"))
    assert build.inputs(1).dockerfile != build.inputs(2).dockerfile
    assert build.inputs(1).files != build.inputs(2).files
    assert deploy.inputs(1).payloads != deploy.inputs(2).payloads
    assert build.inputs(3).files == build.inputs(3).files
    tapes = [[r.as_dict() for r in generate_requests(mix.inputs(s).spec)]
             for s in (1, 2, 1)]
    assert tapes[0] != tapes[1] and tapes[0] == tapes[2]
    assert mix.inputs(1).pushes != mix.inputs(2).pushes


def _last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_two_seeds_report_the_same_metric_keys(capsys, trace):
    kind = "per_layer" if trace else "end_to_end"
    expected = [m["name"] for m in SPEC[kind]]
    keys = []
    for seed in (1, 2):
        assert run.main(["--workload", "registry-mix", "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)]) == 0
        result = _last_json(capsys)
        assert result["correct"] and result["attempted"] >= 1
        keys.append(list(result["metrics"]))
    assert keys[0] == keys[1] == expected


# -- refusals -----------------------------------------------------------------


def test_refuses_forced_tracing(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert run.main(["--workload", "registry-mix", "--seed", "1",
                     "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_refuses_the_reference_engine(capsys):
    from repro.sim import reference_engine
    with reference_engine():
        assert run.main(["--workload", "registry-mix", "--seed", "1",
                         "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_refuses_a_tracer_in_an_untraced_pass(monkeypatch, capsys):
    from repro.obs import SyscallTracer
    mix = WORKLOADS["registry-mix"]
    setup = mix.setup

    def traced_setup(inputs):
        site = setup(inputs)
        site.fleet.tracer = SyscallTracer()
        return site

    monkeypatch.setattr(mix, "setup", traced_setup)
    assert run.main(["--workload", "registry-mix", "--seed", "1",
                     "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(monkeypatch, tmp_path, capsys):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "build-10k", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_a_wrong_output_fails_the_run(monkeypatch, capsys):
    mix = WORKLOADS["registry-mix"]
    pipeline = mix.pipeline

    def leaky(site, inputs, rec):
        site.fleet.tenants["alice"].bytes_used += 1
        return pipeline(site, inputs, rec)

    monkeypatch.setattr(mix, "pipeline", leaky)
    assert run.main(["--workload", "registry-mix", "--seed", "1",
                     "--seconds", "0"]) == 1
    assert _last_json(capsys)["correct"] is False
