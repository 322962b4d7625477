"""The baseline gate itself: passes on the committed baselines, and each
rule catches a one-field perturbation.

Runs on the committed ``BENCH_*.json`` files only — nothing is
regenerated.  :data:`RULES` lists every rule the gate must hold,
independently of ``gate.SPECS``, so deleting a rule from the spec table
fails the perturbation test that targets it.
"""

import copy
import json

import pytest

from . import gate

RULES = {
    "coldbuild": [
        ("true", "digest_identical"),
        ("floor", "speedup"),
        ("ceiling", "walker_full_walks"),
    ],
    "registry": [
        ("true", "replay_identical"),
        ("true", "deploys_digest_identical"),
        ("exact", "pulls_per_sec"),
        ("exact", "p99_seconds"),
    ],
    "matrix": [
        ("true", "digests_identical"),
        ("exact", "cells"),
        ("exact", "unique_cell_builds"),
        ("exact", "total_stage_builds"),
        ("exact", "unique_stage_builds"),
        ("exact", "amplification"),
        ("exact", "sharing_histogram"),
        ("exact", "measured_stores"),
        ("exact", "pushed"),
    ],
    "engine": [
        ("true", "identical_reports"),
        ("true", "identical_stores"),
        ("floor", "pull_storm.events_per_sec"),
        ("floor", "workload.events_per_sec"),
    ],
    "policy": [
        ("exact", "attestation_digests"),
        ("exact", "clean_packages"),
        ("exact", "clean_findings"),
        ("exact", "cve_violations"),
        ("exact", "tampered_rejected"),
        ("exact", "unsigned_rejected"),
        ("exact", "audit_front_door_bytes"),
        ("true", "attestations_deterministic"),
    ],
}


def committed(name: str) -> dict:
    return json.loads((gate.ROOT / f"BENCH_{name}.json").read_text())


def changed(value):
    """A value of the same type that is no longer equal to *value*."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value + ["x"]
    if isinstance(value, dict):
        return {**value, "x": 0}
    raise TypeError(type(value))


#: the one-field change each rule kind must catch
PERTURB = {"true": lambda v: False,
           "exact": changed,
           "floor": lambda v: 0.89 * v,
           "ceiling": lambda v: v + 1}


def set_key(payload: dict, key: str, fn) -> None:
    *parents, leaf = key.split(".")
    for part in parents:
        payload = payload[part]
    payload[leaf] = fn(payload[leaf])


def test_every_committed_baseline_has_a_spec():
    names = {p.name[len("BENCH_"):-len(".json")]
             for p in gate.ROOT.glob("BENCH_*.json")}
    assert names == set(gate.SPECS) == set(RULES)


@pytest.mark.parametrize("name", sorted(RULES))
def test_committed_baseline_passes_against_itself(name):
    base = committed(name)
    assert gate.check_artifact(name, base, copy.deepcopy(base)) == []


@pytest.mark.parametrize("name,kind,key", [
    (name, kind, key) for name, rules in RULES.items()
    for kind, key in rules])
def test_one_field_perturbation_fails_naming_file_and_key(name, kind, key):
    base = committed(name)
    cur = copy.deepcopy(base)
    set_key(cur, key, PERTURB[kind])
    failures = gate.check_artifact(name, base, cur)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"BENCH_{name}.json: {key}:"), failures


@pytest.mark.parametrize("key", [
    f"{field}.{n}" for field in ("pulls_per_sec", "p99_seconds")
    for n in ("1", "2", "4", "8")])
def test_registry_simulated_time_drift_fails_at_every_level(key):
    """An exact dict rule catches a 1% drift at one shard level, which
    the old 0.9x pulls/sec floor let through."""
    base = committed("registry")
    cur = copy.deepcopy(base)
    set_key(cur, key, lambda v: v * 1.01)
    failures = gate.check_artifact("registry", base, cur)
    assert len(failures) == 1, failures
    assert failures[0].startswith(
        f"BENCH_registry.json: {key.split('.')[0]}:"), failures


def test_a_dropped_identity_key_fails():
    base = committed("coldbuild")
    cur = {k: v for k, v in base.items() if k != "digest_identical"}
    assert gate.check_artifact("coldbuild", base, cur) == [
        "BENCH_coldbuild.json: digest_identical: missing from the "
        "regenerated artifact"]


def test_a_missing_artifact_fails(tmp_path):
    for name in RULES:
        if name != "policy":
            (tmp_path / f"BENCH_{name}.json").write_text(
                json.dumps(committed(name)))
    failures = gate.gate(baseline_dir=gate.ROOT, out_dir=tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith("BENCH_policy.json: no regenerated "
                                  "artifact")
