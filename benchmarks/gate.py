"""The baseline gate: regenerated ``BENCH_*.json`` vs the committed ones.

``pytest benchmarks/`` writes each scaling artifact to
``.bench_out/BENCH_<name>.json``; the committed baseline lives at the repo
root.  :data:`SPECS` holds one rule table per artifact, and each rule is
one of four kinds:

* ``true``    — an identity bit: the regenerated value must be truthy;
* ``exact``   — equal to the committed baseline;
* ``floor``   — at least ``FLOOR`` × the baseline; a dict-valued field
  fans out over every key of the baseline's dict;
* ``ceiling`` — at most the baseline.

A dotted key (``pull_storm.events_per_sec``) reaches into a nested dict.
In-file relations (matrix amplification >= its gate, measured stores ==
planned unique stage builds) are asserted by the benchmark that writes
the artifact, so they are not repeated here.

Run from anywhere, after ``pytest benchmarks/``::

    python benchmarks/gate.py

It takes no flags, checks every artifact in :data:`SPECS`, fails if one
is missing, and exits non-zero with one line per failed rule.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: regenerated throughput may sag to this fraction of the baseline
FLOOR = 0.9

SPECS = {
    "coldbuild": [
        ("true", "digest_identical"),
        ("floor", "speedup"),
        ("ceiling", "walker_full_walks"),
    ],
    "registry": [
        ("true", "replay_identical"),
        ("true", "deploys_digest_identical"),
        # simulated time: identical on every regeneration, so exact
        ("exact", "pulls_per_sec"),
        ("exact", "p99_seconds"),
    ],
    "matrix": [
        ("true", "digests_identical"),
        *(("exact", key) for key in (
            "cells", "unique_cell_builds", "total_stage_builds",
            "unique_stage_builds", "amplification", "sharing_histogram",
            "measured_stores", "pushed")),
    ],
    "engine": [
        ("true", "identical_reports"),
        ("true", "identical_stores"),
        ("floor", "pull_storm.events_per_sec"),
        ("floor", "workload.events_per_sec"),
    ],
    "policy": [
        *(("exact", key) for key in (
            "attestation_digests", "clean_packages", "clean_findings",
            "cve_violations", "tampered_rejected", "unsigned_rejected",
            "audit_front_door_bytes")),
        ("true", "attestations_deterministic"),
    ],
}

_MISSING = object()


def _lookup(payload: dict, key: str):
    for part in key.split("."):
        if not isinstance(payload, dict) or part not in payload:
            return _MISSING
        payload = payload[part]
    return payload


def check_rule(kind: str, key: str, base: dict, cur: dict) -> list[str]:
    """Failures of one rule; each names the key it gates."""
    got = _lookup(cur, key)
    if got is _MISSING:
        return [f"{key}: missing from the regenerated artifact"]
    if kind == "true":
        return [] if got else [f"{key}: identity bit is {got!r}"]
    want = _lookup(base, key)
    if kind == "exact":
        return [] if got == want else \
            [f"{key}: {got!r} != baseline {want!r}"]
    if kind == "ceiling":
        return [] if got <= want else \
            [f"{key}: {got} > baseline {want}"]
    if kind == "floor":
        if isinstance(want, dict):
            return [msg for sub in want for msg in check_rule(
                kind, f"{key}.{sub}", base, cur)]
        return [] if got >= FLOOR * want else \
            [f"{key}: {got} < {FLOOR} x baseline {want}"]
    raise ValueError(f"unknown rule kind {kind!r}")


def check_artifact(name: str, base: dict, cur: dict) -> list[str]:
    """Every failed rule of ``SPECS[name]``, prefixed with the file."""
    fname = f"BENCH_{name}.json"
    return [f"{fname}: {msg}" for kind, key in SPECS[name]
            for msg in check_rule(kind, key, base, cur)]


def gate(baseline_dir=ROOT, out_dir=OUT_DIR) -> list[str]:
    """Gate every spec'd artifact in *out_dir* against *baseline_dir*."""
    failures = []
    for name in SPECS:
        fname = f"BENCH_{name}.json"
        cur_path = pathlib.Path(out_dir) / fname
        if not cur_path.exists():
            failures.append(f"{fname}: no regenerated artifact at "
                            f"{cur_path} (run pytest benchmarks/ first)")
            continue
        base = json.loads((pathlib.Path(baseline_dir) / fname).read_text())
        failures += check_artifact(name, base,
                                   json.loads(cur_path.read_text()))
    return failures


def main() -> int:
    failures = gate()
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print(f"gate ok: {len(SPECS)} artifacts, "
              f"{sum(map(len, SPECS.values()))} rules")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
