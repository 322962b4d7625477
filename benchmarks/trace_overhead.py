"""Tracing overhead guard: tier-1 wall time with tracing off vs on.

Runs ``pytest tests/`` twice with tracing disabled and twice with
``REPRO_TRACE=1`` (which attaches a tracer to every kernel), takes the
minimum of each pair, and fails if tracing everywhere costs more than
25% over the disabled fast path.  Run from the repo root::

    python benchmarks/trace_overhead.py
"""

import os
import subprocess
import sys
import time


def timed(env_extra):
    env = dict(os.environ, **env_extra)
    t0 = time.monotonic()
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/", "-q",
         "-p", "no:cacheprovider"], env=env)
    if r.returncode != 0:
        sys.exit(r.returncode)
    return time.monotonic() - t0


def main():
    base = min(timed({}) for _ in range(2))
    traced = min(timed({"REPRO_TRACE": "1"}) for _ in range(2))
    overhead = (traced - base) / base * 100
    print(f"disabled: {base:.1f}s  traced: {traced:.1f}s  "
          f"overhead: {overhead:+.1f}%")
    if overhead > 25:
        sys.exit(f"tracing overhead {overhead:.1f}% exceeds 25%")


if __name__ == "__main__":
    main()
