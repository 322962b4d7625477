"""Make the benchmark's modules and the program importable in its tests:
``python -m pytest perfbench`` from the repository root."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
