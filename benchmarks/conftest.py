"""Make the benchmarks directory importable (for `_helpers`), and the
frozen per-row oracle (``tests/engine/per_row.py``) the throughput
benches time their baselines with."""

import os
import sys

_HERE = os.path.dirname(__file__)
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_HERE, os.pardir, "tests", "engine"))
