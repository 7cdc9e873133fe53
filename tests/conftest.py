"""Shared test setup: the frozen per-row oracle is importable everywhere.

``tests/engine/per_row.py`` holds the per-frame reference bodies every
bitwise pin compares the engine's lockstep kernels against.  Putting its
directory on ``sys.path`` lets every suite import it as ``per_row``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "engine"))
