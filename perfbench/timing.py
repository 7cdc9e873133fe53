"""The benchmark's one clock.

Every wall-clock read of the benchmark goes through :func:`now`.  It is
the host's monotonic clock, which every process on the host shares, so a
parent can stamp the moment it launches a worker and the worker can
measure its set-up from that stamp.
"""

from __future__ import annotations

import time

__all__ = ["now"]


def now() -> float:
    """Seconds on the host-wide monotonic clock."""
    return time.monotonic()  # repro: allow[REP102] the benchmark's timing seam: it measures host wall time by design
