"""The cross-process span capture: worker-side half of the pool merge.

Pool workers live in other processes, where the ambient tracer is (by
design — see :func:`repro.obs.tracer.current_tracer`) invisible.
Instead, a job submitted while a tracer is installed runs under
:func:`capture_job`: a fresh capture :class:`~repro.obs.tracer.Tracer`
is installed for the job's duration and its records travel back to the
dispatcher in memory, with the job's result or its exception.  The
dispatcher (:class:`repro.engine.executors.ProcessPoolBackend`) merges
captures in job-sequence order, re-parenting each under its submit-side
``executor.job`` span — so a cross-process run still reads as one
deterministic tree.

This module *is* the sanctioned capture path REP108 points worker code
at.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.obs.tracer import Tracer, install_tracer

__all__ = ["CapturedJobError", "capture_job"]


class CapturedJobError(Exception):
    """A captured job raised: ``args`` are ``(error, records)``.

    Raised ``from`` the job's own error, so the pool's remote traceback
    shows the job's frames; the dispatcher re-raises ``error`` itself.
    """


def capture_job(fn: Callable[..., Any], /, *args: Any, **kwargs: Any):
    """Run one job under a fresh capture tracer.

    Returns ``(result, records)``.  A raising job raises
    :class:`CapturedJobError` carrying the error and the records
    captured up to the failure, so its partial spans still reach the
    merged trace.
    """
    tracer = Tracer(origin=f"worker-{os.getpid()}")
    try:
        with install_tracer(tracer):
            result = fn(*args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - carried to the dispatcher
        raise CapturedJobError(exc, tracer.to_records()) from exc
    return result, tracer.to_records()
