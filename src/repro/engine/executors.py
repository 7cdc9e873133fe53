"""The executor seam every sharded path dispatches through.

Every sharded path in the repository (engine sequence-rank sharding,
strategy-sweep fan-out, data-parallel training epochs, serve scheduler
replicas) dispatches module-level jobs through a single seam:
``executor.submit(job, *args)`` with results collected in fixed futures
order.  This module formalizes that seam as the :class:`ExecutorBackend`
protocol — ``submit`` / ``shutdown`` / ``max_workers`` — and implements
it once, as :class:`ProcessPoolBackend`: a :func:`shard_executor`
process pool (fork context), composed with the shared-memory transport
channel by :func:`sharding`.  The protocol stays the type of the seam,
so tests inject synchronous fakes and a multi-host backend would plug
in at the same place.

:class:`Execution` is the one value that says how a run executes
(lockstep width, worker count, borrowed backend and channel), and
:func:`sharding` the one place a dispatch's resources are decided from
it: the clamped worker count, the execution's backend and channel when
it carries them, a fresh process pool and transport channel (closed on
exit) when not.

Determinism: jobs are module-level functions on self-contained payloads
and results are consumed in submission order, so any job set whose jobs
are independent (the repository's invariant — per-sequence RNG streams,
no cross-shard state) produces results bitwise identical to the
unsharded loop.  Traced jobs carry their worker-side spans home with
their results, merged in job-sequence order (see
:meth:`ProcessPoolBackend.submit`), so the trace's deterministic plane
is as stable as the results.

``repro.api.Session`` keeps one live pool per session with a grow-only
contract; ``execution.backend: "in_process"`` skips it for the unsharded
loop.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Protocol, runtime_checkable

from repro.engine.transport import TransportChannel
from repro.obs.spool import CapturedJobError, capture_job
from repro.obs.tracer import SpanRecord, Tracer, current_tracer, finish_wall

__all__ = [
    "ExecutorBackend",
    "ProcessPoolBackend",
    "shard_executor",
    "Execution",
    "sharding",
]


def _job_name(fn: Callable) -> str:
    """Deterministic display name of a submitted job function."""
    return getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", type(fn).__name__
    )


@runtime_checkable
class ExecutorBackend(Protocol):
    """The executor seam every sharded path dispatches through.

    ``max_workers`` is the parallelism the backend was built for (the
    shard-cut width callers size against); ``submit`` returns a future
    whose ``result()`` blocks; ``shutdown(wait=True)`` drains in-flight
    work before releasing resources.  After ``shutdown`` every
    ``submit`` raises ``RuntimeError`` — callers holding a stale backend
    fail loudly instead of silently re-forking.
    """

    max_workers: int

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any): ...

    def shutdown(self, wait: bool = True) -> None: ...


def _pool_context():
    """Prefer fork (inherits the warm interpreter; cheap at CI scale)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context()


def shard_executor(max_workers: int) -> ProcessPoolExecutor:
    """A process pool suitable for sharded runs.

    The one place a process pool is built: :class:`ProcessPoolBackend`
    wraps it, both for the pools ``repro.api``'s ``Session`` keeps
    across runs and for the per-dispatch pool :func:`sharding` opens
    when an :class:`Execution` carries no backend.
    """
    return ProcessPoolExecutor(
        max_workers=max_workers, mp_context=_pool_context()
    )


class _TracedFuture(Future):
    """A traced pool job as its caller sees it.

    Resolves on the calling thread when the worker's capture is merged:
    ``result()`` and ``exception()`` first merge every earlier traced
    job of the same backend, so captures enter the tracer in
    job-sequence order however the workers interleaved.  Until then
    ``done()`` is ``False`` even if the worker has finished.
    """

    def __init__(
        self,
        backend: "ProcessPoolBackend",
        inner: Future,
        tracer: Tracer,
        span: SpanRecord | None,
    ):
        super().__init__()
        self._backend = backend
        self._inner = inner
        self._tracer = tracer
        self._span = span

    def _merge(self, timeout: float | None) -> None:
        """Settle from the worker's outcome and merge its capture."""
        error = self._inner.exception(timeout)
        if error is None:
            result, records = self._inner.result()
            self.set_result(result)
        elif isinstance(error, CapturedJobError):
            job_error, records = error.args
            # Keep the pool's remote traceback, which shows the job's
            # own frames through the capture's chaining.
            job_error.__cause__ = error.__cause__
            self.set_exception(job_error)
        else:  # the pool itself failed (e.g. a worker died)
            records = []
            self.set_exception(error)
        merged = self._tracer.merge_records(records, parent=self._span)
        if merged:
            self._tracer.count("executor.worker_spans_merged", merged)

    def result(self, timeout: float | None = None) -> Any:
        self._backend._merge_through(self, timeout)
        return super().result(timeout)

    def exception(self, timeout: float | None = None):
        self._backend._merge_through(self, timeout)
        return super().exception(timeout)


class ProcessPoolBackend:
    """The executor backend: a fork-context process pool.

    Wraps :func:`shard_executor` (the canonical pool constructor)
    behind the protocol; :func:`sharding` composes it with a
    :class:`~repro.engine.transport.TransportChannel` so shard payloads
    cross as shared-memory handles.
    """

    name = "process_pool"

    def __init__(self, max_workers: int):
        self.max_workers = int(max_workers)
        self._seq = 0
        self._pool = shard_executor(self.max_workers)
        #: Traced jobs whose worker captures are not merged yet, in
        #: submission order.
        self._unmerged: deque[_TracedFuture] = deque()

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        """Queue ``fn(*args, **kwargs)`` on the pool.

        Untraced, this is the pool's own ``submit``.  With a tracer
        installed, the job gets a submit-side ``executor.job`` span and
        runs in its worker under :func:`~repro.obs.spool.capture_job`;
        the returned future merges the worker's spans under that span
        when its result is read (see :class:`_TracedFuture`).
        """
        self._seq += 1
        tracer = current_tracer()
        if tracer is None:
            return self._pool.submit(fn, *args, **kwargs)
        tracer.count("executor.jobs")
        span = tracer.point(
            "executor.job", backend=self.name, seq=self._seq, job=_job_name(fn)
        )
        inner = self._pool.submit(capture_job, fn, *args, **kwargs)
        if span is not None:
            # Wall-only completion: the callback thread touches nothing
            # in the deterministic plane (see finish_wall).
            inner.add_done_callback(lambda _f: finish_wall(span))
        future = _TracedFuture(self, inner, tracer, span)
        self._unmerged.append(future)
        return future

    def _merge_through(
        self, future: _TracedFuture, timeout: float | None = None
    ) -> None:
        """Merge traced captures in job order up to ``future``'s own."""
        while not future.done():
            self._unmerged[0]._merge(timeout)
            self._unmerged.popleft()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; ``wait`` first merges every outstanding
        capture, so a traced dispatch's spans are all in its tracer
        when the pool is gone."""
        if wait and self._unmerged:
            self._merge_through(self._unmerged[-1])
        self._pool.shutdown(wait=wait)


@dataclass(frozen=True)
class Execution:
    """How one run executes: the only way execution settings reach the
    engine, training and serve fronts.

    Sequences run in vectorized lockstep, at most ``batch_size`` wide
    (``None``: the whole rank; ``1``: each sequence alone, frame by
    frame).  ``workers >= 2``
    shards the work over that many worker processes, dispatched through
    ``backend`` with payloads published on ``channel``; either left
    ``None`` is opened for the dispatch and closed after it (see
    :func:`sharding`), a given one is borrowed (e.g. a ``Session``'s, so
    repeated runs reuse one pool and ship each payload once).  Every
    setting is bitwise-neutral: only speed changes.

    The value holds live resources, so it never crosses a process
    boundary; worker entry points get the plain width instead.
    """

    batch_size: int | None = None
    workers: int = 1
    backend: ExecutorBackend | None = None
    channel: TransportChannel | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size}")
        if self.workers < 2 and (
            self.backend is not None or self.channel is not None
        ):
            raise ValueError(
                "executor was injected but workers < 2 would run in-process "
                "and silently ignore it; pass workers >= 2 to shard"
            )


@contextmanager
def sharding(execution: Execution, n_items: int) -> Iterator[Execution]:
    """Yield the :class:`Execution` one dispatch over ``n_items`` runs.

    The one place the worker count is clamped to the item count.  Below
    two the yielded value is in-process (``workers=1``, no backend).
    Otherwise it carries the clamped count and a backend and channel:
    the execution's own, borrowed, or a ``process_pool`` backend and a
    fresh :class:`~repro.engine.transport.TransportChannel` opened here
    and closed on exit, backend first.  The pool forks on its first
    ``submit``, so payloads published before that are inherited.
    """
    workers = min(execution.workers, n_items)
    if workers < 2:
        yield replace(execution, workers=1, backend=None, channel=None)
        return
    with ExitStack() as opened:  # unwinds backend first, then channel
        channel = execution.channel
        if channel is None:
            channel = opened.enter_context(TransportChannel())
        backend = execution.backend
        if backend is None:
            backend = ProcessPoolBackend(workers)
            opened.callback(backend.shutdown, wait=True)
        yield replace(
            execution, workers=workers, backend=backend, channel=channel
        )
