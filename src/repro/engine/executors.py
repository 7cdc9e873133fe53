"""Pluggable executor backends behind one ``submit``-shaped protocol.

Every sharded path in the repository (engine sequence-rank sharding,
strategy-sweep fan-out, data-parallel training epochs, serve scheduler
replicas) dispatches module-level jobs through a single seam:
``executor.submit(job, *args)`` with results collected in fixed futures
order.  This module formalizes that seam as the :class:`ExecutorBackend`
protocol — ``submit`` / ``shutdown`` / ``max_workers`` — with three
interchangeable backends:

* :class:`InProcessExecutor` — runs every job synchronously at submit
  time.  The *deterministic reference*: zero concurrency, zero
  processes, exactly the semantics every other backend is pinned
  bitwise against.
* :class:`ProcessPoolBackend` — the production backend: a
  :func:`shard_executor` process pool (fork
  context), composed with the shared-memory transport channel by
  :func:`sharding`.
* :class:`FileQueueBackend` — jobs round-trip through *spooled files*:
  ``submit`` pickles ``(fn, args, kwargs, traced)`` to a job file in a
  spool directory, detached worker processes claim job files by atomic
  rename, execute, and publish result files the future polls for.  The
  minimal "external cluster" stand-in: nothing crosses except bytes on
  a filesystem, which *proves* every shard job is self-contained — and
  its claim/execute/publish loop is exactly the seam a real scheduler
  backend (SLURM/SGE submit scripts, a distributed queue) plugs into
  later.

:class:`Execution` is the one value that says how a run executes
(lockstep width, worker count, borrowed backend and channel), and
:func:`sharding` the one place a dispatch's resources are decided from
it: the clamped worker count, the execution's backend and channel when
it carries them, a fresh process pool and transport channel (closed on
exit) when not.

Determinism: all backends execute the same module-level job functions
on the same payloads and results are consumed in submission order, so
any job set whose jobs are independent (the repository's invariant —
per-sequence RNG streams, no cross-shard state) produces bitwise
identical merged results on every backend.  ``tests/engine/
test_executors.py`` pins all three against the in-process reference.

Backends are selected declaratively via the spec field
``execution.backend`` (see ``docs/api.md``); ``repro.api.Session``
caches one live backend per kind with the same grow-only contract the
historical process pool had.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Protocol, runtime_checkable

from repro.engine.transport import TransportChannel
from repro.obs.tracer import SpanRecord, current_tracer, finish_wall

__all__ = [
    "ExecutorBackend",
    "InProcessExecutor",
    "ProcessPoolBackend",
    "FileQueueBackend",
    "FileQueueJobError",
    "EXECUTOR_BACKENDS",
    "make_executor",
    "shard_executor",
    "Execution",
    "sharding",
    "SPOOL_PREFIX",
]

#: File-queue spool directories carry this prefix (leak checks mirror
#: the transport layer's ``/dev/shm`` convention).
SPOOL_PREFIX = "reproq_"


def _job_name(fn: Callable) -> str:
    """Deterministic display name of a submitted job function."""
    return getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", type(fn).__name__
    )


def _open_job_span(backend: str, seq: int, fn: Callable) -> SpanRecord | None:
    """Emit the submit-side ``executor.job`` span (all backends).

    The deterministic plane (backend, sequence number, job name) is
    complete at submit; wall completion arrives later — a done-callback
    :func:`finish_wall` for pool backends, the worker capture's own root
    span for file-queue jobs.
    """
    tracer = current_tracer()
    if tracer is None:
        return None
    tracer.count("executor.jobs")
    return tracer.point(
        "executor.job", backend=backend, seq=seq, job=_job_name(fn)
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


# -- in-process reference ------------------------------------------------------
class InProcessExecutor:
    """Serial, synchronous execution: the deterministic reference.

    ``submit`` runs the job *immediately* in the calling process and
    returns an already-completed future.  ``max_workers`` records the
    parallelism the caller sized its shard cut for — the cut happens
    either way and shard boundaries never affect results, so the output
    is bitwise identical to every concurrent backend.
    """

    name = "in_process"

    def __init__(self, max_workers: int = 1):
        self.max_workers = max(1, int(max_workers))
        self._seq = 0
        self._closed = False

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Future:
        if self._closed:
            raise RuntimeError("cannot schedule new futures after shutdown")
        self._seq += 1
        tracer = current_tracer()
        future: Future = Future()
        # Synchronous execution nests the job's own spans (engine runs,
        # training epochs) under the job span naturally, so the job span
        # is a real context here rather than a submit-time point.
        ctx = (
            tracer.span(
                "executor.job",
                backend=self.name,
                seq=self._seq,
                job=_job_name(fn),
            )
            if tracer is not None
            else nullcontext()
        )
        if tracer is not None:
            tracer.count("executor.jobs")
        with ctx:
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True


# -- pool-wrapping backends ----------------------------------------------------
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


class ProcessPoolBackend:
    """The production backend: a fork-context process pool.

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

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        self._seq += 1
        span = _open_job_span(self.name, self._seq, fn)
        future = self._pool.submit(fn, *args, **kwargs)
        if span is not None:
            # Wall-only completion: the callback thread touches nothing
            # in the deterministic plane (see finish_wall).
            future.add_done_callback(lambda _f: finish_wall(span))
        return future

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


# -- file-queue backend --------------------------------------------------------
class FileQueueJobError(RuntimeError):
    """A file-queue job raised in its worker; carries the traceback."""


def _file_queue_worker(
    jobs_dir: str, results_dir: str, stop_path: str, poll_s: float
) -> None:
    """Worker loop: claim job files by atomic rename, execute, publish.

    Module-level so the fork-spawned worker process has a clean entry
    point.  Claiming is ``os.rename(name.job -> name.claimed)`` — atomic
    on POSIX, so exactly one worker wins each job.  Results publish the
    same way jobs do: write-then-rename, so the dispatcher never reads a
    torn result.
    """
    jobs = Path(jobs_dir)
    results = Path(results_dir)
    stop = Path(stop_path)
    while True:
        claimed = None
        # Sorted glob (REP104): claim in submission order so a single
        # worker drains the queue FIFO.
        for job_path in sorted(jobs.glob("*.job")):
            target = job_path.with_suffix(".claimed")
            try:
                os.rename(job_path, target)
            except OSError:
                continue  # another worker won the claim
            claimed = target
            break
        if claimed is None:
            if stop.exists():
                return
            time.sleep(poll_s)  # repro: allow[REP102] queue poll backoff, not a data path
            continue
        name = claimed.stem
        try:
            fn, args, kwargs, traced = pickle.loads(claimed.read_bytes())
            if traced:
                # Spool this job's spans next to its result; the
                # dispatcher merges them on drain.  capture_job writes
                # the spool before we publish the result below, so a
                # resolved future implies its spans exist.
                from repro.obs.spool import capture_job

                result = capture_job(
                    results / f"{name}.spans", fn, args, kwargs
                )
            else:
                result = fn(*args, **kwargs)
            payload: tuple = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 - shipped to dispatcher
            payload = (
                "error",
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        tmp = results / f".tmp-{name}"
        tmp.write_bytes(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, results / f"{name}.result")
        claimed.unlink()


class _FileQueueFuture:
    """A future backed by a result file the worker will publish."""

    def __init__(self, path: Path, poll_s: float):
        self._path = path
        self._poll_s = poll_s
        self._payload: tuple | None = None

    def done(self) -> bool:
        return self._payload is not None or self._path.exists()

    def _load(self) -> tuple:
        if self._payload is None:
            self._payload = pickle.loads(self._path.read_bytes())
        return self._payload

    def result(self, timeout: float | None = None) -> Any:
        deadline = (
            None
            if timeout is None
            else time.monotonic() + timeout  # repro: allow[REP102] future timeout bookkeeping
        )
        while not self._path.exists():
            if deadline is not None and time.monotonic() > deadline:  # repro: allow[REP102] future timeout bookkeeping
                raise TimeoutError(f"file-queue result {self._path.name}")
            time.sleep(self._poll_s)  # repro: allow[REP102] result poll backoff, not a data path
        payload = self._load()
        if payload[0] == "ok":
            return payload[1]
        raise FileQueueJobError(f"{payload[1]}\n{payload[2]}")

    def exception(self, timeout: float | None = None):
        try:
            self.result(timeout)
        except FileQueueJobError as exc:
            return exc
        return None


class FileQueueBackend:
    """Jobs round-trip through spooled files: the external-queue stand-in.

    ``submit`` pickles the whole job to ``spool/jobs/<seq>.job`` (write
    to a temp name, atomic rename); detached fork-context worker
    processes claim jobs by rename, execute them, and publish
    ``spool/results/<seq>.result`` files the returned future polls for.
    Nothing else crosses: no inherited queue objects, no pipes — which
    is the point.  A job that runs here is *provably self-contained*
    and would run the same under any external scheduler that can move a
    file and invoke Python.

    Workers fork lazily on first submit.  ``shutdown(wait=True)`` drops
    a stop marker, lets workers drain the queue, joins them and removes
    the spool directory (``wait=False`` terminates instead).  Spool
    directories live under ``$TMPDIR`` with the :data:`SPOOL_PREFIX`
    prefix so leak checks can spot orphans, mirroring the transport
    layer's ``/dev/shm`` convention.
    """

    name = "file_queue"

    def __init__(
        self,
        max_workers: int = 1,
        root: str | Path | None = None,
        poll_s: float = 0.002,
    ):
        self.max_workers = max(1, int(max_workers))
        self._own_root = root is None
        self.root = Path(
            tempfile.mkdtemp(prefix=SPOOL_PREFIX) if root is None else root
        )
        self._jobs = self.root / "jobs"
        self._results = self.root / "results"
        self._stop = self.root / "stop"
        for path in (self._jobs, self._results):
            path.mkdir(parents=True, exist_ok=True)
        self._poll_s = poll_s
        self._procs: list = []
        self._seq = 0
        #: submit-side executor.job span per job name, for drain_spans
        #: to re-parent worker captures under.
        self._job_spans: dict[str, SpanRecord] = {}
        self._closed = False

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        ctx = _pool_context()
        for _ in range(self.max_workers):
            proc = ctx.Process(
                target=_file_queue_worker,
                args=(
                    str(self._jobs),
                    str(self._results),
                    str(self._stop),
                    self._poll_s,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        if self._closed:
            raise RuntimeError("cannot schedule new futures after shutdown")
        self._ensure_workers()
        self._seq += 1
        name = f"{self._seq:08d}"
        span = _open_job_span(self.name, self._seq, fn)
        if span is not None:
            self._job_spans[name] = span
        tmp = self._jobs / f".tmp-{name}"
        tmp.write_bytes(
            pickle.dumps(
                (fn, args, kwargs, span is not None),
                pickle.HIGHEST_PROTOCOL,
            )
        )
        os.replace(tmp, self._jobs / f"{name}.job")
        return _FileQueueFuture(
            self._results / f"{name}.result", self._poll_s
        )

    def drain_spans(self, tracer) -> int:
        """Merge spooled worker captures into ``tracer``; returns spans.

        Spools are consumed in job-sequence order (sorted names — the
        claim/race order workers ran in is irrelevant), each capture
        re-parented under its submit-side ``executor.job`` span, so the
        merged trace is deterministic however the workers interleaved.
        """
        from repro.obs.spool import read_spool

        merged = 0
        for spool in sorted(self._results.glob("*.spans")):
            name = spool.stem
            merged += tracer.merge_records(
                read_spool(spool), parent=self._job_spans.get(name)
            )
            spool.unlink()
        if merged:
            tracer.count("executor.worker_spans_merged", merged)
        return merged

    def shutdown(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.touch()
        for proc in self._procs:
            if wait:
                proc.join()
            else:
                proc.terminate()
                proc.join()
        self._procs.clear()
        if self._own_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def __del__(self):  # pragma: no cover - best-effort backstop
        try:
            self.shutdown(wait=False)
        except Exception:
            pass


#: Backend registry: the ``execution.backend`` spec values.
EXECUTOR_BACKENDS: dict[str, type] = {
    "in_process": InProcessExecutor,
    "process_pool": ProcessPoolBackend,
    "file_queue": FileQueueBackend,
}


def make_executor(backend: str, max_workers: int):
    """Build a backend by registry name (the ``execution.backend`` seam)."""
    cls = EXECUTOR_BACKENDS.get(backend)
    if cls is None:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"choose from {sorted(EXECUTOR_BACKENDS)}"
        )
    return cls(max_workers)


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
            backend = make_executor("process_pool", workers)
            opened.callback(backend.shutdown, wait=True)
        yield replace(
            execution, workers=workers, backend=backend, channel=channel
        )
