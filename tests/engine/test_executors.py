"""Executor backends: the process pool bitwise == the unsharded loop.

The :class:`~repro.engine.executors.ExecutorBackend` protocol is the
seam every sharded path dispatches through; these tests pin the
contract (submit/shutdown/max_workers) on the process pool and on
:class:`InProcessExecutor`, the synchronous fake tests inject through
``Execution(backend=...)``, and both backends' parity on a real
staged-engine run.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine import (
    Execution,
    ProcessPoolBackend,
    SequenceRunner,
    Stage,
    TransportChannel,
    sharding,
)
from repro.obs import Tracer, current_tracer, install_tracer


class InProcessExecutor:
    """Synchronous fake backend: ``submit`` runs the job at once in the
    calling process and returns an already-settled future."""

    def __init__(self, max_workers: int = 1):
        self.max_workers = max(1, int(max_workers))
        self._closed = False

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if self._closed:
            raise RuntimeError("cannot schedule new futures after shutdown")
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True


BACKENDS = {
    "in_process": InProcessExecutor,
    "process_pool": ProcessPoolBackend,
}


def _square(x):
    return x * x


def _boom():
    raise ValueError("worker-side failure")


def _traced_square(x):
    with current_tracer().span("job.square", x=x):
        return x * x


class Probe(Stage):
    name = "probe"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))


class Seq:
    frames = np.zeros((3, 4, 4))


def _contexts(run):
    return [(c.seq_index, c.t, c.gaze_pred) for c in run.contexts]


class TestProtocolContract:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_submit_map_shutdown(self, backend):
        ex = BACKENDS[backend](2)
        try:
            assert ex.max_workers == 2
            # result(timeout) is part of the future contract everywhere.
            assert ex.submit(_square, 7).result(30) == 49
        finally:
            ex.shutdown(wait=True)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_submit_after_shutdown_raises(self, backend):
        ex = BACKENDS[backend](2)
        ex.shutdown(wait=True)
        with pytest.raises(RuntimeError):
            ex.submit(_square, 1)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_worker_exception_reaches_the_future(self, backend):
        ex = BACKENDS[backend](2)
        try:
            with pytest.raises(ValueError, match="worker-side failure"):
                ex.submit(_boom).result(timeout=30)
        finally:
            ex.shutdown(wait=True)

    def test_in_process_results_arrive_in_submission_order(self):
        ex = InProcessExecutor(4)
        futures = [ex.submit(_square, i) for i in range(10)]
        assert [f.result() for f in futures] == [i * i for i in range(10)]
        ex.shutdown()


class TestExecution:
    """One value, one validation site: every front (engine, training,
    serving) rejects the same settings because the type does."""

    @pytest.mark.parametrize(
        "settings",
        [
            {"workers": 0},
            {"workers": -3},
            {"batch_size": 0},
            # Silently ignoring an injected backend or channel (and
            # running in-process) would defeat the caller's intent.
            {"workers": 1, "backend": InProcessExecutor(2)},
            {"workers": 1, "channel": TransportChannel()},
        ],
        ids=["workers-0", "workers-neg", "batch_size-0", "backend", "channel"],
    )
    def test_invalid_settings_rejected(self, settings):
        with pytest.raises(ValueError, match="workers|batch_size"):
            Execution(**settings)


class TestEngineParity:
    """The acceptance pin: both backends == the unsharded run on a real
    staged run (shards + transport + fixed-order merge)."""

    @pytest.fixture(scope="class")
    def reference(self):
        sequences = [(i, Seq()) for i in (4, 1, 3, 0, 2)]
        run = SequenceRunner([Probe()]).run(sequences)
        return sequences, _contexts(run)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_backend_bitwise_identical_to_serial(self, backend, reference):
        sequences, expected = reference
        ex = BACKENDS[backend](2)
        try:
            run = SequenceRunner([Probe()]).run(
                sequences, Execution(workers=2, backend=ex)
            )
        finally:
            ex.shutdown(wait=True)
        assert _contexts(run) == expected
        assert run.stage_timings["probe"].frames == len(sequences) * 3


class TestWorkerSpans:
    def test_per_dispatch_pool_merges_worker_spans_by_exit(self):
        tracer = Tracer()
        with install_tracer(tracer):
            with sharding(Execution(workers=2), 3) as live:
                assert isinstance(live.backend, ProcessPoolBackend)
                futures = [
                    live.backend.submit(_traced_square, x) for x in range(3)
                ]
                # Nothing read yet: the pool's shutdown merges on exit.
                assert "job.square" not in [s.name for s in tracer.spans]
            assert [f.result() for f in futures] == [0, 1, 4]
        jobs = [s for s in tracer.spans if s.name == "executor.job"]
        squares = [s for s in tracer.spans if s.name == "job.square"]
        assert [s.attrs["x"] for s in squares] == [0, 1, 2]
        assert [s.parent for s in squares] == [s.id for s in jobs]
        assert tracer.counters["executor.worker_spans_merged"] == 3

    def test_untraced_submit_returns_the_pools_future(self):
        pool = ProcessPoolBackend(2)
        try:
            future = pool.submit(_square, 3)
            assert type(future) is Future
            assert future.result(timeout=30) == 9
        finally:
            pool.shutdown(wait=True)
