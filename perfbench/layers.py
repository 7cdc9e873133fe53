"""Per-layer tracing for the repository benchmark.

:class:`LayerTracer` wraps public functions and methods of each layer of
``repro`` -- synth, training, nn, engine, serve, executors, store and the
``Session`` front door -- records one span per call and restores the
originals when it is uninstalled.  The program's own tracing
(``execution.trace``, ``repro.obs``) stays off: every span here comes
from this file.

Spans are kept in memory and written out by :meth:`LayerTracer.write`
when the benchmark ends.  A span's self time is its duration minus the
part its child spans cover.  A call made while a span of the same name
is open (a method that calls another wrapped method of the same layer,
such as ``ViTSegmenter.backward_to_input`` calling ``backward``) is
covered by the outer span and opens none of its own.

Metrics are accounted per *window*: :meth:`LayerTracer.reset` opens one
for the worker's set-up and one for each traced operation.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

from timing import now

__all__ = ["LayerTracer", "STAGES", "percentile"]

#: The tracking graph's stages, in graph order.
STAGES = ("eventify", "roi", "sample", "readout", "segment", "gaze", "stats")
#: Models whose forward and backward passes are timed.
MODELS = ("ROIPredictor", "ViTSegmenter")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _timed_call(fn, *args, **kwargs):
    """Run an executor job and return ``(seconds, result)``.

    Module-level so process pools can pickle it; it runs inside the
    worker process, so the seconds are the job's own, without queueing.
    """
    start = now()
    result = fn(*args, **kwargs)
    return now() - start, result


class _TimedFuture:
    """An executor future whose ``result()`` is timed as a wait and
    unwraps the ``(seconds, result)`` pair of :func:`_timed_call`."""

    def __init__(self, future, tracer: "LayerTracer"):
        self._future = future
        self._tracer = tracer

    def result(self, timeout=None):
        span = self._tracer.begin("executors.wait")
        try:
            seconds, value = self._future.result(timeout)
        finally:
            self._tracer.end(span)
        self._tracer.job_s.append(seconds)
        return value

    def __getattr__(self, name):
        return getattr(self._future, name)


class _Span:
    __slots__ = ("sid", "name", "parent", "start", "child_s")

    def __init__(self, sid: int, name: str, parent: int | None, start: float):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.child_s = 0.0


class LayerTracer:
    """Spans and counters around calls into the layers of ``repro``."""

    def __init__(self):
        #: Closed spans of every window: ``(id, parent id, name, start,
        #: end, self seconds)``.
        self.spans: list[tuple] = []
        #: Seconds each ``Session()`` construction took, over all windows.
        self.session_open_s: list[float] = []
        self._stack: list[_Span] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self.reset()

    # -- accounting windows ---------------------------------------------------
    def reset(self) -> None:
        """Open a new accounting window."""
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.job_s: list[float] = []
        #: ``(seconds, width)`` of each serve tick that dispatched frames.
        self.dispatches: list[tuple[float, int]] = []
        self._tick_s = 0.0
        self._tick_width: int | None = None
        self._pairs = 0
        self._pools: set[int] = set()

    def begin(self, name: str) -> _Span | None:
        """Open a span; ``None`` when a span of that name is already open."""
        for open_span in self._stack:
            if open_span.name == name:
                return None
        parent = self._stack[-1].sid if self._stack else None
        span = _Span(self._next_id, name, parent, now())
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: _Span | None) -> float:
        """Close ``span`` (the innermost open one); returns its seconds."""
        if span is None:
            return 0.0
        stop = now()
        self._stack.pop()
        seconds = stop - span.start
        if self._stack:
            self._stack[-1].child_s += seconds
        self.spans.append(
            (span.sid, span.parent, span.name, span.start, stop,
             seconds - span.child_s)
        )
        self.total[span.name] = self.total.get(span.name, 0.0) + seconds
        self.calls[span.name] = self.calls.get(span.name, 0) + 1
        return seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers -------------------------------------------------------------
    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, original, name, after=None):
        """``original`` inside a span named ``name`` (a string, a function
        of the call's arguments, or ``None`` for no span); ``after(args,
        result, seconds)`` runs once the call has returned."""
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = tracer.begin(label) if label is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = tracer.end(span)
            if after is not None:
                after(args, result, seconds)
            return result

        return wrapper

    def _method(self, cls, attr: str, name, after=None) -> None:
        original = cls.__dict__[attr]
        self._set(cls, attr, original, self._wrap(original, name, after))

    def _function(self, module, attr: str, name, after=None) -> None:
        """Wrap a module-level function at every ``repro`` module that
        binds it, so ``from x import f`` call sites are covered too."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, after)
        for mod_name, mod in sorted(list(sys.modules.items())):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, "__dict__", {}).get(attr) is original:
                self._set(mod, attr, original, wrapper)

    def install(self) -> None:
        """Install every wrapper (requires ``repro.api`` to be imported)."""
        from repro.api.session import Session
        from repro.engine import runner, stages
        from repro.engine.executors import ProcessPoolBackend
        from repro.gaze.estimation import FittedGazeEstimator
        from repro.nn import attention, conv, module, optim
        from repro.sampling.roi import ROIPredictor
        from repro.segmentation.vit import ViTSegmenter
        from repro.serve import streams, telemetry
        from repro.store.store import ArtifactStore
        from repro.synth.dataset import SyntheticEyeDataset
        from repro.training import runtime

        self._method(
            Session, "__init__", "api.session_open",
            lambda args, result, s: self.session_open_s.append(s),
        )

        # synth: sequences rendered for datasets and for serve clients.
        getitem = SyntheticEyeDataset.__dict__["__getitem__"]
        render = self._wrap(
            getitem, "synth.render",
            lambda args, result, s: self.count("synth.sequences"),
        )

        @functools.wraps(getitem)
        def dataset_getitem(dataset, index):
            if dataset.is_materialized(index):
                return getitem(dataset, index)
            return render(dataset, index)

        self._set(SyntheticEyeDataset, "__getitem__", getitem, dataset_getitem)
        self._method(
            streams.ClientStream, "__init__", "synth.render",
            lambda args, result, s: self.count("synth.sequences"),
        )
        self._method(streams.ClientStream, "poll", "synth.render")

        # training
        self._function(
            runtime, "collect_frame_pairs", None,
            lambda args, result, s: setattr(self, "_pairs", len(result)),
        )

        def trained(args, result, seconds):
            epochs = args[0].config.epochs
            self.count("training.epochs", epochs)
            self.count("training.pairs", self._pairs * epochs)
            self._pairs = 0

        self._method(runtime.TrainRunner, "run", "training.run", trained)
        self._method(FittedGazeEstimator, "fit", "training.gaze_fit")

        # nn
        for cls in (ROIPredictor, ViTSegmenter):
            self._method(cls, "forward", f"nn.forward.{cls.__name__}")
            self._method(cls, "backward", f"nn.backward.{cls.__name__}")
        self._method(
            ViTSegmenter, "backward_to_input", "nn.backward.ViTSegmenter"
        )
        self._method(optim.Adam, "step", "nn.adam_step")
        self._method(module.Module, "zero_grad", "nn.zero_grad")
        self._method(module.Module, "parameters", "nn.parameters")
        self._function(optim, "clip_grad_norm", "nn.clip_grad_norm")
        self._method(conv.Conv2d, "backward", "nn.conv2d_backward")
        self._method(
            attention.MultiHeadAttention, "forward", "nn.attention_forward"
        )
        self._method(
            attention.MultiHeadAttention, "backward", "nn.attention_backward"
        )

        # engine: the runner and the tracking graph's seven stages.
        self._method(runner.SequenceRunner, "run", "engine.run")

        def stage_done(args, result, seconds):
            width = len(args[1])
            self.count(f"engine.stage.{args[0].name}.frames", width)
            self._tick_s += seconds
            if self._tick_width is None:
                self._tick_width = width

        for cls in (
            stages.EventifyStage,
            stages.ROIReuseStage,
            stages.SampleStage,
            stages.ReadoutStage,
            stages.SegmentStage,
            stages.GazeRegressStage,
            stages.StatsCollectorStage,
        ):
            self._method(
                cls, "process_batch",
                lambda args: f"engine.stage.{args[0].name}", stage_done,
            )

        # serve: the scheduler records the queue depth once per tick,
        # after that tick's dispatch, which closes the dispatch.
        def tick_done(args, result, seconds):
            if self._tick_width is not None:
                self.dispatches.append((self._tick_s, self._tick_width))
            self._tick_s = 0.0
            self._tick_width = None

        self._method(
            telemetry.Telemetry, "record_queue_depth", None, tick_done
        )
        self._function(streams, "build_streams", "serve.build_streams")
        self._function(
            streams, "materialize_arrivals", "serve.build_streams"
        )

        # executors: pool start, jobs and the parent's waits.
        self._method(
            ProcessPoolBackend, "__init__", "executors.pool_start"
        )
        submit = ProcessPoolBackend.__dict__["submit"]
        tracer = self

        @functools.wraps(submit)
        def pool_submit(backend, fn, /, *args, **kwargs):
            # The pool forks its workers on the first submit.
            first = id(backend) not in tracer._pools
            tracer._pools.add(id(backend))
            span = tracer.begin(
                "executors.pool_start" if first else "executors.submit"
            )
            try:
                future = submit(backend, _timed_call, fn, *args, **kwargs)
            finally:
                tracer.end(span)
            tracer.count("executors.jobs")
            return _TimedFuture(future, tracer)

        self._set(ProcessPoolBackend, "submit", submit, pool_submit)

        # store
        self._method(
            ArtifactStore, "put", "store.put",
            lambda args, result, s: self.count("store.put_bytes", result.nbytes),
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics --------------------------------------------------------------
    def window_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the current window."""
        total = self.total.get
        calls = self.calls.get
        counts = self.counts.get
        epochs = counts("training.epochs", 0)
        out = {
            "synth.render_s": total("synth.render", 0.0),
            "synth.sequences": counts("synth.sequences", 0),
            "training.epoch_s": (
                total("training.run", 0.0) / epochs if epochs else 0.0
            ),
            "training.pairs": counts("training.pairs", 0),
            "training.gaze_fit_s": total("training.gaze_fit", 0.0),
        }
        for model in MODELS:
            out[f"nn.forward_s.{model}"] = total(f"nn.forward.{model}", 0.0)
            out[f"nn.backward_s.{model}"] = total(f"nn.backward.{model}", 0.0)
        out.update(
            {
                "nn.adam_step_s": total("nn.adam_step", 0.0),
                "nn.adam_steps": calls("nn.adam_step", 0),
                "nn.zero_grad_s": total("nn.zero_grad", 0.0),
                "nn.clip_grad_norm_s": total("nn.clip_grad_norm", 0.0),
                "nn.parameters_calls": calls("nn.parameters", 0),
                "nn.parameters_s": total("nn.parameters", 0.0),
                "nn.conv2d_backward_s": total("nn.conv2d_backward", 0.0),
                "nn.attention_forward_s": total("nn.attention_forward", 0.0),
                "nn.attention_backward_s": total("nn.attention_backward", 0.0),
                "engine.run_s": total("engine.run", 0.0),
            }
        )
        stage_frames = stage_calls = 0
        for stage in STAGES:
            key = f"engine.stage.{stage}"
            out[f"{key}.s"] = total(key, 0.0)
            out[f"{key}.calls"] = calls(key, 0)
            out[f"{key}.frames"] = counts(f"{key}.frames", 0)
            stage_frames += out[f"{key}.frames"]
            stage_calls += out[f"{key}.calls"]
        out["engine.width_mean"] = (
            stage_frames / stage_calls if stage_calls else 0.0
        )
        dispatch_ms = sorted(s * 1e3 for s, _ in self.dispatches)
        widths = [w for _, w in self.dispatches]
        out.update(
            {
                "serve.build_streams_s": total("serve.build_streams", 0.0),
                "serve.dispatches": len(self.dispatches),
                "serve.dispatch_width_mean": (
                    sum(widths) / len(widths) if widths else 0.0
                ),
                "serve.dispatch_ms_p50": percentile(dispatch_ms, 50),
                "serve.dispatch_ms_p99": percentile(dispatch_ms, 99),
                "executors.pool_start_s": total("executors.pool_start", 0.0),
                "executors.jobs": counts("executors.jobs", 0),
                "executors.wait_s": total("executors.wait", 0.0),
                "executors.job_s_max": max(self.job_s, default=0.0),
                "store.puts": calls("store.put", 0),
                "store.put_bytes": counts("store.put_bytes", 0),
                "store.put_s": total("store.put", 0.0),
            }
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span, plus self time summed per span name."""
        self_s: dict[str, float] = {}
        for _, _, name, _, _, own in self.spans:
            self_s[name] = self_s.get(name, 0.0) + own
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "columns": ["id", "parent", "name", "start", "end", "self_s"],
                    "spans": self.spans,
                    "self_s": dict(sorted(self_s.items())),
                }
            )
        )
