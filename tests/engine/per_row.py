"""Frozen per-row reference for the engine's stage kernels.

The engine's stages have one kernel each, ``process_batch``, which
handles a lockstep rank of frames.  Their per-frame ``process`` bodies
used to live beside those kernels as the sequential mode; they live on
here, word for word, as the oracle every bitwise pin compares against.

:func:`per_row_graph` wraps each stage of a production graph in a
:class:`PerRowStage` whose ``process_batch`` runs the old scalar body
frame by frame (``self`` is still the production stage, so the oracle
shares its models, estimator and configuration).  Run it through the
same ``SequenceRunner`` or serve ``Scheduler`` as the production graph.
:func:`evaluate_per_row` and :func:`evaluate_strategy_per_row` run it at
width 1 by default, so each sequence is stepped alone in sequence-major
order, as the removed sequential mode did; a pin against them therefore
also checks that production stages keep no state across sequences.

The module is importable from every test directory (``tests/conftest.py``
puts this directory on ``sys.path``) and from the benchmarks
(``benchmarks/conftest.py``), whose per-row baselines it times.
"""

from __future__ import annotations

import numpy as np

from repro.core.variants import StrategyEvaluation
from repro.engine import (
    Execution,
    build_strategy_graph,
    strategy_runner,
    tracking_runner,
)
from repro.engine.context import FrameContext, SequenceState
from repro.engine.stage import Stage, StageGraph
from repro.engine.stages import (
    EventifyPairStage,
    EventifyStage,
    GazeRegressStage,
    ROIPredictStage,
    ROIReuseStage,
    ReadoutStage,
    SampleStage,
    SegmentOrReuseStage,
    SegmentStage,
    StatsCollectorStage,
    StrategySampleStage,
)
from repro.gaze.estimation import FittedGazeEstimator
from repro.sampling.eventification import eventify
from repro.sampling.roi import ROIReusePolicy, box_to_pixels, order_box

__all__ = [
    "PerRowStage",
    "per_row_graph",
    "process",
    "evaluate_per_row",
    "evaluate_strategy_per_row",
]


# -- tracking stages ---------------------------------------------------------


def _eventify(self, ctx: FrameContext, seq: SequenceState) -> None:
    event_map = seq.sensor.eventify_step(ctx.frame)
    if event_map is None:
        ctx.skipped = True  # bootstrap frame: nothing to difference yet
    else:
        ctx.event_map = event_map


def _roi_predict(self, ctx: FrameContext, seq: SequenceState) -> None:
    box_norm = order_box(
        np.asarray(self.predictor(ctx.event_map, seq.prev_seg_pred))
    )
    ctx.roi_box_norm = box_norm
    ctx.roi_box = box_to_pixels(box_norm, self.height, self.width)


def _roi_reuse(self, ctx: FrameContext, seq: SequenceState) -> None:
    policy: ROIReusePolicy = seq.slots[self.name]
    if self.window > 1 and not policy.should_predict():
        box_norm = order_box(np.asarray(policy.current()))
        ctx.roi_box_norm = box_norm
        ctx.roi_box = box_to_pixels(box_norm, *ctx.frame.shape)
        ctx.roi_reused = True
        policy.tick()
    else:
        process(self.inner, ctx, seq)
        policy.update(ctx.roi_box_norm)


def _sample(self, ctx: FrameContext, seq: SequenceState) -> None:
    ctx.sample_mask = seq.sensor.sampling_step(ctx.roi_box)


def _readout(self, ctx: FrameContext, seq: SequenceState) -> None:
    sensor = seq.sensor
    codes, readout, tokens, stats = sensor.readout_step(
        ctx.frame, ctx.sample_mask, ctx.roi_box
    )
    ctx.readout = readout
    ctx.rle_stats = stats
    # Host side: the faithful transmission round-trip, via the
    # sensor's one decode implementation.
    ctx.sparse_frame, ctx.mask = sensor.host_decode_tokens(
        tokens, ctx.roi_box
    )


def _segment(self, ctx: FrameContext, seq: SequenceState) -> None:
    seg = self.segmenter.predict_packed(ctx.sparse_frame, ctx.mask)
    ctx.seg_pred = seg
    seq.prev_seg_pred = seg


def _gaze(self, ctx: FrameContext, seq: SequenceState) -> None:
    est = self.estimator
    if self.per_sequence_state:
        est.fallback_state = seq.slots[self.name]
        ctx.gaze_pred = est.predict(ctx.seg_pred)
        seq.slots[self.name] = est.fallback_state
    else:
        ctx.gaze_pred = est.predict(ctx.seg_pred)


def _stats(self, ctx: FrameContext, seq: SequenceState) -> None:
    counts = self._token_counts(ctx.mask[None])
    self._record(ctx, int(counts[0]))


# -- strategy-harness stages -------------------------------------------------


def _eventify_pair(self, ctx: FrameContext, seq: SequenceState) -> None:
    if ctx.prev_frame is None:
        ctx.skipped = True  # no pair at t = 0
        return
    if self.sigma is None:
        ctx.event_map = eventify(ctx.prev_frame, ctx.frame)
    else:
        ctx.event_map = eventify(ctx.prev_frame, ctx.frame, sigma=self.sigma)


def _strategy_sample(self, ctx: FrameContext, seq: SequenceState) -> None:
    strategy = seq.slots[self.name]
    roi_box = ctx.gt_box if self.use_gt_roi else None
    decision = strategy.sample(
        ctx.frame, ctx.event_map, roi_box, strategy.rng
    )
    ctx.mask = decision.mask
    ctx.sparse_frame = decision.sparse_frame
    ctx.roi_box = decision.roi_box
    ctx.reuse_previous = decision.reuse_previous
    ctx.stats["compression"] = decision.compression


def _segment_or_reuse(self, ctx: FrameContext, seq: SequenceState) -> None:
    if ctx.reuse_previous and seq.prev_seg_pred is not None:
        ctx.seg_pred = seq.prev_seg_pred
        ctx.seg_reused = True
    else:
        ctx.seg_pred = self.segmenter.predict(ctx.sparse_frame, ctx.mask)
    seq.prev_seg_pred = ctx.seg_pred


#: Production stage class -> its frozen per-frame body.
SCALAR_BODIES = {
    EventifyStage: _eventify,
    ROIPredictStage: _roi_predict,
    ROIReuseStage: _roi_reuse,
    SampleStage: _sample,
    ReadoutStage: _readout,
    SegmentStage: _segment,
    GazeRegressStage: _gaze,
    StatsCollectorStage: _stats,
    EventifyPairStage: _eventify_pair,
    StrategySampleStage: _strategy_sample,
    SegmentOrReuseStage: _segment_or_reuse,
}


def process(stage: Stage, ctx: FrameContext, seq: SequenceState) -> None:
    """Run ``stage``'s frozen per-frame body on one frame."""
    SCALAR_BODIES[type(stage)](stage, ctx, seq)


class PerRowStage(Stage):
    """A production stage whose rank runs through the per-frame body."""

    def __init__(self, stage: Stage):
        if type(stage) not in SCALAR_BODIES:
            raise TypeError(f"no per-row reference for {type(stage).__name__}")
        self.stage = stage
        self.name = stage.name

    def start_sequence(self, seq: SequenceState) -> None:
        self.stage.start_sequence(seq)

    def process_batch(self, ctxs, seqs) -> None:
        for ctx, seq in zip(ctxs, seqs):
            process(self.stage, ctx, seq)


def per_row_graph(graph: StageGraph) -> StageGraph:
    """``graph`` with every stage replaced by its per-row reference."""
    return StageGraph([PerRowStage(stage) for stage in graph])


def evaluate_per_row(
    pipeline,
    eval_indices: list[int],
    reuse_window: int = 1,
    sensor_seed: int = 1234,
    execution: Execution = Execution(batch_size=1),
):
    """``BlissCamPipeline.evaluate`` over the per-row reference graph."""
    graph, template = pipeline.tracking_setup(
        reuse_window=reuse_window, sensor_seed=sensor_seed
    )
    runner = tracking_runner(
        sensor_template=template,
        sensor_seed=sensor_seed,
        graph=per_row_graph(graph),
        retain_intermediates=False,
    )
    run = runner.run(
        [(i, pipeline.dataset[i]) for i in eval_indices], execution
    )
    return pipeline._collect_evaluation(run)


def evaluate_strategy_per_row(
    strategy,
    segmenter,
    dataset,
    eval_indices: list[int],
    rng: np.random.Generator,
    gaze_estimator=None,
    execution: Execution = Execution(batch_size=1),
    use_gt_roi: bool = True,
) -> StrategyEvaluation:
    """``core.variants.evaluate_strategy`` over the per-row reference
    graph: same calibration, same graph, same summary."""
    if gaze_estimator is None:
        gaze_estimator = FittedGazeEstimator()
        segs = np.concatenate([dataset[i].segmentations for i in eval_indices])
        gazes = np.concatenate([dataset[i].gazes for i in eval_indices])
        gaze_estimator.fit(segs, gazes)
    graph = build_strategy_graph(
        strategy=strategy,
        segmenter=segmenter,
        gaze_estimator=gaze_estimator,
        rng=rng,
        use_gt_roi=use_gt_roi,
    )
    runner = strategy_runner(per_row_graph(graph), retain_intermediates=False)
    run = runner.run([(i, dataset[i]) for i in eval_indices], execution)
    return StrategyEvaluation.from_run(strategy.name, run)
