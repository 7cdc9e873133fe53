"""Frozen per-row reference for the engine's stage kernels and models.

The engine's stages have one kernel each, ``process_batch``, which
handles a lockstep rank of frames, and the models they call have one
way in each, their batch form.  The per-frame twins of both used to
live beside those kernels; they live on here, word for word, as the
oracle every bitwise pin compares against:

* the stages' per-frame ``process`` bodies (:data:`SCALAR_BODIES`);
* the model bodies the stage bodies call: :func:`predict_box`
  (``ROIPredictor``), :func:`margin_expanded_box`
  (``MarginExpandedPredictor``), :func:`predict` (the dense per-frame
  forward of the ViT, RITNet and EdGaze segmenters),
  :func:`forward_packed` / :func:`predict_packed` (the ViT's
  dropped-token inference), :func:`sample` with the seven strategies'
  per-frame bodies (:data:`SAMPLE_BODIES`, plus the scalar ROI+Learned
  blur :func:`default_score` and the full-frame mask helpers
  :func:`random_mask` / :func:`apply_mask`), and
  :func:`soft_mask_forward` / :func:`soft_mask_backward` (one
  ``SoftROIMask`` box).

:func:`per_row_graph` wraps each stage of a production graph in a
:class:`PerRowStage` whose ``process_batch`` runs the old scalar body
frame by frame (``self`` is still the production stage, so the oracle
shares its models, estimator and configuration).  Run it through the
same ``SequenceRunner`` or serve ``Scheduler`` as the production graph.
:func:`evaluate_per_row` and :func:`evaluate_strategy_per_row` run it at
width 1 by default, so each sequence is stepped alone in sequence-major
order, as the removed sequential mode did; a pin against them therefore
also checks that production stages keep no state across sequences.

:class:`ConstantBoxPredictor` is the shared ``BoxPredictor`` fake for
tests and benchmarks that need a fixed ROI.

The module is importable from every test directory (``tests/conftest.py``
puts this directory on ``sys.path``) and from the benchmarks
(``benchmarks/conftest.py``), whose per-row baselines it times.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import MarginExpandedPredictor
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
from repro.nn import functional as F
from repro.sampling import random_sampling as rs
from repro.sampling.eventification import event_density, eventify
from repro.sampling.random_sampling import _validate_rate
from repro.sampling.roi import ROIReusePolicy, box_to_pixels, order_box
from repro.sampling.strategies import (
    FullDownsample,
    FullRandom,
    ROIDownsample,
    ROIFixed,
    ROILearned,
    ROIRandom,
    SamplingDecision,
    SkipStrategy,
    _in_roi_rate,
)

__all__ = [
    "ConstantBoxPredictor",
    "PerRowStage",
    "per_row_graph",
    "process",
    "evaluate_per_row",
    "evaluate_strategy_per_row",
    "predict_box",
    "margin_expanded_box",
    "predict_roi",
    "predict",
    "forward_packed",
    "predict_packed",
    "sample",
    "default_score",
    "random_mask",
    "apply_mask",
    "soft_mask_forward",
    "soft_mask_backward",
]


# -- ROI predictors ----------------------------------------------------------


def predict_box(self, event_map, prev_segmentation):
    """``ROIPredictor.predict_box``: event map (+ prev seg) -> ordered
    normalized box."""
    out = self.forward(self.make_input(event_map, prev_segmentation))
    return order_box(out[0])


def margin_expanded_box(self, event_map, prev_seg):
    """``MarginExpandedPredictor.__call__``."""
    return self._expand(predict_box(self.roi_predictor, event_map, prev_seg))


def predict_roi(predictor, event_map, prev_seg):
    """One frame's box: the frozen per-frame body of the production
    predictor, or a one-row ``predict_batch`` call for test fakes."""
    if isinstance(predictor, MarginExpandedPredictor):
        return margin_expanded_box(predictor, event_map, prev_seg)
    (box,) = predictor.predict_batch([event_map], [prev_seg])
    return box


class ConstantBoxPredictor:
    """A ``BoxPredictor`` that places the same normalized box on every
    frame, whatever the events and the fed-back segmentation."""

    def __init__(self, box):
        self.box = np.asarray(box, dtype=np.float64)

    def predict_batch(self, event_maps, prev_segs):
        return [self.box for _ in event_maps]


# -- segmenters --------------------------------------------------------------


def predict(self, frame, mask):
    """The segmenters' ``predict``: single sparse frame -> integer
    segmentation map (argmax layer)."""
    logits = self.forward(frame[None], mask[None])
    return np.argmax(logits[0], axis=-1)


def forward_packed(self, frame, mask):
    """``ViTSegmenter.forward_packed``: sparse inference with
    *physically dropped* empty tokens.

    Returns ``(logits (H, W, K), token_valid (T,))``; patches without
    sampled pixels receive all-zero logits (argmax -> background).
    """
    c = self.config
    tokens, valid = self._tokenize(frame[None], mask[None])
    keep = np.nonzero(valid[0])[0]
    logits = np.zeros((c.tokens, c.patch * c.patch * c.num_classes))
    if keep.size:
        x = self.patch_embed(tokens[:, keep]) + self.pos_embed.data[:, keep]
        for block in self.encoder:
            x = block(x)
        cls = self.class_embed.data.copy()
        joint = np.concatenate([x, cls], axis=1)
        for block in self.decoder:
            joint = block(joint)
        packed = self.head(self.final_norm(joint[:, : keep.size]))
        logits[keep] = packed[0]
    per_pixel = logits.reshape(
        1, c.tokens, c.patch * c.patch, c.num_classes
    ).transpose(0, 1, 3, 2).reshape(
        1, c.tokens, c.num_classes * c.patch * c.patch
    )
    img = F.unpatchify(per_pixel, c.patch, c.num_classes, c.height, c.width)
    return img[0].transpose(1, 2, 0), valid[0]


def predict_packed(self, frame, mask):
    """``ViTSegmenter.predict_packed``: like :func:`predict` but with
    dropped-token (fast) inference."""
    logits, _ = forward_packed(self, frame, mask)
    return np.argmax(logits, axis=-1)


# -- sampling strategies -----------------------------------------------------


def random_mask(
    shape: tuple[int, int], rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli mask over the whole frame at the given expected rate."""
    _validate_rate(rate)
    return rng.random(shape) < rate


def apply_mask(frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero out unsampled pixels (what the host receives after RLE decode)."""
    if frame.shape != mask.shape:
        raise ValueError(f"shape mismatch: {frame.shape} vs {mask.shape}")
    return frame * mask



def _full_random(self, frame, event_map, roi_box, rng):
    mask = random_mask(frame.shape, 1.0 / self.compression, rng)
    return SamplingDecision(mask, apply_mask(frame, mask), None)


def _full_downsample(self, frame, event_map, roi_box, rng):
    mask = rs.uniform_grid_mask(frame.shape, 1.0 / self.compression)
    return SamplingDecision(mask, apply_mask(frame, mask), None)


def _skip(self, frame, event_map, roi_box, rng):
    self._frames_seen += 1
    target_send_rate = 1.0 / self.compression
    sent_rate = self._frames_sent / max(1, self._frames_seen)
    # Adaptive gate: lean toward sending when under budget.
    threshold = self.density_threshold * (
        2.0 if sent_rate > target_send_rate else 0.5
    )
    if self._frames_sent > 0 and event_density(event_map) < threshold:
        mask = np.zeros(frame.shape, dtype=bool)
        return SamplingDecision(
            mask, np.zeros_like(frame), None, reuse_previous=True
        )
    self._frames_sent += 1
    mask = np.ones(frame.shape, dtype=bool)
    return SamplingDecision(mask, frame.copy(), self._full_frame_box(frame))


def _roi_downsample(self, frame, event_map, roi_box, rng):
    box = roi_box or self._full_frame_box(frame)
    rate = _in_roi_rate(frame.shape, box, self.compression)
    mask = rs.uniform_mask_in_box(frame.shape, box, rate)
    return SamplingDecision(mask, apply_mask(frame, mask), box)


def _roi_fixed(self, frame, event_map, roi_box, rng):
    mask = self._fixed_mask(frame.shape, frame.size)
    return SamplingDecision(mask, apply_mask(frame, mask), None)


def default_score(frame, event_map):
    """``ROILearned._default_score``: the box-blurred event density."""
    # Box-blurred event density: a cheap learned-importance surrogate.
    kernel = 5
    padded = np.pad(event_map.astype(np.float64), kernel // 2, mode="edge")
    out = np.zeros_like(event_map, dtype=np.float64)
    for dr in range(kernel):
        for dc in range(kernel):
            out += padded[
                dr : dr + event_map.shape[0], dc : dc + event_map.shape[1]
            ]
    return out


def _roi_learned(self, frame, event_map, roi_box, rng):
    box = roi_box or self._full_frame_box(frame)
    scores = default_score(frame, event_map)
    mask = self._select(scores, box, frame, rng)
    return SamplingDecision(mask, apply_mask(frame, mask), box)


def _roi_random(self, frame, event_map, roi_box, rng):
    box = roi_box or self._full_frame_box(frame)
    rate = _in_roi_rate(frame.shape, box, self.compression)
    mask = rs.random_mask_in_box(frame.shape, box, rate, rng)
    return SamplingDecision(mask, apply_mask(frame, mask), box)


#: Strategy class -> its frozen per-frame ``sample`` body.
SAMPLE_BODIES = {
    FullRandom: _full_random,
    FullDownsample: _full_downsample,
    SkipStrategy: _skip,
    ROIDownsample: _roi_downsample,
    ROIFixed: _roi_fixed,
    ROILearned: _roi_learned,
    ROIRandom: _roi_random,
}


def sample(strategy, frame, event_map, roi_box, rng):
    """``strategy.sample``: one frame's :class:`SamplingDecision`."""
    return SAMPLE_BODIES[type(strategy)](strategy, frame, event_map, roi_box, rng)


# -- soft ROI mask -----------------------------------------------------------


def soft_mask_forward(self, box):
    """``SoftROIMask.forward``: box (r0, c0, r1, c1) -> soft mask (H, W)."""
    r0, c0, r1, c1 = box
    tau = self.tau
    self._sr0 = self._sigmoid((self._rows - r0) / tau)
    self._sr1 = self._sigmoid((r1 - self._rows) / tau)
    self._sc0 = self._sigmoid((self._cols - c0) / tau)
    self._sc1 = self._sigmoid((c1 - self._cols) / tau)
    self._row_term = self._sr0 * self._sr1  # (H,)
    self._col_term = self._sc0 * self._sc1  # (W,)
    return np.outer(self._row_term, self._col_term)


def soft_mask_backward(self, grad_mask):
    """``SoftROIMask.backward``: gradient of a scalar loss w.r.t. the
    four box coordinates of the last :func:`soft_mask_forward`."""
    tau = self.tau
    # d sigmoid(u)/du = s(1-s); chain through the signs of the edges.
    d_sr0 = -self._sr0 * (1 - self._sr0) / tau  # d/d r0
    d_sr1 = self._sr1 * (1 - self._sr1) / tau  # d/d r1
    d_sc0 = -self._sc0 * (1 - self._sc0) / tau  # d/d c0
    d_sc1 = self._sc1 * (1 - self._sc1) / tau  # d/d c1
    row_dot = grad_mask @ self._col_term  # (H,)
    col_dot = grad_mask.T @ self._row_term  # (W,)
    return np.array(
        [
            float(np.sum(row_dot * d_sr0 * self._sr1)),
            float(np.sum(col_dot * d_sc0 * self._sc1)),
            float(np.sum(row_dot * d_sr1 * self._sr0)),
            float(np.sum(col_dot * d_sc1 * self._sc0)),
        ]
    )


# -- tracking stages ---------------------------------------------------------


def _eventify(self, ctx: FrameContext, seq: SequenceState) -> None:
    event_map = seq.sensor.eventify_step(ctx.frame)
    if event_map is None:
        ctx.skipped = True  # bootstrap frame: nothing to difference yet
    else:
        ctx.event_map = event_map


def _roi_predict(self, ctx: FrameContext, seq: SequenceState) -> None:
    box_norm = order_box(
        np.asarray(predict_roi(self.predictor, ctx.event_map, seq.prev_seg_pred))
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
    seg = predict_packed(self.segmenter, ctx.sparse_frame, ctx.mask)
    ctx.seg_pred = seg
    seq.prev_seg_pred = seg


def _gaze(self, ctx: FrameContext, seq: SequenceState) -> None:
    est = self.estimator
    est.fallback_state = seq.slots[self.name]
    ctx.gaze_pred = est.predict(ctx.seg_pred)
    seq.slots[self.name] = est.fallback_state


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
    decision = sample(strategy, ctx.frame, ctx.event_map, roi_box, strategy.rng)
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
        ctx.seg_pred = predict(self.segmenter, ctx.sparse_frame, ctx.mask)
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
