"""Algorithm-level system variants and the strategy evaluation harness.

Fig. 12 compares three pipeline variants (NPU-Full, NPU-ROI,
NPU-ROI-Sample) across segmentation backbones; Fig. 15 compares seven
sampling strategies under a common backbone.  Both reduce to the same
harness: *train a segmenter on frames sampled by strategy S, then measure
gaze error on held-out frames sampled by S*.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.engine import Execution, build_strategy_graph, strategy_runner
from repro.gaze.estimation import FittedGazeEstimator
from repro.gaze.metrics import AngularErrorStats, angular_errors
from repro.sampling.eventification import eventify
from repro.sampling.strategies import SamplingStrategy
from repro.synth.dataset import SyntheticEyeDataset
from repro.training.runtime import train_segmentation

__all__ = [
    "NoTrainingSamples",
    "StrategyEvaluation",
    "make_strategy",
    "collect_sampled_dataset",
    "train_for_strategy",
    "evaluate_strategy",
]


class NoTrainingSamples(ValueError):
    """A strategy transmitted no frame of the training split."""


@dataclass
class StrategyEvaluation:
    """Gaze accuracy of one (strategy, segmenter) pair."""

    strategy_name: str
    horizontal: AngularErrorStats
    vertical: AngularErrorStats
    mean_compression: float
    frames: int

    @classmethod
    def from_run(cls, strategy_name: str, run) -> "StrategyEvaluation":
        """Fold a strategy-graph :class:`~repro.engine.EngineRun`."""
        preds, truths, compressions = [], [], []
        for ctx in run.evaluated:
            preds.append(ctx.gaze_pred)
            truths.append(ctx.gaze_true)
            if not ctx.seg_reused:
                compressions.append(min(ctx.stats["compression"], 1e6))
        horizontal, vertical = angular_errors(np.array(preds), np.array(truths))
        return cls(
            strategy_name=strategy_name,
            horizontal=horizontal,
            vertical=vertical,
            mean_compression=(
                float(np.mean(compressions)) if compressions else 1.0
            ),
            frames=len(preds),
        )


def make_strategy(name: str, compression: float, dataset=None) -> SamplingStrategy:
    """Factory for the Fig. 15 strategy zoo by display name.

    ``ROIFixed`` needs dataset statistics; pass the training dataset.

    A compatibility shim over the :mod:`repro.api` strategy registry —
    the construction logic (including the ``ROI+Fixed`` mask fit) lives
    with the built-in registrations, so registered third-party
    strategies resolve here too.
    """
    # Lazy: core sits below the api layer; only this shim reaches up.
    import repro.api.builtin  # noqa: F401  (populates the registry)
    from repro.api.registry import STRATEGIES

    return STRATEGIES.get(name)(compression, dataset)


def collect_sampled_dataset(
    strategy: SamplingStrategy,
    dataset: SyntheticEyeDataset,
    indices: list[int],
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Build (sparse_frame, mask, target) training samples under a strategy.

    Every frame pair of ``indices`` is one row of a single
    :meth:`~repro.sampling.strategies.SamplingStrategy.sample_batch`
    rank, and every row is the same collector: a copy of ``strategy``
    drawing from ``rng``.  A rank draws per row in rank order, so the
    collector consumes ``rng`` frame by frame in dataset order, and its
    adaptive state (Skip's gate) carries from frame to frame and back
    into ``strategy`` for the next collection.
    """
    pairs = list(dataset.frame_pairs(indices))
    if not pairs:
        return []
    prevs, frames, segs, _gazes, gt_boxes, _seqs, _ts = zip(*pairs)
    event_maps = eventify(np.stack(prevs), np.stack(frames))
    collector = copy.copy(strategy)
    collector.rng = rng
    decisions = strategy.sample_batch(
        [collector] * len(pairs), list(frames), list(event_maps), list(gt_boxes)
    )
    vars(strategy).update(vars(collector), rng=strategy.rng)
    return [
        (decision.sparse_frame, decision.mask, seg)
        for decision, seg in zip(decisions, segs)
        # SKIP transmits nothing on a reused frame: no training sample.
        if not decision.reuse_previous
    ]


def train_for_strategy(
    segmenter,
    strategy: SamplingStrategy,
    dataset: SyntheticEyeDataset,
    indices: list[int],
    epochs: int,
    rng: np.random.Generator,
):
    """Train ``segmenter`` on frames sampled by ``strategy``.

    Executes on :func:`repro.training.runtime.train_segmentation`: each
    minibatch is one model rank.

    Stochastic strategies draw a *fresh* mask every epoch — the same
    regime as the real sensor, whose SRAM RNG resamples each frame.  This
    is what makes random sampling trainable at high compression: the
    network sees many sparse views of each frame instead of one frozen
    mask.  Deterministic strategies (Full+DS, Skip, ROI+DS, ROI+Fixed)
    draw nothing from the RNG, so their samples are collected once and
    every epoch trains on that first pass.  For the stateless ones the
    re-collection was literally identical work; for Skip it also pins the
    adaptive gate to a fresh first pass instead of letting its running
    skip-rate leak across epoch re-collections and silently drift the
    training set (the same leaked-state bug the per-sequence ``spawn``
    design fixes on the evaluation side).
    """
    result = None
    samples = None
    for _ in range(max(1, epochs)):
        if samples is None or strategy.stochastic:
            samples = collect_sampled_dataset(strategy, dataset, indices, rng)
        if not samples:
            raise NoTrainingSamples("strategy produced no training samples")
        epoch_result = train_segmentation(segmenter, samples, epochs=1, rng=rng)
        if result is None:
            result = epoch_result
        else:
            result.epoch_losses.extend(epoch_result.epoch_losses)
    return result


def evaluate_strategy(
    strategy: SamplingStrategy,
    segmenter,
    dataset: SyntheticEyeDataset,
    eval_indices: list[int],
    rng: np.random.Generator,
    gaze_estimator: FittedGazeEstimator | None = None,
    execution: Execution = Execution(),
    use_gt_roi: bool = True,
) -> StrategyEvaluation:
    """Measure gaze error when the host sees ``strategy``-sampled frames.

    The gaze estimator is calibrated on the evaluation sequences' ground
    truth (per-user calibration); pass a pre-fit estimator to share it.

    Runs on the shared :mod:`repro.engine` stage runtime: eventify ->
    strategy sampling -> segment-or-reuse -> gaze regression, the same
    runner the end-to-end tracker uses.  Each sequence samples from its
    own ``strategy.spawn`` stream keyed by sequence index (derived from
    ``rng``), so every ``execution`` (see :class:`~repro.engine.
    executors.Execution`) produces bitwise-identical results; Fig. 15
    sweeps can fan out freely.
    """
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
    # The collector below only needs gaze + stats scalars; drop the
    # O(frame size) intermediates as the run streams (and keep sharded
    # worker->parent transfers scalar-sized).
    runner = strategy_runner(graph, retain_intermediates=False)
    run = runner.run([(i, dataset[i]) for i in eval_indices], execution)
    return StrategyEvaluation.from_run(strategy.name, run)
