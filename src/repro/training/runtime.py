"""The batched + sharded training runtime (the training-side engine).

Every other execution surface of this reproduction — evaluation, strategy
sweeps, serving — runs on the engine's batched-rank design: fixed-width
vectorized ranks, per-unit spawned RNG streams keyed by stable identity,
and fixed-order reductions, which together make execution mode (scalar /
batched / sharded) a pure performance knob.  This module brings the last
layer, *training*, onto the same design: it holds the one joint trainer,
:class:`TrainRunner`, and the one segmentation trainer,
:func:`train_segmentation`.

:class:`TrainRunner` forms minibatches of teacher-forced frame pairs and
runs each as **one rank**:

* ``eventify`` vectorized over the stacked ``(B, H, W)`` frame pairs;
* the ROI predictor's batched forward/backward (its conv trunk is the
  row-independent GEMM introduced in PR 2);
* :meth:`~repro.training.joint.SoftROIMask.forward_batch` /
  ``backward_batch`` over the ``(B, 4)`` predicted boxes;
* one ViT forward/backward per minibatch;
* per-sample RNG streams for the cue dropout / cue dilation draws and the
  Bernoulli sampling masks, keyed ``[seed, TRAIN_STREAM_TAG, epoch,
  seq_index, t]`` and drawn in fixed sample order — what a sample draws
  never depends on which rank (or worker) it lands in.

Determinism contract (pinned by ``tests/training/``):

* ``batch_size=1`` reproduces the historical per-frame stepping bitwise
  (against a transcription of the retired loop under the per-sample
  stream semantics — the PR 1/2 convention for redefined streams);
* ``batch_size > 1`` is a **documented semantic change**: one Adam step
  per minibatch instead of per frame pair (``docs/training.md``);
* ``grad_accum=True`` is the data-parallel schedule: per-sequence
  gradient sums, reduced in fixed sequence order, one Adam step per
  epoch.  ``workers >= 2`` shards the per-sequence gradient passes over
  processes; because the reduction order is fixed and the streams are
  identity-keyed, **any** worker count produces bitwise-identical
  results to the in-process accumulation.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engine.executors import Execution, sharding
from repro.engine.runner import contiguous_shards
from repro.engine.transport import resolve_payload
from repro.nn import Adam, CrossEntropyLoss, MSELoss, clip_grad_norm
from repro.obs.tracer import current_tracer
from repro.nn.functional import grey_dilation, grey_erosion
from repro.sampling.eventification import eventify
from repro.sampling.random_sampling import random_mask_in_box
from repro.sampling.roi import ROIPredictor, box_from_pixels, box_to_pixels
from repro.training.joint import (
    JointTrainConfig,
    JointTrainResult,
    SoftROIMask,
)

__all__ = [
    "TRAIN_STREAM_TAG",
    "TrainResult",
    "TrainSample",
    "TrainRunner",
    "batched",
    "collect_frame_pairs",
    "sample_stream",
    "train_segmentation",
]

#: Namespaces the training streams away from every other consumer of the
#: same base seed (the serving runtime uses the analogous
#: ``SERVE_STREAM_TAG``).
TRAIN_STREAM_TAG = zlib.crc32(b"repro.training")


@dataclass
class TrainResult:
    """Loss trajectory of one segmentation training run."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]

    @property
    def improved(self) -> bool:
        return len(self.epoch_losses) >= 2 and (
            self.epoch_losses[-1] < self.epoch_losses[0]
        )


def batched(items: list, batch_size: int):
    """Yield consecutive chunks of at most ``batch_size`` items."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1: {batch_size}")
    for start in range(0, len(items), batch_size):
        yield items[start : start + batch_size]


def _epoch_span(epoch: int, schedule: str, **attrs):
    """The ``train.epoch`` span of one epoch under the installed tracer
    (bumping the ``train.epochs`` counter); a no-op without one."""
    tracer = current_tracer()
    if tracer is None:
        return nullcontext()
    tracer.count("train.epochs")
    return tracer.span("train.epoch", epoch=epoch, schedule=schedule, **attrs)


#: The joint procedure's ``(seg_loss, roi_loss, soft_mask)`` kernels.
_Kernels = tuple[CrossEntropyLoss, MSELoss, SoftROIMask]


def _joint_kernels(config: JointTrainConfig, segmenter) -> _Kernels:
    """Build the joint procedure's loss and soft-mask kernels.

    The only place they are built: :meth:`TrainRunner.run` and the
    shard workers (:func:`_epoch_shard_job`) both call it, so in-process
    and sharded training run the same kernels by construction.
    """
    return (
        CrossEntropyLoss(),
        MSELoss(),
        SoftROIMask(
            segmenter.config.height, segmenter.config.width, tau=config.tau
        ),
    )


def sample_stream(
    seed: int, epoch: int, seq_index: int, t: int
) -> np.random.Generator:
    """The RNG stream of one training sample in one epoch.

    Keyed by stable identity — never by execution order — so the draws
    are invariant to minibatch composition, rank width and shard
    placement.  Fixed draw order within the stream: (1) cue dropout,
    (2) cue dilation (probability, radius, direction), (3) the Bernoulli
    sampling mask.
    """
    return np.random.default_rng([seed, TRAIN_STREAM_TAG, epoch, seq_index, t])


@dataclass
class TrainSample:
    """One teacher-forced frame pair of the joint procedure."""

    seq_index: int
    t: int
    prev_frame: np.ndarray
    frame: np.ndarray
    prev_seg: np.ndarray | None
    target_seg: np.ndarray
    gt_box: tuple | None


def _sequence_samples(seq_index: int, seq) -> list[TrainSample]:
    """The frame pairs of one sequence, in time order.

    Teacher forcing: the previous frame's ground-truth segmentation
    stands in for the host's fed-back map.
    """
    return [
        TrainSample(
            seq_index=seq_index,
            t=t,
            prev_frame=seq.frames[t - 1],
            frame=seq.frames[t],
            prev_seg=seq.segmentations[t - 1],
            target_seg=seq.segmentations[t],
            gt_box=seq.roi_boxes[t],
        )
        for t in range(1, len(seq))
    ]


def collect_frame_pairs(dataset, sequence_indices: Sequence[int]) -> list[TrainSample]:
    """All frame pairs of the given sequences, sequence-major."""
    samples: list[TrainSample] = []
    for seq_index in sequence_indices:
        samples.extend(_sequence_samples(seq_index, dataset[seq_index]))
    return samples


def _augmented_cue(
    sample: TrainSample, config: JointTrainConfig, rng: np.random.Generator
) -> np.ndarray | None:
    """Cue dropout / dilation augmentation for one sample.

    The draw order transcribes the retired per-frame loop exactly; the
    grey morphology is the numpy helper (:func:`repro.nn.functional.
    grey_dilation`), so the training hot path carries no scipy
    dependency.  Symmetric corruption makes the cue's *area*
    uninformative about the true box, forcing the predictor to take the
    extent from the event map and use the cue only for coarse
    localization.
    """
    prev_seg = sample.prev_seg
    if config.cue_dropout and rng.random() < config.cue_dropout:
        return None
    if (
        prev_seg is not None
        and config.cue_dilate_prob
        and rng.random() < config.cue_dilate_prob
    ):
        radius = int(rng.integers(1, config.cue_dilate_max_px + 1))
        size = 2 * radius + 1
        if rng.random() < 0.5:
            return grey_dilation(prev_seg, size)
        return grey_erosion(prev_seg, size)
    return prev_seg


def _rank_backward(
    roi_predictor,
    segmenter,
    config: JointTrainConfig,
    seed: int,
    epoch: int,
    batch: list[TrainSample],
    seg_loss,
    roi_loss,
    soft_mask: SoftROIMask,
    zero_grads: bool,
) -> tuple[float, float]:
    """One minibatch through the joint pipeline as a single rank.

    Leaves the parameter gradients of both networks populated (fresh
    when ``zero_grads``, accumulated on top of the existing ones
    otherwise) and returns ``(seg_loss, roi_loss)`` — the minibatch-mean
    segmentation cross entropy and the mean ROI regression error over
    the box-supervised samples (0.0 when none are).

    The op sequence transcribes the retired ``_train_step`` with the
    batch axis stacked; at ``B=1`` every kernel is bitwise-identical to
    the per-frame loop (the parity test pins this end to end).
    """
    height, width = batch[0].frame.shape
    prev_frames = np.stack([s.prev_frame for s in batch])
    frames = np.stack([s.frame for s in batch])
    targets = np.stack([s.target_seg for s in batch])

    # -- in-sensor stages: vectorized eventification + per-sample cues ----
    event_maps = eventify(prev_frames, frames)  # (B, H, W), elementwise
    streams = [
        sample_stream(seed, epoch, s.seq_index, s.t) for s in batch
    ]
    cues = [
        _augmented_cue(sample, config, rng)
        for sample, rng in zip(batch, streams)
    ]
    roi_in = np.concatenate(
        [
            ROIPredictor.make_input(event_maps[i], cues[i])
            for i in range(len(batch))
        ]
    )
    box_pred = roi_predictor(roi_in)  # (B, 4), sigmoid-activated

    # ROI regression loss against the ground-truth foreground boxes.
    # Blink frames (no GT box) get zero weight: no box supervision, zero
    # gradient, zero reported loss — as in the per-frame loop.
    gt_norm = np.zeros_like(box_pred)
    supervised = np.zeros((len(batch), 1))
    for i, sample in enumerate(batch):
        if sample.gt_box is not None:
            gt_norm[i] = box_from_pixels(sample.gt_box, height, width)
            supervised[i, 0] = 1.0
    roi_loss_val = roi_loss.forward(box_pred, gt_norm, mask=supervised)
    grad_box_mse = roi_loss.backward()

    # Hard sampling for the forward pass (what the sensor actually does),
    # drawn per sample from its own stream, in fixed sample order.
    bern = np.empty((len(batch), height, width), dtype=bool)
    for i, rng in enumerate(streams):
        pixel_box = box_to_pixels(box_pred[i], height, width)
        bern[i] = random_mask_in_box(
            (height, width), pixel_box, config.roi_sampling_rate, rng
        )

    # Soft relaxation for the backward path through sampling: one batched
    # mask rank over the (B, 4) boxes.
    soft = soft_mask.forward_batch(box_pred)
    eff_mask = bern * soft
    sparse = frames * eff_mask

    # -- off-sensor segmentation: one ViT forward/backward per rank -------
    logits = segmenter(sparse, eff_mask)
    seg_loss_val = seg_loss.forward(logits, targets)
    grad_logits = seg_loss.backward()

    if zero_grads:
        segmenter.zero_grad()
    grad_pix, grad_bit = segmenter.backward_to_input(grad_logits)

    # Chain rule into the soft mask, gradient-masked to sampled pixels
    # (the paper's explicit masking rule): bern zeroes unsampled pixels.
    grad_soft = (grad_pix * frames + grad_bit) * bern
    grad_box_seg = soft_mask.backward_batch(grad_soft)

    total_grad_box = grad_box_mse + config.seg_to_roi_weight * grad_box_seg
    if zero_grads:
        roi_predictor.zero_grad()
    roi_predictor.backward(total_grad_box)
    return seg_loss_val, float(roi_loss_val)


@dataclass
class _SequenceGrads:
    """One sequence's accumulated epoch contribution (the reduction atom
    of the data-parallel schedule — sequences are never split across
    shards, so any shard geometry reduces identically)."""

    seq_index: int
    roi_grads: list[np.ndarray]
    seg_grads: list[np.ndarray]
    seg_sum: float
    roi_sum: float
    ranks: int


def _sequence_gradients(
    roi_predictor,
    segmenter,
    config: JointTrainConfig,
    seed: int,
    epoch: int,
    seq_index: int,
    seq,
    seg_loss,
    roi_loss,
    soft_mask: SoftROIMask,
) -> _SequenceGrads:
    """Accumulate one sequence's gradients at the current weights.

    Ranks never span sequences here: each sequence's frame pairs are cut
    into ``batch_size`` minibatches and their gradients accumulate in
    rank order — a pure function of (weights, config, seed, epoch,
    sequence), which is what makes the per-sequence sums shard-placement
    invariant.
    """
    samples = _sequence_samples(seq_index, seq)
    roi_predictor.zero_grad()
    segmenter.zero_grad()
    seg_sum, roi_sum, ranks = 0.0, 0.0, 0
    for rank in batched(samples, config.batch_size):
        seg_l, roi_l = _rank_backward(
            roi_predictor,
            segmenter,
            config,
            seed,
            epoch,
            rank,
            seg_loss,
            roi_loss,
            soft_mask,
            zero_grads=False,
        )
        seg_sum += seg_l
        roi_sum += roi_l
        ranks += 1
    return _SequenceGrads(
        seq_index=seq_index,
        roi_grads=[p.grad.copy() for p in roi_predictor.parameters()],
        seg_grads=[p.grad.copy() for p in segmenter.parameters()],
        seg_sum=seg_sum,
        roi_sum=roi_sum,
        ranks=ranks,
    )


def _epoch_shard_job(
    models_handle, shard_handle, epoch: int
) -> list[_SequenceGrads]:
    """Worker-side entry point: per-sequence gradients for one shard.

    Module-level so the pool can pickle it.  ``models_handle`` carries
    ``(roi_predictor, segmenter, config, seed)`` published per epoch into
    a slot (so epoch ``e``'s weights replace epoch ``e-1``'s segments);
    ``shard_handle`` carries the shard's ``(seq_index, sequence)`` pairs,
    published once per run and digest-cached worker-side, so
    steady-state epochs resolve it without touching the bytes again.
    Weight and frame arrays arrive as read-only views over the mapped
    segments; ``Parameter.__setstate__`` recreates writable gradient
    buffers, and workers never write ``.data`` or frames — they only
    accumulate gradients — so read-only views are exactly as safe as
    pickled copies.  The loss and soft-mask kernels come from
    :func:`_joint_kernels`, the builder the in-process run uses too.
    """
    roi_predictor, segmenter, config, seed = resolve_payload(models_handle)
    seg_loss, roi_loss, soft_mask = _joint_kernels(config, segmenter)
    return [
        _sequence_gradients(
            roi_predictor,
            segmenter,
            config,
            seed,
            epoch,
            seq_index,
            seq,
            seg_loss,
            roi_loss,
            soft_mask,
        )
        for seq_index, seq in resolve_payload(shard_handle)
    ]


class TrainRunner:
    """Trains the ROI predictor and sparse ViT end to end (Sec. III-C).

    Executes the joint procedure in batched ranks.

    Parameters
    ----------
    roi_predictor, segmenter:
        The networks to train (mutated in place).
    config:
        The :class:`~repro.training.joint.JointTrainConfig`;
        ``batch_size`` sets the rank width / step granularity and
        ``grad_accum`` selects the data-parallel epoch schedule.
    rng:
        One integer is drawn from it to key the per-sample streams.

    The two Adam optimizers are runner state: their moments carry over
    from one :meth:`run` to the next.
    """

    def __init__(
        self,
        roi_predictor,
        segmenter,
        config: JointTrainConfig,
        rng: np.random.Generator,
    ):
        self.roi_predictor = roi_predictor
        self.segmenter = segmenter
        self.config = config
        #: One draw keys every per-sample stream (the spawn idiom:
        #: downstream streams derive from identity, not draw order).
        self.seed = int(rng.integers(2**63 - 1))
        self.opt_seg = Adam(segmenter.parameters(), lr=config.lr_segmenter)
        self.opt_roi = Adam(roi_predictor.parameters(), lr=config.lr_roi)

    # -- the front door -----------------------------------------------------
    def run(
        self,
        dataset,
        sequence_indices: Sequence[int],
        *,
        execution: Execution = Execution(),
    ) -> JointTrainResult:
        """Train over ``sequence_indices`` for ``config.epochs`` epochs.

        ``execution.workers >= 2`` shards the data-parallel schedule's
        per-sequence gradient passes over worker processes (see
        :class:`~repro.engine.executors.Execution`; its lockstep fields
        do not apply — the minibatch is ``config.batch_size``).
        Requires ``config.grad_accum`` — the stepped schedule updates
        weights every minibatch and is inherently sequential.  Results
        are bitwise-identical for any worker count.
        """
        if execution.workers >= 2 and not self.config.grad_accum:
            raise ValueError(
                "sharded training requires grad_accum=True: the stepped "
                "schedule takes an Adam step per minibatch, which is "
                "inherently sequential; the data-parallel schedule "
                "accumulates per-sequence gradients (fixed reduction "
                "order) and steps once per epoch"
            )
        indices = list(sequence_indices)
        kernels = _joint_kernels(self.config, self.segmenter)
        self.segmenter.train()
        self.roi_predictor.train()
        try:
            if self.config.grad_accum:
                return self._run_accumulated(
                    dataset, indices, execution, kernels
                )
            return self._run_stepped(
                collect_frame_pairs(dataset, indices), kernels
            )
        finally:
            self.segmenter.eval()
            self.roi_predictor.eval()

    # -- stepped schedule (legacy semantics at batch_size=1) ------------------
    def _run_stepped(
        self, samples: list[TrainSample], kernels: _Kernels
    ) -> JointTrainResult:
        """One Adam step per minibatch, minibatches cut sequence-major."""
        cfg = self.config
        result = JointTrainResult()
        for epoch in range(cfg.epochs):
            with _epoch_span(epoch, "stepped", samples=len(samples)):
                self._stepped_epoch(samples, epoch, kernels, result)
        return result

    def _stepped_epoch(
        self,
        samples: list[TrainSample],
        epoch: int,
        kernels: _Kernels,
        result: JointTrainResult,
    ) -> None:
        cfg = self.config
        seg_total, roi_total, steps = 0.0, 0.0, 0
        for rank in batched(samples, cfg.batch_size):
            seg_l, roi_l = _rank_backward(
                self.roi_predictor,
                self.segmenter,
                cfg,
                self.seed,
                epoch,
                rank,
                *kernels,
                zero_grads=True,
            )
            clip_grad_norm(self.roi_predictor.parameters(), cfg.grad_clip)
            clip_grad_norm(self.segmenter.parameters(), cfg.grad_clip)
            self.opt_roi.step()
            self.opt_seg.step()
            seg_total += seg_l
            roi_total += roi_l
            steps += 1
        result.seg_losses.append(seg_total / max(steps, 1))
        result.roi_losses.append(roi_total / max(steps, 1))

    # -- data-parallel schedule (grad_accum) ----------------------------------
    def _run_accumulated(
        self,
        dataset,
        indices: list[int],
        execution: Execution,
        kernels: _Kernels,
    ) -> JointTrainResult:
        """One Adam step per epoch over fixed-order per-sequence sums."""
        cfg = self.config
        result = JointTrainResult()
        roi_params = self.roi_predictor.parameters()
        seg_params = self.segmenter.parameters()
        # One backend + channel for the whole run (not per epoch).
        with sharding(execution, len(indices)) as live:
            # Each shard's sequences ship once per run, as the parent
            # holds them, into slots a later training run on the same
            # channel will recycle.
            shard_handles = None
            if live.backend is not None:
                shard_handles = [
                    live.channel.publish(
                        [(i, dataset[i]) for i in shard],
                        slot=("train_shard", n),
                    )
                    for n, shard in enumerate(
                        contiguous_shards(indices, live.workers)
                    )
                ]
            for epoch in range(cfg.epochs):
                with _epoch_span(
                    epoch,
                    "accumulated",
                    sequences=len(indices),
                    workers=live.workers,
                ):
                    self._accumulate_epoch(
                        dataset, indices, shard_handles, live, epoch,
                        kernels, roi_params, seg_params, result,
                    )
        return result

    def _accumulate_epoch(
        self,
        dataset,
        indices: list[int],
        shard_handles: list | None,
        live: Execution,
        epoch: int,
        kernels: _Kernels,
        roi_params,
        seg_params,
        result: JointTrainResult,
    ) -> None:
        """One data-parallel epoch: reduce per-sequence sums, step once."""
        cfg = self.config
        if live.backend is not None:
            per_seq = self._sharded_epoch(shard_handles, live, epoch)
        else:
            # Lazy in-process generation: only one sequence's gradient
            # copies are alive at a time — the reduction below consumes
            # them in the same fixed sequence order either way.
            per_seq = (
                _sequence_gradients(
                    self.roi_predictor,
                    self.segmenter,
                    cfg,
                    self.seed,
                    epoch,
                    seq_index,
                    dataset[seq_index],
                    *kernels,
                )
                for seq_index in indices
            )
        # Fixed-order reduction: per-sequence sums added in sequence
        # order — the bits cannot depend on which worker computed
        # which shard (or on the worker count at all).
        roi_total = [np.zeros_like(p.data) for p in roi_params]
        seg_total = [np.zeros_like(p.data) for p in seg_params]
        seg_sum, roi_sum, ranks = 0.0, 0.0, 0
        for grads in per_seq:
            for acc, grad in zip(roi_total, grads.roi_grads):
                acc += grad
            for acc, grad in zip(seg_total, grads.seg_grads):
                acc += grad
            seg_sum += grads.seg_sum
            roi_sum += grads.roi_sum
            ranks += grads.ranks
        if ranks == 0:
            # No frame pairs at all (empty indices / single-frame
            # sequences): no gradient, so no optimizer step — a warm
            # Adam would otherwise move the weights on pure momentum,
            # which the stepped schedule (and the retired loop) never
            # did for empty input.
            result.seg_losses.append(0.0)
            result.roi_losses.append(0.0)
            return
        scale = 1.0 / ranks
        for param, grad in zip(roi_params, roi_total):
            param.grad[...] = grad * scale
        for param, grad in zip(seg_params, seg_total):
            param.grad[...] = grad * scale
        clip_grad_norm(roi_params, cfg.grad_clip)
        clip_grad_norm(seg_params, cfg.grad_clip)
        self.opt_roi.step()
        self.opt_seg.step()
        result.seg_losses.append(seg_sum / ranks)
        result.roi_losses.append(roi_sum / ranks)

    def _sharded_epoch(self, shard_handles: list, live: Execution, epoch: int):
        """Per-sequence gradients of one epoch, sharded over processes.

        Contiguous shards of whole sequences onto ``live.backend``.  The
        epoch-start weights are published into the ``"train_models"``
        slot — each epoch's segments *replace* the previous epoch's
        (safe: every epoch-``e`` task completes before epoch ``e+1``
        publishes) — and each dispatch ships two tiny handles (gradient
        buffers are stripped by ``Parameter.__getstate__``).  Yields
        shard results in shard order — exact sequence order for the
        parent-side reduction.  Peak parent-side memory is bounded by
        the worker count: shards that finish early sit buffered in their
        futures until the in-order reduction reaches them.
        """
        models_handle = live.channel.publish(
            (self.roi_predictor, self.segmenter, self.config, self.seed),
            slot="train_models",
        )
        futures = [
            live.backend.submit(
                _epoch_shard_job, models_handle, shard_handle, epoch
            )
            for shard_handle in shard_handles
        ]
        tracer = current_tracer()
        if tracer is not None:
            tracer.count("train.shard_dispatches", len(futures))
        for future in futures:
            yield from future.result()


# -- generic segmentation training -------------------------------------------
#: Adam step size, minibatch width and gradient-norm clip of
#: :func:`train_segmentation`.
SEGMENTATION_LR = 3e-3
SEGMENTATION_BATCH_SIZE = 4
SEGMENTATION_GRAD_CLIP = 5.0


def train_segmentation(
    model,
    samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    epochs: int,
    rng: np.random.Generator,
) -> TrainResult:
    """Train a segmenter on ``(frame, mask, target)`` samples.

    Trains any of the three segmenters (ViT, RITnet, EdGaze — they share
    the ``forward(frames, masks)`` / ``backward(grad)`` interface); used
    for the baseline (non-joint) experiments and the ablation
    benchmarks.  Each ``SEGMENTATION_BATCH_SIZE`` minibatch is one model
    rank with one Adam step.  The cross-entropy supervises the full map,
    teaching the network to in-paint labels for unsampled pixels.

    Parameters
    ----------
    model:
        A module with ``forward(frames, masks) -> (B, H, W, K)`` logits.
    samples:
        Each element is ``(frame (H, W), sampling_mask (H, W) bool,
        target (H, W) int)``.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1: {epochs}")
    if not samples:
        raise ValueError("no training samples")
    loss_fn = CrossEntropyLoss()
    optimizer = Adam(model.parameters(), lr=SEGMENTATION_LR)
    result = TrainResult()
    order = np.arange(len(samples))
    model.train()
    for epoch in range(epochs):
        with _epoch_span(epoch, "segmentation", samples=len(samples)):
            rng.shuffle(order)
            epoch_loss = 0.0
            num_batches = 0
            for batch_idx in batched(list(order), SEGMENTATION_BATCH_SIZE):
                frames = np.stack([samples[i][0] for i in batch_idx])
                masks = np.stack([samples[i][1] for i in batch_idx])
                targets = np.stack([samples[i][2] for i in batch_idx])
                logits = model(frames, masks)
                loss = loss_fn.forward(logits, targets)
                model.zero_grad()
                model.backward(loss_fn.backward())
                clip_grad_norm(model.parameters(), SEGMENTATION_GRAD_CLIP)
                optimizer.step()
                epoch_loss += loss
                num_batches += 1
            result.epoch_losses.append(epoch_loss / num_batches)
    model.eval()
    return result
