"""Training procedures: the paper's joint ROI + ViT procedure with
approximate differentiable sampling, and generic segmentation training.

Both run in :mod:`repro.training.runtime`: :class:`TrainRunner` is the
one joint trainer and :func:`train_segmentation` the one segmentation
trainer (see ``docs/training.md``)."""

from repro.training.joint import (
    JointTrainConfig,
    JointTrainResult,
    SoftROIMask,
)
from repro.training.runtime import (
    TRAIN_STREAM_TAG,
    TrainResult,
    TrainRunner,
    TrainSample,
    batched,
    collect_frame_pairs,
    sample_stream,
    train_segmentation,
)

__all__ = [
    "TrainResult",
    "train_segmentation",
    "batched",
    "SoftROIMask",
    "JointTrainConfig",
    "JointTrainResult",
    "TrainRunner",
    "TrainSample",
    "TRAIN_STREAM_TAG",
    "collect_frame_pairs",
    "sample_stream",
]
