"""Bitwise parity of the strategy-graph kernels (Fig. 15 harness).

The strategy graph's stages (eventify-pair, strategy-sample,
segment-or-reuse, gaze-regress) each have one ``process_batch`` kernel;
this module pins them against the frozen per-row reference
(``per_row.py``) for **every** registered strategy — including the
stochastic ones (Full+Random, ROI+Learned tie-breaks, ROI+Random) and
the stateful SKIP gate — across lockstep widths {1, partial, full-rank}
and sharded, for all three segmentation backends.  The strategies'
``sample_batch`` kernels themselves are pinned row by row against the
moved per-frame ``sample`` bodies in ``tests/sampling/test_strategies.py``.
"""

import numpy as np
import pytest

from per_row import evaluate_strategy_per_row
from repro.core.variants import evaluate_strategy, make_strategy
from repro.engine import Execution
from repro.engine.stage import Stage
from repro.nn import TrainingModeError
from repro.engine.stages import (
    EventifyPairStage,
    GazeRegressStage,
    SegmentOrReuseStage,
    StrategySampleStage,
)
from repro.sampling.strategies import STRATEGY_NAMES
from repro.segmentation.edgaze import EdGazeNet
from repro.segmentation.ritnet import RITNet
from repro.segmentation.vit import ViTConfig, ViTSegmenter
from repro.synth.dataset import DatasetConfig, SyntheticEyeDataset

COMPRESSION = 4.0
EVAL_IDX = [0, 1, 2, 3]
#: Widths 1, partial and full, in-process and sharded.
EXECUTIONS = (
    Execution(batch_size=1),
    Execution(batch_size=3),
    Execution(),
    Execution(workers=2),
)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticEyeDataset(
        DatasetConfig(
            height=32, width=32, frames_per_sequence=6, num_sequences=4,
            eye_scale=0.8,
        )
    )


@pytest.fixture(scope="module")
def vit():
    return ViTSegmenter(
        ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        np.random.default_rng(0),
    )


def _run(strategy_name, dataset, segmenter, execution=Execution(),
         evaluate=evaluate_strategy):
    strategy = make_strategy(strategy_name, COMPRESSION, dataset=dataset)
    rng = np.random.default_rng(int(np.random.default_rng(7).integers(2**32)))
    return evaluate(
        strategy, segmenter, dataset, EVAL_IDX, rng, execution=execution
    )


def _reference(strategy_name, dataset, segmenter):
    """The per-row reference run of one strategy."""
    return _run(
        strategy_name, dataset, segmenter, evaluate=evaluate_strategy_per_row
    )


def _assert_same(a, b, label):
    assert a.horizontal == b.horizontal, label
    assert a.vertical == b.vertical, label
    assert a.mean_compression == b.mean_compression, label
    assert a.frames == b.frames, label


class TestBatchedStagesRegistered:
    def test_strategy_stages_override_process_batch(self):
        """Every strategy-graph stage implements the one kernel."""
        for stage_cls in (
            EventifyPairStage,
            StrategySampleStage,
            SegmentOrReuseStage,
            GazeRegressStage,
        ):
            assert stage_cls.process_batch is not Stage.process_batch


class TestStrategyGraphParity:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_batched_and_sharded_equal_sequential(self, name, dataset, vit):
        """Lockstep == per-row reference, bitwise, per strategy — across
        widths 1 (degenerate rank), 3 (partial rank) and full-rank
        lockstep, and sharded."""
        ref = _reference(name, dataset, vit)
        for execution in EXECUTIONS:
            _assert_same(
                ref, _run(name, dataset, vit, execution), (name, execution)
            )


class TestDenseBackendParity:
    @pytest.mark.parametrize("net_cls", [EdGazeNet, RITNet])
    def test_dense_backend_batched_equals_sequential(
        self, net_cls, dataset
    ):
        """Eval-mode conv backends ride predict_batch through the
        segment-or-reuse stage for every strategy; SKIP exercises the
        reuse/compute split."""
        net = net_cls(np.random.default_rng(3), base_channels=4).eval()
        for name in STRATEGY_NAMES:
            ref = _reference(name, dataset, net)
            for execution in EXECUTIONS:
                bat = _run(name, dataset, net, execution)
                _assert_same(ref, bat, (name, execution))

    @pytest.mark.parametrize("net_cls", [EdGazeNet, RITNet])
    def test_training_mode_segmenter_raises(self, net_cls, dataset):
        """A conv net left in training mode would couple the rank's rows
        through batch-norm statistics: the segment-or-reuse stage raises
        the named error instead of running it, at every width."""
        net = net_cls(np.random.default_rng(3), base_channels=4)
        assert net.training  # fresh nets start in training mode
        for execution in EXECUTIONS[:3]:
            with pytest.raises(TrainingModeError, match="eval"):
                _run("Ours (ROI+Random)", dataset, net, execution)
