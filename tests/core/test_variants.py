"""Tests for the strategy training harness in ``core.variants``."""

import numpy as np
import pytest

import repro.core.variants as variants
from repro.core.variants import make_strategy, train_for_strategy
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset


@pytest.fixture(scope="module")
def small_dataset():
    return SyntheticEyeDataset(
        DatasetConfig(
            height=32, width=32, frames_per_sequence=5, num_sequences=2,
            eye_scale=0.8,
        )
    )


def _vit(seed=0):
    return ViTSegmenter(
        ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        np.random.default_rng(seed),
    )


class TestDeterministicCollectOnce:
    """Deterministic strategies re-collected an *identical* sampled
    dataset every epoch (regression); now they collect exactly once."""

    def _count_collections(self, monkeypatch):
        calls = {"n": 0}
        original = variants.collect_sampled_dataset

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(variants, "collect_sampled_dataset", counting)
        return calls

    @pytest.mark.parametrize("name", ["Full+DS", "ROI+Fixed", "Skip", "ROI+DS"])
    def test_deterministic_strategies_collect_once(
        self, small_dataset, monkeypatch, name
    ):
        from repro.sampling.strategies import SkipStrategy

        calls = self._count_collections(monkeypatch)
        if name == "Skip":
            # A zero gate makes every frame a training sample — the tiny
            # fixture dataset is too quiet for the default threshold.
            strategy = SkipStrategy(4.0)
            strategy.density_threshold = 0.0
        else:
            strategy = make_strategy(name, 4.0, dataset=small_dataset)
        result = train_for_strategy(
            _vit(), strategy, small_dataset, [0], epochs=3,
            rng=np.random.default_rng(0),
        )
        assert calls["n"] == 1
        assert len(result.epoch_losses) == 3

    @pytest.mark.parametrize("name", ["Full+Random", "Ours (ROI+Random)"])
    def test_stochastic_strategies_resample_every_epoch(
        self, small_dataset, monkeypatch, name
    ):
        calls = self._count_collections(monkeypatch)
        strategy = make_strategy(name, 4.0, dataset=small_dataset)
        train_for_strategy(
            _vit(), strategy, small_dataset, [0], epochs=3,
            rng=np.random.default_rng(0),
        )
        assert calls["n"] == 3

    def test_deterministic_training_result_unchanged_by_the_fix(
        self, small_dataset
    ):
        """Collect-once must be a pure optimization for deterministic
        strategies: the trained weights match per-epoch re-collection."""
        from repro.core.variants import collect_sampled_dataset

        strategy = make_strategy("Full+DS", 4.0, dataset=small_dataset)
        rng = np.random.default_rng(3)
        a = collect_sampled_dataset(strategy, small_dataset, [0], rng)
        b = collect_sampled_dataset(strategy, small_dataset, [0], rng)
        assert len(a) == len(b)
        for (fa, ma, ta), (fb, mb, tb) in zip(a, b):
            assert np.array_equal(fa, fb)
            assert np.array_equal(ma, mb)
            assert np.array_equal(ta, tb)
