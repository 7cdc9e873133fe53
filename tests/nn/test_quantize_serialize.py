"""Tests for 8-bit quantization and checkpoint serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.quantize import (
    dequantize_tensor,
    quantize_module,
    quantize_tensor,
)

RNG = np.random.default_rng(0)


class TestQuantizeTensor:
    def test_roundtrip_error_bounded_by_half_lsb(self):
        values = RNG.standard_normal(1000)
        codes, scale = quantize_tensor(values, bits=8)
        recon = dequantize_tensor(codes, scale)
        assert np.max(np.abs(values - recon)) <= scale / 2 + 1e-12

    def test_zero_tensor(self):
        codes, scale = quantize_tensor(np.zeros(10))
        assert np.all(codes == 0) and scale == 1.0

    def test_codes_fit_in_int8_range(self):
        values = RNG.standard_normal(500) * 100
        codes, _ = quantize_tensor(values, bits=8)
        assert codes.min() >= -128 and codes.max() <= 127

    @given(bits=st.integers(2, 16))
    @settings(max_examples=15, deadline=None)
    def test_more_bits_less_error(self, bits):
        values = RNG.standard_normal(200)
        codes, scale = quantize_tensor(values, bits=bits)
        recon = dequantize_tensor(codes, scale)
        # Error bound halves per extra bit.
        peak = np.max(np.abs(values))
        assert np.max(np.abs(values - recon)) <= peak / (2 ** (bits - 1) - 1)

    def test_rejects_one_bit(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.ones(4), bits=1)


class TestQuantizeModule:
    def test_restore_originals(self):
        model = nn.Sequential(nn.Linear(8, 8, RNG), nn.ReLU(), nn.Linear(8, 4, RNG))
        x = RNG.standard_normal((3, 8))
        before = model(x)
        originals, stats = quantize_module(model)
        assert stats.tensors == 4  # two weights + two biases
        after_quant = model(x)
        assert not np.allclose(before, after_quant)  # quantization did something
        model.load_state_dict(originals)
        np.testing.assert_allclose(model(x), before)

    def test_int8_accuracy_gap_is_small(self):
        """The 8-bit NPU assumption: argmax predictions barely change."""
        from repro.segmentation import ViTConfig, ViTSegmenter

        vit = ViTSegmenter(
            ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            np.random.default_rng(1),
        )
        frame = RNG.random((32, 32))
        mask = RNG.random((32, 32)) < 0.3
        before = vit.predict_batch((frame * mask)[None], mask[None])
        quantize_module(vit, bits=8)
        after = vit.predict_batch((frame * mask)[None], mask[None])
        agreement = np.mean(before == after)
        assert agreement > 0.95


class TestSerialization:
    def test_checkpoint_roundtrip(self, tmp_path):
        model = nn.Sequential(nn.Linear(6, 6, RNG), nn.Tanh(), nn.Linear(6, 2, RNG))
        path = tmp_path / "model.npz"
        nn.save_checkpoint(model, path)
        clone = nn.Sequential(
            nn.Linear(6, 6, np.random.default_rng(9)),
            nn.Tanh(),
            nn.Linear(6, 2, np.random.default_rng(9)),
        )
        nn.load_checkpoint(clone, path)
        x = RNG.standard_normal((2, 6))
        np.testing.assert_allclose(model(x), clone(x))

    def test_load_rejects_mismatched_architecture(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 4, RNG))
        path = tmp_path / "m.npz"
        nn.save_checkpoint(model, path)
        other = nn.Sequential(nn.Linear(4, 4, RNG), nn.Linear(4, 2, RNG))
        with pytest.raises(KeyError):
            nn.load_checkpoint(other, path)

    def test_load_rejects_shape_mismatch(self):
        model = nn.Sequential(nn.Linear(4, 4, RNG))
        state = model.state_dict()
        bad = {k: np.zeros((2, 2)) for k in state}
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_num_parameters(self):
        model = nn.Linear(10, 5, RNG)
        assert model.num_parameters() == 10 * 5 + 5


class TestParameterPickle:
    def test_grad_is_stripped_and_restored_as_zeros(self):
        # Parameters ship across process boundaries constantly (engine
        # shard workers, training epoch tasks); no consumer reads a
        # shipped gradient, so pickling drops it and unpickling restores
        # a fresh zero buffer of the right shape.
        import pickle

        import numpy as np

        from repro.nn.module import Parameter

        param = Parameter(np.arange(6.0).reshape(2, 3), name="w")
        param.grad[...] = 5.0
        clone = pickle.loads(pickle.dumps(param))
        assert np.array_equal(clone.data, param.data)
        assert clone.name == "w"
        assert clone.grad.shape == param.data.shape
        assert np.all(clone.grad == 0.0)
