"""Tests for dropped-token (packed) sparse inference.

The per-frame ``forward_packed`` / ``predict_packed`` bodies live in
``per_row.py`` as the reference ``predict_packed_batch`` is pinned
against; these tests keep checking them against the dense masked
forward.
"""

import numpy as np
import pytest

from per_row import forward_packed, predict, predict_packed
from repro.segmentation import ViTConfig, ViTSegmenter


@pytest.fixture(scope="module")
def vit():
    return ViTSegmenter(
        ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                  depth=2, decoder_depth=1),
        np.random.default_rng(0),
    )


def roi_mask(shape=(32, 32), box=(8, 8, 24, 24), rate=0.3, seed=1):
    rng = np.random.default_rng(seed)
    mask = np.zeros(shape, dtype=bool)
    r0, c0, r1, c1 = box
    mask[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < rate
    return mask


class TestPackedInference:
    def test_valid_patches_match_masked_forward(self, vit):
        rng = np.random.default_rng(2)
        frame = rng.random((32, 32))
        mask = roi_mask()
        masked = vit.forward((frame * mask)[None], mask[None])[0]
        packed, valid = forward_packed(vit, frame * mask, mask)
        patch = vit.config.patch
        grid = 32 // patch
        for t in np.nonzero(valid)[0]:
            gr, gc = divmod(int(t), grid)
            np.testing.assert_allclose(
                masked[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
                packed[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
                atol=1e-9,
            )

    def test_invalid_patches_predict_background(self, vit):
        frame = np.zeros((32, 32))
        mask = roi_mask(box=(8, 8, 16, 16), rate=1.0)
        seg = predict_packed(vit, frame, mask)
        # Patches with no samples must decode to the background class.
        assert np.all(seg[24:, 24:] == 0)

    def test_empty_mask_is_all_background(self, vit):
        seg = predict_packed(
            vit, np.zeros((32, 32)), np.zeros((32, 32), dtype=bool)
        )
        assert np.all(seg == 0)

    def test_predictions_agree_inside_roi(self, vit):
        rng = np.random.default_rng(3)
        frame = rng.random((32, 32))
        mask = roi_mask()
        full = predict(vit, frame * mask, mask)
        packed = predict_packed(vit, frame * mask, mask)
        # Identical argmax wherever tokens were valid.
        _, valid = forward_packed(vit, frame * mask, mask)
        patch = vit.config.patch
        grid = 32 // patch
        for t in np.nonzero(valid)[0]:
            gr, gc = divmod(int(t), grid)
            np.testing.assert_array_equal(
                full[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
                packed[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
            )

    def test_valid_count_matches_mask(self, vit):
        mask = roi_mask(box=(0, 0, 8, 8), rate=1.0)  # exactly one patch
        _, valid = forward_packed(vit, np.ones((32, 32)) * mask, mask)
        assert valid.sum() == 1
