"""Failure-injection tests: defective pixels through the BlissCam datapath."""

import numpy as np
import pytest

from per_row import ConstantBoxPredictor
from repro.hardware.sensor import BlissCamSensor
from repro.hardware.sensor.defects import DefectMap
from repro.sampling import eventify


def make_defects(shape=(32, 32), seed=0, **kwargs):
    return DefectMap.random(shape, np.random.default_rng(seed), **kwargs)


class TestDefectMap:
    def test_apply_overrides_values(self):
        defects = DefectMap.random(
            (16, 16), np.random.default_rng(1),
            dead_fraction=0.05, hot_fraction=0.05, stuck_fraction=0.05,
        )
        frame = np.full((16, 16), 0.3)
        out = defects.apply(frame)
        assert np.all(out[defects.dead] == 0.0)
        assert np.all(out[defects.hot] == 1.0)
        assert np.all(out[defects.stuck] == defects.stuck_value)
        clean = ~defects.any_defect
        np.testing.assert_array_equal(out[clean], frame[clean])

    def test_random_density(self):
        defects = make_defects((200, 200), dead_fraction=0.01, hot_fraction=0.01)
        total_fraction = defects.defect_count / (200 * 200)
        assert 0.01 < total_fraction < 0.03

    def test_none_has_no_defects(self):
        assert DefectMap.none((8, 8)).defect_count == 0

    def test_overlap_rejected(self):
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError):
            DefectMap(dead=mask, hot=mask, stuck=np.zeros((4, 4), dtype=bool))

    def test_shape_mismatch_rejected(self):
        defects = DefectMap.none((8, 8))
        with pytest.raises(ValueError):
            defects.apply(np.zeros((4, 4)))

    def test_excessive_density_rejected(self):
        with pytest.raises(ValueError):
            make_defects(dead_fraction=0.4, hot_fraction=0.4)


class TestDefectRobustness:
    """BlissCam's differencing makes static defects invisible to the cue."""

    def test_static_defects_produce_no_events(self):
        rng = np.random.default_rng(2)
        defects = make_defects(
            dead_fraction=0.02, hot_fraction=0.02, stuck_fraction=0.02
        )
        base = rng.random((32, 32)) * 0.2 + 0.4
        moving = base.copy()
        moving[10:20, 10:20] += 0.3  # genuine motion
        prev = defects.apply(base)
        cur = defects.apply(moving)
        events = eventify(prev, cur)
        # No event at any defective pixel: they are constant across frames.
        assert not events[defects.any_defect].any()
        assert events.any()  # genuine motion still detected

    def test_sensor_pipeline_survives_defects(self):
        rng = np.random.default_rng(3)
        defects = make_defects(dead_fraction=0.01, hot_fraction=0.01)
        sensor = BlissCamSensor(
            32, 32,
            roi_predictor=ConstantBoxPredictor([0.2, 0.2, 0.8, 0.8]),
            sampling_rate=0.3,
            seed=0,
        )
        frames = [defects.apply(rng.random((32, 32))) for _ in range(3)]
        sensor.capture(frames[0], None)
        for frame in frames[1:]:
            out = sensor.capture(frame, None)
            assert out is not None
            sparse, mask = sensor.host_decode(out)
            assert np.isfinite(sparse).all()
            # Dead pixels that got sampled decode as unsampled (code 0 ->
            # RLE zero-run), shrinking the mask but never corrupting it.
            assert not (sparse > 1.0).any()

    def test_event_rate_unaffected_by_defect_density(self):
        """Static scenes stay quiet regardless of how many defects exist."""
        rng = np.random.default_rng(4)
        frame = rng.random((32, 32))
        for density in (0.0, 0.02, 0.1):
            defects = DefectMap.random(
                (32, 32), np.random.default_rng(5), dead_fraction=density
            )
            prev = defects.apply(frame)
            cur = defects.apply(frame)
            assert not eventify(prev, cur).any()
