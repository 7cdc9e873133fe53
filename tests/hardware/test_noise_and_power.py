"""Tests for the eventification noise analysis and the power-budget model."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.hardware.power_budget import HeadsetBudget
from repro.hardware.sensor.noise_analysis import (
    EventificationErrorModel,
    adc_code_error_probability,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_scipy_is_optional():
    # numpy is the only dependency: the Gaussian tails come from the
    # standard library, so importing the CLI (which imports this module
    # through repro.hardware.sensor) loads no scipy module.
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout.strip() == "[]"


class TestEventificationErrorModel:
    def test_zero_noise_is_error_free(self):
        model = EventificationErrorModel(noise_rms=0.0, sigma=15 / 255)
        assert model.false_event_probability(0.0) == 0.0
        assert model.missed_event_probability(0.5) == 0.0

    def test_false_rate_grows_with_noise(self):
        quiet = EventificationErrorModel(0.005, 15 / 255)
        loud = EventificationErrorModel(0.02, 15 / 255)
        assert loud.false_event_probability() > quiet.false_event_probability()

    def test_false_rate_grows_near_threshold(self):
        model = EventificationErrorModel(0.01, 15 / 255)
        assert model.false_event_probability(0.05) > model.false_event_probability(
            0.0
        )

    def test_missed_rate_shrinks_for_large_events(self):
        model = EventificationErrorModel(0.01, 15 / 255)
        assert model.missed_event_probability(0.5) < model.missed_event_probability(
            0.07
        )

    def test_missed_requires_true_event(self):
        model = EventificationErrorModel(0.01, 15 / 255)
        with pytest.raises(ValueError):
            model.missed_event_probability(0.01)

    def test_max_tolerable_noise_meets_budget(self):
        """The designed margin: at the returned noise level, the false
        rate equals the budget (the paper's 'no functional errors')."""
        model = EventificationErrorModel(0.01, 15 / 255)
        budget = 1e-4
        tolerable = model.max_tolerable_noise(budget)
        at_limit = EventificationErrorModel(tolerable, 15 / 255)
        assert at_limit.false_event_probability() == pytest.approx(budget, rel=1e-6)

    def test_designed_operating_point_is_safe(self):
        """Our sensor's default comparator noise (1 LSB) against sigma=15
        produces essentially zero spurious events per frame."""
        model = EventificationErrorModel(noise_rms=1 / 1023, sigma=15 / 255)
        expected = model.expected_false_events(640 * 400)
        assert expected < 1e-6

    def test_expected_false_events_includes_scene_noise(self):
        model = EventificationErrorModel(0.005, 15 / 255)
        clean = model.expected_false_events(10000, background_diff_rms=0.0)
        noisy = model.expected_false_events(10000, background_diff_rms=0.02)
        assert noisy > clean

    def test_validation(self):
        with pytest.raises(ValueError):
            EventificationErrorModel(-0.1, 0.1)
        with pytest.raises(ValueError):
            EventificationErrorModel(0.1, 0.0)
        with pytest.raises(ValueError):
            EventificationErrorModel(0.01, 0.1).max_tolerable_noise(2.0)


class TestAdcErrorProbability:
    def test_zero_noise(self):
        assert adc_code_error_probability(0.0) == 0.0

    def test_monotone_in_noise(self):
        assert adc_code_error_probability(1e-3) > adc_code_error_probability(1e-4)

    def test_lower_bit_depth_more_robust(self):
        assert adc_code_error_probability(1e-3, bit_depth=8) < (
            adc_code_error_probability(1e-3, bit_depth=12)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            adc_code_error_probability(-1e-3)
        with pytest.raises(ValueError):
            adc_code_error_probability(1e-3, bit_depth=0)


class TestHeadsetBudget:
    def test_blisscam_cheaper_than_conventional(self):
        budget = HeadsetBudget()
        full = budget.tracking_power("NPU-Full", 120)
        bliss = budget.tracking_power("BlissCam", 120)
        assert bliss < full / 3

    def test_report_fields(self):
        report = HeadsetBudget().report("BlissCam", 120)
        assert 0 < report.budget_fraction < 1
        assert report.power_w > 0
        assert report.battery_hours > 0

    def test_two_eyes_double_one(self):
        one = HeadsetBudget(num_eyes=1).tracking_power("BlissCam", 120)
        two = HeadsetBudget(num_eyes=2).tracking_power("BlissCam", 120)
        assert two == pytest.approx(2 * one)

    def test_battery_gain_positive(self):
        gain = HeadsetBudget().battery_gain_hours("NPU-Full", "BlissCam", 120)
        assert gain > 0

    def test_over_budget_raises(self):
        tiny = HeadsetBudget(total_power_w=0.01)
        with pytest.raises(ValueError):
            tiny.report("NPU-Full", 120)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeadsetBudget(total_power_w=0)
        with pytest.raises(ValueError):
            HeadsetBudget(num_eyes=0)
