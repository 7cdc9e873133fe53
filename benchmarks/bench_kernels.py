"""Microbenchmarks of the hot kernels (conventional pytest-benchmark use).

These are not paper figures; they track the library's own performance:
ViT forward, ViT train step, the functional sensor's capture path, the
run-length codec, and the synthetic renderer.
"""

import numpy as np

from _helpers import BENCH_HEIGHT, BENCH_WIDTH, bench_vit
from per_row import ConstantBoxPredictor
from repro.hardware.sensor import BlissCamSensor, RunLengthCodec
from repro.nn import Adam, CrossEntropyLoss
from repro.synth import EyeGeometry, EyeRenderer, EyeState

RNG = np.random.default_rng(0)


def test_vit_forward(benchmark):
    vit = bench_vit()
    frame = RNG.random((1, BENCH_HEIGHT, BENCH_WIDTH))
    mask = RNG.random((1, BENCH_HEIGHT, BENCH_WIDTH)) < 0.1
    result = benchmark(lambda: vit(frame * mask, mask))
    assert result.shape == (1, BENCH_HEIGHT, BENCH_WIDTH, 4)


def test_vit_train_step(benchmark):
    vit = bench_vit()
    frame = RNG.random((2, BENCH_HEIGHT, BENCH_WIDTH))
    mask = RNG.random((2, BENCH_HEIGHT, BENCH_WIDTH)) < 0.1
    target = RNG.integers(0, 4, size=(2, BENCH_HEIGHT, BENCH_WIDTH))
    loss_fn = CrossEntropyLoss()
    optimizer = Adam(vit.parameters(), lr=1e-3)

    def step():
        loss = loss_fn.forward(vit(frame * mask, mask), target)
        vit.zero_grad()
        vit.backward(loss_fn.backward())
        optimizer.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss)


def test_sensor_capture(benchmark):
    sensor = BlissCamSensor(
        BENCH_HEIGHT,
        BENCH_WIDTH,
        roi_predictor=ConstantBoxPredictor([0.25, 0.25, 0.75, 0.75]),
        sampling_rate=0.2,
        seed=0,
    )
    frames = [RNG.random((BENCH_HEIGHT, BENCH_WIDTH)) for _ in range(2)]
    sensor.capture(frames[0], None)

    out = benchmark(lambda: sensor.capture(frames[1], None))
    assert out is not None and out.sampled_pixels > 0


def test_rle_roundtrip(benchmark):
    codec = RunLengthCodec()
    stream = np.where(
        RNG.random(40_000) < 0.2, RNG.integers(1, 1024, 40_000), 0
    )

    def roundtrip():
        tokens, stats = codec.encode(stream)
        return codec.decode(tokens), stats

    decoded, stats = benchmark(roundtrip)
    np.testing.assert_array_equal(decoded, stream)
    assert stats.compression_ratio > 1.0


def test_renderer_frame(benchmark):
    renderer = EyeRenderer(
        EyeGeometry(), BENCH_HEIGHT, BENCH_WIDTH, np.random.default_rng(1)
    )
    state = EyeState(gaze_h=8.0, gaze_v=-4.0)
    frame = benchmark(lambda: renderer.render(state))
    assert frame.image.shape == (BENCH_HEIGHT, BENCH_WIDTH)
