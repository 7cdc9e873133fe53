"""Serving throughput: cross-client micro-batching vs the per-row reference.

Not a paper figure — this benchmark seeds the performance trajectory of
the serving runtime (``repro.serve``).  It trains one CI-scale tracker
through ``repro.api`` (session-memoized), materializes a fleet of
synthetic client eye-streams, and serves the *same* frames three times:

* **per-client sequential** — every client served alone through the
  per-row reference graph (``per_row_graph``, ``tests/engine/per_row.py``)
  by the same scheduler, so each dispatch holds one frame stepped
  through each stage's frozen per-frame body (the naive
  one-loop-per-stream server); its wall time sums the clients' loops;
* **micro-batched** — each tick's due frames dispatched as one
  cross-client rank through the engine's batched ``process_batch``
  kernels (vectorized eventification, grouped packed-ViT inference).

A third, ungated column serves the whole fleet through the per-row
reference graph on the same scheduler: the same ticks and dispatch
ranks, stepped frame by frame inside each stage.  Its ratio to the
micro-batched run (``fleet_per_row_speedup``) is the margin the stage
kernels alone earn over stage-major per-row dispatch.

All three produce bitwise-identical per-client gaze streams (asserted
here and pinned by ``tests/serve/``); the wall-clock ratio is the
benefit of batching *across tenants* rather than across a dataset.
Appends to ``BENCH_serve.json`` at the repository root (git-stamped
``trajectory`` entries, shared ``record_bench`` plumbing).
"""

from __future__ import annotations

import time
from pathlib import Path

from _helpers import BENCH_EPOCHS, BENCH_EYE_SCALE, once, record_bench
from per_row import per_row_graph
from repro.api import ExperimentSpec, Session
from repro.serve import ClientSensorFactory, ServeScenario, simulate_serving

#: Wide client fleet: micro-batching pays off when many tenants are due
#: per tick (the production multi-user story), so the bench serves 24.
CLIENTS = 24
TICKS = 10
#: The PR acceptance bar for micro-batched serving at CI scale.
TARGET_SPEEDUP = 1.5
#: Best-of repeats per mode (the served frames are identical each time).
REPEATS = 3

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

BENCH_SPEC = {
    "workload": "serve",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 8,
        "seed": 11,
        "eye_scale": BENCH_EYE_SCALE,
        "dynamics": "lively",
    },
    "training": {"train_indices": [0, 1], "epochs": BENCH_EPOCHS},
}

SCENARIO = ServeScenario(num_clients=CLIENTS, duration_ticks=TICKS)


def run_serve_bench() -> dict:
    spec = ExperimentSpec.from_dict(BENCH_SPEC)
    with Session() as session:
        pipeline = session.pipeline(spec)
    graph, template = pipeline.tracking_setup()
    factory = ClientSensorFactory(template, spec.sensor.sensor_seed)
    dataset_cfg = pipeline.config.dataset

    def serve(served_graph, client_ids):
        return simulate_serving(
            graph=served_graph,
            state_factory=factory,
            dataset_cfg=dataset_cfg,
            scenario=SCENARIO,
            client_ids=client_ids,
        )

    def best_of(serve_once):
        best = None
        for _ in range(REPEATS):
            wall, result = serve_once()
            if best is None or wall < best[0]:
                best = (wall, result)
        return best

    def per_client():
        runs = [serve(oracle, [c]) for c in range(CLIENTS)]
        log = sorted(entry for run in runs for entry in run.gaze_log)
        return sum(run.wall_seconds for run in runs), log

    def fleet(served_graph):
        run = serve(served_graph, None)
        return run.wall_seconds, run

    oracle = per_row_graph(graph)
    sequential_s, sequential_log = best_of(per_client)
    fleet_per_row_s, fleet_per_row = best_of(lambda: fleet(oracle))
    batched_s, batched = best_of(lambda: fleet(graph))
    frames = batched.summary["frames"]["processed"]
    record = {
        "clients": CLIENTS,
        "duration_ticks": TICKS,
        "frames": frames,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "sequential_fps": frames / sequential_s,
        "batched_fps": frames / batched_s,
        "speedup": sequential_s / batched_s,
        "fleet_per_row_s": fleet_per_row_s,
        "fleet_per_row_speedup": fleet_per_row_s / batched_s,
        "bitwise_identical": (
            sorted(batched.gaze_log) == sequential_log
            and sorted(fleet_per_row.gaze_log) == sequential_log
        ),
        "telemetry": batched.summary,
    }
    record_bench(_RESULT_PATH, record)
    return record


def test_serve_throughput(benchmark):
    record = once(benchmark, run_serve_bench)

    print()
    print(
        f"served {record['frames']} frames from {CLIENTS} clients: "
        f"per-client {record['sequential_fps']:.0f} fps, "
        f"micro-batched {record['batched_fps']:.0f} fps "
        f"({record['speedup']:.2f}x; "
        f"{record['fleet_per_row_speedup']:.2f}x over the fleet served "
        f"through the per-row reference)"
    )

    assert record["bitwise_identical"], (
        "micro-batched serving diverged from the per-row reference"
    )
    assert record["speedup"] >= TARGET_SPEEDUP, (
        f"cross-client micro-batching only {record['speedup']:.2f}x over "
        f"per-client sequential dispatch (target {TARGET_SPEEDUP}x)"
    )
