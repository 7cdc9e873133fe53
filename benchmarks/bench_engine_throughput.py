"""Engine throughput: per-row vs lockstep vs sharded (persistent pool).

Not a paper figure — this benchmark seeds the performance trajectory of
the staged execution engine (``repro.engine``).  It runs one declarative
``throughput`` spec through ``repro.api`` — the same front door the CLI
uses — which trains one tracker (session-memoized), evaluates the same
held-out sequences at lockstep width 1, full width and sharded, verifies
the results are bitwise identical, and reports frames/sec plus the
per-stage wall-clock attribution the engine collects (the measured
counterpart of the Figs. 13/14 breakdowns).

The baseline the speedup bars are measured against is the per-row
reference: the same tracker's graph wrapped by ``per_row_graph``
(``tests/engine/per_row.py``, each stage's frozen per-frame body) and
run through the same runner one sequence at a time — what the engine's
sequential mode did before every stage kept one kernel.

The sharded mode runs the production sharded configuration — batched
kernels inside each worker, work-stealing shards dispatched onto the
session's *persistent* pool over its shared-memory transport channel.
The record's ``transport.channel`` block reports per-dispatch payload
bytes, so the trajectory shows *why* the sharded numbers moved, not
just that they did.

Appends to ``BENCH_engine.json`` at the repository root (the shared
``RunResult`` serialization inside a git-stamped ``trajectory`` entry)
so successive PRs accumulate the perf history.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from _helpers import BENCH_EPOCHS, BENCH_EYE_SCALE, once, record_bench
from per_row import evaluate_per_row
from repro.api import ExperimentSpec, Session
from repro.core.throughput import _best_of, throughput_tables

#: Wide evaluation rank: lockstep batching pays off when many sequences
#: run together (production batch serving), so the bench evaluates 30.
SEQUENCES = 32
FRAMES = 12
TRAIN_INDICES = [0, 1]
EVAL_INDICES = list(range(2, SEQUENCES))

#: The PR acceptance bar for full-width lockstep over the per-row
#: reference at CI scale.
TARGET_SPEEDUP = 1.5
#: Bytes one shared-memory dispatch may ship: handles only, no array
#: data (about 360 B measured, against about 15 MB as plain pickle).
MAX_SHM_DISPATCH_BYTES = 1024
#: Worker processes for the sharded modes.  Their *speedups* are recorded
#: but not gated: they track available cores (this container may have
#: one), while bitwise identity to the per-row reference is always enforced.
WORKERS = 2

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: The bench as a declarative spec.  Dynamics/eye-scale/epochs match the
#: historical ``bench_pipeline_config`` by construction: the "lively"
#: spec preset *is* ``BENCH_DYNAMICS`` (same object) and the epochs come
#: from ``BENCH_EPOCHS``.
BENCH_SPEC = {
    "workload": "throughput",
    "dataset": {
        "num_sequences": SEQUENCES,
        "frames_per_sequence": FRAMES,
        "seed": 11,
        "eye_scale": BENCH_EYE_SCALE,
        "dynamics": "lively",
    },
    "training": {"train_indices": TRAIN_INDICES, "epochs": BENCH_EPOCHS},
    "execution": {
        "workers": WORKERS,
        "repeats": 3,
        "eval_indices": EVAL_INDICES,
    },
}


def _time_per_row(pipeline, repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall seconds of the per-row reference, one
    sequence at a time, with the warm-up and the best-of timing the
    throughput workload gives its own modes."""
    evaluate_per_row(pipeline, EVAL_INDICES[:2])
    return _best_of(lambda: evaluate_per_row(pipeline, EVAL_INDICES), repeats)


def run_engine_throughput() -> dict:
    spec = ExperimentSpec.from_dict(BENCH_SPEC)
    with Session() as session:
        result = session.run(spec)
        pipeline = session.pipeline(spec)
        per_row_s, per_row = _time_per_row(pipeline, spec.execution.repeats)
        lockstep = pipeline.evaluate(EVAL_INDICES)
        metrics = result.metrics
        metrics.update(
            {
                "per_row_s": per_row_s,
                "per_row_fps": metrics["frames"] / per_row_s,
                "per_row_speedup": per_row_s / metrics["batched_s"],
                "per_row_sharded_speedup": per_row_s / metrics["sharded_s"],
                "per_row_identical": bool(
                    np.array_equal(per_row.predictions, lockstep.predictions)
                    and per_row.stats.transmitted_bytes
                    == lockstep.stats.transmitted_bytes
                ),
            }
        )
        record_bench(_RESULT_PATH, result.to_dict())
    return metrics


def test_engine_throughput(benchmark):
    record = once(benchmark, run_engine_throughput)

    print()
    for table in throughput_tables(record):
        print(table.render())

    print(
        f"per-row reference {record['per_row_fps']:.0f} fps: lockstep "
        f"{record['per_row_speedup']:.2f}x, sharded "
        f"{record['per_row_sharded_speedup']:.2f}x over it"
    )

    assert record["bitwise_identical"], (
        "full-width/sharded lockstep diverged from width 1"
    )
    assert record["per_row_identical"], (
        "lockstep diverged from the per-row reference"
    )
    assert record["per_row_speedup"] >= TARGET_SPEEDUP, (
        f"lockstep only {record['per_row_speedup']:.2f}x over the per-row "
        f"reference (target {TARGET_SPEEDUP}x)"
    )
    # The sharded trajectory: with lockstep kernels in the workers, the
    # persistent pool and the zero-copy transport, `workers=N` must
    # actually win over the per-row reference.
    assert record["workers"] == WORKERS
    assert record["sharded_kernels"] == "batched"
    assert record["per_row_sharded_speedup"] > 1.0, (
        f"sharded mode lost to the per-row reference: "
        f"{record['per_row_sharded_speedup']:.2f}x"
    )
    # The transport evidence: a shared-memory dispatch ships handles,
    # never the array data itself.
    channel = record["transport"]["channel"]
    assert channel["mode"] in ("shm", "pickle")
    if channel["mode"] == "shm":
        assert channel["payload_bytes_per_dispatch"] <= MAX_SHM_DISPATCH_BYTES
