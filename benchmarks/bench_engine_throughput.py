"""Engine throughput: sequential vs batched vs sharded (persistent pool).

Not a paper figure — this benchmark seeds the performance trajectory of
the staged execution engine (``repro.engine``).  It runs one declarative
``throughput`` spec through ``repro.api`` — the same front door the CLI
uses — which trains one tracker (session-memoized), evaluates the same
held-out sequences in all execution modes, verifies the results are
bitwise identical, and reports frames/sec plus the per-stage wall-clock
attribution the engine collects (the measured counterpart of the
Figs. 13/14 breakdowns).

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

from _helpers import BENCH_EPOCHS, BENCH_EYE_SCALE, once, record_bench
from repro.api import ExperimentSpec, Session
from repro.core.throughput import throughput_tables

#: Wide evaluation rank: lockstep batching pays off when many sequences
#: run together (production batch serving), so the bench evaluates 30.
SEQUENCES = 32
FRAMES = 12
TRAIN_INDICES = [0, 1]
EVAL_INDICES = list(range(2, SEQUENCES))

#: The PR acceptance bar for the batched mode at CI scale.
TARGET_SPEEDUP = 1.5
#: Bytes one shared-memory dispatch may ship: handles only, no array
#: data (about 360 B measured, against about 15 MB as plain pickle).
MAX_SHM_DISPATCH_BYTES = 1024
#: Worker processes for the sharded modes.  Their *speedups* are recorded
#: but not gated: they track available cores (this container may have
#: one), while bitwise identity to the sequential loop is always enforced.
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


def run_engine_throughput() -> dict:
    spec = ExperimentSpec.from_dict(BENCH_SPEC)
    with Session() as session:
        result = session.run(spec)
        record_bench(_RESULT_PATH, result.to_dict())
    return result.metrics


def test_engine_throughput(benchmark):
    record = once(benchmark, run_engine_throughput)

    print()
    for table in throughput_tables(record):
        print(table.render())

    assert record["bitwise_identical"], (
        "batched/sharded mode diverged from sequential"
    )
    assert record["speedup"] >= TARGET_SPEEDUP, (
        f"batched mode only {record['speedup']:.2f}x over sequential "
        f"(target {TARGET_SPEEDUP}x)"
    )
    # The sharded trajectory: with batched kernels in the workers, the
    # persistent pool and the zero-copy transport, `workers=N` must
    # actually win over the sequential loop.
    assert record["workers"] == WORKERS
    assert record["sharded_kernels"] == "batched"
    assert record["sharded_speedup"] > 1.0, (
        f"sharded mode lost to sequential: {record['sharded_speedup']:.2f}x"
    )
    # The transport evidence: a shared-memory dispatch ships handles,
    # never the array data itself.
    channel = record["transport"]["channel"]
    assert channel["mode"] in ("shm", "pickle")
    if channel["mode"] == "shm":
        assert channel["payload_bytes_per_dispatch"] <= MAX_SHM_DISPATCH_BYTES
