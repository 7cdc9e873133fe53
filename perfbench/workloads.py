"""The four workloads of the repository benchmark.

Every workload drives ``repro.api.Session.run(spec)`` on the shared bench
geometry of ``benchmarks/_helpers.py`` (64x64 frames, ``eye_scale`` 0.6,
``lively`` dynamics).  The workload seed feeds ``dataset.seed``,
``sensor.sensor_seed``, ``strategy.seed`` and ``execution.serve.seed``.

Each workload class has the same shape: ``setup()`` runs before timing
starts, ``operation()`` is the timed unit, ``outcome(result)`` derives
the checked quantities of one result, ``extra_problems(index)`` checks
what an operation left behind, and ``cleanup()`` runs untimed after each
operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from pathlib import Path

from _helpers import BENCH_FRAMES, BENCH_SEQUENCES, bench_evaluate_spec
from repro.api import Session
from repro.sampling import STRATEGY_NAMES

from timing import now

__all__ = ["WORKLOADS", "build_spec"]

#: ``track``/``serve`` geometry: long sequences, two of them trained on
#: (one epoch), the other eight tracked at full lockstep width.
TRACK_SEQUENCES = 10
TRACK_FRAMES = 96
TRACK_TRAIN = [0, 1]
#: ``serve``: more clients than the host serves per tick, so ticks queue
#: and some frames drop.
SERVE_CLIENTS = 16
SERVE_TICKS = 120
SERVE_MAX_BATCH = 8
#: ``sweep``: strategy training epochs (the spec default is 4).
SWEEP_EPOCHS = 2
#: Serve metrics that read the host clock; the rest are deterministic.
SERVE_WALL_KEYS = ("wall_seconds", "served_fps_wall")


def _evaluate_spec(seed: int, sequences: int, frames: int) -> dict:
    spec = bench_evaluate_spec(seed=seed)
    spec["dataset"].update(num_sequences=sequences, frames_per_sequence=frames)
    spec["sensor"] = {"sensor_seed": seed}
    spec["execution"].update(workers=1, backend="in_process", batched=True)
    return spec


def build_spec(workload: str, seed: int) -> dict:
    """The spec one workload runs at ``seed``."""
    if workload == "train":
        spec = _evaluate_spec(seed, BENCH_SEQUENCES, BENCH_FRAMES)
        last = BENCH_SEQUENCES - 1
        spec["training"].update(batch_size=1, train_indices=list(range(last)))
        spec["execution"]["eval_indices"] = [last]
        return spec
    if workload in ("track", "serve"):
        spec = _evaluate_spec(seed, TRACK_SEQUENCES, TRACK_FRAMES)
        spec["training"].update(
            epochs=1, batch_size=1, train_indices=TRACK_TRAIN
        )
        spec["execution"]["eval_indices"] = [
            i for i in range(TRACK_SEQUENCES) if i not in TRACK_TRAIN
        ]
        if workload == "serve":
            spec["workload"] = "serve"
            spec["execution"]["serve"] = {
                "num_clients": SERVE_CLIENTS,
                "arrival": "poisson",
                "duration_ticks": SERVE_TICKS,
                "max_batch": SERVE_MAX_BATCH,
                "deadline_policy": "drop",
                "seed": seed,
            }
        return spec
    if workload == "sweep":
        spec = _evaluate_spec(seed, BENCH_SEQUENCES, BENCH_FRAMES)
        last = BENCH_SEQUENCES - 1
        spec["workload"] = "strategy_sweep"
        spec["strategy"] = {"train_epochs": SWEEP_EPOCHS, "seed": seed}
        spec["training"] = {"train_indices": list(range(last))}
        spec["execution"].update(
            workers=2, backend="process_pool", eval_indices=[last]
        )
        return spec
    raise ValueError(f"unknown workload {workload!r}")


def _digest(metrics: dict) -> str:
    """Digest of a result's deterministic metrics."""
    blob = json.dumps(metrics, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _mean_gaze(metrics: dict) -> float:
    """(H + V) / 2 mean gaze error of an evaluation block."""
    return (metrics["horizontal"]["mean"] + metrics["vertical"]["mean"]) / 2


class _Workload:
    #: The workload's name on the command line.
    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.spec = build_spec(self.name, seed)
        self.scratch = scratch
        self.session: Session | None = None
        #: Seconds of the cold ``Session.run`` made during set-up.
        self.setup_run_s: float | None = None
        #: Outcome of that run, which every operation must reproduce.
        self.reference: dict | None = None

    def setup(self) -> None:
        """Open the session and fill its caches with one cold run."""
        self.session = Session()
        start = now()
        result = self.session.run(self.spec)
        self.setup_run_s = now() - start
        self.reference = self.outcome(result)

    def operation(self, index: int):
        return self.session.run(self.spec)

    def outcome(self, result) -> dict:
        raise NotImplementedError

    def extra_problems(self, index: int) -> list[str]:
        """Checks on what an operation left behind besides its result."""
        return []

    def cleanup(self, index: int) -> None:
        pass

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class TrainWorkload(_Workload):
    """Each operation trains and evaluates in a fresh ``Session``."""

    name = "train"

    def setup(self) -> None:
        pass

    def operation(self, index: int):
        with Session() as session:
            return session.run(self.spec)

    def outcome(self, result) -> dict:
        m = result.metrics
        losses = m["training"]["seg_losses"] + m["training"]["roi_losses"]
        problems = []
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite training loss in {losses}")
        return {
            "frames": m["frames"],
            "quality": {
                "gaze_err_deg": _mean_gaze(m),
                "seg_loss": m["training"]["seg_losses"][-1],
            },
            "sensor": _evaluate_sensor(m),
            "digest": _digest(m),
            "problems": problems,
        }


def _evaluate_sensor(metrics: dict) -> dict:
    return {
        "bytes_per_frame": metrics["mean_transmitted_bytes"],
        "compression_achieved": metrics["mean_compression"],
    }


class TrackWorkload(_Workload):
    name = "track"

    def outcome(self, result) -> dict:
        m = result.metrics
        target = result.provenance["spec"]["sensor"]["compression"]
        return {
            "frames": m["frames"],
            "quality": {
                "gaze_err_deg": _mean_gaze(m),
                "compression_gap": abs(m["mean_compression"] / target - 1),
            },
            "sensor": _evaluate_sensor(m),
            "digest": _digest(m),
            "problems": [],
        }


class ServeWorkload(_Workload):
    name = "serve"

    def outcome(self, result) -> dict:
        m = result.metrics
        telemetry = m["telemetry"]
        f = telemetry["frames"]
        problems = []
        if f["arrived"] != f["processed"] + f["dropped"] + f["backlog"]:
            problems.append(f"arrivals do not balance: {f}")
        if f["processed"] != f["completed"] + f["bootstrap"]:
            problems.append(f"processed frames do not balance: {f}")
        deterministic = {
            k: v for k, v in m.items() if k not in SERVE_WALL_KEYS
        }
        return {
            "frames": f["processed"],
            "quality": {
                "gaze_err_deg": telemetry["gaze_error_deg"]["mean"],
                "drop_rate": (f["dropped"] + f["backlog"]) / f["arrived"],
            },
            "sensor": {"bytes_per_frame": 0.0, "compression_achieved": 0.0},
            "frames_dropped": f["dropped"],
            "digest": _digest(deterministic),
            "problems": problems,
        }


class SweepWorkload(_Workload):
    """Each operation sweeps in a fresh ``Session`` with a fresh store."""

    name = "sweep"

    def setup(self) -> None:
        pass

    def _store(self, index: int) -> Path:
        return self.scratch / f"store-{index}"

    def operation(self, index: int):
        store = self._store(index)
        shutil.rmtree(store, ignore_errors=True)
        with Session(store=store) as session:
            return session.run(self.spec)

    def outcome(self, result) -> dict:
        strategies = result.metrics["strategies"]
        names = sorted(strategies)
        problems = []
        if names != sorted(STRATEGY_NAMES):
            problems.append(f"strategies {names} != {sorted(STRATEGY_NAMES)}")
        return {
            "frames": sum(strategies[n]["frames"] for n in names),
            "quality": {
                "gaze_err_deg": (
                    sum(_mean_gaze(strategies[n]) for n in names) / len(names)
                ),
            },
            "sensor": {
                "bytes_per_frame": 0.0,
                # The median: a strategy that skips most frames reaches
                # a compression orders of magnitude above the others.
                "compression_achieved": statistics.median(
                    strategies[n]["mean_compression"] for n in names
                ),
            },
            "digest": _digest(result.metrics),
            "problems": problems,
        }

    def extra_problems(self, index: int) -> list[str]:
        """The store must hold one entry per strategy plus the result."""
        from repro.store import ArtifactStore

        entries = ArtifactStore(self._store(index)).stats()["entries"]
        want = len(STRATEGY_NAMES) + 1
        return [] if entries == want else [f"store holds {entries} != {want}"]

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self._store(index), ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (TrainWorkload, TrackWorkload, ServeWorkload, SweepWorkload)
}
