"""The repository benchmark: one workload at one seed, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {train,track,serve,sweep} \\
        --seed N --seconds S --trace {0,1}

The run starts :data:`SETUPS` fresh worker processes one after another
(``perfbench/worker.py``).  Each sets up the workload from scratch and
then runs timed operations for ``S / SETUPS`` seconds.  With ``--trace 0``
the run reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it reports the per-layer metrics instead, measured by the
layer wrappers of ``perfbench/layers.py``.

Every operation's result is checked (see ``perfbench/workloads.py``); the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The host, the
settings, the spec each worker ran and every raw timing are written to
``.perfbench/runs/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from timing import now

WORKLOADS = ("train", "track", "serve", "sweep")
#: Fresh worker processes per run; ``setup_s`` is their median.
SETUPS = 3
#: Wall budget of all workers of one run (the run must end in 180 s).
BUDGET_S = 170.0
#: BLAS threads per process.  The ``sweep`` runs two pool processes, so
#: one thread each keeps processes x threads within a 2-core host.
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Files the benchmark needs besides its own.
REQUIRED = ("BENCHMARK.json", "src/repro/api/__init__.py", "benchmarks/_helpers.py")


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it keys the program's RNG streams)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path) -> dict:
    """Commit and dirty flag, when ``root`` is itself a git work tree."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()) != root.resolve():
            return {"commit": None, "dirty": None}
        return {
            "commit": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain").stdout.strip()),
        }
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def host_stamp(root: Path) -> dict:
    """The host and settings every run record carries."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_threads": BLAS_THREADS,
        "git": _git(root),
    }


def _run_workers(args, root: Path, out: Path, tag: str):
    """Run :data:`SETUPS` workers in turn; returns (reports, crashed)."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    started = now()
    reports, crashed = [], 0
    for k in range(SETUPS):
        report_path = out / "workers" / f"{tag}-w{k}.json"
        report_path.unlink(missing_ok=True)
        remaining = BUDGET_S - (now() - started)
        if remaining <= 0:
            crashed += 1
            continue
        launched = now()
        proc = subprocess.Popen(
            [
                sys.executable, str(here / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds / SETUPS),
                "--trace", str(args.trace),
                "--launched", repr(launched),
                "--out", str(report_path),
                "--spans", str(out / "traces" / f"{tag}-w{k}.json"),
            ],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            code = None
            print(f"perfbench: worker {k} timed out", file=sys.stderr)
        finally:
            # The worker's process group holds any pool processes it
            # started; none may outlive the run.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code == 0 and report_path.is_file():
            reports.append(json.loads(report_path.read_text()))
        else:
            print(f"perfbench: worker {k} failed (exit {code})", file=sys.stderr)
            crashed += 1
    return reports, crashed


def _end_to_end(reports: list, ops: list) -> dict:
    # Workloads that set up with a cold run (track, serve) time it there;
    # on the others every operation is itself a cold run.
    cold = [
        r["setup_run_s"] for r in reports if r["setup_run_s"] is not None
    ] or [op["seconds"] for op in ops]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "cold_run_s": statistics.median(cold),
        "frames_per_s": statistics.median(
            op["frames"] / op["seconds"] for op in ops
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def _per_layer(reports: list, untraced: list, traced: list) -> dict:
    metrics = {
        key: statistics.median(op["layers"][key] for op in traced)
        for key in sorted(traced[0]["layers"])
    }
    first = traced[0]
    quality = first["quality"]
    metrics.update(
        {
            "import.repro_s": statistics.median(r["import_s"] for r in reports),
            "import.scipy_stats_loaded": statistics.median(
                float(r["scipy_stats_loaded"]) for r in reports
            ),
            "api.session_open_s": statistics.median(
                r["session_open_s"] for r in reports
            ),
            "sensor.bytes_per_frame": first["sensor"]["bytes_per_frame"],
            "sensor.compression_achieved": first["sensor"]["compression_achieved"],
            "serve.frames_dropped": first.get("frames_dropped", 0),
            "quality.gaze_err_deg": quality["gaze_err_deg"],
            "quality.seg_loss": quality.get("seg_loss", 0.0),
            "quality.compression_gap": quality.get("compression_gap", 0.0),
            "quality.drop_rate": quality.get("drop_rate", 0.0),
            "trace.overhead": (
                statistics.median(op["seconds"] for op in traced)
                / statistics.median(op["seconds"] for op in untraced)
                - 1
            ),
        }
    )
    for key in reports[0]["setup_layers"]:
        metrics[key] = statistics.median(r["setup_layers"][key] for r in reports)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(
            f"perfbench: run from the root of a repository checkout; "
            f"missing {missing}",
            file=sys.stderr,
        )
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    out = root / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    reports, crashed = _run_workers(args, root, out, tag)
    # Every worker ran the same spec, so every deterministic result must
    # match the first one a worker got.
    reference = next(
        (r["reference_digest"] for r in reports if r["reference_digest"]), None
    )
    for report in reports:
        for op in report["operations"]:
            if "digest" in op and op["digest"] != reference:
                op["problems"].append("result differs across workers")
    operations = [op for r in reports for op in r["operations"]]
    good = [op for op in operations if not op["problems"]]
    untraced = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    attempted = len(operations) + crashed
    failed = attempted - len(good)
    if not untraced or (args.trace and not traced):
        print("perfbench: no successful operation to measure", file=sys.stderr)
        return 1

    if args.trace:
        values = _per_layer(reports, untraced, traced)
    else:
        values = _end_to_end(reports, untraced)
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(names))} disagree with "
            f"BENCHMARK.json"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_stamp(root),
        "spec": reports[0]["spec"],
        "quality": good[0]["quality"],
        "workers": reports,
        "result": result,
    }
    (out / "runs").mkdir(parents=True, exist_ok=True)
    (out / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in sorted(good[0]["quality"].items()):
        print(f"{args.workload} quality {name} = {value:.6g}")
    print(f"{args.workload} operations: {attempted} attempted, {failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
