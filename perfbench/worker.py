"""One worker process of the repository benchmark.

``perfbench/run.py`` starts several of these one after another, each a
fresh interpreter, so every worker pays the full set-up a user pays:
interpreter start, ``import repro.api``, opening the ``Session`` and the
workload's own set-up.  The worker then runs timed operations for its
share of the run, checks each result, and writes a JSON report to
``--out``.

With ``--trace 1`` the layer wrappers of :mod:`layers` are installed
during set-up and during every second operation; the other operations
run unwrapped, so the report carries traced and untraced timings of the
same workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

from timing import now


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="monotonic-clock stamp of the worker's launch")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    return parser.parse_args(argv)


def _run_operation(workload, index: int, tracer) -> dict:
    """Time one operation and check its result."""
    record = {"index": index, "traced": tracer is not None}
    root = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
        root = tracer.begin("op")
    start = now()
    try:
        result = workload.operation(index)
    except Exception:
        result = None
        record["problems"] = [traceback.format_exc()]
    finally:
        record["seconds"] = now() - start
        if tracer is not None:
            root_s = tracer.end(root)
            tracer.uninstall()
    if result is not None:
        try:
            outcome = workload.outcome(result)
            outcome["problems"] += workload.extra_problems(index)
        except Exception:
            outcome = {"problems": [traceback.format_exc()]}
        if workload.reference is None:
            if not outcome["problems"]:
                workload.reference = outcome
        elif outcome.get("digest") != workload.reference["digest"]:
            outcome["problems"].append(
                "deterministic metrics differ from the run's first result"
            )
        record.update(outcome)
        if tracer is not None:
            record["layers"] = tracer.window_metrics()
            record["layers"]["trace.coverage"] = root.child_s / root_s
    workload.cleanup(index)
    for problem in record["problems"]:
        print(f"perfbench: operation {index} failed: {problem}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "benchmarks"))

    start = now()
    import repro.api

    import_s = now() - start
    scipy_stats_loaded = "scipy.stats" in sys.modules

    from layers import LayerTracer
    from workloads import WORKLOADS

    tracer = LayerTracer() if args.trace else None
    scratch = root / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, scratch)
    if tracer is not None:
        tracer.install()
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_layers = None
    if tracer is not None:
        total = tracer.total.get
        setup_layers = {
            "setup.training_s": (
                total("training.run", 0.0) + total("training.gaze_fit", 0.0)
            ),
            "setup.synth_render_s": total("synth.render", 0.0),
            "setup.engine_run_s": total("engine.run", 0.0),
        }

    first_operation = now()
    deadline = first_operation + args.seconds
    operations = []
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        operations.append(
            _run_operation(workload, index, tracer if traced else None)
        )
        index += 1
        # A traced run needs at least one traced and one untraced
        # operation to measure the tracing overhead.
        if now() >= deadline and (tracer is None or index >= 2):
            break
    workload.close()
    shutil.rmtree(scratch, ignore_errors=True)

    spec = repro.api.ExperimentSpec.from_dict(workload.spec).to_dict()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "spec": spec,
        "setup_s": first_operation - args.launched,
        "setup_run_s": workload.setup_run_s,
        "import_s": import_s,
        "scipy_stats_loaded": scipy_stats_loaded,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_digest": (
            workload.reference.get("digest") if workload.reference else None
        ),
        "setup_layers": setup_layers,
        "session_open_s": (
            statistics.median(tracer.session_open_s)
            if tracer is not None and tracer.session_open_s
            else None
        ),
        "operations": operations,
    }
    if tracer is not None:
        tracer.write(args.spans)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
