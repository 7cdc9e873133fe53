"""CLI over the declarative API: specs in, uniform JSON out, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentSpec, Session
from repro.api.registry import STRATEGIES
from repro.cli import build_parser, main
from repro.sampling import SamplingDecision, SamplingStrategy

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


class Mute(SamplingStrategy):
    """Asks to reuse every frame: it never transmits a training frame."""

    name = "Mute"
    stochastic = False

    def sample_batch(self, strategies, frames, event_maps, roi_boxes):
        return [
            SamplingDecision(
                np.zeros(f.shape, dtype=bool), np.zeros_like(f), None,
                reuse_previous=True,
            )
            for f in frames
        ]


class TestSpecBuilders:
    @pytest.mark.parametrize(
        "command, workload",
        [
            ("energy", "energy"),
            ("latency", "latency"),
            ("area", "area"),
            ("power", "power"),
            ("sweep-fps", "fps_sweep"),
            ("sweep-node", "node_sweep"),
        ],
    )
    def test_hardware_commands_emit_json(
        self, command, workload, capsys, tmp_path
    ):
        out_path = tmp_path / "out.json"
        assert main([command, "--json", str(out_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) >= 3
        data = json.loads(out_path.read_text())
        assert data["workload"] == workload
        assert data["provenance"]["spec_hash"]
        assert data["metrics"]

    def test_fps_flag_reaches_spec_and_output(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        assert main(["energy", "--fps", "60", "--json", str(out_path)]) == 0
        assert "60" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert data["metrics"]["fps"] == 60.0
        assert data["provenance"]["spec"]["execution"]["fps"] == 60.0


class TestRunCommand:
    def test_run_executes_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ExperimentSpec.from_dict({"workload": "area"}).to_json()
        )
        out_path = tmp_path / "out.json"
        assert main(["run", str(spec_path), "--json", str(out_path)]) == 0
        assert "TOTAL" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["workload"] == "area"

    def test_workers_override_recorded(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ExperimentSpec.from_dict({"workload": "power"}).to_json()
        )
        out_path = tmp_path / "out.json"
        assert main(
            ["run", str(spec_path), "--workers", "2", "--json", str(out_path)]
        ) == 0
        data = json.loads(out_path.read_text())
        assert data["provenance"]["workers"] == 2

    def test_invalid_workers_override_exits_2(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ExperimentSpec.from_dict({"workload": "area"}).to_json()
        )
        # 0 is an explicit value too, not "unset": it must not fall back
        # to the spec's workers.
        for workers in ("-2", "0"):
            assert main(["run", str(spec_path), "--workers", workers]) == 2
            assert "execution.workers" in capsys.readouterr().err

    def test_unknown_backend_override_exits_2(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ExperimentSpec.from_dict({"workload": "area"}).to_json()
        )
        for backend in ("thread", "file_queue"):
            assert main(["run", str(spec_path), "--backend", backend]) == 2
            assert "execution.backend" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "spec error" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, capsys, tmp_path, monkeypatch):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"workload": "bogus"}')
        assert main(["run", str(spec_path)]) == 2
        assert "unknown workload" in capsys.readouterr().err
        # A training split the gaze fit cannot calibrate on (1 x 2
        # frames) fails validation too, instead of a traceback mid-run.
        spec_path.write_text(
            json.dumps(
                {
                    "workload": "evaluate",
                    "dataset": {"num_sequences": 1, "frames_per_sequence": 2},
                    "training": {"train_indices": [0]},
                }
            )
        )
        assert main(["run", str(spec_path)]) == 2
        assert "training.train_indices" in capsys.readouterr().err
        # A strategy that transmits no training frame (a registered one
        # that always reuses) only shows up mid-sweep: still exit 2,
        # naming the split and the strategy, in-process and fanned out.
        monkeypatch.setitem(
            STRATEGIES._entries, "Mute", lambda c, dataset=None: Mute(c)
        )
        spec_path.write_text(
            json.dumps(
                {
                    "workload": "strategy_sweep",
                    "dataset": {"num_sequences": 2, "frames_per_sequence": 3},
                    "strategy": {
                        "names": ["Mute", "Full+DS"],
                        "train_epochs": 1,
                    },
                    "training": {"train_indices": [0]},
                    "execution": {"eval_indices": [1], "backend": "in_process"},
                }
            )
        )
        for overrides in ([], ["--workers", "2", "--backend", "process_pool"]):
            assert main(["run", str(spec_path), *overrides]) == 2
            err = capsys.readouterr().err
            assert "training.train_indices" in err
            assert "'Mute'" in err

    def test_skip_sends_each_sequence_first_frame(self, capsys):
        # Skip has nothing to reuse before its first send.  It used to
        # reuse a quiet first frame anyway, so the shipped sweep with
        # all 7 strategies exited 2 (Skip sent no training frame), and a
        # Skip-only sweep segmented a blank frame at "1e6x".
        all_seven = ExperimentSpec.from_file(
            SPECS / "strategy_sweep.json"
        ).to_dict()
        all_seven["strategy"]["names"] = STRATEGIES.names()
        all_seven["execution"]["backend"] = "in_process"
        skip_only = {
            "workload": "strategy_sweep",
            "dataset": {
                "num_sequences": 5,
                "frames_per_sequence": 16,
                "dynamics": "lively",
                "eye_scale": 0.6,
            },
            "strategy": {"names": ["Skip"]},
            "training": {"train_indices": [0, 1, 2, 3]},
            "execution": {"eval_indices": [4], "backend": "in_process"},
        }
        with Session() as session:
            for spec in (all_seven, skip_only):
                metrics = session.run(ExperimentSpec.from_dict(spec)).metrics
                skip = metrics["strategies"]["Skip"]
                assert skip["mean_compression"] == 1.0

    def test_unknown_field_exits_2_with_field_name(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"execution": {"workerz": 2}}')
        assert main(["run", str(spec_path)]) == 2
        assert "execution.workerz" in capsys.readouterr().err

    def test_shipped_quickstart_spec_is_valid(self):
        spec = ExperimentSpec.from_file(SPECS / "quickstart.json")
        assert spec.workload == "evaluate"


class TestServeCommand:
    def test_serve_flags_reach_spec(self):
        from repro.cli import _SPEC_BUILDERS

        args = build_parser().parse_args(
            [
                "serve",
                "--clients", "6",
                "--ticks", "9",
                "--arrival", "poisson",
                "--deadline-policy", "best_effort",
                "--max-batch", "3",
            ]
        )
        spec = _SPEC_BUILDERS["serve"](args)
        serve = spec.execution.serve
        assert spec.workload == "serve"
        assert serve.num_clients == 6
        assert serve.duration_ticks == 9
        assert serve.arrival == "poisson"
        assert serve.deadline_policy == "best_effort"
        assert serve.max_batch == 3

    def test_serve_defaults_leave_batch_unbounded(self):
        from repro.cli import _SPEC_BUILDERS

        args = build_parser().parse_args(["serve"])
        spec = _SPEC_BUILDERS["serve"](args)
        assert spec.execution.serve.max_batch is None
        assert args.workers == 0

    def test_bad_arrival_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "bursty"])


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_run_requires_spec_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])
