import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predprey
from predprey.cli import main
from predprey.configio import (
    EvalConfig,
    parse_eval_config,
    parse_scenario_config,
    write_resolved,
)
from predprey.errors import ConfigError
from predprey.net import read_rows
from predprey.stats import RunRecord
from predprey.trajectory import TrajectoryTable, replay_export


class TestParseConfig:
    def test_scenario_one_pins_max_steps(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("scenario_id = 1\n")
        cfg, provenance = parse_scenario_config(path)
        assert cfg.hyperparams.max_steps == 580_000
        assert cfg.world.predator_present is True
        assert provenance["scenario_id"] == "file"
        assert provenance["max_steps"] == "default"

    def test_empty_file_with_scenario_flag_three(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        cfg, provenance = parse_scenario_config(path, {"scenario_id": 3})
        assert cfg.world.predator_present is False
        assert cfg.hyperparams.max_steps == 1_000_000
        assert provenance["scenario_id"] == "flag"

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("epsilonn = 0.2\n")
        with pytest.raises(ConfigError, match="epsilonn"):
            parse_scenario_config(path)

    def test_bad_value_is_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("epsilon = banana\n")
        with pytest.raises(ConfigError, match="epsilon"):
            parse_scenario_config(path)

    def test_scientific_max_steps(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("max_steps = 1.0e6\n")
        cfg, _ = parse_scenario_config(path)
        assert cfg.hyperparams.max_steps == 1_000_000

    def test_explicit_override_beats_scenario_table(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("scenario_id = 1\nmax_steps = 1234\npredator_present = false\n")
        cfg, provenance = parse_scenario_config(path)
        assert cfg.hyperparams.max_steps == 1234
        assert cfg.world.predator_present is False
        assert provenance["predator_present"] == "file"

    def test_stale_predator_in_training_key_exits_2(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("scenario_id = 1\npredator_in_training = false\n")
        assert main(["train", "-c", str(path), "-o", str(tmp_path / "out")]) == 2

    def test_barrier_layout_parsing(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("barrier_layout = -1.0,-1.0,-0.5,1.0 ; 0.5,-1.0,1.0,1.0\n")
        cfg, _ = parse_scenario_config(path)
        assert cfg.world.barrier_layout == ((-1.0, -1.0, -0.5, 1.0), (0.5, -1.0, 1.0, 1.0))
        path.write_text("barrier_layout = none\n")
        cfg, _ = parse_scenario_config(path)
        assert cfg.world.barrier_layout == ()

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario_config(path)

    def test_comments_and_inline_comments(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# header\nseed = 7  # inline\n\n")
        cfg, _ = parse_scenario_config(path)
        assert cfg.seed == 7

    def test_scenario_roundtrip(self, tmp_path):
        src = tmp_path / "cfg.txt"
        src.write_text(
            "scenario_id = 2\nseed = 42\nepsilon = 0.25\nn_prey = 3\n"
            "learning_rate = 2.5e-4\npredator_view_angle = 90.0\n"
        )
        cfg, prov = parse_scenario_config(src)
        out = tmp_path / "resolved.txt"
        write_resolved(cfg, out, prov)
        cfg2, _ = parse_scenario_config(out)
        assert cfg2 == cfg

    def test_eval_roundtrip(self, tmp_path):
        src = tmp_path / "eval.txt"
        src.write_text(
            "checkpoint = model.ckpt\nn_runs = 7\nduration = 123\ngreedy = true\n"
            "predator_present = false\ncondition_id = trial\n"
        )
        cfg, prov = parse_eval_config(src)
        assert isinstance(cfg, EvalConfig)
        assert cfg.n_runs == 7 and cfg.greedy and not cfg.world.predator_present
        out = tmp_path / "resolved.txt"
        write_resolved(cfg, out, prov)
        cfg2, _ = parse_eval_config(out)
        assert cfg2 == cfg


def run_cli(args, cwd):
    """The CLI in a fresh interpreter, so exit code and stderr are exactly what a user sees."""
    src = str(Path(predprey.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "predprey.cli", *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=120
    )


class TestBadNumericInput:
    @pytest.mark.parametrize(
        "subcommand, line",
        [
            ("train", "time_horizon = 0"),
            ("train", "num_epoch = 0"),
            ("train", "batch_size = -64"),
            ("train", "learning_rate = nan"),
            ("train", "epsilon = inf"),
            ("train", "max_steps = inf"),
            ("train", "tick_dt = nan"),
            ("eval", "tick_dt = nan"),
            ("eval", "arena_side = inf"),
            ("eval", "n_runs = 1"),
            ("eval", "duration = 0"),
            ("train", "seed = -1"),
            ("eval", "seed = -1"),
            ("train", "seed = 18446744073709551616"),
            ("train", "num_layers = -1"),
            ("train", "hidden_units = 0"),
            ("train", "gamma = 1.5"),
            ("train", "gae_lambda = 2"),
            ("train", "learning_rate = -0.001"),
            ("train", "epsilon = -0.5"),
            ("train", "beta = -1"),
            ("train", "value_loss_coeff = -1"),
        ],
    )
    def test_config_value_exits_2_without_traceback(self, tmp_path, subcommand, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        proc = run_cli([subcommand, "-c", str(cfg), "-o", str(tmp_path / "out")], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert line.split(" = ")[0] in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--n-runs", "1"), ("--duration", "-5"), ("--seed", "-1")])
    def test_eval_count_flag_exits_2_before_loading_the_checkpoint(self, tmp_path, flag, value):
        # the checkpoint does not exist: loading it would be an i/o failure (exit 4)
        argv = ["eval", "--checkpoint", "none.ckpt", flag, value, "-o", str(tmp_path / "out")]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert flag[2:].replace("-", "_") in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--condition", "run#2"), ("--condition", "a\nb"), ("--checkpoint", " none.ckpt")]
    )
    def test_string_flag_a_config_file_cannot_carry_exits_2(self, tmp_path, flag, value):
        argv = ["eval", "--checkpoint", "none.ckpt", flag, value, "-o", str(tmp_path / "out")]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert flag[2:] in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_predator_flag_typo_exits_2(self, tmp_path):
        proc = run_cli(["eval", "--checkpoint", "none.ckpt", "--predator", "ture", "-o", str(tmp_path / "out")], tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--predator" in proc.stderr and "ture" in proc.stderr

    def test_predator_flag_values_parse(self):
        from predprey.configio import parse_bool

        assert [parse_bool(v) for v in ("true", "TRUE", "1", "yes", "false", "No", "0")] == [True] * 4 + [False] * 3
        with pytest.raises(ValueError):
            parse_bool("ture")


TRAJECTORY_HEAD = (
    "run_id,tick,entity_kind,entity_id,x,y,heading,event\r\n"
    "0,0,prey,0,1.0,2.0,90.0,\r\n0,0,predator,0,-1.0,-2.0,45.0,\r\n"
    "0,1,prey,0,1.5,2.5,91.0,positive_collected\r\n0,1,predator,0,-1.5,-2.5,46.0,\r\n"
)
ANALYSIS_COMMANDS = {
    "heatmap": ["heatmap", "--extent", "-5", "5", "-5", "5"],
    "replay-export": ["replay-export", "--run", "0", "--ticks", "0", "1"],
}


class TestBadTrajectoryInput:
    @pytest.mark.parametrize("subcommand", sorted(ANALYSIS_COMMANDS))
    @pytest.mark.parametrize(
        "row",
        [
            "0,2,prey,0,1.0,2.0,90.0",  # seven fields
            "0,2,prey,0,1.0,2.0,90.0,,extra",  # nine fields
            "0,2,prey,0,abc,2.0,90.0,",
            "0,2.5,prey,0,1.0,2.0,90.0,",
            "0,2,prey,x,1.0,2.0,90.0,",
            "0,2,prey,0,nan,2.0,90.0,",
            "0,2,prey,0,1.0,inf,90.0,",
            "0,2,prey,0,1.0,2.0,nan,",
        ],
    )
    def test_malformed_row_exits_2_without_traceback(self, tmp_path, subcommand, row):
        traj = tmp_path / "traj.csv"
        traj.write_text(TRAJECTORY_HEAD + row + "\r\n", newline="")
        argv = [*ANALYSIS_COMMANDS[subcommand], "--trajectory", str(traj), "-o", str(tmp_path / "out")]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{traj}: line 6 has " in proc.stderr  # the header and four good rows come first
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", sorted(ANALYSIS_COMMANDS))
    def test_well_formed_head_is_accepted(self, tmp_path, subcommand):
        traj = tmp_path / "traj.csv"
        traj.write_text(TRAJECTORY_HEAD, newline="")
        assert main([*ANALYSIS_COMMANDS[subcommand], "--trajectory", str(traj), "-o", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("grid", [("-1", "5"), ("0", "0"), ("4", "0")])
    def test_grid_below_one_cell_exits_2_before_the_trajectory_is_read(self, tmp_path, grid):
        # the trajectory does not exist: reading it would exit 4
        argv = ["heatmap", "--trajectory", str(tmp_path / "absent.csv"), "--grid", *grid, "-o", str(tmp_path / "out")]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"grid needs W and H of at least 1, got {grid[0]} {grid[1]}" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_failed_invocation_snapshot_keeps_previous_file(self, tmp_path, monkeypatch):
        import argparse

        import predprey.net as net_module
        from predprey.cli import _snapshot_args
        from tests_support import HalfWrite

        args = argparse.Namespace(trajectory="a.csv", run=0)
        _snapshot_args(args, tmp_path, ("trajectory", "run"))
        before = (tmp_path / "resolved_config.txt").read_bytes()
        args.run = 1
        monkeypatch.setattr(net_module, "open", HalfWrite, raising=False)
        with pytest.raises(OSError):
            _snapshot_args(args, tmp_path, ("trajectory", "run"))
        monkeypatch.undo()
        assert (tmp_path / "resolved_config.txt").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["resolved_config.txt"]

    def test_failed_replay_write_keeps_previous_file(self, tmp_path, monkeypatch):
        import predprey.net as net_module
        from tests_support import HalfWrite

        traj = tmp_path / "traj.csv"
        traj.write_text(TRAJECTORY_HEAD, newline="")
        out = tmp_path / "out"
        argv = ["replay-export", "--trajectory", str(traj), "--run", "0", "--ticks", "0", "1", "-o", str(out)]
        assert main(argv) == 0
        before = (out / "replay_run0_0_1.txt").read_bytes()
        traj.write_text(TRAJECTORY_HEAD.replace("1.5,2.5", "1.75,2.5"), newline="")
        monkeypatch.setattr(net_module, "open", HalfWrite, raising=False)
        assert main(argv) == 4
        monkeypatch.undo()
        assert (out / "replay_run0_0_1.txt").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["build.txt", "replay_run0_0_1.txt", "resolved_config.txt"]


RUN_RECORDS = "run_id,pos_total,neg_total,caught_total,duration_steps,task_efficiency\r\n"


class TestBadRunRecordInput:
    @pytest.mark.parametrize(
        "row",
        [
            "1,abc,1.0,0.0,10,0.8",
            "1,3.0,1.0",  # three fields
            "1,3.0,1.0,0.0,10,0.8,9",  # seven fields
            "1.5,3.0,1.0,0.0,10,0.8",
            "1,nan,1.0,0.0,10,0.8",
            "1,3.0,inf,0.0,10,0.8",
            "1,3.0,1.0,-1.0,10,0.8",
            "1,3.0,1.0,0.0,10,abc",  # the derived column is parsed too
            "",  # a blank line
            "\u00b2,4.0,1.0,0.0,10,3.8",  # a superscript two: str.isdigit, but not int
            "1,\udcff4.0,1.0,0.0,10,3.8",  # the byte 0xff, which UTF-8 cannot decode
        ],
    )
    def test_malformed_row_exits_2_naming_the_line(self, tmp_path, row):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(RUN_RECORDS + "0,3.0,1.0,0.0,10,2.8\r\n1,4.0,1.0,0.0,10,3.8\r\n", newline="")
        bad.write_text(RUN_RECORDS + "0,3.0,1.0,0.0,10,2.8\r\n" + row + "\r\n1,4.0,1.0,0.0,10,3.8\r\n", newline="", encoding="utf-8", errors="surrogateescape")
        proc = run_cli(["stats", f"a={good}", f"b={bad}", "-o", str(tmp_path / "out")], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{bad}: line 3: " in proc.stderr
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Train a tiny model once and reuse it for the downstream subcommands."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "train.txt"
    cfg.write_text(
        "\n".join(
            [
                "scenario_id = 3",
                "seed = 3",
                "n_prey = 2",
                "n_positive_points = 4",
                "n_negative_points = 4",
                "batch_size = 64",
                "buffer_size = 256",
                "time_horizon = 16",
                "max_steps = 512",
                "summary_freq = 256",
                "hidden_units = 16",
                "num_layers = 1",
                "checkpoint_interval = 512",
            ]
        )
        + "\n"
    )
    train_dir = root / "train"
    assert main(["train", "-c", str(cfg), "-o", str(train_dir)]) == 0

    eval_cfg = root / "eval.txt"
    eval_cfg.write_text(
        "\n".join(
            [
                "n_prey = 2",
                "n_positive_points = 4",
                "n_negative_points = 4",
                "n_runs = 3",
                "duration = 25",
                "seed = 5",
                "condition_id = demo",
            ]
        )
        + "\n"
    )
    eval_dir = root / "eval"
    rc = main(
        [
            "eval",
            "-c",
            str(eval_cfg),
            "--checkpoint",
            str(train_dir / "checkpoint_final.ckpt"),
            "-o",
            str(eval_dir),
        ]
    )
    assert rc == 0
    return root, train_dir, eval_dir


class TestCliPipeline:
    def test_malformed_metrics_on_resume_exits_2_naming_the_line(self, pipeline, tmp_path):
        root, train_dir, _ = pipeline
        run_dir = tmp_path / "train"
        run_dir.mkdir()
        (run_dir / "checkpoint_final.ckpt").write_bytes((train_dir / "checkpoint_final.ckpt").read_bytes())
        metrics = run_dir / "metrics.csv"
        header = (train_dir / "metrics.csv").read_text().splitlines()[0]
        metrics.write_text(header + "\nxx,1\n")
        argv = ["train", "-c", str(root / "train.txt"), "--resume", str(run_dir / "checkpoint_final.ckpt"), "-o", str(run_dir)]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{metrics}: line 2: " in proc.stderr
        assert metrics.read_text() == header + "\nxx,1\n"

    def test_blank_metrics_row_on_resume_exits_2_naming_the_line(self, pipeline, tmp_path):
        root, train_dir, _ = pipeline
        run_dir = tmp_path / "train"
        run_dir.mkdir()
        (run_dir / "checkpoint_final.ckpt").write_bytes((train_dir / "checkpoint_final.ckpt").read_bytes())
        header, first, *rest = (train_dir / "metrics.csv").read_bytes().splitlines(keepends=True)
        blank = b"".join([header, first, b"\r\n", *rest])  # a blank line before the checkpoint's row
        metrics = run_dir / "metrics.csv"
        metrics.write_bytes(blank)
        argv = ["train", "-c", str(root / "train.txt"), "--resume", str(run_dir / "checkpoint_final.ckpt"), "-o", str(run_dir)]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{metrics}: line 3: 0 fields, not 7" in proc.stderr
        assert metrics.read_bytes() == blank

    def test_resume_past_a_torn_metrics_row_ends_as_the_straight_run(self, pipeline, tmp_path):
        root, _, _ = pipeline
        cfg = root / "torn.txt"
        cfg.write_text((root / "train.txt").read_text().replace("max_steps = 512", "max_steps = 1024"))
        straight, run_dir = tmp_path / "straight", tmp_path / "torn"
        assert main(["train", "-c", str(cfg), "-o", str(straight)]) == 0
        assert main(["train", "-c", str(cfg), "-o", str(run_dir)]) == 0
        metrics = run_dir / "metrics.csv"
        data = metrics.read_bytes()
        assert data.count(b"\n") == 5  # the header, then rows at steps 256 to 1024
        metrics.write_bytes(data[:-40])  # a kill during an append leaves the last row cut short
        argv = ["train", "-c", str(cfg), "--resume", str(run_dir / "checkpoint_0000000512.ckpt"), "-o", str(run_dir)]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name in ("metrics.csv", "checkpoint_final.ckpt"):
            assert (run_dir / name).read_bytes() == (straight / name).read_bytes(), name

    def test_torn_metrics_row_at_the_checkpoint_exits_2_naming_the_line(self, pipeline, tmp_path):
        root, train_dir, _ = pipeline
        run_dir = tmp_path / "train"
        run_dir.mkdir()
        (run_dir / "checkpoint_final.ckpt").write_bytes((train_dir / "checkpoint_final.ckpt").read_bytes())
        torn = (train_dir / "metrics.csv").read_bytes()[:-40]  # the last row is the checkpoint's, step 512
        metrics = run_dir / "metrics.csv"
        metrics.write_bytes(torn)
        argv = ["train", "-c", str(root / "train.txt"), "--resume", str(run_dir / "checkpoint_final.ckpt"), "-o", str(run_dir)]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{metrics}: line 3: " in proc.stderr
        assert metrics.read_bytes() == torn

    def test_build_identifier_is_looked_up_once_per_process(self, tmp_path, monkeypatch):
        import predprey.cli as cli_module

        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cli_module.subprocess, "run", counting_run)
        cli_module.build_identifier.cache_clear()
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            cli_module._write_build(tmp_path / name)
        assert len(calls) == 1
        assert (tmp_path / "a" / "build.txt").read_bytes() == (tmp_path / "b" / "build.txt").read_bytes()

    def test_train_artifacts(self, pipeline):
        _, train_dir, _ = pipeline
        for name in ("resolved_config.txt", "build.txt", "metrics.csv", "checkpoint_final.ckpt"):
            assert (train_dir / name).exists(), name
        build = (train_dir / "build.txt").read_text()
        assert "predprey" in build and "checkpoint=1" in build

    def test_interrupted_eval_leaves_the_previous_eval_as_it_was(self, pipeline, tmp_path, monkeypatch):
        import predprey.stats as stats_module

        root, train_dir, _ = pipeline
        out = tmp_path / "eval"
        checkpoint = str(train_dir / "checkpoint_final.ckpt")
        argv = ["eval", "-c", str(root / "eval.txt"), "--checkpoint", checkpoint, "-o", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_step = stats_module.step
        ticks = []

        def step_then_fail(state, actions):
            ticks.append(len(ticks))
            if len(ticks) > 10:
                raise KeyboardInterrupt
            return real_step(state, actions)

        monkeypatch.setattr(stats_module, "step", step_then_fail)
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "--seed", "6", "--condition", "other"])
        assert len(ticks) == 11
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["stats", "heatmap", "replay-export"])
    def test_interrupted_analysis_leaves_the_previous_outputs_as_they_were(self, pipeline, tmp_path, monkeypatch, command):
        import predprey.cli as cli_module

        _, _, eval_dir = pipeline
        out = tmp_path / command
        records, trajectory = str(eval_dir / "run_records.csv"), str(eval_dir / "trajectory.csv")
        replay = ["replay-export", "--run", "0", "--ticks", "0", "4", "-o", str(out), "--trajectory"]
        first, second, interrupt = {
            "stats": (["stats", f"a={records}", f"b={records}"], ["stats", f"c={records}", f"d={records}"], "write_rows"),
            "heatmap": (["heatmap", "--trajectory", trajectory], ["heatmap", "--trajectory", trajectory, "--grid", "8", "8"], "write_grid_text"),
            "replay-export": ([*replay, trajectory], [*replay, str(tmp_path / "copy.csv")], "atomic_open"),
        }[command]
        (tmp_path / "copy.csv").write_bytes((eval_dir / "trajectory.csv").read_bytes())
        assert main([*first, "-o", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real = getattr(cli_module, interrupt)
        stopped = []

        def stop_at_data_file(*args, **kwargs):
            if interrupt == "atomic_open" and not Path(args[0]).name.startswith("replay_"):
                return real(*args, **kwargs)
            stopped.append(args)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, interrupt, stop_at_data_file)
        with pytest.raises(KeyboardInterrupt):
            main([*second, "-o", str(out)])
        assert len(stopped) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_eval_artifacts(self, pipeline):
        _, _, eval_dir = pipeline
        for name in ("resolved_config.txt", "run_records.csv", "summary.csv", "trajectory.csv"):
            assert (eval_dir / name).exists(), name
        records = read_rows(eval_dir / "run_records.csv", RunRecord)
        assert len(records) == 3

    def test_build_names_the_schema_of_every_csv_beside_it(self, pipeline, tmp_path):
        _, _, eval_dir = pipeline
        records = str(eval_dir / "run_records.csv")
        stats_dir = tmp_path / "stats"
        assert main(["stats", f"a={records}", f"b={records}", "-o", str(stats_dir)]) == 0
        for out in (eval_dir, stats_dir):
            schemas = dict(entry.split("=") for entry in (out / "build.txt").read_text().splitlines()[1].split())
            csvs = sorted(p.name for p in out.glob("*.csv"))
            assert csvs and all(schemas.get(name.replace(".", "_"), "").isdecimal() for name in csvs), (csvs, schemas)

    def test_stats_subcommand(self, pipeline, tmp_path):
        root, _, eval_dir = pipeline
        rec = str(eval_dir / "run_records.csv")
        out = tmp_path / "stats"
        rc = main(["stats", f"a={rec}", f"b={rec}", "-o", str(out)])
        assert rc == 0
        assert (out / "summary.csv").exists() and (out / "stats.csv").exists()
        stats_text = (out / "stats.csv").read_text()
        assert "a_vs_b:task_efficiency" in stats_text

    def test_heatmap_subcommand(self, pipeline, tmp_path):
        _, _, eval_dir = pipeline
        out = tmp_path / "hm"
        rc = main(
            [
                "heatmap",
                "--trajectory",
                str(eval_dir / "trajectory.csv"),
                "--entity-kind",
                "prey",
                "--grid",
                "16",
                "16",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "occupancy.txt").exists() and (out / "occupancy.pgm").exists()

    def test_replay_export_subcommand(self, pipeline, tmp_path):
        _, _, eval_dir = pipeline
        out = tmp_path / "replay"
        rc = main(
            [
                "replay-export",
                "--trajectory",
                str(eval_dir / "trajectory.csv"),
                "--run",
                "0",
                "--ticks",
                "0",
                "4",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        text = (out / "replay_run0_0_4.txt").read_text()
        assert text.count("tick ") == 5

    def test_eval_without_checkpoint_is_config_error(self, tmp_path):
        assert main(["eval", "-o", str(tmp_path / "x")]) == 2

    def test_unknown_config_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("epsilonn = 0.2\n")
        assert main(["train", "-c", str(bad), "-o", str(tmp_path / "out")]) == 2

    def test_missing_trajectory_is_io_error(self, tmp_path):
        rc = main(
            ["heatmap", "--trajectory", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "o")]
        )
        assert rc == 4

    def test_output_root_env_var(self, pipeline, tmp_path, monkeypatch):
        _, _, eval_dir = pipeline
        monkeypatch.setenv("PREDPREY_OUTPUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "replay-export",
                "--trajectory",
                str(eval_dir / "trajectory.csv"),
                "--run",
                "1",
                "--ticks",
                "2",
                "2",
            ]
        )
        assert rc == 0
        assert (tmp_path / "root" / "replay" / "replay_run1_2_2.txt").exists()


class TestReplayExport:
    def make_table(self, tmp_path, n_ticks=6):
        from predprey.trajectory import TrajectoryWriter
        from predprey.world import WorldConfig, reset, step

        cfg = WorldConfig(n_prey=2, n_positive_points=4, n_negative_points=4)
        state = reset(cfg, 0)
        path = tmp_path / "t.csv"
        with TrajectoryWriter(path, n_runs=1) as writer:
            rng = np.random.default_rng(0)
            for tick in range(n_ticks):
                state, _, _, events = step(state, rng.integers(0, 6, size=(1, 2)))
                writer.record(tick, state, events)
        return TrajectoryTable.from_csv(path)

    def test_single_tick_range_single_frame(self, tmp_path):
        table = self.make_table(tmp_path)
        text = replay_export(table, 0, (0, 0))
        assert text.count("tick ") == 1

    def test_frame_count_matches_range(self, tmp_path):
        table = self.make_table(tmp_path)
        for lo, hi in ((0, 5), (2, 4), (1, 1)):
            text = replay_export(table, 0, (lo, hi))
            assert text.count("tick ") == hi - lo + 1

    def test_out_of_range_rejected(self, tmp_path):
        table = self.make_table(tmp_path)
        from predprey.errors import InputError

        with pytest.raises(InputError):
            replay_export(table, 0, (0, 99))
        with pytest.raises(InputError):
            replay_export(table, 7, (0, 1))

    def test_caught_event_appears_with_prey_id(self, tmp_path):
        from predprey.trajectory import TrajectoryWriter
        from predprey.world import WorldConfig, reset, step
        from tests_support import make_contact_state

        cfg, state = make_contact_state()
        path = tmp_path / "t.csv"
        with TrajectoryWriter(path, n_runs=1) as writer:
            state, _, _, events = step(state, [[0]])
            assert any(e.kind == "prey_caught" for e in events)
            writer.record(0, state, events)
        table = TrajectoryTable.from_csv(path)
        text = replay_export(table, 0, (0, 0))
        assert "event prey_caught prey=0" in text
