"""Pinned determinism: sha256 digests of a scripted world, tiny training runs, a tiny eval and its analysis.

The expected digests live in golden_digests.json. A change that alters any of
them changes the program's deterministic output and must say so. The analysis
digests are taken in a child process with one BLAS thread, because the KDE's
matrix product gives other bits under other thread counts. To print the
digests the current code produces:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predprey
from predprey.cli import main
from predprey.net import AdamState, init_net, save_checkpoint
from predprey.train import run_training
from predprey.world import WorldConfig, reset, state_digest, step
from test_train import tiny_config

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"

EVAL_CONFIG = """\
n_runs = 3
duration = 200
seed = 9
condition_id = golden
log_points = true
"""


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def scripted_world_digest() -> str:
    """state_digest after 1,000 ticks of seeded random actions in the default world."""
    cfg = WorldConfig()
    state = reset(cfg, 2024)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        state, _, _, _ = step(state, rng.integers(0, 6, size=(1, cfg.n_prey)))
    return state_digest(state)


# Two worlds stepped together, with episodes short enough to end inside a sweep.
TWO_WORLDS = dict(
    n_worlds=2, world=WorldConfig(n_prey=2, n_positive_points=4, n_negative_points=4, episode_length=24)
)


def train_digests(out_dir: Path, prefix: str = "train", **overrides) -> dict[str, str]:
    """metrics.csv and the final checkpoint of a tiny training run with the given config overrides."""
    run_training(tiny_config(**overrides), out_dir)
    return {
        f"{prefix}_metrics_csv": file_sha256(out_dir / "metrics.csv"),
        f"{prefix}_checkpoint_final": file_sha256(out_dir / "checkpoint_final.ckpt"),
    }


def eval_digests(out_dir: Path) -> dict[str, str]:
    """Three 200-tick runs with the predator and point logging, from a seeded untrained net."""
    out_dir.mkdir(parents=True, exist_ok=True)
    net = init_net(WorldConfig().obs_dim, 6, hidden_units=16, num_layers=1, seed=3)
    ckpt = out_dir / "net.ckpt"
    save_checkpoint(ckpt, net, AdamState.for_net(net), 3, 0)
    cfg = out_dir / "eval.txt"
    cfg.write_text(EVAL_CONFIG)
    result = out_dir / "result"
    assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt), "-o", str(result)]) == 0
    return {
        "eval_run_records_csv": file_sha256(result / "run_records.csv"),
        "eval_trajectory_csv": file_sha256(result / "trajectory.csv"),
    }


# The arena's walls, as an explicit heatmap extent.
ARENA_EXTENT = ["-5.11", "5.11", "-5.11", "5.11"]


# The thread variables benchmarks/run.py pins.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def analysis_digests(result: Path) -> dict[str, str]:
    """`cli_analysis_digests` of the tiny eval's result, run in a child process with one BLAS thread."""
    paths = [str(Path(predprey.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    python_path = os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": python_path}
    child = subprocess.run(
        [sys.executable, __file__, "--analysis", str(result)], capture_output=True, text=True, env=env, timeout=300
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def cli_analysis_digests(result: Path) -> dict[str, str]:
    """Heatmaps and a replay window of the tiny eval's trajectory, through the CLI.

    The prey heatmap takes Scott's bandwidth and the default extent, the predator
    heatmap an explicit one; the replay window holds point rows and a tick with two events.
    """
    traj = str(result / "trajectory.csv")
    prey, predator, replay = (result.parent / name for name in ("heatmap-prey", "heatmap-predator", "replay"))
    assert main(["heatmap", "--trajectory", traj, "-o", str(prey)]) == 0
    argv = ["heatmap", "--trajectory", traj, "--entity-kind", "predator", "--extent", *ARENA_EXTENT, "-o", str(predator)]
    assert main(argv) == 0
    assert main(["replay-export", "--trajectory", traj, "--run", "0", "--ticks", "20", "30", "-o", str(replay)]) == 0
    return {
        "heatmap_prey_occupancy_txt": file_sha256(prey / "occupancy.txt"),
        "heatmap_prey_occupancy_pgm": file_sha256(prey / "occupancy.pgm"),
        "heatmap_predator_occupancy_txt": file_sha256(predator / "occupancy.txt"),
        "replay_run0_20_30_txt": file_sha256(replay / "replay_run0_20_30.txt"),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_scripted_world_state_digest(golden):
    assert scripted_world_digest() == golden["world_state_1000_ticks"]


def test_tiny_training_outputs(golden, tmp_path):
    got = train_digests(tmp_path)
    assert got == {k: golden[k] for k in got}


def test_tiny_training_two_worlds_outputs(golden, tmp_path):
    got = train_digests(tmp_path, "train_2_worlds", **TWO_WORLDS)
    assert got == {k: golden[k] for k in got}


def test_tiny_eval_outputs(golden, tmp_path):
    got = eval_digests(tmp_path)
    # the fixture must exercise point rows and every event kind
    text = (tmp_path / "result" / "trajectory.csv").read_text()
    for needle in ("point_positive", "point_negative", "positive_collected", "negative_collected", "prey_caught"):
        assert needle in text, needle
    assert got == {k: golden[k] for k in got}


def test_tiny_eval_analysis_outputs(golden, tmp_path):
    eval_digests(tmp_path)
    got = analysis_digests(tmp_path / "result")
    replay = (tmp_path / "replay" / "replay_run0_20_30.txt").read_text()
    for needle in ("point_positive", "point_negative", "event positive_collected prey=3", "event prey_caught prey=3"):
        assert needle in replay, needle
    assert got == {k: golden[k] for k in got}


if __name__ == "__main__":
    import contextlib
    import tempfile

    if sys.argv[1:2] == ["--analysis"]:
        with contextlib.redirect_stdout(sys.stderr):
            digests = cli_analysis_digests(Path(sys.argv[2]))
        print(json.dumps(digests))
        sys.exit(0)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = {"world_state_1000_ticks": scripted_world_digest()}
        digests.update(train_digests(Path(tmp) / "train"))
        digests.update(train_digests(Path(tmp) / "train2", "train_2_worlds", **TWO_WORLDS))
        digests.update(eval_digests(Path(tmp) / "eval"))
        digests.update(analysis_digests(Path(tmp) / "eval" / "result"))
    print(json.dumps(digests, indent=2))
