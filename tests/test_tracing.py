"""The benchmark tracer must still find every function it wraps.

benchmarks/tracing.py patches package functions by name; a rename in
src/predprey would otherwise surface only in a traced benchmark run.
"""

import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import predprey.cli  # noqa: F401  (the tracer patches every loaded predprey module)
import predprey.net
import predprey.world
from predprey.world import EVENT_CAUGHT, EVENT_NEGATIVE, EVENT_POSITIVE, WorldConfig

TRACING_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    tracing = load_tracing()
    original = predprey.net.forward
    with tracing.Tracer():
        assert predprey.net.forward is not original
        assert predprey.net.forward.__wrapped__ is original
    assert predprey.net.forward is original


@pytest.fixture(scope="module")
def traced_cli(tmp_path_factory):
    """Run a one-cycle train, an eval of its checkpoint and heatmap, replay-export and stats of that eval under one Tracer."""
    tracing = load_tracing()
    tmp_path = tmp_path_factory.mktemp("traced_cli")
    train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
    train = ["train", "--scenario", "3", "--seed", "1", "--max-steps", "1", "-o", str(train_dir)]  # one cycle
    checkpoint = str(train_dir / "checkpoint_final.ckpt")
    evaluate = ["eval", "--checkpoint", checkpoint, "--n-runs", "2", "--duration", "5", "-o", str(eval_dir)]
    trajectory, records = str(eval_dir / "trajectory.csv"), str(eval_dir / "run_records.csv")
    analyze = (
        ["heatmap", "--trajectory", trajectory, "--grid", "8", "8", "-o", str(tmp_path / "heatmap")],
        ["replay-export", "--trajectory", trajectory, "--run", "0", "--ticks", "1", "2", "-o", str(tmp_path / "replay")],
        ["stats", f"a={records}", f"b={records}", "-o", str(tmp_path / "stats")],
    )
    with tracing.Tracer() as tracer:
        for argv in (train, evaluate, *analyze):
            assert predprey.cli.main(argv) == 0, argv
    return tracing.layer_metrics(tracer), trajectory


def assert_spans_called(metrics, spans):
    assert {name: metrics[f"{name}.calls"] > 0 for name in spans} == dict.fromkeys(spans, True)


# the observers read call arguments and results, so a changed signature fails these too
def test_traced_cli_train_and_eval_reach_every_benchmark_span(traced_cli):
    metrics, _ = traced_cli
    spans = (
        "world.step",
        "world.observe_all",
        "world.observation_matrix",
        "net.forward",
        "net.backward",
        "net.adam_step",
        "net.save_checkpoint",
        "net.load_checkpoint",
        "ppo.collect_rollout",
        "ppo.sample_actions",
        "ppo.compute_gae",
        "ppo.RolloutBuffer.append_chunk",
        "ppo.RolloutBuffer.stacked",
        "ppo.ppo_update",
    )
    assert_spans_called(metrics, spans)
    assert metrics["ppo.collect_rollout.calls"] == 1  # one call collects the whole cycle, so collect_share is its share
    assert metrics["ppo.RolloutBuffer.append_chunk.calls"] == 27  # the sweeps of the one default cycle


def test_traced_cli_analysis_reaches_every_benchmark_span(traced_cli):
    metrics, trajectory = traced_cli
    spans = (
        "stats.kde_occupancy",
        "stats.summarize_condition",
        "stats.one_way_anova",
        "stats.cohens_d",
        "trajectory.replay_export",
        "configio.write_resolved",
    )
    assert_spans_called(metrics, spans)
    with open(trajectory, newline="") as fh:
        prey_rows = sum(row["entity_kind"] == "prey" for row in csv.DictReader(fh))
    assert metrics["stats.kde_occupancy.samples"] == prey_rows > 0


def test_traced_step_counts_the_events_it_returns():
    tracing = load_tracing()
    cfg = WorldConfig()  # with the predator, so that there are catches
    state = predprey.world.reset(cfg, list(range(8)))
    rng = np.random.default_rng(0)
    kinds = np.zeros(3, dtype=np.int64)
    with tracing.Tracer() as tracer:
        for _ in range(400):
            _, _, _, events = predprey.world.step(state, rng.integers(0, 6, size=(8, cfg.n_prey)))
            kinds += np.bincount(events.kind, minlength=3)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["world.step.calls"] == 400
    assert metrics["world.events.collected"] == kinds[EVENT_POSITIVE] + kinds[EVENT_NEGATIVE] > 0
    assert metrics["world.events.caught"] == kinds[EVENT_CAUGHT] > 0
