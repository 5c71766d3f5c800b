"""The benchmark tracer must still find every function it wraps.

benchmarks/tracing.py patches package functions by name; a rename in
src/predprey would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import predprey.cli  # noqa: F401  (the tracer patches every loaded predprey module)
import predprey.net

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


def test_traced_cli_train_and_eval_reach_every_benchmark_span(tmp_path):
    # the observers read call arguments and results, so a changed signature fails here too
    tracing = load_tracing()
    train_dir = tmp_path / "train"
    train = ["train", "--scenario", "3", "--seed", "1", "--max-steps", "1", "-o", str(train_dir)]  # one cycle
    checkpoint = str(train_dir / "checkpoint_final.ckpt")
    evaluate = ["eval", "--checkpoint", checkpoint, "--n-runs", "2", "--duration", "5", "-o", str(tmp_path / "eval")]
    with tracing.Tracer() as tracer:
        assert predprey.cli.main(train) == 0
        assert predprey.cli.main(evaluate) == 0
    metrics = tracing.layer_metrics(tracer)
    spans = (
        "world.step",
        "net.forward",
        "net.backward",
        "net.adam_step",
        "net.save_checkpoint",
        "net.load_checkpoint",
        "ppo.RolloutBuffer.append_chunk",
    )
    assert {name: metrics[f"{name}.calls"] > 0 for name in spans} == dict.fromkeys(spans, True)
