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
