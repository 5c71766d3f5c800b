"""One workload process of the predprey benchmark.

run.py starts this script as a fresh process per workload run. It builds the
workload's inputs from the seed, then repeats the workload's CLI commands
through `predprey.cli.main(argv)` until the measuring time is up, checks every
command's outputs, and writes its timings, checks and digests as JSON to the
--result file. With --setup-only it stops after building the inputs, so run.py
can sample set-up time in several processes.

    python3 benchmarks/worker.py --workload train --seed 1 --seconds 20 --trace 0 \
        --size full --workdir DIR --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from predprey import cli  # noqa: E402
from predprey.net import AdamState, init_net, load_checkpoint, save_checkpoint  # noqa: E402
from predprey.world import WorldConfig, prey_action_space  # noqa: E402

# Prey-steps in one collect/update cycle of scenario 3 at the default config
# (n_worlds=1, 6 prey, horizon 64, buffer 10240): 27 sweeps of 384 steps.
CYCLE_STEPS = 10_368
SUMMARY_FREQ = 10_000  # default summary_freq: one metrics.csv row per crossed multiple
ARENA_HALF = 5.11
ENTITIES_PER_TICK = 7  # CLI-default trajectory: 6 prey rows plus 1 predator row

SIZES = {
    # The measured configuration: one command takes about 2-3 s on one core.
    "full": {
        "train_cycles": 2,
        "eval_runs": 50,
        "eval_ticks": 60,
        "analyze_runs": 50,
        "analyze_ticks": 200,
        "replay_ticks": (50, 149),
    },
    # A seconds-long configuration for smoke.py.
    "tiny": {
        "train_cycles": 1,
        "eval_runs": 3,
        "eval_ticks": 5,
        "analyze_runs": 2,
        "analyze_ticks": 30,
        "replay_ticks": (5, 14),
    },
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Check:
    """What a check found: failed conditions, output digests and counters."""

    errors: list[str]
    digests: dict[str, str]
    counters: dict[str, float]


@dataclass
class Command:
    argv: list[str]
    check: Callable[[], Check]


@dataclass
class Workload:
    rate_name: str  # the printed name of the rate, e.g. train_steps_per_s
    rate_unit: str
    work_per_unit: int  # prey-steps, world ticks or trajectory rows per unit
    commands: Callable[[Path], list[Command]]  # one unit's commands, writing under a directory


# ---------------------------------------------------------------------------
# train


def check_train(run_dir: Path, steps: int) -> Check:
    errors: list[str] = []
    digests: dict[str, str] = {}
    metrics = run_dir / "metrics.csv"
    final = run_dir / "checkpoint_final.ckpt"
    try:
        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        expected = [SUMMARY_FREQ * (i + 1) for i in range(steps // SUMMARY_FREQ)]
        if header[0] != "global_step":
            errors.append(f"metrics.csv header starts with {header[0]!r}")
        if [int(r[0]) for r in body] != expected:
            errors.append(f"metrics.csv steps {[r[0] for r in body]} != {expected}")
        if not all(math.isfinite(float(v)) for r in body for v in r[1:]):
            errors.append("metrics.csv has a non-finite value")
        digests["metrics.csv"] = sha256(metrics)
    except (OSError, ValueError, IndexError) as exc:
        errors.append(f"metrics.csv unreadable: {exc!r}")
    try:
        _, _, _, global_step = load_checkpoint(final)  # verifies the CRC
        if global_step != steps:
            errors.append(f"final checkpoint at step {global_step}, expected {steps}")
        digests["checkpoint_final.ckpt"] = sha256(final)
    except Exception as exc:  # any load failure is a failed check
        errors.append(f"final checkpoint does not load: {exc!r}")
    return Check(errors, digests, {})


def train_workload(workdir: Path, seed: int, size: dict) -> Workload:
    steps = size["train_cycles"] * CYCLE_STEPS

    def commands(out: Path) -> list[Command]:
        run_dir = out / "train"
        argv = ["train", "--scenario", "3", "--seed", str(seed), "--max-steps", str(steps), "-o", str(run_dir)]
        return [Command(argv, lambda: check_train(run_dir, steps))]

    return Workload("train_steps_per_s", "prey-steps/s", steps, commands)


# ---------------------------------------------------------------------------
# eval


def check_eval(run_dir: Path, n_runs: int, ticks: int) -> Check:
    errors: list[str] = []
    digests: dict[str, str] = {}
    counters: dict[str, float] = {}
    records = run_dir / "run_records.csv"
    trajectory = run_dir / "trajectory.csv"
    try:
        with open(records, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_runs:
            errors.append(f"run_records.csv has {len(rows)} rows, expected {n_runs}")
        for key in ("pos_total", "neg_total", "caught_total"):
            if any(not float(r[key]) >= 0 for r in rows):
                errors.append(f"run_records.csv has a negative {key}")
        digests["run_records.csv"] = sha256(records)
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"run_records.csv unreadable: {exc!r}")
    try:
        with open(trajectory, "rb") as fh:
            n_rows = sum(1 for _ in fh) - 1
        expected = n_runs * ticks * ENTITIES_PER_TICK
        if n_rows != expected:
            errors.append(f"trajectory.csv has {n_rows} rows, expected {expected}")
        digests["trajectory.csv"] = sha256(trajectory)
        counters["trajectory.bytes_written"] = trajectory.stat().st_size
    except OSError as exc:
        errors.append(f"trajectory.csv unreadable: {exc!r}")
    try:
        with open(run_dir / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        if not math.isfinite(float(summary[0]["task_efficiency_mean"])):
            errors.append("summary task efficiency is not finite")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors.append(f"summary.csv unreadable: {exc!r}")
    return Check(errors, digests, counters)


def eval_workload(workdir: Path, seed: int, size: dict) -> Workload:
    n_runs, ticks = size["eval_runs"], size["eval_ticks"]
    checkpoint = workdir / "policy.ckpt"
    net = init_net(WorldConfig().obs_dim, prey_action_space().n_joint, seed=seed)
    save_checkpoint(checkpoint, net, AdamState.for_net(net), seed, 0)

    def commands(out: Path) -> list[Command]:
        run_dir = out / "eval"
        argv = [
            "eval", "--checkpoint", str(checkpoint), "--predator", "true",
            "--n-runs", str(n_runs), "--duration", str(ticks), "--seed", str(seed),
            "--condition", "bench", "-o", str(run_dir),
        ]  # fmt: skip
        return [Command(argv, lambda: check_eval(run_dir, n_runs, ticks))]

    return Workload("eval_ticks_per_s", "ticks/s", n_runs * ticks, commands)


# ---------------------------------------------------------------------------
# analyze

RUN_RECORD_HEADER = ["run_id", "pos_total", "neg_total", "caught_total", "duration_steps", "task_efficiency"]
EVENT_KINDS = ("positive_collected", "negative_collected", "prey_caught")
OCCUPANCY_HEADER = re.compile(r"extent=\(([^)]*)\) n_samples=(\d+)")


def write_trajectory(path: Path, rng: np.random.Generator, n_runs: int, ticks: int) -> int:
    """Random-walk trajectory in the CLI eval schema and precision; returns its row count.

    Rows come per tick as 6 prey then the predator, as the CLI writes them,
    with CRLF line ends as csv.writer makes them. One %-format over all rows
    keeps set-up short.
    """
    n_ent = ENTITIES_PER_TICK
    n_rows = n_runs * ticks * n_ent
    lim = ARENA_HALF - 0.25
    start = rng.uniform(-4.0, 4.0, size=(n_runs, 1, n_ent, 2))
    steps = rng.normal(0.0, 0.08, size=(n_runs, ticks, n_ent, 2))
    walk = np.clip(start + np.cumsum(steps, axis=1), -lim, lim).reshape(n_rows, 2)
    draw = rng.random(n_rows)
    is_prey = np.tile(np.arange(n_ent) < n_ent - 1, n_runs * ticks)
    event = np.where(is_prey & (draw < 0.03), (draw * 100).astype(np.int64), -1)
    fields: list = [None] * (8 * n_rows)
    fields[0::8] = np.repeat(np.arange(n_runs), ticks * n_ent).tolist()
    fields[1::8] = np.tile(np.repeat(np.arange(ticks), n_ent), n_runs).tolist()
    fields[2::8] = ["prey" if p else "predator" for p in is_prey.tolist()]
    fields[3::8] = np.where(is_prey, np.tile(np.arange(n_ent), n_runs * ticks), 0).tolist()
    fields[4::8] = walk[:, 0].tolist()
    fields[5::8] = walk[:, 1].tolist()
    fields[6::8] = rng.uniform(0.0, 360.0, size=n_rows).tolist()
    fields[7::8] = [EVENT_KINDS[e] if e >= 0 else "" for e in event.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("run_id,tick,entity_kind,entity_id,x,y,heading,event\r\n")
        fh.write(("%d,%d,%s,%d,%.6f,%.6f,%.4f,%s\r\n" * n_rows) % tuple(fields))
    return n_rows


def write_run_records(path: Path, rng: np.random.Generator, n_runs: int, ticks: int, means: tuple) -> None:
    """Run records in the CLI eval schema: integer counts, repr'd task efficiency."""
    pos, neg, caught = (rng.poisson(m, size=n_runs) for m in means)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_RECORD_HEADER)
        for i in range(n_runs):
            p, n, c = int(pos[i]), int(neg[i]), int(caught[i])
            efficiency = p * 1.0 + n * -0.2 + c * -1.0
            writer.writerow([i, repr(p), repr(n), repr(c), ticks, repr(efficiency)])


def check_heatmap(run_dir: Path, kind: str, expected_samples: int) -> Check:
    errors: list[str] = []
    digests: dict[str, str] = {}
    path = run_dir / "occupancy.txt"
    try:
        match = OCCUPANCY_HEADER.search(path.read_text().splitlines()[0])
        xmin, xmax, ymin, ymax = (float(v) for v in match.group(1).split(","))
        n_samples = int(match.group(2))
        grid = np.loadtxt(path)
        cell_area = ((xmax - xmin) / grid.shape[0]) * ((ymax - ymin) / grid.shape[1])
        if n_samples != expected_samples:
            errors.append(f"{kind} heatmap has {n_samples} samples, expected {expected_samples}")
        if not abs(grid.sum() * cell_area - n_samples) <= 1e-9 * n_samples:
            errors.append(f"{kind} heatmap mass {grid.sum() * cell_area!r} != n_samples {n_samples}")
        digests[f"occupancy_{kind}.txt"] = sha256(path)
    except (OSError, ValueError, AttributeError, IndexError) as exc:
        errors.append(f"{kind} occupancy.txt unreadable: {exc!r}")
    return Check(errors, digests, {})


def check_replay(path: Path, frames: int) -> Check:
    errors: list[str] = []
    digests: dict[str, str] = {}
    try:
        found = sum(1 for line in path.read_text().splitlines() if line.startswith("tick "))
        if found != frames:
            errors.append(f"replay has {found} frames, expected {frames}")
        digests["replay.txt"] = sha256(path)
    except OSError as exc:
        errors.append(f"replay unreadable: {exc!r}")
    return Check(errors, digests, {})


def check_stats(run_dir: Path) -> Check:
    errors: list[str] = []
    digests: dict[str, str] = {}
    path = run_dir / "stats.csv"
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 4:
            errors.append(f"stats.csv has {len(rows)} rows, expected 4")
        if not all(math.isfinite(float(r["f_score"])) for r in rows):
            errors.append("stats.csv has a non-finite F")
        digests["stats.csv"] = sha256(path)
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"stats.csv unreadable: {exc!r}")
    return Check(errors, digests, {})


def analyze_workload(workdir: Path, seed: int, size: dict) -> Workload:
    n_runs, ticks = size["analyze_runs"], size["analyze_ticks"]
    lo, hi = size["replay_ticks"]
    rng = np.random.default_rng(seed)
    trajectory = workdir / "trajectory.csv"
    n_rows = write_trajectory(trajectory, rng, n_runs, ticks)
    predator_rows = n_runs * ticks
    records = {"with_predator": (12.0, 6.0, 4.0), "without_predator": (15.0, 5.0, 1.0)}
    record_paths = []
    for label, means in records.items():
        path = workdir / f"{label}.csv"
        write_run_records(path, rng, 50, ticks, means)
        record_paths.append(f"{label}={path}")
    extent = [str(v) for v in (-ARENA_HALF, ARENA_HALF, -ARENA_HALF, ARENA_HALF)]

    def commands(out: Path) -> list[Command]:
        cmds = []
        for kind, samples in (("prey", n_rows - predator_rows), ("predator", predator_rows)):
            run_dir = out / f"heatmap-{kind}"
            argv = ["heatmap", "--trajectory", str(trajectory), "--entity-kind", kind, "--extent", *extent, "-o", str(run_dir)]
            cmds.append(Command(argv, lambda d=run_dir, k=kind, s=samples: check_heatmap(d, k, s)))
        replay_dir = out / "replay"
        argv = ["replay-export", "--trajectory", str(trajectory), "--run", "0", "--ticks", str(lo), str(hi), "-o", str(replay_dir)]
        cmds.append(Command(argv, lambda: check_replay(replay_dir / f"replay_run0_{lo}_{hi}.txt", hi - lo + 1)))
        stats_dir = out / "stats"
        cmds.append(Command(["stats", *record_paths, "-o", str(stats_dir)], lambda: check_stats(stats_dir)))
        return cmds

    return Workload("analyze_rows_per_s", "rows/s", n_rows, commands)


WORKLOADS = {"train": train_workload, "eval": eval_workload, "analyze": analyze_workload}


# ---------------------------------------------------------------------------
# measuring


def run_command(cmd: Command, tracer) -> dict:
    """One CLI command, timed; a nonzero exit or a raised exception fails it."""
    errors: list[str] = []
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            code = cli.main(cmd.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code = None
            errors.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - start
    if code != 0:
        errors.append(f"exit code {code}")
    found = cmd.check()
    return {
        "argv": cmd.argv,
        "wall_s": wall,
        "errors": errors + found.errors,
        "digests": found.digests,
        "counters": found.counters,
    }


def measure(workload: Workload, workdir: Path, seconds: float, trace: bool, spans_path: Path) -> list[dict]:
    """Repeat the workload's unit until `seconds` have passed.

    Traced runs alternate untraced and traced units, so both rates come from
    the same stretch of time. Every unit runs at one seed, so every unit's
    outputs must have the digests of the first.
    """
    if trace:
        from tracing import Tracer, layer_metrics, write_spans
    units: list[dict] = []
    reference: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline or (trace and len(units) < 2):
        traced = trace and len(units) % 2 == 1
        out = workdir / f"unit{len(units)}"
        tracer = Tracer() if traced else None
        wall = 0.0
        commands = []
        counters: dict[str, float] = {}
        for cmd in workload.commands(out):
            result = run_command(cmd, tracer)
            wall += result["wall_s"]
            for name, digest in result["digests"].items():
                if reference.setdefault(name, digest) != digest:
                    result["errors"].append(f"{name} digest differs from the first unit at this seed")
            counters.update(result["counters"])
            commands.append(result)
        unit = {"traced": traced, "wall_s": wall, "commands": commands}
        if tracer is not None:
            unit["layers"] = layer_metrics(tracer, counters)
            if not spans_path.exists():
                write_spans(tracer, spans_path)
        units.append(unit)
        shutil.rmtree(out, ignore_errors=True)
    return units


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir, args.seed, SIZES[args.size])
    ready = time.monotonic()

    result = {"ready_monotonic": ready}
    if not args.setup_only:
        result_path = Path(args.result)
        units = measure(workload, workdir, args.seconds, bool(args.trace), result_path.with_suffix(".spans.csv"))
        result.update(
            {
                "workload": args.workload,
                "seed": args.seed,
                "size": args.size,
                "rate_name": workload.rate_name,
                "rate_unit": workload.rate_unit,
                "work_per_unit": workload.work_per_unit,
                "units": units,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "host": host_info(),
            }
        )
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
