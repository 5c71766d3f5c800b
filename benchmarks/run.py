"""predprey benchmark: one workload run, measured end to end or traced per layer.

    python3 benchmarks/run.py --workload train|eval|analyze --seed N --seconds S --trace 0|1

Run it from the repository root. Each run starts worker.py as a fresh process
with one BLAS thread, which builds the workload's inputs from the seed and
repeats its CLI commands for S seconds. Set-up time is sampled in several
fresh processes. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1. The
full worker result (timings, checks, digests, host) is kept under
benchmarks/.out/results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

# BLAS threads are pinned to one: on a 2-core host the default thread count
# measures the scheduler more than the program.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured; the median is reported
TIME_BUDGET_S = 170.0  # the whole run, all processes included, ends within this


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def start_worker(args, workdir: Path, result: Path, log, setup_only: bool, deadline: float) -> float:
    """Run worker.py to completion; returns the monotonic time just before it started."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir), "--result", str(result),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_ENV}
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the time budget") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return spawned


def median_layers(units: list[dict]) -> dict[str, float]:
    traced = [u["layers"] for u in units if u["traced"]]
    return {name: statistics.median(u[name] for u in traced) for name in traced[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "eval", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke.py")
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + TIME_BUDGET_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "predprey" / "cli.py").is_file() or not spec_path.is_file():
        return fail(f"no predprey sources or BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())
    load_start = os.getloadavg()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work" / stem
    result_path = results_dir / f"{stem}.json"
    setup_samples: list[float] = []
    try:
        with open(results_dir / f"{stem}.log", "w") as log:
            # Set-up only matters to the untraced run, which reports it.
            for i in range(SETUP_SAMPLES - 1 if args.trace == 0 else 0):
                probe = workdir / f"setup{i}"
                probe_result = probe / "ready.json"
                spawned = start_worker(args, probe, probe_result, log, True, deadline)
                setup_samples.append(json.loads(probe_result.read_text())["ready_monotonic"] - spawned)
                shutil.rmtree(probe)
            spawned = start_worker(args, workdir / "main", result_path, log, False, deadline)
    except RuntimeError as exc:
        return fail(f"{exc}; see {results_dir / (stem + '.log')}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(result_path.read_text())
    setup_samples.append(result["ready_monotonic"] - spawned)

    units = result["units"]
    commands = [c for u in units for c in u["commands"]]
    attempted = len(commands)
    failed = sum(1 for c in commands if c["errors"])
    ok_units = [u for u in units if not any(c["errors"] for c in u["commands"])]

    def rate(traced: bool) -> float:
        # Work over the summed wall time of the units, not a median of unit
        # rates: the host's speed drifts over seconds, and a sum averages it.
        walls = [u["wall_s"] for u in ok_units if u["traced"] == traced]
        return result["work_per_unit"] * len(walls) / sum(walls) if walls else 0.0

    untraced_rate = rate(False)
    setup_s = statistics.median(setup_samples)
    load_end = os.getloadavg()
    result.update(
        {
            "setup_samples_s": setup_samples,
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "attempted": attempted,
            "failed": failed,
        }
    )

    name, unit = result["rate_name"], result["rate_unit"]
    n_untraced = sum(1 for u in ok_units if not u["traced"])
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"setup_s             {setup_s:.4f} s (median of {len(setup_samples)} processes)")
    print(f"{name:<19} {untraced_rate:.2f} {unit} (over {n_untraced} untraced units)")
    print(f"peak_rss_mb         {result['peak_rss_mb']:.1f} MiB")
    print(f"failed_share        {failed / attempted:.4f} share ({failed} of {attempted} commands)")
    for c in commands:
        for err in c["errors"]:
            print(f"  failed {c['argv'][0]}: {err.strip().splitlines()[-1]}")
    digests = {k: v for c in commands for k, v in c["digests"].items()}
    for file_name, digest in sorted(digests.items()):
        print(f"digest {file_name:<22} {digest}")
    host = result["host"]
    print(
        f"host python {host['python']}, numpy {host['numpy']}, BLAS {host['blas']}, nproc {host['nproc']}, "
        f"threads {host['thread_vars']}, load {load_start[0]:.2f} -> {load_end[0]:.2f}"
    )

    if untraced_rate == 0.0:
        return fail(f"no untraced unit of {args.workload} succeeded; see {result_path}")
    if args.trace == 0:
        values = {"setup_s": setup_s, "work_per_s": untraced_rate, "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    else:
        traced_rate = rate(True)
        values = median_layers(units)
        values.update(
            {
                "untraced.work_per_s": untraced_rate,
                "traced.work_per_s": traced_rate,
                "trace.overhead_share": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
            }
        )
        print(f"traced {name:<12} {traced_rate:.2f} {unit}; tracing overhead {values['trace.overhead_share']:+.3f}")
        wanted = spec["per_layer"]
        result["layers_median"] = values
    result_path.write_text(json.dumps(result, indent=1))
    if time.monotonic() > deadline:
        return fail("run exceeded its time budget")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
