"""Smoke test of the benchmark itself, with no timing gates.

    python3 benchmarks/smoke.py

Runs every workload at the tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names comes back with its unit, that no command
failed, that the untraced run prints the end-to-end metrics by name, and that
the layers predicted to do no work on a workload report zero calls there.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RATE_NAMES = {"train": "train_steps_per_s", "eval": "eval_ticks_per_s", "analyze": "analyze_rows_per_s"}
# (per-layer metric, workloads on which it must read zero)
ZERO_CALLS = (
    ("world.predator_step.calls", ("train",)),
    ("net.backward.calls", ("eval", "analyze")),
    ("trajectory.TrajectoryTable.from_csv.calls", ("train", "eval")),
)


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in RATE_NAMES:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            lines, result = run(workload, trace)
            print(f"ran {label}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} commands failed")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing or without unit {metric['unit']}")
            if trace == 0:
                for name in ("setup_s", RATE_NAMES[workload], "peak_rss_mb", "failed_share"):
                    if not any(line.split()[:1] == [name] and len(line.split()) >= 3 for line in lines):
                        problems.append(f"{label}: no printed line for {name} with its unit")
                continue
            for name, zero_on in ZERO_CALLS:
                value = result["metrics"][name]["value"]
                if workload in zero_on and value != 0:
                    problems.append(f"{label}: {name} is {value}, expected 0")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
