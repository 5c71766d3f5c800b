"""Command-line entry point.

Subcommands: train, eval, stats, heatmap, replay-export. Every run writes a
resolved-config snapshot and a build identifier beside its outputs, all but
train after its data files: a run that stops early leaves earlier outputs whole. Exit
codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O failure.
The default output root is $PREDPREY_OUTPUT_ROOT (falling back to ./runs).
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .configio import parse_bool, parse_eval_config, parse_scenario_config, write_resolved
from .errors import CheckpointError, ConfigError, NumericsError, PredpreyError
from .net import atomic_open, read_rows, write_rows
from .stats import (
    ConditionSummary,
    RunRecord,
    StatsRow,
    check_grid_dims,
    compare,
    evaluate_condition,
    kde_occupancy,
    summarize_condition,
    write_grid_pgm,
    write_grid_text,
)
from .train import run_training
from .trajectory import ALL_KINDS, read_positions, read_run, replay_export

SCHEMA_VERSIONS = "checkpoint=1 trajectory_csv=1 metrics_csv=1 run_records_csv=1 summary_csv=1 stats_csv=1"


@functools.cache
def build_identifier() -> str:
    """Package version and `git describe` of the source tree, looked up once per process."""
    try:
        pkg_version = version("predprey")
    except PackageNotFoundError:
        pkg_version = "unreleased"
    ident = f"predprey-{pkg_version}"
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if described.returncode == 0:
            ident += f"+{described.stdout.strip()}"
    except OSError:
        pass
    return ident


def _prepare_out_dir(args, subcommand: str) -> Path:
    if args.out is not None:
        out = Path(args.out)
    else:
        root = Path(os.environ.get("PREDPREY_OUTPUT_ROOT", "runs"))
        out = root / subcommand
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_build(out: Path) -> None:
    with atomic_open(out / "build.txt", "w") as fh:
        fh.write(f"{build_identifier()}\n{SCHEMA_VERSIONS}\n")


def _cmd_train(args) -> int:
    overrides = {"scenario_id": args.scenario, "seed": args.seed, "max_steps": args.max_steps}
    cfg, provenance = parse_scenario_config(args.config, overrides)
    out = _prepare_out_dir(args, f"train-scenario{cfg.scenario_id}")
    _write_build(out)
    write_resolved(cfg, out / "resolved_config.txt", provenance)
    checkpoint, metrics = run_training(cfg, out, resume_from=args.resume)
    print(f"trained scenario {cfg.scenario_id} to step {metrics[-1].global_step if metrics else 0}")
    print(f"final checkpoint: {checkpoint}")
    print(f"metrics: {out / 'metrics.csv'}")
    return 0


def _cmd_eval(args) -> int:
    overrides = {
        "checkpoint": args.checkpoint,
        "seed": args.seed,
        "n_runs": args.n_runs,
        "duration": args.duration,
        "greedy": True if args.greedy else None,
        "predator_present": args.predator,
        "condition_id": args.condition,
    }
    cfg, provenance = parse_eval_config(args.config, overrides)
    if cfg.checkpoint is None:
        raise ConfigError("eval needs a checkpoint (config key 'checkpoint' or --checkpoint)")
    out = _prepare_out_dir(args, f"eval-{cfg.condition_id}")
    kinds = ALL_KINDS if cfg.log_points else ("prey", "predator")
    records, traj = evaluate_condition(
        cfg.checkpoint,
        cfg.world,
        n_runs=cfg.n_runs,
        duration=cfg.duration,
        greedy=cfg.greedy,
        seed=cfg.seed,
        trajectory_path=out / "trajectory.csv",
        trajectory_kinds=kinds,
    )
    write_rows(out / "run_records.csv", RunRecord, records)
    summary = summarize_condition(cfg.condition_id, records)
    write_rows(out / "summary.csv", ConditionSummary, [summary])
    write_resolved(cfg, out / "resolved_config.txt", provenance)
    _write_build(out)
    print(
        f"{cfg.condition_id}: {cfg.n_runs} runs x {cfg.duration} ticks, "
        f"task efficiency {summary.task_efficiency_mean:.3f} ({summary.task_efficiency_std:.3f})"
    )
    print(f"records: {out / 'run_records.csv'}; trajectory: {traj}")
    return 0


def _snapshot_args(args, out: Path, keys: tuple[str, ...]) -> None:
    lines = ["# resolved invocation"]
    for key in keys:
        lines.append(f"{key} = {getattr(args, key)}")
    with atomic_open(out / "resolved_config.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_stats(args) -> int:
    conditions: list[tuple[str, list]] = []
    for spec_arg in args.records:
        if "=" in spec_arg:
            label, path = spec_arg.split("=", 1)
        else:
            label, path = Path(spec_arg).stem, spec_arg
        conditions.append((label, read_rows(path, RunRecord)))
    if len(conditions) < 2:
        raise ConfigError("stats needs at least two run-record CSVs")
    summaries = [summarize_condition(label, records) for label, records in conditions]
    rows = []
    for i, (label_1, records_1) in enumerate(conditions):
        for label_2, records_2 in conditions[i + 1 :]:
            for var in ("task_efficiency", "pos_total", "neg_total", "caught_total"):
                g1 = np.array([getattr(r, var) for r in records_1])
                g2 = np.array([getattr(r, var) for r in records_2])
                rows.append(compare(f"{label_1}_vs_{label_2}:{var}", g1, g2))
    out = _prepare_out_dir(args, "stats")
    write_rows(out / "summary.csv", ConditionSummary, summaries)
    write_rows(out / "stats.csv", StatsRow, rows)
    _snapshot_args(args, out, ("records",))
    _write_build(out)
    for row in rows:
        print(f"{row.pairing}: F={row.f_score:.3f} p={row.p_value:.3g}")
    print(f"wrote {out / 'summary.csv'} and {out / 'stats.csv'}")
    return 0


def _cmd_heatmap(args) -> int:
    check_grid_dims(args.grid)
    positions = read_positions(args.trajectory, args.entity_kind)
    extent = tuple(args.extent) if args.extent else None
    kde = kde_occupancy(
        positions,
        args.entity_kind,
        bandwidth=args.bandwidth,
        grid_dims=(args.grid[0], args.grid[1]),
        extent=extent,
    )
    out = _prepare_out_dir(args, f"heatmap-{args.entity_kind}")
    write_grid_text(kde, out / "occupancy.txt")
    write_grid_pgm(kde, out / "occupancy.pgm")
    _snapshot_args(args, out, ("trajectory", "entity_kind", "bandwidth", "grid", "extent"))
    _write_build(out)
    print(
        f"{kde.n_samples} samples, bandwidth {kde.bandwidth:.4f}, "
        f"grid {kde.grid.shape[0]}x{kde.grid.shape[1]} -> {out}"
    )
    return 0


def _cmd_replay_export(args) -> int:
    text = replay_export(read_run(args.trajectory, args.run), args.run, (args.ticks[0], args.ticks[1]))
    if args.stdout:
        sys.stdout.write(text)
        return 0
    out = _prepare_out_dir(args, "replay")
    path = out / f"replay_run{args.run}_{args.ticks[0]}_{args.ticks[1]}.txt"
    with atomic_open(path, "w") as fh:
        fh.write(text)
    _snapshot_args(args, out, ("trajectory", "run", "ticks"))
    _write_build(out)
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="predprey", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    train = sub.add_parser("train", help="train a prey policy for one scenario")
    train.add_argument("-c", "--config", help="flat key = value config file")
    train.add_argument("-o", "--out", help="output directory")
    train.add_argument("--scenario", type=int, choices=(1, 2, 3), help="scenario selector")
    train.add_argument("--seed", type=int, help="run seed override")
    train.add_argument("--max-steps", dest="max_steps", type=int, help="training length override")
    train.add_argument("--resume", help="checkpoint to resume from")
    train.set_defaults(fn=_cmd_train)

    ev = sub.add_parser("eval", help="run a trained policy and record per-run totals")
    ev.add_argument("-c", "--config", help="flat key = value config file")
    ev.add_argument("-o", "--out", help="output directory")
    ev.add_argument("--checkpoint", help="checkpoint file override")
    ev.add_argument("--seed", type=int, help="evaluation seed override")
    ev.add_argument("--n-runs", dest="n_runs", type=int, help="number of independent runs")
    ev.add_argument("--duration", type=int, help="ticks per run")
    ev.add_argument("--greedy", action="store_true", help="argmax actions instead of sampling")
    ev.add_argument(
        "--predator",
        type=parse_bool,
        default=None,
        metavar="BOOL",
        help="predator present at test time (true/false)",
    )
    ev.add_argument("--condition", help="condition label for outputs")
    ev.set_defaults(fn=_cmd_eval)

    st = sub.add_parser("stats", help="summaries, ANOVA and effect sizes across conditions")
    st.add_argument("records", nargs="+", help="run-record CSVs, optionally label=path")
    st.add_argument("-o", "--out", help="output directory")
    st.set_defaults(fn=_cmd_stats)

    hm = sub.add_parser("heatmap", help="occupancy density grid from a trajectory log")
    hm.add_argument("--trajectory", required=True, help="trajectory CSV")
    hm.add_argument("--entity-kind", dest="entity_kind", default="prey", help="prey or predator")
    hm.add_argument("--bandwidth", type=float, help="kernel bandwidth (default: Scott's rule)")
    hm.add_argument("--grid", type=int, nargs=2, default=(64, 64), metavar=("W", "H"))
    hm.add_argument("--extent", type=float, nargs=4, metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    hm.add_argument("-o", "--out", help="output directory")
    hm.set_defaults(fn=_cmd_heatmap)

    rp = sub.add_parser("replay-export", help="plain-text frames for manual behaviour inspection")
    rp.add_argument("--trajectory", required=True, help="trajectory CSV")
    rp.add_argument("--run", type=int, required=True, help="run id to export")
    rp.add_argument("--ticks", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    rp.add_argument("--stdout", action="store_true", help="print frames instead of writing a file")
    rp.add_argument("-o", "--out", help="output directory")
    rp.set_defaults(fn=_cmd_replay_export)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except PredpreyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
