"""Command-line entry point.

Subcommands: train, eval, stats, heatmap, replay-export. Every run writes a
resolved-config snapshot and a build identifier beside its outputs, all but
train after its data files: a run that stops early leaves earlier outputs whole. Exit
codes: 0 success, 2 configuration error, bad input or not enough memory for the
requested sizes (`heatmap --grid`), 3 numeric failure, 4 I/O failure.
The default output root is $PREDPREY_OUTPUT_ROOT (falling back to ./runs).
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .configio import EVAL_SCHEMA, TRAIN_SCHEMA, parse_bool, parse_eval_config, parse_scenario_config, write_resolved
from .errors import CheckpointError, ConfigError, NumericsError, PredpreyError
from .net import atomic_open, load_checkpoint, read_rows, write_rows
from .stats import (
    ConditionSummary,
    RunRecord,
    StatsRow,
    check_kde_args,
    compare,
    evaluate_condition,
    kde_occupancy,
    summarize_condition,
    write_grid_pgm,
    write_grid_text,
)
from .train import check_resume, run_training
from .trajectory import ENTITY_KINDS, check_replay_args, read_positions, read_run, replay_export

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
    except (OSError, subprocess.SubprocessError):  # no git, or a `git describe` past its timeout
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
    # each flag that overrides a config key has that key as its argparse destination
    overrides = {key: value for key, value in vars(args).items() if key in TRAIN_SCHEMA}
    cfg, provenance = parse_scenario_config(args.config, overrides)
    if args.resume is not None:  # refuse another net before anything is written; run_training reads it again
        check_resume(cfg, load_checkpoint(args.resume)[0])
    out = _prepare_out_dir(args, f"train-scenario{cfg.scenario_id}")
    _write_build(out)
    write_resolved(cfg, out / "resolved_config.txt", provenance)
    checkpoint, _ = run_training(cfg, out, resume_from=args.resume)
    print(f"trained scenario {cfg.scenario_id} to step {load_checkpoint(checkpoint)[3]}")
    print(f"final checkpoint: {checkpoint}")
    print(f"metrics: {out / 'metrics.csv'}")
    return 0


def _cmd_eval(args) -> int:
    overrides = {key: value for key, value in vars(args).items() if key in EVAL_SCHEMA}
    cfg, provenance = parse_eval_config(args.config, overrides)
    if cfg.checkpoint is None:
        raise ConfigError("eval needs a checkpoint (config key 'checkpoint' or --checkpoint)")
    out = _prepare_out_dir(args, f"eval-{cfg.condition_id}")
    records, traj = evaluate_condition(
        cfg.checkpoint,
        cfg.world,
        n_runs=cfg.n_runs,
        duration=cfg.duration,
        greedy=cfg.greedy,
        seed=cfg.seed,
        trajectory_path=out / "trajectory.csv",
        log_points=cfg.log_points,
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


def _absolute_record(spec: str) -> str:
    """A stats argument, `label=path` or `path`, with its path made absolute."""
    label, sep, path = spec.partition("=")
    return f"{label}={os.path.abspath(path)}" if sep else os.path.abspath(spec)


def _snapshot_args(args, out: Path) -> None:
    """Every setting given or defaulted, in its parser's order, less those that only say where output goes or what runs.

    A list is written as its flag takes it, as a shell would split it back (shlex); input paths are written absolute.
    """
    lines = ["# resolved invocation"]
    for key, value in vars(args).items():
        if key in ("subcommand", "fn", "out", "stdout") or value is None:
            continue
        if key == "trajectory":
            value = os.path.abspath(value)
        elif key == "records":
            value = [_absolute_record(spec) for spec in value]
        if isinstance(value, (list, tuple)):
            value = shlex.join(map(str, value))
        lines.append(f"{key} = {value}")
    with atomic_open(out / "resolved_config.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_stats(args) -> int:
    paths: dict[str, str] = {}
    for spec_arg in args.records:
        if "=" in spec_arg:
            label, path = spec_arg.split("=", 1)
        else:
            label, path = Path(spec_arg).stem, spec_arg
        if not label:
            raise ConfigError(f"empty condition label for {path}; name the condition as label=path")
        if label in paths:
            raise ConfigError(
                f"condition label {label!r} names both {paths[label]} and {path}; "
                "give each file its own label as label=path"
            )
        paths[label] = path
    conditions = [(label, read_rows(path, RunRecord)) for label, path in paths.items()]
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
    _snapshot_args(args, out)
    _write_build(out)
    for row in rows:
        print(f"{row.pairing}: F={row.f_score:.3f} p={row.p_value:.3g}")
    print(f"wrote {out / 'summary.csv'} and {out / 'stats.csv'}")
    return 0


def _cmd_heatmap(args) -> int:
    extent = tuple(args.extent) if args.extent else None
    check_kde_args(args.grid, args.bandwidth, extent)
    positions = read_positions(args.trajectory, args.entity_kind)
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
    _snapshot_args(args, out)
    _write_build(out)
    print(
        f"{kde.n_samples} samples, bandwidth {kde.bandwidth:.4f}, "
        f"grid {kde.grid.shape[0]}x{kde.grid.shape[1]} -> {out}"
    )
    return 0


def _cmd_replay_export(args) -> int:
    ticks = (args.ticks[0], args.ticks[1])
    check_replay_args(args.run, ticks)
    text = replay_export(read_run(args.trajectory, args.run), args.run, ticks)
    if args.stdout:
        sys.stdout.write(text)
        return 0
    out = _prepare_out_dir(args, "replay")
    path = out / f"replay_run{args.run}_{args.ticks[0]}_{args.ticks[1]}.txt"
    with atomic_open(path, "w") as fh:
        fh.write(text)
    _snapshot_args(args, out)
    _write_build(out)
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="predprey", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    train = sub.add_parser("train", help="train a prey policy for one scenario")
    train.add_argument("-c", "--config", help="flat key = value config file")
    train.add_argument("-o", "--out", help="output directory")
    train.add_argument("--scenario", dest="scenario_id", type=int, choices=(1, 2, 3), help="scenario selector")
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
    ev.add_argument("--greedy", action="store_const", const=True, help="argmax actions instead of sampling")
    ev.add_argument(
        "--predator",
        dest="predator_present",
        type=parse_bool,
        metavar="BOOL",
        help="predator present at test time (true/false)",
    )
    ev.add_argument("--condition", dest="condition_id", metavar="CONDITION", help="condition label for outputs")
    ev.set_defaults(fn=_cmd_eval)

    st = sub.add_parser("stats", help="summaries, ANOVA and effect sizes across conditions")
    st.add_argument("records", nargs="+", help="run-record CSVs, optionally label=path")
    st.add_argument("-o", "--out", help="output directory")
    st.set_defaults(fn=_cmd_stats)

    hm = sub.add_parser("heatmap", help="occupancy density grid from a trajectory log")
    hm.add_argument("--trajectory", required=True, help="trajectory CSV")
    hm.add_argument("--entity-kind", dest="entity_kind", default="prey", choices=ENTITY_KINDS, help="rows to map")
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
    except MemoryError as exc:
        print(f"error: not enough memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
