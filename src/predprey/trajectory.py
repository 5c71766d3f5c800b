"""Trajectory logs: per-entity per-tick CSV rows, plus replay frame rendering.

Schema (one row per entity per tick):
    run_id, tick, entity_kind, entity_id, x, y, heading, event
entity_kind is one of prey, predator, point_positive, point_negative. The
event column is empty except on prey rows whose prey emitted events that
tick; multiple events are joined with ';'.

The reader takes the file in one pass of numpy's C parser into a record array
of all eight columns (the two string columns as Python objects), then gives
each column its own contiguous array. Fields are unquoted, as the writer
writes them, and lines may end in CRLF or LF; blank lines are skipped. A file
whose first line is not the exact header, a row without exactly eight fields,
an id or tick that is not an integer, and a non-finite x, y or heading are
refused with InputError naming the file and the first bad line (counted from
1, header and blank lines included), which a rescan finds only after the bulk
read has failed.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, StructuralError
from .net import atomic_open
from .world import Event, WorldState

CSV_HEADER = ["run_id", "tick", "entity_kind", "entity_id", "x", "y", "heading", "event"]

ALL_KINDS = ("prey", "predator", "points")

# The reader's one pass fills this record type; without usecols, numpy refuses a row
# that does not have exactly one field per column.
_NUMERIC = dict.fromkeys(("run_id", "tick", "entity_id"), np.int64) | dict.fromkeys(("x", "y", "heading"), np.float64)
_ROW_DTYPE = np.dtype([(name, _NUMERIC.get(name, object)) for name in CSV_HEADER])


class TrajectoryWriter:
    """Context manager owning the run-major trajectory CSV of `n_runs` lockstep runs.

    The header and run 0's rows go to `path` through `atomic_open`; every later
    run's rows spool to an anonymous temp file beside it. A clean exit appends
    the spools in run order, then fsyncs and renames the file into place, so
    memory does not grow with the run length. An exception removes every file
    the writer made and leaves any previous file at `path`. Rows are written as
    csv.writer writes them (no field ever needs quoting).
    """

    def __init__(self, path, n_runs: int, kinds: tuple[str, ...] = ALL_KINDS):
        self.path = Path(path)
        self.n_runs = n_runs
        self.kinds = kinds

    def __enter__(self) -> "TrajectoryWriter":
        with ExitStack() as stack:
            first = stack.enter_context(atomic_open(self.path, "w", newline=""))
            first.write(",".join(CSV_HEADER) + "\r\n")
            self._files = [first]
            for _ in range(self.n_runs - 1):
                self._files.append(stack.enter_context(tempfile.TemporaryFile("w+", newline="", dir=self.path.parent)))
            self._exit = stack.pop_all()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # the stack closes the spools, then renames run 0's file; an error raised inside it removes the file
        with self._exit:
            if exc is not None:
                raise exc
            for spool in self._files[1:]:
                spool.seek(0)
                shutil.copyfileobj(spool, self._files[0])

    def record(self, tick: int, state: WorldState, events: list[Event]) -> None:
        """One tick of every world of `state`, world w as run w: one `%` template filled and written per run."""
        if len(state.prey_pos) != self.n_runs:
            raise StructuralError(f"state has {len(state.prey_pos)} worlds, the trajectory {self.n_runs} runs")
        # one run's row templates for this tick, and each row set's (W, rows, fields) values
        rows, values = [], [np.empty((self.n_runs, 0, 0), dtype=object)]
        if "prey" in self.kinds:
            rows += [f"%d,{tick},prey,{i},%.6f,%.6f,%.4f,%s\r\n" for i in range(state.prey_pos.shape[1])]
            values.append(_cells(state.prey_pos[..., 0], state.prey_pos[..., 1], state.prey_heading, ""))
            for ev in events:
                cell = values[-1][ev.world, ev.prey_id]
                cell[-1] = f"{cell[-1]};{ev.kind}" if cell[-1] else ev.kind
        if "predator" in self.kinds and state.predator is not None:
            p = state.predator
            rows.append(f"%d,{tick},predator,0,%.6f,%.6f,%.4f,\r\n")
            values.append(_cells(p.position[:, None, 0], p.position[:, None, 1], p.heading[:, None]))
        if "points" in self.kinds:
            rows += [f"%d,{tick},%s,{idx},%.6f,%.6f,0.0,\r\n" for idx in range(state.point_pos.shape[1])]
            kinds = np.where(state.point_positive, "point_positive", "point_negative")
            values.append(_cells(kinds, state.point_pos[..., 0], state.point_pos[..., 1]))
        template = "".join(rows)
        for fh, run in zip(self._files, np.concatenate([v.reshape(self.n_runs, -1) for v in values], 1).tolist()):
            fh.write(template % tuple(run))


def _cells(first: np.ndarray, *rest) -> np.ndarray:
    """(W, n, 2 + len(rest)) object array: the run id, then `first` and each of `rest` broadcast to (W, n)."""
    cells = np.empty(first.shape + (2 + len(rest),), dtype=object)
    cells[..., 0] = np.arange(len(first))[:, None]
    for k, column in enumerate((first, *rest), start=1):
        cells[..., k] = column
    return cells


@dataclass(eq=False)
class TrajectoryTable:
    """Columnar view of a trajectory CSV."""

    run_id: np.ndarray
    tick: np.ndarray
    entity_kind: np.ndarray
    entity_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    event: np.ndarray

    def __len__(self) -> int:
        return len(self.run_id)

    @classmethod
    def from_csv(cls, path) -> "TrajectoryTable":
        """Read a trajectory CSV in bulk; the module docstring says what it refuses."""
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != CSV_HEADER:
            raise InputError(f"{path}: expected trajectory header {CSV_HEADER}, got {header}")
        try:
            rows = _load(path)
        except ValueError:
            raise InputError(f"{path}: {_first_bad_line(path)}") from None
        if not _finite(rows).all():
            raise InputError(f"{path}: {_first_bad_line(path)}")
        return cls(**{name: rows[name].astype(_NUMERIC.get(name, str)) for name in CSV_HEADER})

    def positions(self, entity_kind: str) -> np.ndarray:
        """(n, 2) positions of all rows of one entity kind, across every run."""
        mask = self.entity_kind == entity_kind
        return np.column_stack([self.x[mask], self.y[mask]])

    def runs(self) -> np.ndarray:
        return np.unique(self.run_id)


def _load(source, skiprows: int = 1) -> np.ndarray:
    """The data rows as one record array, in one pass of numpy's C reader."""
    # numpy warns on input without data rows and on blank lines; both are fine here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=_ROW_DTYPE, delimiter=",", comments=None, skiprows=skiprows, ndmin=1)


def _finite(columns) -> np.ndarray:
    return np.isfinite(columns["x"]) & np.isfinite(columns["y"]) & np.isfinite(columns["heading"])


def _first_bad_line(path) -> str:
    """The first data row that the bulk read refuses, by its line number in the file, and why.

    Only a failed read calls this: it passes the lines through numpy's reader one at a time.
    """
    with open(path, newline="") as fh:
        next(fh)  # the header, which the caller checked
        for n, line in enumerate(fh, start=2):
            n_fields = line.count(",") + 1
            try:
                row = _load([line], skiprows=0)
            except ValueError:
                row = None
            if row is not None and len(row) == 0:  # a blank line
                continue
            if n_fields != len(CSV_HEADER):
                return f"line {n} has {n_fields} fields, not {len(CSV_HEADER)}"
            if row is None:
                return f"line {n} has an id or tick that is not a 64-bit integer, or an x, y or heading that is not a number"
            if not _finite(row).all():
                return f"line {n} has a non-finite x, y or heading"
    return "malformed trajectory row"


def replay_export(table: TrajectoryTable, run_id: int, tick_range: tuple[int, int]) -> str:
    """Render inclusive [lo, hi] ticks of one run as plain-text frames.

    Each frame lists every logged entity's position/heading followed by the
    tick's events, for stepping through an encounter by hand.
    """
    in_run = table.run_id == run_id
    if not in_run.any():
        raise InputError(f"run {run_id} not present in trajectory log")
    lo, hi = int(tick_range[0]), int(tick_range[1])
    ticks = table.tick[in_run]
    if lo > hi or lo < ticks.min() or hi > ticks.max():
        raise InputError(
            f"tick range [{lo}, {hi}] outside run {run_id}'s range "
            f"[{ticks.min()}, {ticks.max()}]"
        )
    lines: list[str] = []
    for t in range(lo, hi + 1):
        mask = in_run & (table.tick == t)
        lines.append(f"tick {t}")
        events: list[str] = []
        for i in np.flatnonzero(mask):
            lines.append(
                f"  {table.entity_kind[i]} {table.entity_id[i]}"
                f"  x={table.x[i]:.6f} y={table.y[i]:.6f} heading={table.heading[i]:.4f}"
            )
            if table.event[i]:
                for kind in table.event[i].split(";"):
                    events.append(f"{kind} prey={table.entity_id[i]}")
        for ev in events:
            lines.append(f"  event {ev}")
        lines.append("")
    return "\n".join(lines)
