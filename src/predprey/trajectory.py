"""Trajectory logs: per-entity per-tick CSV rows, plus replay frame rendering.

Schema (one row per entity per tick):
    run_id, tick, entity_kind, entity_id, x, y, heading, event
entity_kind is one of prey, predator, point_positive, point_negative. The
event column is empty except on prey rows whose prey emitted events that
tick; multiple events are joined with ';'.

The reader takes the file in bulk with numpy's C parser: one pass over the six
numeric columns and one per string column, each landing in a contiguous
array. Fields are unquoted, as the writer writes them, and lines may end in
CRLF or LF; blank lines are skipped. A file whose first line is not the exact
header, a row without exactly eight fields, an id or tick that is not an
integer, and a non-finite x, y or heading are refused with InputError naming
the file.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .world import Event, WorldState

CSV_HEADER = ["run_id", "tick", "entity_kind", "entity_id", "x", "y", "heading", "event"]

ALL_KINDS = ("prey", "predator", "points")

# The reader's one pass over the numeric columns fills this record type.
_NUMERIC_DTYPE = np.dtype(
    [(name, np.int64) for name in ("run_id", "tick", "entity_id")]
    + [(name, np.float64) for name in ("x", "y", "heading")]
)
_NUMERIC_COLUMNS = tuple(CSV_HEADER.index(name) for name in _NUMERIC_DTYPE.names)
_STRING_COLUMNS = tuple(CSV_HEADER.index(name) for name in ("entity_kind", "event"))


class TrajectoryWriter:
    """Streams rows to an open text file; caller owns the file handle.

    Rows are written as csv.writer writes them (no field ever needs quoting),
    one write per recorded tick. The header goes first, unless `header` is
    False for rows that will be appended to a file that has one.
    """

    def __init__(self, fh, kinds: tuple[str, ...] = ALL_KINDS, header: bool = True):
        self._fh = fh
        if header:
            fh.write(",".join(CSV_HEADER) + "\r\n")
        self.kinds = kinds

    def record(self, run_id: int, tick: int, state: WorldState, events: list[Event], world: int = 0) -> None:
        """One tick of one world of `state` as rows of run `run_id`; events of other worlds are skipped."""
        by_prey: dict[int, list[str]] = {}
        for ev in events:
            if ev.world == world:
                by_prey.setdefault(ev.prey_id, []).append(ev.kind)
        rows = []
        if "prey" in self.kinds:
            headings = state.prey_heading[world].tolist()
            for i, (x, y) in enumerate(state.prey_pos[world].tolist()):
                events_i = ";".join(by_prey.get(i, []))
                rows.append(f"{run_id},{tick},prey,{i},{x:.6f},{y:.6f},{headings[i]:.4f},{events_i}\r\n")
        if "predator" in self.kinds and state.predator is not None:
            p = state.predator
            x, y = p.position[world].tolist()
            rows.append(f"{run_id},{tick},predator,0,{x:.6f},{y:.6f},{float(p.heading[world]):.4f},\r\n")
        if "points" in self.kinds:
            positive = state.point_positive[world].tolist()
            for idx, (x, y) in enumerate(state.point_pos[world].tolist()):
                kind = "point_positive" if positive[idx] else "point_negative"
                rows.append(f"{run_id},{tick},{kind},{idx},{x:.6f},{y:.6f},0.0,\r\n")
        self._fh.write("".join(rows))


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
            n_commas = fh.read().count(",")
        columns = {}
        # numpy warns on a file without data rows and on blank lines; both are fine here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                for i in _STRING_COLUMNS:
                    columns[CSV_HEADER[i]] = _load(path, dtype=str, usecols=i)
                numeric = _load(path, dtype=_NUMERIC_DTYPE, usecols=_NUMERIC_COLUMNS)
            except ValueError as exc:
                raise InputError(f"{path}: malformed trajectory row: {exc}") from None
        # every row has at least eight fields, or the event pass failed; so seven commas
        # per row means that every row has exactly eight
        if n_commas != (len(CSV_HEADER) - 1) * len(numeric):
            with open(path, newline="") as fh:
                line = next(n for n, row in enumerate(fh, start=1) if row.count(",") >= len(CSV_HEADER))
            raise InputError(f"{path}: line {line} has more than {len(CSV_HEADER)} fields")
        for name in _NUMERIC_DTYPE.names:
            columns[name] = np.ascontiguousarray(numeric[name])
        finite = np.isfinite(columns["x"]) & np.isfinite(columns["y"]) & np.isfinite(columns["heading"])
        if not finite.all():
            raise InputError(f"{path}: non-finite x, y or heading in data row {int(np.argmin(finite))} (from 0)")
        return cls(**columns)

    def positions(self, entity_kind: str) -> np.ndarray:
        """(n, 2) positions of all rows of one entity kind, across every run."""
        mask = self.entity_kind == entity_kind
        return np.column_stack([self.x[mask], self.y[mask]])

    def runs(self) -> np.ndarray:
        return np.unique(self.run_id)


def _load(path, dtype, usecols) -> np.ndarray:
    """The data rows' `usecols` columns in one pass of numpy's C reader."""
    return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1, usecols=usecols, ndmin=1)


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
