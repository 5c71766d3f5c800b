"""Trajectory logs: per-entity per-tick CSV rows, plus replay frame rendering.

Schema (one row per entity per tick):
    run_id, tick, entity_kind, entity_id, x, y, heading, event
entity_kind is one of prey, predator, point_positive, point_negative. The
event column is empty except on prey rows whose prey emitted events that
tick; multiple events are joined with ';'.

The reader streams the file in blocks of _BLOCK_ROWS data rows: each block is
one pass of numpy's C parser on the one open handle, into a record array of all
eight columns (the two string columns as Python objects), and each command keeps
only what it uses of it:
    from_csv        every row; the blocks are joined into a table of
                    contiguous columns;
    read_positions  the x and y of one entity kind (`heatmap`), 16 bytes a row;
    read_run        one run's rows (`replay-export`). It assumes the run-major
                    order that `eval` writes: the read stops at the first
                    well-formed row of a later run, and no row after that one
                    is used or refused.
Fields are unquoted, as the writer writes them, and lines may end in CRLF or LF;
blank lines are skipped. A file whose first line is not the exact header, a row
without exactly eight fields, an id or tick that is not an integer, and a
non-finite x, y or heading are refused with InputError naming the file and the
first bad line (counted from 1, header and blank lines included), which a walk
through the failed block finds line by line; the outcome does not depend on the
block size. On a 1.75M-row file (50 runs x 5,000 ticks; 2-core x86-64 host),
`heatmap --entity-kind prey` takes 5.6-6.7 s and peaks at 104 MiB, against
7.1-8.4 s and 527 MiB when it read the whole table, and `replay-export --run 0`
takes 0.05-0.08 s and 64 MiB, against 1.8-2.0 s and 527 MiB.
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
        """Every row of a trajectory CSV, its blocks joined; the module docstring says what it refuses."""
        return cls._from_blocks(list(_read_blocks(path)))

    @classmethod
    def _from_blocks(cls, blocks: list[np.ndarray]) -> "TrajectoryTable":
        # one column at a time, so only the blocks and one joined column are held beside the table
        return cls(
            **{
                name: np.concatenate([rows[name] for rows in blocks]).astype(_NUMERIC.get(name, str), copy=False)
                for name in CSV_HEADER
            }
        )

    def positions(self, entity_kind: str) -> np.ndarray:
        """(n, 2) positions of all rows of one entity kind, across every run."""
        mask = self.entity_kind == entity_kind
        return np.column_stack([self.x[mask], self.y[mask]])

    def runs(self) -> np.ndarray:
        return np.unique(self.run_id)


def read_positions(path, entity_kind: str) -> np.ndarray:
    """(n, 2) x and y of every row of one entity kind, in file order, as `from_csv(path).positions(entity_kind)`.

    Only those 16 bytes a row and one block are held at a time.
    """
    pieces = []
    for rows in _read_blocks(path):
        mask = rows["entity_kind"] == entity_kind
        pieces.append(np.column_stack([rows["x"][mask], rows["y"][mask]]))
    return np.concatenate(pieces)


def read_run(path, run_id: int) -> TrajectoryTable:
    """The rows of one run of a run-major trajectory CSV, as `eval` writes it.

    The read stops at the first well-formed row whose run id is greater than `run_id`: no row after it is used
    or refused, so a malformed row there passes, and rows of the run after a later run's row are missed.
    """
    return TrajectoryTable._from_blocks([rows[rows["run_id"] == run_id] for rows in _read_blocks(path, run_id)])


# Data rows a block holds. Reading the kind's positions from 70,000 rows (a 50-run x 200-tick file) on a
# 2-core x86-64 host took a median of 55-65 ms at 512-16,384 rows a block (15 runs each), against 80 ms
# through a whole-file table; one block, all that `read_run` reads of run 0's 1,400 rows there, took
# 0.8 / 1.6 / 3.3 / 6.7 / 60 ms at 1,024 / 2,048 / 4,096 / 8,192 / 65,536 rows.
_BLOCK_ROWS = 4096


def _read_blocks(path, last_run: int | None = None):
    """Yield the data rows of a trajectory CSV in file order, as record arrays of at most _BLOCK_ROWS rows.

    Each block is one `np.loadtxt` call on the one open handle, and every row yielded has passed the checks
    the module docstring lists. With `last_run`, the rows end before the first well-formed row whose run id
    is greater. A block that fails a check is walked again line by line, so which rows come back, or which
    line is refused, does not depend on the block size.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != CSV_HEADER:
            raise InputError(f"{path}: expected trajectory header {CSV_HEADER}, got {header}")
        n_read = 0
        while True:
            try:
                rows = _load(fh, max_rows=_BLOCK_ROWS)
            except ValueError:
                break
            end = len(rows)
            if last_run is not None:
                later = np.flatnonzero((rows["run_id"] > last_run) & _finite(rows))
                end = later[0] if len(later) else end
            if not _finite(rows[:end]).all():
                break
            yield rows[:end]
            if end < _BLOCK_ROWS:
                return
            n_read += end
    yield _walk(path, n_read, last_run)


def _load(source, max_rows: int | None = None) -> np.ndarray:
    """Data rows as one record array, in one pass of numpy's C reader."""
    # numpy warns on input without data rows and on blank lines; both are fine here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=_ROW_DTYPE, delimiter=",", comments=None, max_rows=max_rows, ndmin=1)


def _finite(columns) -> np.ndarray:
    return np.isfinite(columns["x"]) & np.isfinite(columns["y"]) & np.isfinite(columns["heading"])


def _walk(path, n_skip: int, last_run: int | None) -> np.ndarray:
    """The data rows after the first `n_skip`, passed through numpy's reader one line at a time.

    Only a block that failed calls this. It raises InputError naming the first bad line, by its line number
    in the file, and why; it returns the rows before the read's end only if a later run's row comes first.
    """
    rows = []
    with open(path, newline="") as fh:
        next(fh)  # the header, which the caller checked
        for n, line in enumerate(fh, start=2):
            if n_skip:  # in the blocks that passed, a line with a comma is a row and any other line is blank
                n_skip -= 1 if "," in line else 0
                continue
            n_fields = line.count(",") + 1
            try:
                row = _load([line])
            except ValueError:
                row = None
            if row is not None and len(row) == 0:  # a blank line
                continue
            if n_fields != len(CSV_HEADER):
                raise InputError(f"{path}: line {n} has {n_fields} fields, not {len(CSV_HEADER)}")
            if row is None:
                raise InputError(
                    f"{path}: line {n} has an id or tick that is not a 64-bit integer, "
                    "or an x, y or heading that is not a number"
                )
            if not _finite(row).all():
                raise InputError(f"{path}: line {n} has a non-finite x, y or heading")
            if last_run is not None and row["run_id"][0] > last_run:
                return np.concatenate(rows) if rows else row[:0]
            rows.append(row)
    raise InputError(f"{path}: malformed trajectory row")


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
