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
without exactly eight fields, an id or tick that is not an integer, a non-finite
x, y or heading, an entity kind other than the four above, and an event cell
that is not event names joined by ';' are refused with InputError naming the
file and the first bad line (counted from 1, header and blank lines included),
which a walk through the failed block finds line by line; the outcome does not
depend on the block size. The file is decoded with errors="surrogateescape", so
a byte the encoding cannot decode fails the check of the field it lands in. On
a 1.75M-row file (50 runs x 5,000 ticks; 2-core x86-64 host), `heatmap
--entity-kind prey` takes 5.6-6.7 s and peaks at 104 MiB, against 7.1-8.4 s and
527 MiB when it read the whole table, and `replay-export --run 0` takes
0.05-0.08 s and 64 MiB, against 1.8-2.0 s and 527 MiB.
"""

from __future__ import annotations

import csv
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, StructuralError
from .net import atomic_open
from .world import WorldState

CSV_HEADER = ["run_id", "tick", "entity_kind", "entity_id", "x", "y", "heading", "event"]

# the entity kinds and event names a row may hold; the reader refuses any other.
# EVENT_NAMES[kind] names an event of that world.EVENT_* kind.
ENTITY_KINDS = ("point_negative", "point_positive", "predator", "prey")
EVENT_NAMES = ("positive_collected", "negative_collected", "prey_caught")

# The reader's one pass fills this record type; without usecols, numpy refuses a row
# that does not have exactly one field per column.
_NUMERIC = dict.fromkeys(("run_id", "tick", "entity_id"), np.int64) | dict.fromkeys(("x", "y", "heading"), np.float64)
_ROW_DTYPE = np.dtype([(name, _NUMERIC.get(name, object)) for name in CSV_HEADER])

_HOLD_TICKS = 64  # ticks of rows a run holds before the writer spools them, as stats._DRAW_TICKS


class TrajectoryWriter:
    """Context manager owning the run-major trajectory CSV of `n_runs` lockstep runs.

    A tick's rows are each run's prey, its predator if any and, with `log_points`, its points. A run holds _HOLD_TICKS
    ticks of rows, then appends them as one block to the one anonymous spool beside `path`; a clean exit copies the
    header and each run's blocks, in run order, to `path` through `atomic_open`. So at most two files are open, whatever
    `n_runs` is. An exception or a kill before the copy leaves any previous file at `path` and no other; one during it
    can leave atomic_open's temp file, never a partial `path`. Rows are as csv.writer writes them (none needs quoting).
    """

    def __init__(self, path, n_runs: int, log_points: bool):
        self.path = Path(path)
        self.n_runs = n_runs
        self.log_points = log_points

    def __enter__(self) -> "TrajectoryWriter":
        self._spool = tempfile.TemporaryFile(dir=self.path.parent)
        self._held = []  # one list a held tick: each run's rows of that tick as one string
        self._blocks = [[] for _ in range(self.n_runs)]  # each run's (offset, length) in the spool
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._spool:
            if exc is None:
                self._flush()
                with atomic_open(self.path, "wb") as out:
                    out.write((",".join(CSV_HEADER) + "\r\n").encode())
                    for offset, length in (block for blocks in self._blocks for block in blocks):
                        self._spool.seek(offset)
                        out.write(self._spool.read(length))

    def record(self, tick: int, state: WorldState, events: np.recarray) -> None:
        """One tick of every world of `state`, world w as run w: one `%` template filled and held per run.

        `events` is the tick's event array as world.step returns it; each names itself on its prey's row.
        """
        if len(state.prey_pos) != self.n_runs:
            raise StructuralError(f"state has {len(state.prey_pos)} worlds, the trajectory {self.n_runs} runs")
        # one run's row templates for this tick, and each row set's (W, rows, fields) values
        rows = [f"%d,{tick},prey,{i},%.6f,%.6f,%.4f,%s\r\n" for i in range(state.prey_pos.shape[1])]
        values = [_cells(state.prey_pos[..., 0], state.prey_pos[..., 1], state.prey_heading, "")]
        for w, i, kind in events.tolist():
            cell = values[0][w, i]
            cell[-1] = f"{cell[-1]};{EVENT_NAMES[kind]}" if cell[-1] else EVENT_NAMES[kind]
        if state.predator is not None:
            p = state.predator
            rows.append(f"%d,{tick},predator,0,%.6f,%.6f,%.4f,\r\n")
            values.append(_cells(p.position[:, None, 0], p.position[:, None, 1], p.heading[:, None]))
        if self.log_points:
            rows += [f"%d,{tick},%s,{idx},%.6f,%.6f,0.0,\r\n" for idx in range(state.point_pos.shape[1])]
            kinds = np.where(state.point_positive, "point_positive", "point_negative")
            values.append(_cells(kinds, state.point_pos[..., 0], state.point_pos[..., 1]))
        template = "".join(rows)
        runs = np.concatenate([v.reshape(self.n_runs, -1) for v in values], 1).tolist()
        self._held.append([template % tuple(run) for run in runs])
        if len(self._held) == _HOLD_TICKS:
            self._flush()

    def _flush(self) -> None:
        for blocks, ticks in zip(self._blocks, zip(*self._held)):
            block = "".join(ticks).encode()
            blocks.append((self._spool.tell(), len(block)))
            self._spool.write(block)
        self._held = []


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
    with open(path, newline="", errors="surrogateescape") as fh:
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
                end = next((i for i in later if _known(rows[i : i + 1])), end)
            if not (_finite(rows[:end]).all() and _known(rows[:end])):
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


def _known(rows) -> bool:
    """Whether every row's entity kind, and every event its event cell names, is one the writer writes."""
    events = rows["event"]
    cells = set(events[events != ""].tolist())
    return set(rows["entity_kind"].tolist()) <= set(ENTITY_KINDS) and all(set(EVENT_NAMES).issuperset(c.split(";")) for c in cells)


def _walk(path, n_skip: int, last_run: int | None) -> np.ndarray:
    """The data rows after the first `n_skip`, passed through numpy's reader one line at a time.

    Only a block that failed calls this. It raises InputError naming the first bad line, by its line number
    in the file, and why; it returns the rows before the read's end only if a later run's row comes first.
    """
    rows = []
    with open(path, newline="", errors="surrogateescape") as fh:
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
            if not _known(row):
                kind, event = row["entity_kind"][0], row["event"][0]
                what = (
                    f"entity kind {kind!r}, not one of {', '.join(ENTITY_KINDS)}"
                    if kind not in ENTITY_KINDS
                    else f"event {event!r}, not names from {', '.join(sorted(EVENT_NAMES))} joined by ';'"
                )
                raise InputError(f"{path}: line {n} has {what}")
            if last_run is not None and row["run_id"][0] > last_run:
                return np.concatenate(rows) if rows else row[:0]
            rows.append(row)
    raise InputError(f"{path}: malformed trajectory row")


def check_replay_args(run_id: int, tick_range: tuple[int, int]) -> None:
    """Refuse a negative run id and a tick range whose LO is above its HI, which no trajectory can hold."""
    if run_id < 0:
        raise InputError(f"run must be >= 0, got {run_id}")
    if tick_range[0] > tick_range[1]:
        raise InputError(f"ticks LO {tick_range[0]} is above HI {tick_range[1]}")


def replay_export(table: TrajectoryTable, run_id: int, tick_range: tuple[int, int]) -> str:
    """Render inclusive [lo, hi] ticks of one run as plain-text frames.

    Each frame lists every logged entity's position/heading followed by the
    tick's events, for stepping through an encounter by hand.
    """
    lo, hi = int(tick_range[0]), int(tick_range[1])
    check_replay_args(run_id, (lo, hi))
    in_run = table.run_id == run_id
    if not in_run.any():
        raise InputError(f"run {run_id} not present in trajectory log")
    ticks = table.tick[in_run]
    if lo < ticks.min() or hi > ticks.max():
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
