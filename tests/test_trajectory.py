"""The one-pass trajectory writer against the per-world oracle, the block reader against the
csv.reader oracle on the golden eval's file and on any file the writer can produce, at the default
block size and at blocks of a few rows, and the reader's refusals of malformed files."""

import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import predprey.cli as cli_module
import predprey.trajectory as trajectory_module
from predprey.cli import main
from predprey.errors import InputError, StructuralError
from predprey.trajectory import (
    CSV_HEADER,
    EVENT_NAMES,
    TrajectoryTable,
    TrajectoryWriter,
    read_positions,
    read_run,
    replay_export,
)
from predprey.world import EVENT_CAUGHT, EVENT_DTYPE, EVENT_NEGATIVE, EVENT_POSITIVE, WorldConfig
from test_golden import eval_digests
from tests_support import csv_reader_table, make_state, one_world_rows, stack_worlds

HEADER_LINE = ",".join(CSV_HEADER) + "\r\n"
GOOD_ROWS = "0,0,prey,0,1.0,2.0,90.0,\r\n0,0,predator,0,-1.0,-2.0,45.0,\r\n"
# rows a block holds: a few, so that small files span several blocks, and the default
BLOCK_SIZES = (1, 2, 3, trajectory_module._BLOCK_ROWS)
NO_EVENTS = np.recarray(0, dtype=EVENT_DTYPE)


def events_of(*rows):
    """A tick's event array, as world.step returns it, of (world, prey_id, kind) rows."""
    return np.rec.fromrecords(list(rows), dtype=EVENT_DTYPE) if rows else NO_EVENTS


def block_rows(n: int):
    return mock.patch.object(trajectory_module, "_BLOCK_ROWS", n)


def assert_same_table(got: TrajectoryTable, want: TrajectoryTable) -> None:
    """Numeric columns equal bit for bit and in dtype, string columns by value; every column contiguous."""
    for name in CSV_HEADER:
        a, b = getattr(got, name), getattr(want, name)
        assert a.flags.c_contiguous, name
        assert a.shape == b.shape, name
        if b.dtype.kind == "U":
            assert a.dtype.kind == "U" and a.tolist() == b.tolist(), name
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def three_worlds(predator: bool):
    """Three hand-placed worlds, each with its own prey, predator and point positions."""
    cfg = WorldConfig(barrier_layout=())
    return stack_worlds(
        [
            make_state(
                cfg,
                prey_specs=[((w + 0.25, -1.5), 10.0 * w), ((-2.0, w / 3.0), 359.99999)],
                predator_spec=((3.0, -w - 0.125), 90.0 + w) if predator else None,
                points=[((0.5, w), "positive"), ((-w, 4.0), "negative"), ((1.0 / 7.0, -4.0), "positive")],
            )
            for w in range(3)
        ]
    )


class TestWriter:
    # 3 ticks, all held until the exit, and 132 ticks, which the writer spools as two full blocks and a part
    @pytest.mark.parametrize("repeats", [1, 44])
    @pytest.mark.parametrize("log_points", [True, False])
    @pytest.mark.parametrize("predator", [True, False])
    def test_one_record_per_tick_equals_per_world_rows(self, tmp_path, log_points, predator, repeats):
        state = three_worlds(predator)
        ticks = [
            # two events on prey 0 of world 1, one on prey 1 of world 2, none in world 0
            events_of((1, 0, EVENT_POSITIVE), (1, 0, EVENT_CAUGHT), (2, 1, EVENT_NEGATIVE)),
            events_of(),
            events_of((0, 1, EVENT_CAUGHT)),
        ] * repeats
        kinds = ("prey", "predator", "points") if log_points else ("prey", "predator")
        want = [[] for _ in range(3)]
        with TrajectoryWriter(tmp_path / "t.csv", 3, log_points) as writer:
            for tick, events in enumerate(ticks):
                writer.record(tick, state, events)
                for w in range(3):
                    want[w].append(one_world_rows(w, tick, state, events, world=w, kinds=kinds))
                state.prey_pos += 0.5
                state.prey_heading[:] = (state.prey_heading + 33.3) % 360.0
        header = ",".join(CSV_HEADER) + "\r\n"
        assert (tmp_path / "t.csv").read_bytes() == (header + "".join("".join(run) for run in want)).encode()

    # an exception while the first ticks are held, and one after the first block went to the spool
    @pytest.mark.parametrize("n_ticks", [1, 65])
    def test_exception_keeps_previous_file_and_leaves_no_temp_file(self, tmp_path, n_ticks):
        path = tmp_path / "t.csv"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError, match="interrupted"):
            with TrajectoryWriter(path, 3, True) as writer:
                for tick in range(n_ticks):
                    writer.record(tick, three_worlds(True), NO_EVENTS)
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_world_count_must_match_runs(self, tmp_path):
        with pytest.raises(StructuralError, match="3 worlds"):
            with TrajectoryWriter(tmp_path / "t.csv", 2, True) as writer:
                writer.record(0, three_worlds(True), NO_EVENTS)
        assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def eval_trajectory(tmp_path_factory):
    """The golden tiny eval's CSV: three runs with prey, predator and point rows and every event kind."""
    out = tmp_path_factory.mktemp("eval")
    eval_digests(out)
    return out / "result" / "trajectory.csv"


class TestMatchesCsvReaderOracle:
    def test_eval_trajectory(self, eval_trajectory):
        table = TrajectoryTable.from_csv(eval_trajectory)
        assert_same_table(table, csv_reader_table(eval_trajectory))
        assert set(table.entity_kind.tolist()) == {"prey", "predator", "point_positive", "point_negative"}
        assert any(";" in event for event in table.event.tolist())  # a cell holding two events

    def test_lf_line_ends(self, eval_trajectory, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_bytes(eval_trajectory.read_bytes().replace(b"\r\n", b"\n"))
        table = TrajectoryTable.from_csv(path)
        assert_same_table(table, csv_reader_table(path))
        assert_same_table(table, csv_reader_table(eval_trajectory))

    def test_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(HEADER_LINE + "3,7,prey,2,0.125,-4.5,359.9999,prey_caught\r\n", newline="")
        table = TrajectoryTable.from_csv(path)
        assert len(table) == 1
        assert_same_table(table, csv_reader_table(path))

    def test_header_only(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER_LINE, newline="")
        table = TrajectoryTable.from_csv(path)
        assert len(table) == 0
        assert_same_table(table, csv_reader_table(path))
        assert len(recwarn) == 0

    def test_blank_lines_are_skipped(self, tmp_path, recwarn):
        path = tmp_path / "blank.csv"
        path.write_text(HEADER_LINE + GOOD_ROWS + "\r\n" + GOOD_ROWS + "\r\n", newline="")
        table = TrajectoryTable.from_csv(path)
        assert len(table) == 4
        assert_same_table(table, csv_reader_table(path))
        assert len(recwarn) == 0


def writer_row(run_id, tick, kind, entity_id, x, y, heading, events) -> str:
    """One row as TrajectoryWriter formats it: events only on prey rows, heading 0.0 on point rows."""
    if kind == "prey":
        return f"{run_id},{tick},prey,{entity_id},{x:.6f},{y:.6f},{heading:.4f},{';'.join(events)}"
    heading = f"{heading:.4f}" if kind == "predator" else "0.0"
    return f"{run_id},{tick},{kind},{entity_id},{x:.6f},{y:.6f},{heading},"


WRITER_ROWS = st.builds(
    writer_row,
    *[st.integers(0, 2**63 - 1)] * 2,
    st.sampled_from(["prey", "predator", "point_positive", "point_negative"]),
    st.integers(0, 2**63 - 1),
    *[st.floats(allow_nan=False, allow_infinity=False)] * 3,
    st.lists(st.sampled_from(EVENT_NAMES), max_size=3),
)
# data rows and blank lines, each ending in CRLF or LF; the header ends as the writer ends it
WRITER_LINES = st.lists(st.tuples(st.one_of(WRITER_ROWS, st.just("")), st.sampled_from(["\r\n", "\n"])), max_size=25)
file_settings = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_lines(path, lines) -> None:
    path.write_bytes((HEADER_LINE + "".join(text + end for text, end in lines)).encode())


@file_settings
@given(lines=WRITER_LINES)
def test_any_writer_file_matches_csv_reader_oracle(tmp_path, lines):
    path = tmp_path / "t.csv"
    write_lines(path, lines)
    want = csv_reader_table(path)
    for n in BLOCK_SIZES:
        with block_rows(n):
            assert_same_table(TrajectoryTable.from_csv(path), want)


@file_settings
@given(lines=WRITER_LINES, data=st.data())
def test_row_with_seven_or_nine_fields_is_named_by_its_line(tmp_path, lines, data):
    at = data.draw(st.integers(0, len(lines)))
    row = data.draw(WRITER_ROWS)
    n_fields = data.draw(st.sampled_from([7, 9]))
    bad = row.rsplit(",", 1)[0] if n_fields == 7 else row + ","
    path = tmp_path / "t.csv"
    write_lines(path, lines[:at] + [(bad, data.draw(st.sampled_from(["\r\n", "\n"])))] + lines[at:])
    for n in BLOCK_SIZES:
        with block_rows(n), pytest.raises(InputError, match=f"t.csv: line {at + 2} has {n_fields} fields, not 8"):
            TrajectoryTable.from_csv(path)


class TestRefusals:
    @pytest.mark.parametrize(
        "row",
        [
            "0,1,prey,0,1.0,2.0,90.0",  # seven fields
            "0,1,prey,0,1.0,2.0,90.0,,extra",  # nine fields
            "0,1,prey,0,abc,2.0,90.0,",
            "0,1.5,prey,0,1.0,2.0,90.0,",
            "zero,1,prey,0,1.0,2.0,90.0,",
            "0,1,prey,0.0,1.0,2.0,90.0,",
            "0,99999999999999999999,prey,0,1.0,2.0,90.0,",
            "0,1,prey,0,nan,2.0,90.0,",
            "0,1,prey,0,1.0,-inf,90.0,",
            "0,1,prey,0,1.0,2.0,inf,",
        ],
    )
    def test_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER_LINE + GOOD_ROWS + row + "\r\n" + GOOD_ROWS, newline="")
        with pytest.raises(InputError, match="bad.csv: line 4 has "):
            TrajectoryTable.from_csv(path)

    def test_nine_fields_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER_LINE + GOOD_ROWS + "0,1,prey,0,1.0,2.0,90.0,,\r\n", newline="")
        with pytest.raises(InputError, match="line 4 has 9 fields, not 8"):
            TrajectoryTable.from_csv(path)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("0,1,prey,0,1.0,2.0,90.0", "7 fields, not 8"),
            ("0,1,prey,0,abc,2.0,90.0,", "not a number"),
            ("0,1,prey,0,1.0,2.0,inf,", "non-finite"),
        ],
    )
    def test_line_numbers_count_header_and_blank_lines(self, tmp_path, row, reason):
        # numpy's own messages call this row 4 or 5 (data rows from 0 or from 1, blank lines not counted);
        # with blocks of 1-3 rows the bad row lies in a later block than the first
        path = tmp_path / "bad.csv"
        lf_rows = GOOD_ROWS.replace("\r\n", "\n")
        path.write_text(HEADER_LINE + GOOD_ROWS + "\r\n" + lf_rows + "\n" + row + "\r\n" + GOOD_ROWS, newline="")
        for n in BLOCK_SIZES:
            with block_rows(n), pytest.raises(InputError, match=f"bad.csv: line 8 has .*{reason}"):
                TrajectoryTable.from_csv(path)

    @pytest.mark.parametrize(
        "row, reason",
        [
            (b"\xff0,1,prey,0,1.0,2.0,90.0,", "an id or tick that is not a 64-bit integer"),  # a byte UTF-8 cannot decode
            (b"0,1,prey,0,1.0,\xff2.0,90.0,", "an id or tick that is not a 64-bit integer, or an x"),
            (b"0,1,prex,0,1.0,2.0,90.0,", "entity kind 'prex', not one of "),
            (b"0,1,\xffprey,0,1.0,2.0,90.0,", "entity kind '\\udcffprey', not one of "),
            (b"0,1,prey,0,1.0,2.0,90.0,prey_caugh", "event 'prey_caugh', not names from "),
            (b"0,1,prey,0,1.0,2.0,90.0,prey_caught;\xff", "event 'prey_caught;\\udcff', not names from "),
            (b"0,1,prey,0,1.0,2.0,90.0,prey_caught;", "event 'prey_caught;', not names from "),
        ],
    )
    def test_undecodable_byte_unknown_kind_or_event_names_the_line(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_bytes((HEADER_LINE + GOOD_ROWS).encode() + row + b"\r\n" + GOOD_ROWS.encode())
        reads = (TrajectoryTable.from_csv, lambda p: read_positions(p, "prey"), lambda p: read_run(p, 0))
        for n in BLOCK_SIZES:
            for read in reads:
                with block_rows(n), pytest.raises(InputError, match=re.escape(f"bad.csv: line 4 has {reason}")):
                    read(path)

    @pytest.mark.parametrize(
        "text", ["", GOOD_ROWS, "run_id,tick\r\n" + GOOD_ROWS, HEADER_LINE.replace("event", "events") + GOOD_ROWS]
    )
    def test_wrong_header(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, newline="")
        with pytest.raises(InputError, match="expected trajectory header"):
            TrajectoryTable.from_csv(path)


def run_rows(run: int) -> list[str]:
    """Three ticks of one prey and the predator, as the writer formats them."""
    rows = []
    for tick in range(3):
        event = "positive_collected" if tick == 1 else ""
        rows.append(f"{run},{tick},prey,0,{run + tick / 8:.6f},{tick / 4:.6f},{10.0 * tick:.4f},{event}")
        rows.append(f"{run},{tick},predator,0,{-run - tick / 8:.6f},{tick / 2:.6f},{20.0 * tick:.4f},")
    return rows


class TestBlockReader:
    def test_heatmap_positions_equal_the_table_positions(self, eval_trajectory, tmp_path, monkeypatch):
        table = TrajectoryTable.from_csv(eval_trajectory)
        seen = []

        def keep_positions(positions, *args, **kwargs):
            seen.append(positions)
            raise KeyboardInterrupt  # nothing after the read matters here

        monkeypatch.setattr(cli_module, "kde_occupancy", keep_positions)
        for kind in ("prey", "predator", "point_positive", "point_negative"):
            want = table.positions(kind)
            for n in BLOCK_SIZES + (7,):
                with block_rows(n), pytest.raises(KeyboardInterrupt):
                    main(["heatmap", "--trajectory", str(eval_trajectory), "--entity-kind", kind, "-o", str(tmp_path)])
                got = seen.pop()
                assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous
        assert read_positions(eval_trajectory, "no_such_kind").shape == (0, 2)

    def test_one_run_equals_that_run_of_the_table(self, eval_trajectory):
        table = TrajectoryTable.from_csv(eval_trajectory)
        for run in [*table.runs().tolist(), 99]:
            mask = table.run_id == run
            want = TrajectoryTable(**{name: getattr(table, name)[mask] for name in CSV_HEADER})
            for n in BLOCK_SIZES + (7,):
                with block_rows(n):
                    got = read_run(eval_trajectory, run)
                assert_same_table(got, want)
                if len(want):
                    assert replay_export(got, run, (0, 3)) == replay_export(table, run, (0, 3))

    @pytest.mark.parametrize(
        "bad", ["{run},1,prey,0,1.0,2.0,90.0", "{run},1,prey,0,nan,2.0,90.0,", "{run},1,prex,0,1.0,2.0,90.0,"]
    )
    @pytest.mark.parametrize(
        "at, run_of_bad, refused",
        [
            (3, 0, True),  # among run 0's rows, before the run exported
            (12, 1, True),  # among run 1's rows
            (14, 2, True),  # just after run 1's rows, before run 2's first well-formed row
            (16, 2, False),  # after run 2's first well-formed row, which ends the read
        ],
    )
    def test_replay_is_the_same_at_every_block_size(self, tmp_path, capsys, bad, at, run_of_bad, refused):
        # run 0 is lines 0-5 of the body, run 1 lines 7-9 and 11-13, run 2 from line 15; lines 6, 10 and 14 are blank
        one = run_rows(1)
        lines = run_rows(0) + [""] + one[:3] + [""] + one[3:] + [""] + run_rows(2)
        clean, path = tmp_path / "clean.csv", tmp_path / "t.csv"
        clean.write_text(HEADER_LINE + "".join(r + "\r\n" for r in lines), newline="")
        lines.insert(at, bad.format(run=run_of_bad))
        path.write_text(HEADER_LINE + "".join(r + "\r\n" for r in lines), newline="")
        argv = ["replay-export", "--run", "1", "--ticks", "0", "2", "--stdout", "--trajectory"]
        assert main([*argv, str(clean)]) == 0
        want = capsys.readouterr()
        outcomes = set()
        for n in BLOCK_SIZES + (4, 5, 6):
            with block_rows(n):
                code = main([*argv, str(path)])
            outcomes.add((code, *capsys.readouterr()))
        assert len(outcomes) == 1
        [(code, out, err)] = outcomes
        if refused:
            assert code == 2 and out == "" and f"t.csv: line {at + 2} has " in err
        else:
            assert (code, out, err) == (0, want.out, want.err)
