"""The one-pass trajectory writer against the per-world oracle, the bulk reader against the
csv.reader oracle, and the reader's refusals of malformed files."""

import os

import pytest

from predprey.errors import InputError, StructuralError
from predprey.trajectory import ALL_KINDS, CSV_HEADER, TrajectoryTable, TrajectoryWriter
from predprey.world import EVENT_CAUGHT, EVENT_NEGATIVE, EVENT_POSITIVE, Event, WorldConfig
from test_golden import eval_digests
from tests_support import csv_reader_table, make_state, one_world_rows, stack_worlds

HEADER_LINE = ",".join(CSV_HEADER) + "\r\n"
GOOD_ROWS = "0,0,prey,0,1.0,2.0,90.0,\r\n0,0,predator,0,-1.0,-2.0,45.0,\r\n"


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
    @pytest.mark.parametrize("kinds", [ALL_KINDS, ("prey", "predator"), ("prey",), ("predator", "points")])
    @pytest.mark.parametrize("predator", [True, False])
    def test_one_record_per_tick_equals_per_world_rows(self, tmp_path, kinds, predator):
        state = three_worlds(predator)
        ticks = [
            # two events on prey 0 of world 1, one on prey 1 of world 2, none in world 0
            [Event(0, EVENT_POSITIVE, 0, 1), Event(0, EVENT_CAUGHT, 0, 1), Event(0, EVENT_NEGATIVE, 1, 2)],
            [],
            [Event(2, EVENT_CAUGHT, 1, 0)],
        ]
        want = [[] for _ in range(3)]
        with TrajectoryWriter(tmp_path / "t.csv", 3, kinds) as writer:
            for tick, events in enumerate(ticks):
                writer.record(tick, state, events)
                for w in range(3):
                    want[w].append(one_world_rows(w, tick, state, events, world=w, kinds=kinds))
                state.prey_pos += 0.5
                state.prey_heading[:] = (state.prey_heading + 33.3) % 360.0
        header = ",".join(CSV_HEADER) + "\r\n"
        assert (tmp_path / "t.csv").read_bytes() == (header + "".join("".join(run) for run in want)).encode()

    def test_exception_keeps_previous_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError, match="interrupted"):
            with TrajectoryWriter(path, 3) as writer:
                writer.record(0, three_worlds(True), [])
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_world_count_must_match_runs(self, tmp_path):
        with pytest.raises(StructuralError, match="3 worlds"):
            with TrajectoryWriter(tmp_path / "t.csv", 2) as writer:
                writer.record(0, three_worlds(True), [])
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
        # numpy's own messages call this row 4 or 5 (data rows from 0 or from 1, blank lines not counted)
        path = tmp_path / "bad.csv"
        path.write_text(HEADER_LINE + GOOD_ROWS + "\r\n" + GOOD_ROWS + "\n" + row + "\r\n", newline="")
        with pytest.raises(InputError, match=f"bad.csv: line 8 has .*{reason}"):
            TrajectoryTable.from_csv(path)

    @pytest.mark.parametrize(
        "text", ["", GOOD_ROWS, "run_id,tick\r\n" + GOOD_ROWS, HEADER_LINE.replace("event", "events") + GOOD_ROWS]
    )
    def test_wrong_header(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, newline="")
        with pytest.raises(InputError, match="expected trajectory header"):
            TrajectoryTable.from_csv(path)
