"""The bulk trajectory reader against the csv.reader oracle, and its refusals of malformed files."""

import pytest

from predprey.errors import InputError
from predprey.trajectory import CSV_HEADER, TrajectoryTable
from test_golden import eval_digests
from tests_support import csv_reader_table

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
        with pytest.raises(InputError, match="bad.csv"):
            TrajectoryTable.from_csv(path)

    def test_nine_fields_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER_LINE + GOOD_ROWS + "0,1,prey,0,1.0,2.0,90.0,,\r\n", newline="")
        with pytest.raises(InputError, match="line 4 has more than 8 fields"):
            TrajectoryTable.from_csv(path)

    @pytest.mark.parametrize(
        "text", ["", GOOD_ROWS, "run_id,tick\r\n" + GOOD_ROWS, HEADER_LINE.replace("event", "events") + GOOD_ROWS]
    )
    def test_wrong_header(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, newline="")
        with pytest.raises(InputError, match="expected trajectory header"):
            TrajectoryTable.from_csv(path)
