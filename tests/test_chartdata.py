"""Chart-file parsing and validation; the CSV readers and writer against the earlier ones."""

import csv
import io
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from longtail.analysis import turnover
from longtail.chartdata import Interleaved, load_chart, read_sales_column, write_csv


def write_chart(path, rows, header="period,product_id"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def chart_lists(path):
    """The lists of a pass over load_chart's chart; for a chart whose periods interleave, those of the whole file."""
    try:
        return list(load_chart(path))
    except Interleaved as exc:
        return exc.lists


def test_load_chart_preserves_rank_order(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,10", "0,11", "0,12", "1,11", "1,10", "1,13"])
    chart = load_chart(path)
    # each pass reads the file again: a tracer may count the rows before the CLI folds them
    assert list(chart) == list(chart) == [[10, 11, 12], [11, 10, 13]]


def test_load_chart_accepts_sales_column(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,10,50", "0,11,40", "1,10,60", "1,12,10"], header="period,product_id,sales")
    assert list(load_chart(path)) == [[10, 11], [10, 12]]


@pytest.mark.parametrize(
    "text,message",
    [
        ("period,product_id\n0,10\n2,11\n", "consecutive"),
        ("time,item\n0,10\n", "header"),
        ("period,product_id\n0,abc\n", "integer"),
        ("", "empty"),
        ("period,product_id\n", "no data"),
    ],
    ids=["gap", "header", "non-integer", "empty", "headers-only"],
)
def test_load_chart_rejects_a_malformed_chart(tmp_path, text, message):
    path = tmp_path / "chart.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        list(load_chart(path))


def test_a_pass_that_meets_interleaved_periods_hands_over_the_whole_files_lists(tmp_path):
    path = tmp_path / "chart.csv"
    # period 0 was yielded as [10] when line 3 began period 1; line 4 returns to period 0
    write_chart(path, ["0,10", "1,10", "0,11", "1,12", "2,11"])
    with pytest.raises(Interleaved) as caught:
        list(load_chart(path))
    assert caught.value.lists == [[10, 11], [10, 12], [11]]


def test_load_chart_reports_the_first_duplicate_of_interleaved_periods(tmp_path):
    path = tmp_path / "chart.csv"
    # periods alternate row by row; line 6 repeats line 2's pair, line 7 line 3's. The pass
    # leaves period order on line 4 and reads the whole file again, which finds line 6
    write_chart(path, ["0,10", "1,10", "0,11", "1,11", "0,10", "1,10"])
    with pytest.raises(ValueError, match=r"chart\.csv:6: duplicate entry for period 0, product 10$"):
        list(load_chart(path))


def test_load_chart_memory_is_bounded(tmp_path):
    # 1000 periods x 10 ranked ids with sales; ids turn over as in a real chart
    path = tmp_path / "chart.csv"
    rows = [f"{p},{1000 + p * 2 + rank},{10 - rank}" for p in range(1000) for rank in range(10)]
    write_chart(path, rows, header="period,product_id,sales")
    stats, peak = oracles.traced_peak(lambda: turnover(load_chart(path)))
    assert stats.z_per_period == [2] * 999
    # 73 KB: one period's ids at a time, beside turnover's two sets and its
    # counts; 0.62 MB when the reader held every period's list before the fold
    assert peak < 100_000


# ---------------------------------------------------------------------------
# the readers and the writer against the earlier csv.DictReader / csv.writer code

NAMES = ["sales", "cumulative_sales", "product_id", "period", "x"]
HEADERS = st.sampled_from(["period,product_id", "period,product_id,sales"]) | st.lists(
    st.sampled_from(NAMES), max_size=4
).map(",".join)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
# digits, signs, spaces, '_', non-ASCII digits, quotes, commas, CR and LF
CHARS = "0123456789-+ _\u0663\u096c\"x,\r\n"
CELL = st.integers(-1, 3).map(str) | st.text(CHARS, max_size=4) | st.text(CHARS, max_size=4).map('"{}"'.format)
LINE = st.tuples(st.lists(CELL, max_size=3).map(",".join), NEWLINES).map("".join)
BODY = st.lists(LINE, max_size=8).map("".join) | st.text(CHARS, max_size=80)
READERS = [
    (read_sales_column, lambda path: Counter(oracles._read_sales_column(path))),
    (chart_lists, oracles.load_chart),
]


def outcome(read, path, lined=True):
    """The values read, or the message; ``lined=False`` drops a message's line number."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc) if lined else re.sub(rf"^{re.escape(str(path))}:\d+:", f"{path}:<line>:", str(exc))


def one_record_per_line(text):
    """No blank line and no quoted line break: record n ends on line n."""
    reader = csv.reader(io.StringIO(text, newline=""))
    return all(row and reader.line_num == n for n, row in enumerate(reader, start=1))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=HEADERS, newline=NEWLINES, body=BODY)
def test_readers_match_the_earlier_readers(tmp_path, header, newline, body):
    text = header + newline + body
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    lined = one_record_per_line(text)  # elsewhere the earlier readers numbered records, not lines
    for read, earlier in READERS:
        assert outcome(read, path, lined) == outcome(earlier, path, lined), (read.__name__, text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("cumulative_sales,sales\n1,2\n", [2]),  # 'sales' is preferred
        ("sales,x,sales\n1,2,3\n", [3]),  # a repeated name reads its last column
        ("product_id,sales\n1\n", "{path}:2: sales value None is not an integer"),  # a short row
        ("sales,x,sales\n1,2\n", "{path}:2: sales value None is not an integer"),
        ("", "{path}: no 'sales' or 'cumulative_sales' column (found: )"),
        ("\nsales\n1\n", "{path}: no 'sales' or 'cumulative_sales' column (found: )"),
        ("sales\n1\n\n\n2\r\n\r3\n", [1, 2, 3]),  # blank lines are skipped
    ],
    ids=["preferred", "repeated", "short", "short-repeated", "empty", "blank-header", "blank-lines"],
)
def test_sales_reader_keeps_the_dictreader_behaviour(tmp_path, text, expected):
    path = tmp_path / "sales.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        expected = expected.format(path=path)
        assert outcome(read_sales_column, path) == outcome(oracles._read_sales_column, path) == expected
    else:  # the earlier reader's list, counted
        assert outcome(read_sales_column, path) == Counter(oracles._read_sales_column(path)) == Counter(expected)


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
CELLS = (
    st.integers()
    | FLOATS
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -1e-310])
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | FLOATS.map(np.float64)
    | st.booleans()
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.lists(st.sampled_from(NAMES), max_size=5), rows=st.lists(st.lists(CELLS, max_size=5), max_size=8))
def test_writer_matches_the_earlier_writer(tmp_path, header, rows):
    write_csv(tmp_path / "new.csv", header, iter(rows))
    oracles._write_csv(tmp_path / "old.csv", header, iter(rows))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
