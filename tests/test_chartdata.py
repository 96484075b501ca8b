"""Chart-file parsing and validation."""

import tracemalloc

import pytest

from longtail.chartdata import load_chart


def write_chart(path, rows, header="period,product_id"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def test_load_chart_preserves_rank_order(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,10", "0,11", "0,12", "1,11", "1,10", "1,13"])
    assert load_chart(path) == [[10, 11, 12], [11, 10, 13]]


def test_load_chart_accepts_sales_column(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,10,50", "0,11,40", "1,10,60", "1,12,10"], header="period,product_id,sales")
    assert load_chart(path) == [[10, 11], [10, 12]]


def test_load_chart_rejects_duplicates(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,10", "0,10"])
    with pytest.raises(ValueError, match="duplicate"):
        load_chart(path)


def test_load_chart_rejects_noncontiguous_periods(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,10", "2,11"])
    with pytest.raises(ValueError, match="consecutive"):
        load_chart(path)


def test_load_chart_rejects_bad_header(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,10"], header="time,item")
    with pytest.raises(ValueError, match="header"):
        load_chart(path)


def test_load_chart_rejects_non_integer_values(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, ["0,abc"])
    with pytest.raises(ValueError, match="integer"):
        load_chart(path)


def test_load_chart_rejects_empty_file(tmp_path):
    path = tmp_path / "chart.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_chart(path)


def test_load_chart_rejects_headers_only(tmp_path):
    path = tmp_path / "chart.csv"
    write_chart(path, [])
    with pytest.raises(ValueError, match="no data"):
        load_chart(path)


def test_load_chart_reports_the_first_duplicate_of_interleaved_periods(tmp_path):
    path = tmp_path / "chart.csv"
    # periods alternate row by row; line 6 repeats line 2's pair, line 7 line 3's
    write_chart(path, ["0,10", "1,10", "0,11", "1,11", "0,10", "1,10"])
    with pytest.raises(ValueError, match=r"chart\.csv:6: duplicate entry for period 0, product 10$"):
        load_chart(path)


def test_load_chart_memory_is_bounded(tmp_path):
    # 1000 periods x 10 ranked ids with sales; ids turn over as in a real chart
    path = tmp_path / "chart.csv"
    rows = [f"{p},{1000 + p * 2 + rank},{10 - rank}" for p in range(1000) for rank in range(10)]
    write_chart(path, rows, header="period,product_id,sales")
    tracemalloc.start()
    try:
        lists = load_chart(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lists) == 1000 and lists[1][:2] == [1002, 1003]
    assert peak < 1_300_000  # 0.86 MB; with a set of (period, id) pairs beside the lists, 1.7 MB
