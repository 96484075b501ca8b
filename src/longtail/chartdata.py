"""Reading ranked best-seller chart files.

A chart file is a CSV with header ``period,product_id`` or
``period,product_id,sales``; one row per charted item per period, with row
order inside a period encoding the rank. Periods must be consecutive
integers and a (period, product_id) pair may appear only once.
"""

from __future__ import annotations

import csv
from pathlib import Path

CHART_HEADERS = (["period", "product_id"], ["period", "product_id", "sales"])


def load_chart(path: str | Path) -> list[list[int]]:
    """Per-period ranked product-id lists from a chart CSV."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty chart file") from None
        if header not in CHART_HEADERS:
            raise ValueError(
                f"{path}: header must be 'period,product_id[,sales]', got {','.join(header)}"
            )
        # each period's ids are the keys of a dict: an insertion-ordered set,
        # so one lookup finds a duplicate and the keys keep the rank order
        by_period: dict[int, dict[int, None]] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                period, product_id = int(row[0]), int(row[1])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: period and product_id must be integers") from None
            ids = by_period.setdefault(period, {})
            if product_id in ids:
                raise ValueError(f"{path}:{line_no}: duplicate entry for period {period}, product {product_id}")
            ids[product_id] = None

    if not by_period:
        raise ValueError(f"{path}: chart file has no data rows")
    periods = sorted(by_period)
    if periods != list(range(periods[0], periods[0] + len(periods))):
        raise ValueError(f"{path}: periods must be consecutive integers, got gaps in {periods[0]}..{periods[-1]}")
    return [list(by_period[p]) for p in periods]
