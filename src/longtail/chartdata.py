"""Reading and writing the data files: the one module that knows their format.

``SCHEMAS`` is the schema table: each CSV file's versioned schema, whose
comma-separated word after the colon is the header written. ``write_files``
writes every file of an output directory: CSV rows, a JSON payload or text.

Every file is read and written as UTF-8, whatever the locale; a reader skips
a leading byte-order mark (Excel's "CSV UTF-8"). A CSV file has a header row
and CRLF line ends; floats are written with 17 significant digits, so values
round-trip exactly. A chart file has header
``period,product_id[,sales]`` and one row per item per period in rank order,
with consecutive periods and no repeated (period, product_id) pair. Errors
name ``<path>:<line>``, where the bad record ends, or ``<path>`` for bad bytes.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

SCHEMAS = {
    "cumulative_sales.csv": "cumulative-sales v1: product_id,cumulative_sales",
    "top_products.csv": "chart v1: period,product_id (row order within a period is the rank)",
    "turnover.csv": "turnover v1: period,new_entries",
    "sales_histogram.csv": "sales-histogram v1: n_mu,mu,bin_lo,bin_hi,count",
    "sales_samples.csv": "sales-samples v1: n_mu,cumulative_sales",
    "turnover_sweep.csv": "turnover-sweep v1: n_agents,mu,z_bar,z_std",
    "turnover_by_mu.csv": "turnover-by-mu v1: mu,z_bar_mean,z_bar_std",
    "inventory_curves.csv": "inventory-curves v1: ab_ratio,mu,y_value,y_floor",
}


def _header(name: str) -> list[str]:
    """The column names of a CSV file: its schema's comma-separated word after the colon."""
    return SCHEMAS[name].split(": ", 1)[1].split(" ", 1)[0].split(",")


CHART_HEADERS = (_header("top_products.csv"), _header("top_products.csv") + ["sales"])


def write_files(out_dir: Path, files: dict) -> None:
    """Write each file into the existing out_dir by its suffix, in order.

    ``files`` maps a file name to its rows for .csv (the header comes from
    ``SCHEMAS``), a payload for .json and text for anything else. Each file
    is written under a temporary name in out_dir, then renamed over its own
    name, so a file holds either its previous bytes or its new ones. When a
    write fails, its temporary file is removed and the error propagates, named
    by the temporary file if it names none (a buffered write or close); the
    files before it are already in place and those after it are untouched.
    """
    for name, content in files.items():
        temporary = out_dir / f".{name}.{os.getpid()}.tmp"
        try:
            if name.endswith(".csv"):
                write_csv(temporary, _header(name), content)
            elif name.endswith(".json"):
                temporary.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            else:
                temporary.write_text(content, encoding="utf-8")
            os.replace(temporary, out_dir / name)
        except BaseException as exc:
            temporary.unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.filename is None:
                exc.filename = str(temporary)
            raise


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Stream a header and rows; no cell needs quoting, so the bytes are the csv module's default dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(
            ",".join([format(float(v), ".17g") if isinstance(v, float) else str(v) for v in row]) + "\r\n"
            for row in rows
        )


@contextmanager
def _csv_reader(path: Path):
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_sales_column(path: Path) -> list[int]:
    """The 'sales' (else 'cumulative_sales') column; blank lines are skipped, a repeated name reads its last."""
    with _csv_reader(path) as reader:
        header = next(reader, [])
        column = next((c for c in ("sales", "cumulative_sales") if c in header), None)
        if column is None:
            raise ValueError(f"{path}: no 'sales' or 'cumulative_sales' column (found: {','.join(header)})")
        index = len(header) - 1 - header[::-1].index(column)
        values = []
        for row in filter(None, reader):
            raw = row[index] if index < len(row) else None
            try:
                value = int(raw)
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{reader.line_num}: sales value {raw!r} is not an integer") from None
            if value < 0:
                raise ValueError(f"{path}:{reader.line_num}: sales value {value} is negative")
            values.append(value)
    return values


def load_chart(path: str | Path) -> list[list[int]]:
    """Per-period ranked product-id lists from a chart CSV."""
    path = Path(path)
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty chart file")
        if header not in CHART_HEADERS:
            raise ValueError(f"{path}: header must be 'period,product_id[,sales]', got {','.join(header)}")
        # each period's ids are the keys of a dict: an insertion-ordered set,
        # so one lookup finds a duplicate and the keys keep the rank order
        by_period: dict[int, dict[int, None]] = {}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
            try:
                period, product_id = int(row[0]), int(row[1])
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: period and product_id must be integers") from None
            ids = by_period.setdefault(period, {})
            if product_id in ids:
                raise ValueError(f"{path}:{reader.line_num}: duplicate entry for period {period}, product {product_id}")
            ids[product_id] = None

    if not by_period:
        raise ValueError(f"{path}: chart file has no data rows")
    periods = sorted(by_period)
    if periods != list(range(periods[0], periods[0] + len(periods))):
        raise ValueError(f"{path}: periods must be consecutive integers, got gaps in {periods[0]}..{periods[-1]}")
    return [list(by_period.pop(p)) for p in periods]  # popped: each period's dict is freed once copied
