"""CLI surface: subcommands, output files, exit codes, determinism."""

import contextlib
import csv
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from longtail import chartdata, cli
from longtail.analysis import fit_alpha
from longtail.cli import COMMANDS, main
from longtail.inventory import InventoryResult


def run_cli(*args):
    return main([str(a) for a in args])


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def write_lines(path, header, rows):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    code = run_cli("simulate", "--n", 200, "--mu", 0.01, "--steps", 50, "--seed", 7, "--y", 5, "--out-dir", out)
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"cumulative_sales.csv", "top_products.csv", "turnover.csv", "manifest.json"}

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["n_agents"] == 200
    assert manifest["version"]
    assert set(manifest["outputs"]) == names - {"manifest.json"}
    assert set(manifest["timings"]) == {"compute_s", "write_s"}
    assert sum(manifest["timings"].values()) == pytest.approx(manifest["duration_seconds"])

    with (out / "turnover.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    assert all(0 <= int(r["new_entries"]) <= 5 for r in rows)


def test_simulate_with_a_y_beyond_every_float(tmp_path, capsys):
    # the turnover fraction z_bar / y raised OverflowError after the whole run
    out = tmp_path / "out"
    assert run_cli("simulate", "--n", 10, "--mu", 0.1, "--steps", 5, "--y", 10**400, "--out-dir", out) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["config"]["y"] == 10**400


def test_manifest_records_numpy_and_python_versions(tmp_path):
    out = tmp_path / "out"
    assert run_cli("simulate", "--n", 10, "--mu", 0.1, "--steps", 5, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    args = ["simulate", "--n", 50, "--mu", 0.02, "--steps", 10, "--out-dir", out]
    assert run_cli(*args) == 0
    assert (out / "manifest.json").exists()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    write_csv, written = chartdata.write_csv, []

    def fail_on_second_file(path, header, rows):
        written.append(path)
        if len(written) == 2:
            Path(path).write_text("period,prod")  # the disk fills part-way through the file
            raise OSError(f"{path}: disk full")
        write_csv(path, header, rows)

    monkeypatch.setattr(chartdata, "write_csv", fail_on_second_file)
    assert run_cli(*args) == 3
    assert len(written) == 2
    # no manifest and no temporary file; the half-written file and the one
    # after it keep the previous run's bytes
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit

def test_fit_matches_library_call(tmp_path, capsys):
    samples = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    path = tmp_path / "sales.csv"
    write_lines(path, "sales", [str(s) for s in samples])
    assert run_cli("fit", "--input", path, "--s-min", 1) == 0
    payload = read_json(capsys)
    direct = fit_alpha(samples, s_min=1)
    assert payload["alpha"] == pytest.approx(direct.alpha, rel=1e-15)
    assert payload["n_samples"] == direct.n_samples
    assert payload["std_error"] == pytest.approx(direct.std_error, rel=1e-15)


def test_fit_accepts_cumulative_sales_column(tmp_path, capsys):
    path = tmp_path / "sales.csv"
    write_lines(path, "product_id,cumulative_sales", [f"{i},{s}" for i, s in enumerate([1, 2, 4, 9])])
    assert run_cli("fit", "--input", path) == 0
    assert read_json(capsys)["n_samples"] == 4


def test_fit_insufficient_data_exit_4(tmp_path, capsys):
    path = tmp_path / "sales.csv"
    write_lines(path, "sales", ["2", "2", "2"])
    assert run_cli("fit", "--input", path, "--s-min", 2) == 4
    assert "s_min" in capsys.readouterr().err


def test_fit_sales_beyond_every_float_exit_2(tmp_path, capsys):
    # converting the samples to float raised an OverflowError traceback, exit 1
    path = tmp_path / "sales.csv"
    write_lines(path, "sales", ["1", "9" * 400])
    assert run_cli("fit", "--input", path) == 2
    assert capsys.readouterr().err == "error: a sample exceeds the largest float\n"


def test_fit_reads_utf8_under_the_c_locale(tmp_path, capsys):
    # the CSV readers decoded with the locale's codec: under C, 'ascii' failed on the é, exit 2
    path = tmp_path / "sales.csv"
    path.write_bytes("name,sales\ncafé,3\ntea,1\nbun,7\n".encode())
    assert run_cli("fit", "--input", path) == 0
    script = f"import sys; from longtail.cli import main; sys.exit(main(['fit', '--input', {str(path)!r}]))"
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    assert _probe(script, **c_locale) == capsys.readouterr().out


def test_fit_missing_file_exit_3(tmp_path):
    assert run_cli("fit", "--input", tmp_path / "nope.csv") == 3


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["fit", "--input", "nope.csv"], "--input"),
        (["turnover", "--input", "./nope.csv", "--y", 2], "--input"),
        (["optimize", "--config", "nope.json", "--A", 1, "--B", 1, "--mu", 0.1], "--config"),
        (["fit", "--input", "a-directory"], "--input"),
        (["fit", "--config", "input.json"], "--input"),  # the path comes from --config
    ],
    ids=["fit-missing", "turnover-missing", "config-missing", "fit-directory", "input-from-config"],
)
def test_a_file_error_exits_3_naming_its_flag(tmp_path, capsys, monkeypatch, argv, flag):
    # each printed only "error: [Errno 2] ..." or "error: [Errno 21] ..."
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "input.json").write_text('{"input": "nope.csv"}')
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: [Errno "), err


def test_fit_malformed_column_exit_2(tmp_path, capsys):
    path = tmp_path / "sales.csv"
    write_lines(path, "sales", ["3", "oops"])
    assert run_cli("fit", "--input", path) == 2
    assert "not an integer" in capsys.readouterr().err


def test_fit_missing_sales_column_exit_2(tmp_path):
    path = tmp_path / "other.csv"
    write_lines(path, "value", ["3", "4"])
    assert run_cli("fit", "--input", path) == 2


# ---------------------------------------------------------------------------
# turnover

def chart_rows(lists):
    return [f"{period},{pid}" for period, ids in enumerate(lists) for pid in ids]


def test_turnover_full_replacement(tmp_path, capsys):
    lists = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    path = tmp_path / "chart.csv"
    write_lines(path, "period,product_id", chart_rows(lists))
    assert run_cli("turnover", "--input", path, "--y", 3) == 0
    payload = read_json(capsys)
    assert payload["z_bar"] == 3.0
    assert payload["as_fraction"] == 1.0
    assert payload["mu_hat"] == 1.0


def test_turnover_static_chart(tmp_path, capsys):
    lists = [[0, 1, 2]] * 5
    path = tmp_path / "chart.csv"
    write_lines(path, "period,product_id", chart_rows(lists))
    assert run_cli("turnover", "--input", path, "--y", 3) == 0
    payload = read_json(capsys)
    assert payload["z_bar"] == 0.0
    assert payload["as_fraction"] == 0.0
    assert payload["mu_hat"] == 0.0


def test_turnover_monthly_chart_fraction(tmp_path, capsys):
    # 25 transitions, 7 with exactly one entrant: z_bar/y = 0.28/5 = 0.056
    lists = [[0, 1, 2, 3, 4]]
    next_id = 5
    for t in range(25):
        current = list(lists[-1])
        if t % 4 == 0:  # 7 change events at t = 0, 4, ..., 24
            current[t % 5] = next_id
            next_id += 1
        lists.append(current)
    path = tmp_path / "chart.csv"
    write_lines(path, "period,product_id", chart_rows(lists))
    assert run_cli("turnover", "--input", path, "--y", 5) == 0
    payload = read_json(capsys)
    assert payload["z_bar"] == pytest.approx(0.28, rel=1e-12)
    assert payload["mu_hat"] == pytest.approx(0.003136, abs=1e-12)


def test_turnover_y_too_large_exit_2(tmp_path, capsys):
    path = tmp_path / "chart.csv"
    write_lines(path, "period,product_id", ["0,1", "0,2", "1,1", "1,2", "1,3"])
    assert run_cli("turnover", "--input", path, "--y", 3) == 2
    assert "--y" in capsys.readouterr().err


def test_turnover_y_below_one_exit_2(tmp_path, capsys):
    path = tmp_path / "chart.csv"
    write_lines(path, "period,product_id", ["0,1", "0,2", "1,1", "1,2"])
    assert run_cli("turnover", "--input", path, "--y", 0) == 2
    assert capsys.readouterr().err == "error: --y: y must be >= 1, got 0\n"


def test_turnover_single_period_exit_4(tmp_path):
    path = tmp_path / "chart.csv"
    write_lines(path, "period,product_id", ["0,1", "0,2"])
    assert run_cli("turnover", "--input", path, "--y", 2) == 4


# ---------------------------------------------------------------------------
# fit and turnover: reader messages

@pytest.mark.parametrize(
    "command,text,line",
    [
        # a blank line: fit reported line 3, counting records
        (["fit"], "product_id,sales\n0,5\n\n1,x\n", 4),
        (["turnover", "--y", 1], "period,product_id\n0,1\n\n1,2\n", 3),
        # a quoted line break: both reported line 3
        (["fit"], 'product_id,sales\n"a\nb",5\n1,x\n', 4),
        (["turnover", "--y", 1], 'period,product_id\n"0\n",1\n0,x\n', 4),
    ],
    ids=["fit-blank", "turnover-blank", "fit-quoted", "turnover-quoted"],
)
def test_reader_errors_name_the_physical_line(tmp_path, capsys, command, text, line):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    assert run_cli(*command, "--input", path) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


@pytest.mark.parametrize("command", [["fit"], ["turnover", "--y", 1]], ids=["fit", "turnover"])
@pytest.mark.parametrize(
    "content,prefix",
    [
        # _csv.Error tracebacks, exit 1
        (b"period,product_id,sales\n0,1," + b"9" * 131_073 + b"\n", "{path}:2: field larger than field limit"),
        # exited 2 with a message naming no file
        (b"period,product_id,sales\n0,1,\xff\n", "{path}: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["long-field", "undecodable"],
)
def test_unreadable_csv_exits_2_naming_the_file(tmp_path, capsys, command, content, prefix):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    assert run_cli(*command, "--input", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix.format(path=path)), err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# optimize

def test_optimize_reports_both_optima_with_note(capsys):
    assert run_cli("optimize", "--A", 10, "--B", 1, "--mu", 0.25, "--alpha", 3.5) == 0
    payload = read_json(capsys)
    assert payload["y_bruteforce"] == 2
    assert payload["y_closed_form_floor"] == 1
    assert payload["y_closed_form"] == pytest.approx(20 ** (1 / 4.5), rel=1e-12)
    assert payload["note"]  # the two optima differ here
    assert payload["capped"] is False


def test_optimize_no_note_when_optima_agree(capsys):
    # A/(B*sqrt(mu)) = 1.8: closed form 1.8^(1/4.5) and argmax both land on 1
    assert run_cli("optimize", "--A", 1.8, "--B", 1, "--mu", 1.0, "--alpha", 3.5) == 0
    payload = read_json(capsys)
    assert payload["y_bruteforce"] == payload["y_closed_form_floor"] == 1
    assert payload["note"] is None


def test_optimize_reports_a_capped_answer_on_stdout_and_in_one_stderr_line(capsys):
    # a script reads a capped answer from the JSON's "capped" field, a person from one
    # stderr line that names the flag; the library adds no warning beside them
    assert run_cli("optimize", "--A", 1000, "--B", 0.01, "--mu", 0.01, "--alpha", 1.5, "--y-max", 50) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["capped"] is True
    assert payload["y_bruteforce"] == 50
    assert captured.err == "warning: --y-max: objective still increasing at y_max=50; result is capped\n"


def test_optimize_refuses_a_scan_past_the_bound_at_once(capsys):
    # the objective still rises at y_max = 10^12: the scan ran for hours; it is
    # refused before the "still increasing" line
    started = time.monotonic()
    assert run_cli("optimize", "--A", 1e12, "--B", 1, "--mu", 0.01, "--alpha", 1, "--y-max", 10**12) == 2
    assert time.monotonic() - started < 1
    assert capsys.readouterr().err.startswith("error: --y-max: y_max 1000000000000 ")


def test_a_patched_numeric_name_survives_the_first_dispatch(monkeypatch, capsys):
    # perfbench's tracer and the tests replace cli's numeric names before the handler binds them
    stub = InventoryResult(y_closed_form=0.5, y_closed_form_floor=0, y_bruteforce=7, objective_at_optimum=1.5,
                           capped=False)
    monkeypatch.setattr(cli, "bruteforce_stock", lambda params: stub)
    assert run_cli("optimize", "--A", 10, "--B", 1, "--mu", 0.25) == 0
    assert read_json(capsys) == asdict(stub)


# ---------------------------------------------------------------------------
# reproduce

def test_reproduce_inventory_curves(tmp_path):
    out = tmp_path / "curves"
    assert run_cli("reproduce", "--figure", "3", "--out-dir", out, "--ab-ratios", "10,100") == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"inventory_curves.csv", "inventory_curves.svg", "manifest.json"}

    with (out / "inventory_curves.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    by_ratio = {}
    for row in rows:
        by_ratio.setdefault(float(row["ab_ratio"]), []).append((float(row["mu"]), float(row["y_value"])))
    assert set(by_ratio) == {10.0, 100.0}
    for curve in by_ratio.values():
        values = [y for _, y in sorted(curve)]
        assert values == sorted(values, reverse=True)  # y decreases with mu

    svg = (out / "inventory_curves.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "A/B = 10" in svg and "A/B = 100" in svg


def test_reproduce_inventory_curves_plot_a_subnormal_mu(tmp_path):
    # the lowest decade, 1e-324, underflows as a float; it exited 2 with "math domain error"
    out = tmp_path / "curves"
    assert run_cli("reproduce", "--figure", 3, "--mu-grid", "5e-324,0.1", "--out-dir", out) == 0
    svg = (out / "inventory_curves.svg").read_text()
    assert ">1e-324</text>" in svg


def test_reproduce_sales_distribution_conserves_products(tmp_path):
    out = tmp_path / "dist"
    assert run_cli(
        "reproduce", "--figure", "2left", "--out-dir", out, "--seed", 2,
        "--targets", "0.5,2", "--n", 100, "--steps", 150, "--runs", 2,
    ) == 0
    with (out / "sales_histogram.csv").open() as fh:
        hist_rows = list(csv.DictReader(fh))
    with (out / "sales_samples.csv").open() as fh:
        sample_rows = list(csv.DictReader(fh))
    fits = json.loads((out / "exponent_fits.json").read_text())

    for target in fits:
        mass = sum(int(r["count"]) for r in hist_rows if float(r["n_mu"]) == target["n_mu"])
        n_samples = sum(1 for r in sample_rows if float(r["n_mu"]) == target["n_mu"])
        assert mass == n_samples == target["total_products"]

    flagged = {t["n_mu"]: t for t in fits}
    assert flagged[0.5]["winner_take_all"] and flagged[0.5]["fit"] is None
    assert not flagged[2.0]["winner_take_all"] and flagged[2.0]["fit"]["alpha"] > 1
    assert (out / "sales_distribution.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", 10, "--mu", 0.1, "--steps", 5],
        ["reproduce", "--figure", "2left", "--targets", "2", "--n", 20, "--steps", 5, "--runs", 1],
        ["reproduce", "--figure", "2right", "--n-grid", "20,40", "--mu-grid", "0.05,0.1", "--steps", 5, "--runs", 1],
        ["reproduce", "--figure", "3"],
    ],
)
def test_unwritable_out_dir_is_refused_before_the_compute(tmp_path, capsys, monkeypatch, argv):
    def no_compute(*args, **kwargs):
        raise AssertionError("the compute ran before --out-dir was checked")

    for name in ("run", "run_turnover_sweep", "run_sales_distribution", "inventory_curve"):
        monkeypatch.setattr(cli, name, no_compute)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(*argv, "--out-dir", blocker / "sub" / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out-dir: {blocker} is not a writable directory"), err
    assert blocker.read_text() == "not a directory"


SWEEP_WITHOUT_TURNOVER = ["reproduce", "--figure", "2right", "--n-grid", 3, "--mu-grid", "0.001,0.002,0.003",
                          "--steps", 2, "--runs", 1]
# at mu = 1 every product sells exactly once, so the N*mu = 10 target has no exponent to fit
TARGET_WITHOUT_FIT = ["reproduce", "--figure", "2left", "--n", 10, "--targets", "2,10", "--steps", 2, "--runs", 1]


def test_reproduce_cell_without_turnover_exits_4_naming_it(tmp_path, capsys):
    # the sweep exited 2 with an unflagged "all mu and z_bar values must be
    # positive"; the target, 4 with "all samples equal s_min" naming nothing
    for argv, message in (
        (SWEEP_WITHOUT_TURNOVER, "no list turnover in the cell N=3, mu=0.001 "),
        (TARGET_WITHOUT_FIT, "no exponent fit for the target N*mu=10 (mu=1.0) over 1 run(s) of 2 steps: all samples"),
    ):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", out) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err
        assert not out.exists()


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "longtail" in capsys.readouterr().out


def _probe(script, **env):
    """Run script in a fresh interpreter that imports longtail from this checkout; its stdout.

    ``env`` overrides variables of the current environment."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src), **env},
        capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.parametrize(
    "argv,status", [(["fit", "--input", "absent.csv"], 3), ([*TARGET_WITHOUT_FIT, "--out-dir", "out"], 4)]
)
def test_a_shell_sees_the_exit_status(tmp_path, argv, status):
    src = Path(cli.__file__).resolve().parents[1]
    finished = subprocess.run(
        [sys.executable, "-m", "longtail.cli", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True, text=True,
    )
    assert finished.returncode == status, finished.stderr
    assert not (tmp_path / "out").exists()


def test_importing_and_rejecting_argv_load_no_numpy():
    # numpy took half of the import time of the CLI, and the file I/O, plotting,
    # dataclasses and platform most of the rest; only a command that computes
    # needs them, and a command loads only the modules it calls. A serial call
    # never needs the process pool either: importing multiprocessing cost about 2 MB
    script = """
import contextlib, io, sys
DEFERRED = ('numpy', 'dataclasses', 'platform', 'csv', 'longtail.chartdata', 'longtail.svgplot',
            'multiprocessing', 'concurrent.futures.process')
def loaded():
    return [m for m in DEFERRED if m in sys.modules]
import longtail
seen = [loaded()]
import longtail.cli as cli
seen.append(loaded())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (['--version'], ['--help'], ['simulate', '--n', 'x'], ['simulate', '--n', '10']):
        seen.append((cli.main(argv), loaded()))
    seen.append((cli.main(['optimize', '--A', '10', '--B', '1', '--mu', '0.25']), 'numpy' in sys.modules))
print(seen)
print(sorted(m for m in sys.modules if m.startswith('longtail.') or m == 'decimal'))
"""
    assert _probe(script).splitlines() == [
        # argparse refuses --n x; the flag table refuses the missing --mu, --steps and --out-dir
        "[[], [], (0, []), (0, []), (2, []), (2, []), (0, True)]",
        "['longtail.cli', 'longtail.defaults', 'longtail.inventory']",
    ]


def test_turnover_loads_no_decimal(tmp_path):
    # calibrate_mu squared its fraction through decimal, about 0.3 MB of RSS
    path = tmp_path / "chart.csv"
    write_lines(path, "period,product_id", chart_rows([[1, 2], [2, 3], [3, 4]]))
    script = f"""
import contextlib, io, sys
import longtail.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(['turnover', '--input', {str(path)!r}, '--y', '2'])
print(code, 'decimal' in sys.modules)
"""
    assert _probe(script) == "0 False\n"


@pytest.mark.parametrize(
    "argv,first",
    [
        (["simulate", "--n", "10", "--mu", "0.1", "--steps", "5"], ["dataclasses", "longtail.chartdata"]),
        (["reproduce", "--figure", "3"], ["dataclasses", "longtail.chartdata", "longtail.svgplot"]),
    ],
    ids=["simulate", "reproduce"],
)
def test_a_writing_command_loads_its_io_and_plotting_before_numpy(tmp_path, argv, first):
    # peak RSS rests on the load order: importing three standard modules before
    # numpy instead of after moved the VmHWM of a sweep by 0.13 MB
    script = f"""
import sys
import longtail.cli as cli
assert cli.main({argv + ["--out-dir", str(tmp_path / "out")]!r}) == 0
order = list(sys.modules)
print([m for m in {first!r} if order.index(m) > order.index('numpy')])
"""
    assert _probe(script) == "[]\n"


# every name perfbench's tracer wraps on cli, and the module that defines it
CLI_TRACED = {
    "run": "longtail.model",
    "turnover": "longtail.analysis",
    "fit_alpha": "longtail.analysis",
    "run_turnover_sweep": "longtail.experiments",
    "bruteforce_stock": "longtail.inventory",
    "load_chart": "longtail.chartdata",
    "loglog_svg": "longtail.svgplot",
}


def test_a_numeric_name_resolves_on_the_cli_before_any_dispatch():
    # the path perfbench's tracer takes: getattr on the freshly imported module
    spec = importlib.util.spec_from_file_location("tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {attr for bindings in tracing.SITES.values() for module, attr in bindings if module == "cli"}
    assert traced == {*CLI_TRACED, "main"}
    script = f"""
import importlib
import longtail.cli as cli
for name, module in {CLI_TRACED!r}.items():
    value = getattr(cli, name)
    print(name, value is getattr(importlib.import_module(module), name))
"""
    assert _probe(script).splitlines() == [f"{name} True" for name in CLI_TRACED]


def test_a_traced_plot_survives_the_first_reproduce(tmp_path):
    # the tracer wraps cli.loglog_svg before any dispatch; reproduce must call the wrapper
    script = f"""
import longtail.cli as cli
plot = getattr(cli, 'loglog_svg')
calls = []
cli.loglog_svg = lambda *args, **kwargs: calls.append(1) or plot(*args, **kwargs)
print(cli.main(['reproduce', '--figure', '3', '--out-dir', {str(tmp_path / "out")!r}]), len(calls))
"""
    assert _probe(script) == "0 1\n"
    assert (tmp_path / "out" / "inventory_curves.svg").read_text().startswith("<svg")


# ---------------------------------------------------------------------------
# config file precedence

def test_config_file_supplies_required_values(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n": 80, "mu": 0.05, "steps": 20, "out-dir": str(tmp_path / "out")}))
    assert run_cli("simulate", "--config", config) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["n_agents"] == 80
    assert manifest["config"]["mu"] == 0.05


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n": 80, "mu": 0.05, "steps": 20}))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", config, "--mu", 0.5, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mu"] == 0.5  # flag wins over config
    assert manifest["config"]["n_agents"] == 80  # config wins over built-ins


def test_config_unknown_key_exit_2(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"agents": 80}))
    assert run_cli("simulate", "--config", config) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,reason",
    [
        (b"[1]", " must hold a JSON object"),
        # these three exited 2 naming neither the flag nor the file
        (b'{"n": 10,', ": Expecting property name enclosed in double quotes: line 1 column 10 (char 9)"),
        (b"\xff\xfe", ": 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (
            b'{"n": ' + b"9" * 5001 + b"}",
            ": Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits;"
            " use sys.set_int_max_str_digits() to increase the limit",
        ),
    ],
    ids=["not-an-object", "bad-json", "not-utf8", "too-many-digits"],
)
def test_config_not_an_object_exit_2(tmp_path, capsys, content, reason):
    config = tmp_path / "sim.json"
    config.write_bytes(content)
    assert run_cli("simulate", "--config", config) == 2
    assert capsys.readouterr().err == f"error: --config: {config}{reason}\n"


@pytest.mark.parametrize(
    "keys,flag",
    # both ran, with the value of the last key
    [('"n": 10, "burn-in": 1, "burn_in": 2', "--burn-in"), ('"n": 10, "n": 20', "--n")],
    ids=["dash-and-underscore", "repeated-key"],
)
def test_config_setting_a_flag_twice_exit_2(tmp_path, capsys, monkeypatch, keys, flag):
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("the run started"))
    config = tmp_path / "sim.json"
    config.write_text('{"mu": 0.1, "steps": 5, ' + keys + "}")
    assert run_cli("simulate", "--config", config, "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {flag}: set twice in --config {config}\n"
    assert not (tmp_path / "out").exists()


def test_config_missing_file_exit_3(tmp_path):
    assert run_cli("simulate", "--config", tmp_path / "nope.json") == 3


def test_missing_required_flag_exit_2(capsys):
    assert run_cli("simulate", "--n", 10) == 2
    assert "--mu" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config,flags,expected",
    [
        (
            ["simulate"],
            # string converted by the flag's type; mu: flag over config; x0: config over default
            {"n": "80", "mu": 0.05, "steps": 20, "x0": 40, "burn-in": "2"},
            ["--mu", "0.5"],
            {"n_agents": 80, "mu": 0.5, "steps": 20, "x0": 40, "seed": 0, "burn_in": 2, "y": 5},
        ),
        (
            ["reproduce", "--figure", "2right"],
            # comma string and JSON list both become grids; runs: flag over config
            {"mu-grid": "0.01,0.02,0.05", "n_grid": [60, 120], "steps": 30, "runs": 5, "seed": "4"},
            ["--runs", "2"],
            {"n_grid": [60, 120], "mu_grid": [0.01, 0.02, 0.05], "runs_per_cell": 2, "steps": 30, "y": 5},
        ),
        (
            ["simulate"],
            # a JSON integer for a float flag becomes a float, as the flag's text would
            {"n": 80, "mu": 1, "steps": 20},
            [],
            {"n_agents": 80, "mu": 1.0, "steps": 20, "x0": 80, "seed": 0, "burn_in": 0, "y": 5},
        ),
    ],
)
def test_config_values_are_typed_and_ranked(tmp_path, command, config, flags, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "out-dir": str(tmp_path / "out")}))
    assert run_cli(*command, "--config", path, *flags) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # compared as JSON text, so 80 and "80" or 2 and 2.0 differ
    assert json.dumps(manifest["config"], sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert manifest["seed"] == int(config.get("seed", 0))


# valid base commands; the flag appended last overrides the base value
SIM_ARGS = ["simulate", "--n", 10, "--mu", 0.1, "--steps", 5]
OPT_ARGS = ["optimize", "--A", 1, "--B", 1, "--mu", 0.1]
LEFT_ARGS = ["reproduce", "--figure", "2left", "--targets", "2", "--n", 20, "--steps", 5, "--runs", 1]
RIGHT_ARGS = ["reproduce", "--figure", "2right", "--n-grid", "20,40", "--mu-grid", "0.05,0.1", "--steps", 5, "--runs", 1]
CURVE_ARGS = ["reproduce", "--figure", "3"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (SIM_ARGS + ["--n", 0], "--n"),
        (SIM_ARGS + ["--mu", 1.5], "--mu"),
        (SIM_ARGS + ["--mu", "nan"], "--mu"),
        (SIM_ARGS + ["--steps", 0], "--steps"),
        (SIM_ARGS + ["--x0", 11], "--x0"),
        (SIM_ARGS + ["--seed", -1], "--seed"),
        (SIM_ARGS + ["--burn-in", 5], "--burn-in"),
        (SIM_ARGS + ["--y", 0], "--y"),
        (OPT_ARGS + ["--A", -1], "--A"),
        (OPT_ARGS + ["--A", "inf"], "--A"),
        (OPT_ARGS + ["--B", 0], "--B"),
        (OPT_ARGS + ["--B", "nan"], "--B"),
        (OPT_ARGS + ["--mu", 0], "--mu"),
        (OPT_ARGS + ["--alpha", 0], "--alpha"),
        (OPT_ARGS + ["--alpha", "nan"], "--alpha"),
        (OPT_ARGS + ["--y-max", 0], "--y-max"),
        (["reproduce", "--figure", "4"], "--figure"),
        (LEFT_ARGS + ["--n", 0], "--n"),
        (LEFT_ARGS + ["--runs", 0], "--runs"),
        (LEFT_ARGS + ["--steps", 0], "--steps"),
        (LEFT_ARGS + ["--targets", "2,200"], "--targets"),
        (LEFT_ARGS + ["--seed", -1], "--seed"),
        (RIGHT_ARGS + ["--mu-grid", "0.01"], "--mu-grid"),
        (RIGHT_ARGS + ["--mu-grid", "0,0.01"], "--mu-grid"),
        (RIGHT_ARGS + ["--n-grid", "20,0"], "--n-grid"),
        (RIGHT_ARGS + ["--n-grid", "20"], "--n-grid"),
        (RIGHT_ARGS + ["--runs", 0], "--runs"),
        (RIGHT_ARGS + ["--steps", 0], "--steps"),
        (RIGHT_ARGS + ["--y", 0], "--y"),
        (CURVE_ARGS + ["--alpha", -1], "--alpha"),
        (CURVE_ARGS + ["--alpha", "nan"], "--alpha"),
        (CURVE_ARGS + ["--mu-grid", "0.1,2"], "--mu-grid"),
        (CURVE_ARGS + ["--mu-grid", "0,0.1"], "--mu-grid"),
        (CURVE_ARGS + ["--ab-ratios", "-10"], "--ab-ratios"),
        (RIGHT_ARGS + ["--workers", 0], "--workers"),
        (RIGHT_ARGS + ["--workers", -3], "--workers"),
        # the objective overflows float64 at y = 2; it printed y 2 and a NaN objective
        (OPT_ARGS + ["--A", 1.7e308, "--B", 1.7e308, "--mu", 1, "--alpha", 0.1], "--B"),
        (OPT_ARGS + ["--A", 1.7e308, "--mu", 1, "--alpha", 0.1, "--y-max", 10], "--A"),
        # a zero ratio stocks nothing; it failed in the plot, after the compute, unflagged
        (CURVE_ARGS + ["--ab-ratios", "0"], "--ab-ratios"),
        (CURVE_ARGS + ["--ab-ratios", "10,-0.0"], "--ab-ratios"),
        # the y*sqrt(mu) reference line raised OverflowError after the sweep
        (RIGHT_ARGS + ["--y", 10**400], "--y"),
        # a non-finite s_min exited 4 with the unflagged "need at least 2 samples"
        (["fit", "--s-min", "nan"], "--s-min"),
        (["fit", "--s-min", "inf"], "--s-min"),
        # numpy refused the cumulative-sales buffer: a MemoryError traceback at
        # 355 PiB and 14 PiB, an unflagged "Maximum allowed dimension exceeded"
        # past 2**63 bytes; both sizes fail at once, without touching memory
        (SIM_ARGS + ["--n", 1000, "--mu", 0.5, "--steps", 10**14], "--steps"),
        (SIM_ARGS + ["--n", 1000, "--mu", 0.5, "--steps", 10**17], "--steps"),
        (LEFT_ARGS + ["--steps", 10**15], "--steps"),
        # a repeated grid value ran and drew (or pooled) the same cells twice, and exited 0
        (CURVE_ARGS + ["--ab-ratios", "10,10", "--mu-grid", "0.01,0.1"], "--ab-ratios"),
        (CURVE_ARGS + ["--mu-grid", "0.01,0.1,0.01"], "--mu-grid"),
        (RIGHT_ARGS + ["--mu-grid", "0.05,0.05,0.1", "--n-grid", 50], "--mu-grid"),
        (RIGHT_ARGS + ["--n-grid", "20,40,20"], "--n-grid"),
        (LEFT_ARGS + ["--targets", "2,0.5,2"], "--targets"),
        # an N whose arrays numpy refused: a MemoryError traceback from a step's
        # owner table or from the first state, or an error naming --steps for
        # a buffer that N alone made too large; each asks for 8e15 bytes, past
        # the 2**47-byte user address space, so it fails at once on any host
        (SIM_ARGS + ["--n", 10**15, "--x0", 1, "--mu", 0, "--steps", 1], "--n"),
        (SIM_ARGS + ["--n", 10**15, "--mu", 0, "--steps", 1], "--n"),
        (LEFT_ARGS + ["--n", 10**15, "--targets", 2, "--steps", 1], "--n"),
        (RIGHT_ARGS + ["--n-grid", f"{10**15},{2 * 10**15}", "--mu-grid", "0.01,0.02", "--steps", 1], "--n-grid"),
        # the buffer grows with both N and steps: 2 steps of an N this large still name --n
        (SIM_ARGS + ["--n", 10**15, "--mu", 1, "--steps", 2], "--n"),
        # an N past what numpy can address: an OverflowError traceback from the
        # first state's fill value, and the unflagged "array is too big" and
        # "Maximum allowed size exceeded"; numpy refused them before allocating
        (SIM_ARGS + ["--n", 10**19, "--x0", 1, "--mu", 0, "--steps", 1], "--n"),
        (SIM_ARGS + ["--n", 2**62, "--x0", 1, "--mu", 0, "--steps", 1], "--n"),
        (RIGHT_ARGS + ["--n-grid", f"{10**19},{2 * 10**19}", "--mu-grid", "0.01,0.02", "--steps", 1], "--n-grid"),
    ],
)
def test_bad_value_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    extra = ["--out-dir", out] if argv[0] != "optimize" else []
    if argv[0] == "fit":  # fit reads an input file and writes no directory
        extra = ["--input", tmp_path / "sales.csv"]
        write_lines(extra[1], "sales", ["1", "2", "3"])
    assert run_cli(*argv, *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: "), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,config,flag",
    [
        (["simulate"], {"n": 1.5}, "--n"),
        (["simulate"], {"n": True}, "--n"),
        (["simulate"], {"n": [10]}, "--n"),
        (["simulate"], {"mu": [0.1]}, "--mu"),
        (["simulate"], {"mu": True}, "--mu"),
        (["simulate"], {"mu": {"value": 0.1}}, "--mu"),
        (["simulate"], {"mu": 10**400}, "--mu"),  # an integer past every float
        (["simulate"], {"seed": 1e3}, "--seed"),
        (["simulate"], {"steps": "1.5"}, "--steps"),
        (["simulate"], {"out-dir": 7}, "--out-dir"),
        (["reproduce"], {"figure": 3}, "--figure"),
        (["reproduce", "--figure", "2right"], {"n-grid": 60}, "--n-grid"),
        (["reproduce", "--figure", "2right"], {"n-grid": [60, 1.5]}, "--n-grid"),
        (["reproduce", "--figure", "2right"], {"n-grid": [60, False]}, "--n-grid"),
        (["reproduce", "--figure", "2right"], {"mu-grid": [0.01, "0.02"]}, "--mu-grid"),
        (["reproduce", "--figure", "2right"], {"mu-grid": 0.01}, "--mu-grid"),
        (["reproduce", "--figure", "2left"], {"targets": [[2]]}, "--targets"),
        (["reproduce", "--figure", "2right"], {"workers": 2.0}, "--workers"),
        (["reproduce", "--figure", "3"], {"ab-ratios": []}, "--ab-ratios"),
        (["reproduce", "--figure", "3"], {"mu-grid": []}, "--mu-grid"),
        (["reproduce", "--figure", "2left"], {"targets": []}, "--targets"),
        (["reproduce", "--figure", "2right"], {"mu-grid": []}, "--mu-grid"),
        (["reproduce", "--figure", "2right"], {"n-grid": []}, "--n-grid"),
    ],
)
def test_config_value_of_the_wrong_type_exits_2_naming_the_flag(tmp_path, capsys, argv, config, flag):
    out = tmp_path / "out"
    valid = {"out-dir": str(out), **({"n": 10, "mu": 0.1, "steps": 5} if argv == ["simulate"] else {})}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**valid, **config}))
    assert run_cli(*argv, "--config", path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: invalid value "), err
    assert err.rstrip().endswith(" in --config"), err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzz: arbitrary flag values and --config contents

# flags that set how much work a valid call does, with their largest value
# (of each element, for --n-grid)
BOUNDED = {"--n": 200, "--steps": 20, "--y-max": 10**4, "--runs": 2, "--n-grid": 200}
# comma-separated flags; a drawn value holds at most 3 elements
LIST_FLAGS = ("--n-grid", "--mu-grid", "--targets", "--ab-ratios")
# no decimal digit in free text, so no string parses as a large bounded value
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
# reproduce's work-sizing flags, passed first with these small values unless
# the drawn --config sets them; a drawn flag value follows and wins
REPRODUCE_SIZES = {
    "--steps": "5", "--runs": "1", "--n": "50", "--n-grid": "20,40",
    "--mu-grid": "0.05,0.1", "--targets": "1,2", "--ab-ratios": "10,100",
}
# set by the fuzz itself: paths stay in the temporary directory and the
# sweep runs in-process (--workers is left at its default of 1)
NOT_DRAWN = ("--out-dir", "--input", "--workers")


# valid values of the required flags (a string, or a strategy to draw it
# from), so that drawn values also reach the library
VALID_BASE = {
    "simulate": ["--n", "50", "--mu", "0.1", "--steps", "5"],
    "optimize": ["--A", "10", "--B", "1", "--mu", "0.25"],
    "fit": [],
    "turnover": ["--y", "2"],
    "reproduce": ["--figure", st.sampled_from(sorted(cli.PRESETS))],
}


def _numbers_and_text(flag):
    # small numbers are often valid values; the rest mostly are not
    ints = st.integers(max_value=BOUNDED[flag]) if flag in BOUNDED else st.integers()
    numbers = ints | st.integers(0, 20) | st.floats() | st.floats(0, 1)
    text = NO_DIGITS if flag in BOUNDED else st.text(max_size=6)
    if flag == "--figure":
        text = st.sampled_from(sorted(cli.PRESETS)) | text
    return numbers, text


def _any_text(flag):
    numbers, text = _numbers_and_text(flag)
    if flag in LIST_FLAGS:
        return st.lists(numbers.map(repr), min_size=1, max_size=3).map(",".join) | text
    return numbers.map(repr) | text


def _any_json(flag):
    numbers, text = _numbers_and_text(flag)
    scalar = st.none() | st.booleans() | numbers | text
    return scalar | st.lists(scalar, max_size=3)


@st.composite
def fuzz_calls(draw):
    name = draw(st.sampled_from(sorted(VALID_BASE)))
    flags = [f.name for f in COMMANDS[name].flags if f.name not in NOT_DRAWN]
    argv = [name]
    if draw(st.booleans()):
        argv += [v if isinstance(v, str) else draw(v) for v in VALID_BASE[name]]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)):
        argv += [flag, draw(_any_text(flag))]  # the last value of a flag wins
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(flags), unique=True))
        config = {key.lstrip("-"): draw(_any_json(key)) for key in keys}
    if name == "reproduce":
        sizes = [f for flag, value in REPRODUCE_SIZES.items() if flag.lstrip("-") not in (config or {})
                 for f in (flag, value)]
        argv = argv[:1] + sizes + argv[1:]
    return argv, config, draw(st.sampled_from(["sales.csv", "chart.csv", "missing.csv"]))


@pytest.mark.filterwarnings("ignore")  # float overflow warns; that is not a crash
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=fuzz_calls())
def test_cli_never_crashes_on_arbitrary_values(call):
    argv, config, input_name = call
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_lines(tmp / "sales.csv", "sales", ["1", "2", "3", "5", "8", "13"])
        write_lines(tmp / "chart.csv", "period,product_id", chart_rows([[0, 1, 2], [1, 3, 2], [3, 4, 1]]))
        if argv[0] in ("simulate", "reproduce"):
            argv = argv + ["--out-dir", str(tmp / "out")]
        elif argv[0] in ("fit", "turnover"):
            argv = argv + ["--input", str(tmp / input_name)]
        if config is not None:
            (tmp / "config.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp / "config.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
