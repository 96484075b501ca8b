"""Command-line interface: simulate, fit, turnover, optimize, reproduce.

Every file is read and written by ``chartdata``, whose ``SCHEMAS`` table
holds each CSV file's versioned header (see also the README). Handlers only
compute; ``main`` prints their JSON or writes their files, with a
manifest.json echoing the resolved configuration, seed and tool version
needed to reproduce the outputs bit-exactly.

Every command and flag is declared once, in COMMANDS; that table builds the
argument parser, resolves values (built-in default, then --config, then the
flag), checks required flags and names the flag behind a library field in
validation errors.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import InsufficientDataError, __version__
from .defaults import DEFAULT_AB_RATIOS, DEFAULT_MU_GRID, DEFAULT_N_GRID, DEFAULT_NMU_TARGETS

# Parsing argv needs only the standard modules above, so nothing else is
# imported at module level. The numeric modules (analysis, experiments,
# inventory, model) import numpy, and the file I/O (chartdata, with csv), the
# plotting (svgplot) and dataclasses.asdict (with inspect) took most of the
# rest of this module's import time. main binds asdict and a writing command's
# I/O names, then the handler its plotting and numeric names (_bind), in that
# order. So --help, --version and rejected argv load none of them, and a
# command loads only the modules it calls. __getattr__ resolves the names
# below and the package's public names, so that a tracer or a test can
# replace cli.run, cli.load_chart and the like first.
LAZY = {
    **dict.fromkeys(("SCHEMAS", "load_chart", "read_sales_column", "write_files"), "longtail.chartdata"),
    **dict.fromkeys(("Series", "loglog_svg"), "longtail.svgplot"),
    "asdict": "dataclasses",
}


def __getattr__(name):
    module = importlib.import_module(LAZY.get(name, __package__))
    if name not in LAZY and name not in module.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


def _bind(*names: str) -> None:
    """Bind each name that is not bound yet; a patched or traced binding stays."""
    for name in names:
        if name not in globals():
            __getattr__(name)


def _write_outputs(out_dir: Path, command: str, config: dict, seed, files: dict, started: float) -> None:
    """Write the files (see ``chartdata.write_files``), then manifest.json, the completion marker."""
    import platform  # here, not at module level: only a manifest needs it
    import numpy  # here, not at module level: importing the CLI loads no numpy

    computed = time.monotonic()
    (out_dir / "manifest.json").unlink(missing_ok=True)  # a failed rerun must not look complete
    write_files(out_dir, files)
    written = time.monotonic()
    manifest = {
        "tool": "longtail",
        "version": __version__,
        # trajectories are bit-exact only under the same PCG64 and Generator.integers streams
        "numpy_version": numpy.__version__,
        "python_version": platform.python_version(),
        "command": command,
        "config": config,
        "seed": seed,
        "outputs": sorted(files),
        "schemas": {name: SCHEMAS[name] for name in sorted(files) if name in SCHEMAS},
        "duration_seconds": written - started,
        "timings": {"compute_s": computed - started, "write_s": written - computed},
    }
    write_files(out_dir, {"manifest.json": manifest})


def _check_out_dir(out_dir: Path) -> None:
    """Raise OSError naming --out-dir, before any compute, when out_dir cannot be written.

    The nearest existing ancestor of out_dir (out_dir itself if it exists)
    must be a directory this process may write into.
    """
    ancestor = out_dir.absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise OSError(f"--out-dir: {ancestor} is not a writable directory, so {out_dir} cannot be written")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


LIST_ITEM = {_int_list: int, _float_list: float}  # element type of each list-typed flag
JSON_TYPES = {int: int, float: (int, float), str: str}  # JSON values a scalar flag type accepts


def _from_json(kind: type, value):
    """A JSON scalar converted by ``kind`` (int, float or str); ValueError for any other JSON type."""
    if isinstance(value, bool) or not isinstance(value, JSON_TYPES[kind]):
        raise ValueError
    return kind(value)


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(a) -> tuple:
    _bind("SimConfig", "run", "turnover")
    config = SimConfig(n_agents=a.n, mu=a.mu, steps=a.steps, x0=a.x0, seed=a.seed, burn_in=a.burn_in)
    cumulative, lists = run(config, y=a.y)
    stats = turnover(lists)
    return "simulate", {**asdict(config), "y": a.y}, config.seed, {  # (command, config, seed, files)
        "cumulative_sales.csv": enumerate(cumulative.tolist()),
        "top_products.csv": ((period, pid) for period, ids in enumerate(lists) for pid in ids),
        "turnover.csv": enumerate(stats.z_per_period, start=1),
    }


# ---------------------------------------------------------------------------
# fit

def cmd_fit(a) -> dict:
    _bind("read_sales_column", "fit_alpha")
    return asdict(fit_alpha(read_sales_column(Path(a.input)), s_min=a.s_min))


# ---------------------------------------------------------------------------
# turnover

def cmd_turnover(a) -> dict:
    _bind("load_chart", "turnover", "calibrate_mu")
    lists = load_chart(Path(a.input))
    if a.y < 1:
        raise ValueError(f"y must be >= 1, got {a.y}")
    shortest = min(len(l) for l in lists)
    if a.y > shortest:
        raise ValueError(f"y {a.y} exceeds the shortest per-period list length ({shortest})")
    stats = turnover([l[: a.y] for l in lists])
    fraction = stats.z_bar / a.y  # a.y <= shortest < 2**53: the correctly rounded quotient
    return {**asdict(stats), "as_fraction": fraction, "mu_hat": calibrate_mu(fraction)}


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(a) -> dict:
    _bind("InventoryParams", "bruteforce_stock")
    params = InventoryParams(profit_per_item=a.A, turnover_cost=a.B, mu=a.mu, alpha=a.alpha, y_max=a.y_max)
    result = bruteforce_stock(params)
    if result.capped:
        print(f"warning: --y-max: objective still increasing at y_max={a.y_max}; result is capped",
              file=sys.stderr)
    return asdict(result)


# ---------------------------------------------------------------------------
# reproduce: each preset states its config once, passes it to the library
# and returns it for the manifest with the files to write, so a failure
# while computing leaves no output directory

def _sales_distribution(a):
    _bind("run_sales_distribution")
    config = {"targets": a.targets, "n_agents": a.n, "steps": a.steps, "replicates": a.runs}
    results = run_sales_distribution(**config, master_seed=a.seed)
    plot_series = []
    for r in results:
        points = [
            (math.sqrt(lo * hi), count / ((hi - lo) * len(r.samples)))
            for lo, hi, count in r.histogram
            if count > 0
        ]
        label = f"N*mu = {r.n_mu:g}" + (" (winner-take-all)" if r.winner_take_all else "")
        plot_series.append(Series(label=label, x=[p[0] for p in points], y=[p[1] for p in points], line=True))
    return config, {
        "sales_histogram.csv": ((r.n_mu, r.mu, lo, hi, count) for r in results for lo, hi, count in r.histogram),
        "sales_samples.csv": ((r.n_mu, int(s)) for r in results for s in r.samples),
        "exponent_fits.json": [
            {
                "n_mu": r.n_mu,
                "mu": r.mu,
                "total_products": len(r.samples),
                "winner_take_all": r.winner_take_all,
                "fit": None if r.fit is None else asdict(r.fit),
            }
            for r in results
        ],
        "sales_distribution.svg": loglog_svg(
            plot_series,
            title="Cumulative sales distribution",
            x_label="cumulative sales S",
            y_label="P(S)",
        ),
    }


def _turnover_sweep(a):
    _bind("SweepSpec", "run_turnover_sweep", "per_mu_stats", "expected_turnover")
    mu_grid = DEFAULT_MU_GRID if a.mu_grid is None else a.mu_grid
    config = {"n_grid": a.n_grid, "mu_grid": mu_grid, "runs_per_cell": a.runs, "steps": a.steps, "y": a.y}
    cells, fit = run_turnover_sweep(SweepSpec(**config, master_seed=a.seed), workers=a.workers)
    fit_x = [min(mu_grid), max(mu_grid)]
    fit_y = [math.exp(fit.intercept + fit.slope * math.log(m)) for m in fit_x]
    reference_y = [expected_turnover(a.y, m) for m in fit_x]
    svg = loglog_svg(
        [
            Series(label="measured cells", x=[c.mu for c in cells], y=[c.z_bar for c in cells]),
            Series(label=f"fit slope {fit.slope:.3f}", x=fit_x, y=fit_y, marker=False, line=True),
            Series(label="y*sqrt(mu)", x=fit_x, y=reference_y, marker=False, line=True),
        ],
        title=f"Top-{a.y} turnover vs innovation fraction",
        x_label="innovation fraction mu",
        y_label="mean turnover z_bar (items/period)",
    )
    return config, {
        "turnover_sweep.csv": ((c.n_agents, c.mu, c.z_bar, c.z_std) for c in cells),
        "turnover_by_mu.csv": per_mu_stats(cells),
        "turnover_fit.json": asdict(fit),
        "turnover_sweep.svg": svg,
    }


def _inventory_curves(a):
    _bind("inventory_curve")
    import numpy  # here, not at module level: importing the CLI loads no numpy

    # the default grid is made here, not on import: its numpy calls add about 0.5 MB to every command's RSS
    mu_grid = tuple(numpy.geomspace(1e-4, 0.5, 25).tolist()) if a.mu_grid is None else a.mu_grid
    config = {"alpha": a.alpha, "ab_ratios": a.ab_ratios, "mu_grid": mu_grid}
    points = inventory_curve(**config)
    series = []
    for ab in a.ab_ratios:
        curve = [p for p in points if p.ab_ratio == ab]
        series.append(Series(label=f"A/B = {ab:g}", x=[p.mu for p in curve], y=[p.y_value for p in curve], line=True))
    return config, {
        "inventory_curves.csv": ((p.ab_ratio, p.mu, p.y_value, p.y_floor) for p in points),
        "inventory_curves.svg": loglog_svg(
            series,
            title="Optimal shelf size vs innovation fraction",
            x_label="innovation fraction mu",
            y_label="optimal shelf size y",
        ),
    }


PRESETS = {"2left": _sales_distribution, "2right": _turnover_sweep, "3": _inventory_curves}


def cmd_reproduce(a) -> tuple:
    if a.figure not in PRESETS:
        raise ValueError(f"figure must be one of {', '.join(PRESETS)}; got {a.figure!r}")
    _bind("Series", "loglog_svg")  # each preset binds its numeric names
    config, files = PRESETS[a.figure](a)
    return f"reproduce {a.figure}", config, a.seed, files


# ---------------------------------------------------------------------------
# the command table

REQUIRED = object()  # default of a flag that must come from the command line or --config


class Flag(NamedTuple):
    name: str
    type: Callable
    default: object
    help: str
    # library fields the value feeds; a ValueError whose message starts with
    # one of them is reported against this flag
    fields: tuple[str, ...] = ()

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    handler: Callable
    help: str
    flags: tuple[Flag, ...]


COMMANDS = {
    "simulate": Command(cmd_simulate, "run one simulation and write its outputs as CSV", (
        Flag("--n", int, REQUIRED, "number of agents", ("n_agents",)),
        Flag("--mu", float, REQUIRED, "innovation fraction in [0, 1]", ("mu",)),
        Flag("--steps", int, REQUIRED, "number of periods", ("steps",)),
        Flag("--seed", int, 0, "RNG seed", ("seed",)),
        Flag("--y", int, 5, "top-list size to record", ("y",)),
        Flag("--x0", int, None, "initial product count (default: n)", ("x0",)),
        Flag("--burn-in", int, 0, "periods excluded from cumulative sales", ("burn_in",)),
        Flag("--out-dir", str, REQUIRED, "output directory"),
    )),
    "fit": Command(cmd_fit, "fit a power-law exponent to a sales CSV", (
        Flag("--input", str, REQUIRED, "CSV with a 'sales' or 'cumulative_sales' column"),
        Flag("--s-min", float, 1, "smallest sales value included", ("s_min",)),
    )),
    "turnover": Command(cmd_turnover, "turnover statistics and implied mu for a chart file", (
        Flag("--input", str, REQUIRED, "chart CSV: period,product_id[,sales]"),
        Flag("--y", int, REQUIRED, "list size to analyze", ("y",)),
    )),
    "optimize": Command(cmd_optimize, "optimal shelf size for given profit/cost parameters", (
        Flag("--A", float, REQUIRED, "profit per item", ("profit_per_item",)),
        Flag("--B", float, REQUIRED, "cost per inventory change", ("turnover_cost",)),
        Flag("--mu", float, REQUIRED, "innovation fraction in (0, 1]", ("mu",)),
        Flag("--alpha", float, 3.5, "sales power-law exponent", ("alpha",)),
        Flag("--y-max", int, 1_000_000, "search bound", ("y_max",)),
    )),
    "reproduce": Command(cmd_reproduce, "run a bundled experiment preset and render CSV + SVG", (
        Flag("--figure", str, REQUIRED, f"experiment preset: {', '.join(PRESETS)}", ("figure",)),
        Flag("--out-dir", str, REQUIRED, "output directory"),
        Flag("--seed", int, 0, "master seed", ("master_seed",)),
        Flag("--steps", int, 1000, "steps per run for 2left and 2right", ("steps",)),
        Flag("--runs", int, 10, "replicates per 2left target or 2right cell", ("replicates", "runs_per_cell")),
        Flag("--y", int, 5, "top-list size for 2right", ("y",)),
        Flag("--n", int, 500, "agent count for 2left", ("n_agents",)),
        Flag("--n-grid", _int_list, DEFAULT_N_GRID, "comma-separated N grid for 2right", ("n_grid",)),
        Flag("--mu-grid", _float_list, None,
             "comma-separated mu grid (default: six values from 0.002 to 0.05 for 2right,"
             " 25 log-spaced values in [1e-4, 0.5] for 3)", ("mu_grid", "mu")),
        Flag("--targets", _float_list, DEFAULT_NMU_TARGETS, "comma-separated N*mu targets for 2left", ("targets",)),
        Flag("--ab-ratios", _float_list, DEFAULT_AB_RATIOS, "comma-separated A/B ratios for 3",
             ("ab_ratios", "profit_per_item")),
        Flag("--alpha", float, 3.5, "exponent of the shelf-size curves for 3", ("alpha",)),
        Flag("--workers", int, 1, "worker processes for the 2right sweep (at most one per cell and CPU)",
             ("workers",)),
    )),
}


def _help(flag: Flag) -> str:
    if flag.default is REQUIRED or flag.default is None:
        return flag.help
    default = ",".join(map(str, flag.default)) if isinstance(flag.default, tuple) else flag.default
    return f"{flag.help} (default {default})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longtail",
        description="Random-copying market simulator and long-tail analysis toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"longtail {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # SUPPRESS: the namespace holds only the flags actually passed
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", metavar="JSON", help="JSON file supplying values (flags override)")
        for flag in command.flags:
            p.add_argument(flag.name, type=flag.type, dest=flag.dest, help=_help(flag))
    return parser


class _Object(dict):
    """A JSON object that also keeps its (key, value) pairs, a repeated key's included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _read_config(path: str, name: str) -> dict:
    """Config values by dest, converted as the flag's own text would be; nulls dropped.

    A string goes through the flag's type; a non-empty list is accepted only
    by (and required for any non-string value of) a list-typed flag; a number
    only by an int flag when whole, or by a float flag; a boolean by no flag.
    A flag set by two keys (``n`` twice, or ``burn-in`` and ``burn_in``) is refused.
    """
    with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259), whatever the locale
        try:
            data = json.load(fh, object_pairs_hook=_Object)
        except ValueError as exc:  # bad JSON, bytes that are not UTF-8, an integer past the digit limit
            raise ValueError(f"--config: {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"--config: {path} must hold a JSON object")
    flags = {flag.dest: flag for flag in COMMANDS[name].flags}
    values, seen = {}, set()
    for key, value in data.pairs:
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ValueError(f"--config: unknown key {key!r} for '{name}'")
        if flag.dest in seen:
            raise ValueError(f"{flag.name}: set twice in --config {path}")
        seen.add(flag.dest)
        if value is None:
            continue
        try:
            if isinstance(value, str):
                values[flag.dest] = flag.type(value)
            elif flag.type in LIST_ITEM:
                if not isinstance(value, list) or not value:
                    raise ValueError
                values[flag.dest] = tuple(_from_json(LIST_ITEM[flag.type], item) for item in value)
            else:
                values[flag.dest] = _from_json(flag.type, value)
        except (ValueError, OverflowError):
            raise ValueError(f"{flag.name}: invalid value {json.dumps(value)} in --config") from None
    return values


def _resolve(name: str, passed: dict) -> argparse.Namespace:
    """Every flag's value: built-in default, then --config, then the flag."""
    flags = COMMANDS[name].flags
    values = {flag.dest: flag.default for flag in flags}
    if "config" in passed:
        values.update(_read_config(passed.pop("config"), name))
    values.update(passed)
    missing = [flag.name for flag in flags if values[flag.dest] is REQUIRED]
    if missing:
        raise ValueError(f"missing {', '.join(missing)} (pass the flag or set it in --config)")
    return argparse.Namespace(**values)


def _flagged(message: str, name: str) -> str:
    """Prefix a message that starts with a library field with that field's flag."""
    field = message.split(" ", 1)[0]
    flag = next((f.name for f in COMMANDS[name].flags if field in f.fields), None)
    return f"{flag}: {message}" if flag else message


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        passed = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    name = passed.pop("command")
    try:
        a = _resolve(name, passed)
        if not hasattr(a, "out_dir"):
            _bind("asdict")
            print(json.dumps(COMMANDS[name].handler(a), indent=2, sort_keys=True))
            return 0
        _check_out_dir(Path(a.out_dir))
        started = time.monotonic()
        _bind("asdict", "SCHEMAS", "write_files")  # before the handler binds numpy: see LAZY
        _write_outputs(Path(a.out_dir), *COMMANDS[name].handler(a), started)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {_flagged(str(exc), name)}", file=sys.stderr)
        return 4 if isinstance(exc, InsufficientDataError) else 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
