"""Command-line interface: simulate, fit, turnover, optimize, reproduce.

Every file is read and written by ``chartdata``, whose ``SCHEMAS`` table
holds each CSV file's versioned header (see also the README). Handlers only
compute; ``main`` prints their JSON or writes their files, with a
manifest.json recording the tool version and, as ``config``, every flag the
run read but --out-dir, keyed by dest: given as --config, it reruns the run
bit-exactly.

Every command and flag is declared once, in COMMANDS; that table builds the
argument parser, resolves values (built-in default, per preset for --mu-grid,
then --config, then the flag: each is text read by the flag's type), checks
required flags and that the reproduce preset reads every flag given, and names
the flag behind an error: for a validation error, the flag whose dest or alias
field starts the message; for an I/O error, the Path-typed flag (--input,
--config, --out-dir) whose path holds the file. One run at a time writes an
--out-dir.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import InsufficientDataError, __version__

# Parsing argv needs only the standard modules above, so nothing else is
# imported at module level. The numeric modules (analysis, experiments,
# inventory, model) import numpy, and the file I/O (chartdata, with csv), the
# plotting (svgplot) and dataclasses.asdict (with inspect) took most of the
# rest of this module's import time. main binds asdict and a writing command's
# I/O names, then the handler its plotting and numeric names (_bind), in that
# order. So --help, --version and rejected argv load none of them, and a
# command loads only the modules it calls. __getattr__ resolves the names
# below, each from its module, so that a tracer or a test can replace cli.run,
# cli.load_chart and the like first.
LAZY = {
    **dict.fromkeys(("SimConfig", "run"), "longtail.model"),
    **dict.fromkeys(("calibrate_mu", "expected_turnover", "fit_alpha", "turnover"), "longtail.analysis"),
    **dict.fromkeys(("per_mu_stats", "run_sales_distribution", "run_turnover_sweep"), "longtail.experiments"),
    **dict.fromkeys(("InventoryParams", "bruteforce_stock", "inventory_curve"), "longtail.inventory"),
    **dict.fromkeys(("SCHEMAS", "load_chart", "read_sales_column", "write_files"), "longtail.chartdata"),
    **dict.fromkeys(("Series", "loglog_svg"), "longtail.svgplot"),
    "asdict": "dataclasses",
}


def __getattr__(name):
    if name not in LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(LAZY[name]), name)
    return value


def _bind(*names: str) -> None:
    """Bind each name that is not bound yet; a patched or traced binding stays."""
    for name in names:
        if name not in globals():
            __getattr__(name)


def _write_outputs(out_dir: Path, command: str, config: dict, files: dict, started: float) -> None:
    """Write the files (see ``chartdata.write_files``), then manifest.json, the completion marker.

    The caller holds out_dir's lock (see ``_lock``) through the whole write.
    """
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
        "outputs": sorted(files),
        "schemas": {name: SCHEMAS[name] for name in sorted(files) if name in SCHEMAS},
        "duration_seconds": written - started,
        "timings": {"compute_s": computed - started, "write_s": written - computed},
    }
    write_files(out_dir, {"manifest.json": manifest})


def _lock(out_dir: Path) -> int:
    """An open descriptor of out_dir holding its exclusive flock, so that one run at a time writes it.

    Closing the descriptor releases the lock. Raises OSError naming out_dir
    when another run holds it.
    """
    import fcntl  # here, not at module level: only a writing command needs it

    lock = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError as exc:
        os.close(lock)
        raise OSError(exc.errno, "another run is writing this directory", str(out_dir)) from None
    return lock


def _check_out_dir(out_dir: Path) -> int | None:
    """Raise OSError naming --out-dir, before any compute, when out_dir cannot be written.

    The nearest existing ancestor of out_dir (out_dir itself if it exists; a
    dangling link counts) must be a directory in which this process can make
    a directory: a probe directory is made and removed there. os.access is not
    enough, because for root it passes directories, such as those under /proc,
    where none can be made.

    Returns out_dir's lock (see ``_lock``) when out_dir exists, so that a
    busy directory is refused before the compute, and None when the run
    will create it.
    """
    ancestor = out_dir.absolute()
    while not os.path.lexists(ancestor):  # not exists(), which follows a link
        ancestor = ancestor.parent
    probe = ancestor / f".longtail-probe-{os.getpid()}"
    try:
        os.mkdir(probe)
        os.rmdir(probe)
    except OSError:
        raise OSError(f"--out-dir: {ancestor} is not a writable directory, so {out_dir} cannot be written") from None
    return _lock(out_dir) if ancestor == out_dir.absolute() else None


def _write(stream, text: str) -> None:
    """Write text to stream and flush it. When that fails, the stream's fd is pointed at os.devnull before the
    error propagates, so that what stays in the stream's buffer goes nowhere at exit and cannot exit 120."""
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


def _try_write(stream, text: str) -> None:
    """``_write``, except that a failed write loses only the text, not the exit code or the result."""
    try:
        _write(stream, text)
    except OSError:
        pass


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(a) -> dict:
    _bind("SimConfig", "run", "turnover")
    cumulative, lists = run(SimConfig(n_agents=a.n, mu=a.mu, steps=a.steps, seed=a.seed), y=a.y)
    stats = turnover(lists)
    return {
        "cumulative_sales.csv": enumerate(cumulative.tolist()),
        "top_products.csv": ((period, pid) for period, ids in enumerate(lists) for pid in ids),
        "turnover.csv": enumerate(stats.z_per_period, start=1),
    }


# ---------------------------------------------------------------------------
# fit

def cmd_fit(a) -> dict:
    _bind("read_sales_column", "fit_alpha")
    return asdict(fit_alpha(read_sales_column(a.input), s_min=a.s_min))


# ---------------------------------------------------------------------------
# turnover

def cmd_turnover(a) -> dict:
    _bind("load_chart", "turnover", "calibrate_mu")
    lists = load_chart(a.input)
    if a.y < 1:
        raise ValueError(f"y must be >= 1, got {a.y}")
    shortest = min(len(l) for l in lists)
    if a.y > shortest:
        raise ValueError(f"y {a.y} exceeds the shortest per-period list length ({shortest})")
    stats = turnover(l[: a.y] for l in lists)  # streamed: no list of every period's prefix
    fraction = stats.z_bar / a.y  # a.y <= shortest < 2**53: the correctly rounded quotient
    return {**asdict(stats), "as_fraction": fraction, "mu_hat": calibrate_mu(fraction)}


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(a) -> dict:
    _bind("InventoryParams", "bruteforce_stock")
    params = InventoryParams(profit_per_item=a.A, turnover_cost=a.B, mu=a.mu, alpha=a.alpha, y_max=a.y_max)
    result = bruteforce_stock(params)
    if result.capped:
        _try_write(sys.stderr, f"warning: --y-max: objective still increasing at y_max={a.y_max}; result is capped\n")
    return asdict(result)


# ---------------------------------------------------------------------------
# reproduce: each preset passes its flags to the library and returns the
# files to write, so a failure while computing leaves no output directory

def _sales_distribution(a):
    _bind("run_sales_distribution")
    results = run_sales_distribution(targets=a.targets, n_agents=a.n, steps=a.steps, replicates=a.runs,
                                     master_seed=a.seed)
    plot_series = []
    for r in results:
        points = [
            (math.sqrt(lo * hi), count / ((hi - lo) * len(r.samples)))
            for lo, hi, count in r.histogram
            if count > 0
        ]
        label = f"N*mu = {r.n_mu:g}" + (" (winner-take-all)" if r.winner_take_all else "")
        plot_series.append(Series(label=label, x=[p[0] for p in points], y=[p[1] for p in points], line=True))
    return {
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
    _bind("run_turnover_sweep", "per_mu_stats", "expected_turnover")
    cells, fit = run_turnover_sweep(n_grid=a.n_grid, mu_grid=a.mu_grid, runs_per_cell=a.runs, steps=a.steps, y=a.y,
                                    master_seed=a.seed, workers=a.workers)
    fit_x = [min(a.mu_grid), max(a.mu_grid)]
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
    return {
        "turnover_sweep.csv": ((c.n_agents, c.mu, c.z_bar, c.z_std) for c in cells),
        "turnover_by_mu.csv": per_mu_stats(cells),
        "turnover_fit.json": asdict(fit),
        "turnover_sweep.svg": svg,
    }


def _inventory_curves(a):
    _bind("inventory_curve")
    points = inventory_curve(alpha=a.alpha, ab_ratios=a.ab_ratios, mu_grid=a.mu_grid)
    series = []
    for ab in a.ab_ratios:
        curve = [p for p in points if p.ab_ratio == ab]
        series.append(Series(label=f"A/B = {ab:g}", x=[p.mu for p in curve], y=[p.y_value for p in curve], line=True))
    return {
        "inventory_curves.csv": ((p.ab_ratio, p.mu, p.y_value, p.y_floor) for p in points),
        "inventory_curves.svg": loglog_svg(
            series,
            title="Optimal shelf size vs innovation fraction",
            x_label="innovation fraction mu",
            y_label="optimal shelf size y",
        ),
    }


PRESETS = {"2left": _sales_distribution, "2right": _turnover_sweep, "3": _inventory_curves}


def cmd_reproduce(a) -> dict:
    _bind("Series", "loglog_svg")  # each preset binds its numeric names
    return PRESETS[a.figure](a)


# ---------------------------------------------------------------------------
# the command table

REQUIRED = object()  # default of a flag that must come from the command line or --config


class Flag(NamedTuple):
    name: str
    type: Callable
    default: object  # REQUIRED, the text a user would type (read by type), or a dict of that text by preset
    help: str
    # library fields the value feeds under another name than its dest; a
    # ValueError whose message starts with the dest or one of them names this flag
    fields: tuple[str, ...] = ()
    # the reproduce presets that read the flag; () for one that every command reads
    figures: tuple[str, ...] = ()

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    handler: Callable
    help: str
    flags: tuple[Flag, ...]


SEEDED = ("2left", "2right")  # the presets that simulate

COMMANDS = {
    "simulate": Command(cmd_simulate, "run one simulation and write its outputs as CSV", (
        Flag("--n", int, REQUIRED, "number of agents", ("n_agents",)),
        Flag("--mu", float, REQUIRED, "innovation fraction in [0, 1]"),
        Flag("--steps", int, REQUIRED, "number of periods"),
        Flag("--seed", int, "0", "RNG seed"),
        Flag("--y", int, "5", "top-list size to record"),
        Flag("--out-dir", Path, REQUIRED, "output directory"),
    )),
    "fit": Command(cmd_fit, "fit a power-law exponent to a sales CSV", (
        Flag("--input", Path, REQUIRED, "CSV with a 'sales' or 'cumulative_sales' column"),
        Flag("--s-min", float, "1", "smallest sales value included"),
    )),
    "turnover": Command(cmd_turnover, "turnover statistics and implied mu for a chart file", (
        Flag("--input", Path, REQUIRED, "chart CSV: period,product_id[,sales]"),
        Flag("--y", int, REQUIRED, "list size to analyze"),
    )),
    "optimize": Command(cmd_optimize, "optimal shelf size for given profit/cost parameters", (
        Flag("--A", float, REQUIRED, "profit per item", ("profit_per_item",)),
        Flag("--B", float, REQUIRED, "cost per inventory change", ("turnover_cost",)),
        Flag("--mu", float, REQUIRED, "innovation fraction in (0, 1]"),
        # the default alpha of 3.5 matches the commonly cited exponent for book sales
        Flag("--alpha", float, "3.5", "sales power-law exponent"),
        Flag("--y-max", int, "1000000", "search bound"),
    )),
    "reproduce": Command(cmd_reproduce, "run a bundled experiment preset and render CSV + SVG", (
        Flag("--figure", str, REQUIRED, f"experiment preset: {', '.join(PRESETS)}"),
        Flag("--out-dir", Path, REQUIRED, "output directory"),
        Flag("--seed", int, "0", "master seed", ("master_seed",), figures=SEEDED),
        Flag("--steps", int, "1000", "steps per run", figures=SEEDED),
        Flag("--runs", int, "10", "replicates per 2left target or 2right cell", ("replicates", "runs_per_cell"),
             figures=SEEDED),
        Flag("--y", int, "5", "top-list size", figures=("2right",)),
        Flag("--n", int, "500", "agent count", ("n_agents",), figures=("2left",)),
        Flag("--n-grid", _int_list, "100,200,300,400,500,600,700,800,900,1000", "comma-separated N grid",
             figures=("2right",)),
        # 2right's grid keeps mu*N >= 1 (above winner-take-all) for N >= 500: much lower mu makes turnover scale
        # with mu*N, not sqrt(mu). 3's, 25 log-spaced values in [1e-4, 0.5], is text: numpy's bits vary by CPU
        Flag("--mu-grid", _float_list, {"2right": "0.002,0.003,0.005,0.01,0.02,0.05", "3": (
                 "0.0001,0.00014260138716967106,0.0002033515562271441,0.0002899821400110211,0.0004135185542000139,"
                 "0.0005896831944931879,0.0008408964152537145,0.0011991299528118344,0.001709975946676698,"
                 "0.002438449420228684,0.003477262698676905,0.004958624843846807,0.0070710678118654745,"
                 "0.010083440787428274,0.014379126437305123,0.020504833762477987,0.029240177382128668,"
                 "0.041696898557787895,0.05946035575013605,0.08479129211571527,0.12091355875609794,"
                 "0.17242441206241074,0.2458796034201474,0.35062772524441616,0.5")},
             "comma-separated mu grid", ("mu",), figures=("2right", "3")),
        Flag("--targets", _float_list, "0.5,1,2,5", "comma-separated N*mu targets", figures=("2left",)),
        Flag("--ab-ratios", _float_list, "10,100,1e3,1e4,1e5,1e6", "comma-separated A/B ratios",
             ("profit_per_item",), figures=("3",)),
        Flag("--alpha", float, "3.5", "exponent of the shelf-size curves", figures=("3",)),  # 3.5 as for optimize
        Flag("--workers", int, "1", "worker processes for the sweep (at most one per cell and CPU)",
             figures=("2right",)),
    )),
}


def _help(flag: Flag) -> str:
    notes = [f"read by --figure {', '.join(flag.figures)}"] if flag.figures else []
    if isinstance(flag.default, dict):
        notes += [f"default for {figure} {text}" for figure, text in flag.default.items()]
    elif isinstance(flag.default, str):
        notes.append(f"default {flag.default}")
    return f"{flag.help} ({'; '.join(notes)})" if notes else flag.help


# one parser per process: parsing keeps no state in it, and each rebuild left
# about 50 KB of argparse objects in reference cycles for a full collection
@functools.cache
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
        p.add_argument("--config", type=Path, metavar="JSON", help="JSON file supplying values (flags override)")
        for flag in command.flags:
            p.add_argument(flag.name, type=flag.type, dest=flag.dest, help=_help(flag))
    return parser


class _Object(dict):
    """A JSON object that also keeps its (key, value) pairs, a repeated key's included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _read_config(path: Path, name: str) -> dict:
    """Config values by dest, each read by its flag's own parser; nulls dropped.

    A string is the flag's text. Any other value is written as its JSON text (a
    list's items joined by commas), which the flag must read back equal to the
    value, a list as a tuple. So 1 sets a float flag to 1.0, NaN and 2**53 + 1
    set none, and a boolean sets no flag.
    A flag set by two keys (``n`` twice, or ``out-dir`` and ``out_dir``) is refused.
    """
    with open(path, encoding="utf-8-sig") as fh:  # UTF-8 (RFC 8259), whatever the locale; a leading BOM is skipped
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
            else:
                is_list = isinstance(value, list)
                values[flag.dest] = flag.type(",".join(map(json.dumps, value if is_list else [value])))
                if values[flag.dest] != (tuple(value) if is_list else value):
                    raise ValueError
        except ValueError:
            raise ValueError(f"{flag.name}: invalid value {json.dumps(value)} in --config") from None
    return values


def _resolve(name: str, passed: dict) -> argparse.Namespace:
    """Every flag's value: built-in default, then --config, then the flag, each read by the flag's type.

    A reproduce flag that the chosen preset does not read is refused, passed
    or set in --config, so that no value is silently ignored.
    """
    flags = COMMANDS[name].flags
    given = _read_config(passed.pop("config"), name) if "config" in passed else {}
    given.update(passed)
    figure = given.get("figure")
    texts = [f.default.get(figure) if isinstance(f.default, dict) else f.default for f in flags]
    values = {f.dest: f.type(text) if isinstance(text, str) else text for f, text in zip(flags, texts)} | given
    missing = [flag.name for flag in flags if values[flag.dest] is REQUIRED]
    if missing:
        raise ValueError(f"missing {', '.join(missing)} (pass the flag or set it in --config)")
    if figure is not None:
        if figure not in PRESETS:
            raise ValueError(f"figure must be one of {', '.join(PRESETS)}; got {figure!r}")
        unread = [flag.name for flag in flags if flag.figures and figure not in flag.figures and flag.dest in given]
        if unread:
            reads = [flag.name for flag in flags if figure in flag.figures]
            raise ValueError(f"{', '.join(unread)}: not read by --figure {figure}, which reads {' '.join(reads)}")
    return argparse.Namespace(**values)


def _flagged(exc: Exception, name: str, values: dict) -> str:
    """The message of exc, prefixed with the flag behind it, if any.

    An OSError is behind the file flag (a Path in ``values``, by dest: --input,
    --config, --out-dir) whose path is the file it names or a directory above
    it; any other error, behind the flag whose dest or field starts its message.
    """
    message = str(exc)
    if isinstance(exc, OSError):
        failed = Path(exc.filename) if isinstance(exc.filename, str) else None
        flags = ("--" + dest.replace("_", "-") for dest, value in values.items()
                 if isinstance(value, Path) and failed and failed.is_relative_to(value))
    else:
        field = message.split(" ", 1)[0]
        flags = (f.name for f in COMMANDS[name].flags if field in (f.dest, *f.fields))
    flag = next(flags, None)
    return f"{flag}: {message}" if flag else message


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        passed = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse ignores a failed write of help, version or a usage error: it stays buffered
        for stream in (sys.stdout, sys.stderr):
            _try_write(stream, "")
        return exc.code if isinstance(exc.code, int) else 2
    name = passed.pop("command")
    a = argparse.Namespace(**passed)  # until resolved, an error is named from the flags as passed
    try:
        a = _resolve(name, passed)
        if not hasattr(a, "out_dir"):
            _bind("asdict")
            _write(sys.stdout, json.dumps(COMMANDS[name].handler(a), indent=2, sort_keys=True) + "\n")
            return 0
        lock = _check_out_dir(a.out_dir)
        try:
            started = time.monotonic()
            _bind("asdict", "SCHEMAS", "write_files")  # before the handler binds numpy: see LAZY
            files = COMMANDS[name].handler(a)
            if lock is None:  # two first runs into one new directory meet only here
                a.out_dir.mkdir(parents=True, exist_ok=True)
                lock = _lock(a.out_dir)
            config = {f.dest: getattr(a, f.dest) for f in COMMANDS[name].flags  # as --config, reruns the run
                      if f.name != "--out-dir" and (not f.figures or a.figure in f.figures)}
            _write_outputs(a.out_dir, name, config, files, started)
        finally:
            if lock is not None:
                os.close(lock)  # releases the lock
        return 0
    except BrokenPipeError:  # the result met a closed stdout, as after `| head`: exit 3, silently
        return 3
    except (ValueError, OSError) as exc:
        _try_write(sys.stderr, f"error: {_flagged(exc, name, vars(a))}\n")
        return 4 if isinstance(exc, InsufficientDataError) else 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
