"""Reproducible ensemble experiments over the random-copying market model.

Two seeded studies (the deterministic shelf-size curves are
``inventory.inventory_curve``):

* ``run_sales_distribution`` — cumulative-sales distributions for a set of
  N*mu targets, with log-binned histograms and ML exponent fits.
* ``run_turnover_sweep`` — mean top-y turnover over an (N, mu) grid with
  replicates, plus the pooled log-log fit of z_bar against mu.

Both take their protocol as keyword-only arguments with no defaults (the
``reproduce`` presets in ``cli`` state the paper's) and check it before the
first run. Every run's seed is a pure function of (master_seed, cell index,
replicate index), so results are bit-reproducible and cells can be farmed out
to worker processes without changing the output.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .analysis import (
    InsufficientDataError,
    LogLogFit,
    PowerLawFit,
    fit_alpha,
    fit_turnover_exponent,
    turnover,
)
from .model import MAX_AGENTS, SimConfig, run, top_lists


@dataclass
class CellResult:
    n_agents: int
    mu: float
    z_bar: float  # mean of per-run z_bar over replicates
    z_std: float  # std of per-run z_bar over replicates


def per_mu_stats(cells: list[CellResult]) -> list[tuple[float, float, float]]:
    """(mu, mean over N, std over N) of cell z_bar values, one row per mu, in
    the order the mu values first appear in ``cells`` (the grid's order for
    cells in ``run_turnover_sweep`` order)."""
    rows = []
    for mu in dict.fromkeys(c.mu for c in cells):
        values = np.array([c.z_bar for c in cells if c.mu == mu])
        rows.append((mu, float(values.mean()), float(values.std())))
    return rows


def derive_run_seed(master_seed: int, cell_index: int, replicate_index: int) -> int:
    """Deterministic 64-bit run seed for one replicate of one grid cell."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    seq = np.random.SeedSequence((master_seed, cell_index, replicate_index))
    return int(seq.generate_state(1, np.uint64)[0])


def _replicates(master_seed: int, cell_index: int, count: int, **config) -> Iterator[SimConfig]:
    """One cell's ``count`` SimConfigs from ``config``, each seeded by ``derive_run_seed``."""
    return (SimConfig(**config, seed=derive_run_seed(master_seed, cell_index, r)) for r in range(count))


def _run_cell(
    task: tuple[int, tuple[int, float]], *, master_seed: int, runs_per_cell: int, steps: int, y: int
) -> CellResult:
    cell_index, (n_agents, mu) = task
    configs = _replicates(master_seed, cell_index, runs_per_cell, n_agents=n_agents, mu=mu, steps=steps)
    try:
        # each list is read once, as it is made
        values = np.array([turnover(top_lists(config, y)).z_bar for config in configs])
    except MemoryError as exc:  # a state or a step holds arrays of up to about 2N entries
        raise ValueError(f"n_grid value {n_agents} needs arrays numpy cannot allocate: {exc}") from None
    if not values.any():
        raise InsufficientDataError(
            f"no list turnover in the cell N={n_agents}, mu={mu} over {runs_per_cell} "
            f"run(s) of {steps} steps; the log-log fit needs z_bar > 0 in every cell"
        )
    return CellResult(n_agents=n_agents, mu=mu, z_bar=float(values.mean()), z_std=float(values.std()))


def run_turnover_sweep(
    *, n_grid: tuple[int, ...], mu_grid: tuple[float, ...], runs_per_cell: int, steps: int, y: int, master_seed: int,
    workers: int = 1,
) -> tuple[list[CellResult], LogLogFit]:
    """Mean top-y turnover per (N, mu) cell, in ``product(n_grid, mu_grid)``
    order, plus the pooled log-log fit.

    Cells are independent; with ``workers > 1`` they are evaluated in a
    process pool of at most one worker per cell and per CPU, and merged back
    in cell order, so the result does not depend on scheduling. The first
    cell in grid order that saw no turnover raises InsufficientDataError
    naming it; a serial sweep stops there."""
    # the pooled log-log fit needs at least 3 cells and 2 distinct positive mu
    # values; a repeated value would run (and pool) the same cells twice
    if not n_grid or not mu_grid:
        raise ValueError("n_grid and mu_grid must be non-empty")
    if not all(1 <= n < MAX_AGENTS for n in n_grid):
        raise ValueError(f"n_grid values must be within [1, 2**59), got {n_grid}")
    if not all(0.0 < mu <= 1.0 for mu in mu_grid):
        raise ValueError(f"mu_grid values must be within (0, 1], got {mu_grid}")
    for name, grid in (("n_grid", n_grid), ("mu_grid", mu_grid)):
        if len(set(grid)) < len(grid):
            raise ValueError(f"{name} values must be distinct, got {grid}")
    if len(mu_grid) < 2:
        raise ValueError(f"mu_grid must hold at least 2 values, got {mu_grid}")
    if len(n_grid) * len(mu_grid) < 3:
        raise ValueError("n_grid and mu_grid must span at least 3 cells for the turnover fit")
    if runs_per_cell < 1:
        raise ValueError(f"runs_per_cell must be >= 1, got {runs_per_cell}")
    # y scales the float reference line y*sqrt(mu) drawn beside the cells
    if not 1 <= y <= sys.float_info.max:
        raise ValueError(f"y must be >= 1 and at most the largest float, got {y}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = list(enumerate(itertools.product(n_grid, mu_grid)))
    run_cell = partial(_run_cell, master_seed=master_seed, runs_per_cell=runs_per_cell, steps=steps, y=y)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery (multiprocessing, subprocess,
        # socket, logging) costs about 2 MB and 15 ms that serial calls skip
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_cell, tasks))
    else:
        cells = [run_cell(t) for t in tasks]
    return cells, fit_turnover_exponent([(c.mu, c.z_bar) for c in cells])


def log_binned_histogram(samples: np.ndarray) -> list[tuple[float, float, int]]:
    """Histogram of positive values in geometric bins [2^k, 2^(k+1)) from 1."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0 or values.min() < 1:
        raise ValueError("histogram expects at least one sample, all >= 1")
    n_bins = max(1, math.ceil(math.log(values.max() + 1.0, 2.0)))
    edges = 2.0 ** np.arange(n_bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return [(float(lo), float(hi), int(c)) for lo, hi, c in zip(edges, edges[1:], counts)]


@dataclass
class DistributionResult:
    """Pooled cumulative-sales distribution for one N*mu target."""

    n_mu: float
    mu: float
    samples: np.ndarray  # one entry per product ever created, each >= 1
    histogram: list[tuple[float, float, int]]
    fit: PowerLawFit | None
    winner_take_all: bool


def run_sales_distribution(
    *, targets: tuple[float, ...], n_agents: int, steps: int, replicates: int, master_seed: int
) -> list[DistributionResult]:
    """Cumulative-sales distributions for a list of N*mu targets.

    Each target is simulated ``replicates`` times at mu = target / n_agents
    and the per-product cumulative sales are pooled across replicates. For
    targets with N*mu <= 1 the market is winner-take-all rather than
    power-law distributed, so the exponent fit is skipped and the result is
    flagged instead. All arguments are checked before the first run; a target
    with no exponent fit raises InsufficientDataError naming it at once.
    """
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    for target in targets:
        if not 0.0 < target <= n_agents:
            raise ValueError(
                f"targets must lie in (0, n_agents] so that mu = target/n_agents is in (0, 1], got {target}"
            )
    if len(set(targets)) < len(targets):
        raise ValueError(f"targets must be distinct, got {targets}")
    results = []
    for cell_index, target in enumerate(targets):
        mu = target / n_agents
        configs = _replicates(master_seed, cell_index, replicates, n_agents=n_agents, mu=mu, steps=steps)
        # every product sold: once in period 0, or once in its first period
        samples = np.concatenate([run(config, y=1)[0] for config in configs])
        winner_take_all = target <= 1.0
        try:
            fit = None if winner_take_all else fit_alpha(samples)
        except InsufficientDataError as exc:
            raise InsufficientDataError(
                f"no exponent fit for the target N*mu={target:g} (mu={mu}) over {replicates} "
                f"run(s) of {steps} steps: {exc}"
            ) from None
        results.append(
            DistributionResult(
                n_mu=target,
                mu=mu,
                samples=samples,
                histogram=log_binned_histogram(samples),
                fit=fit,
                winner_take_all=winner_take_all,
            )
        )
    return results
