"""Ensemble drivers: seed derivation, reproducibility, histograms, sweeps."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from longtail import experiments
from longtail.analysis import InsufficientDataError
from longtail.experiments import (
    SweepSpec,
    derive_run_seed,
    log_binned_histogram,
    run_sales_distribution,
    run_turnover_sweep,
)
from longtail.inventory import InventoryParams, closed_form_stock, inventory_curve

SMALL_SPEC = SweepSpec(
    n_grid=(50, 100),
    mu_grid=(0.02, 0.05),
    runs_per_cell=2,
    steps=60,
    y=3,
    master_seed=123,
)


def test_run_seeds_are_pure_and_distinct():
    assert derive_run_seed(7, 3, 1) == derive_run_seed(7, 3, 1)
    seeds = {derive_run_seed(7, cell, rep) for cell in range(30) for rep in range(10)}
    assert len(seeds) == 300
    assert derive_run_seed(8, 3, 1) != derive_run_seed(7, 3, 1)


def test_sweep_is_bit_reproducible():
    result_a, fit_a = run_turnover_sweep(SMALL_SPEC)
    result_b, fit_b = run_turnover_sweep(SMALL_SPEC)
    assert [c.z_bar_runs for c in result_a.cells] == [c.z_bar_runs for c in result_b.cells]
    assert (fit_a.slope, fit_a.intercept, fit_a.r_squared) == (fit_b.slope, fit_b.intercept, fit_b.r_squared)


def test_sweep_record_count_and_cell_order():
    result, _ = run_turnover_sweep(SMALL_SPEC)
    assert len(result.cells) == len(SMALL_SPEC.n_grid) * len(SMALL_SPEC.mu_grid)
    assert [(c.n_agents, c.mu) for c in result.cells] == [
        (n, mu) for n in SMALL_SPEC.n_grid for mu in SMALL_SPEC.mu_grid
    ]


def test_sweep_parallel_matches_serial():
    serial, fit_serial = run_turnover_sweep(SMALL_SPEC, workers=1)
    parallel, fit_parallel = run_turnover_sweep(SMALL_SPEC, workers=2)
    assert [c.z_bar_runs for c in serial.cells] == [c.z_bar_runs for c in parallel.cells]
    assert fit_serial.slope == fit_parallel.slope


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "workers,cpus,pool_size",
    [
        (10**9, 64, 4),  # clamped to the 4 cells
        (10**9, 2, 2),  # clamped to the CPUs
        (3, 64, 3),
        (10**9, None, None),  # CPU count unknown: serial
        (1, 64, None),
    ],
)
def test_sweep_pool_is_clamped_to_cells_and_cpus(monkeypatch, workers, cpus, pool_size):
    sizes = []
    # run_turnover_sweep imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda max_workers: RecordingPool(sizes, max_workers)
    )
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    result, _ = run_turnover_sweep(SMALL_SPEC, workers=workers)
    assert sizes == ([] if pool_size is None else [pool_size])
    serial, _ = run_turnover_sweep(SMALL_SPEC)
    assert [c.z_bar_runs for c in result.cells] == [c.z_bar_runs for c in serial.cells]


def test_importing_the_cli_loads_no_process_pool():
    # a serial call never needs multiprocessing; importing it cost about 2 MB
    import longtail

    src = Path(longtail.__file__).resolve().parents[1]
    probe = (
        "import sys, longtail.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', 'numpy.random') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_sweep_names_a_cell_without_turnover():
    # 2 steps at N = 3 and mu <= 0.003 see no new product: z_bar is 0, which
    # the log-log fit cannot take
    spec = SweepSpec(n_grid=(3,), mu_grid=(0.001, 0.002, 0.003), runs_per_cell=1, steps=2)
    with pytest.raises(InsufficientDataError, match=r"cell N=3, mu=0\.001 "):
        run_turnover_sweep(spec)


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_turnover_sweep(SMALL_SPEC, workers=workers)


def test_sweep_per_mu_stats_shape():
    result, _ = run_turnover_sweep(SMALL_SPEC)
    stats = result.per_mu_stats()
    assert [row[0] for row in stats] == list(SMALL_SPEC.mu_grid)
    for _, mean, std in stats:
        assert mean >= 0 and std >= 0


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(), mu_grid=(0.1,))
    with pytest.raises(ValueError):
        SweepSpec(runs_per_cell=0)
    # the pooled fit needs 2 distinct positive mu values and 3 cells
    with pytest.raises(ValueError, match="mu_grid"):
        SweepSpec(mu_grid=(0.01, 0.01))
    with pytest.raises(ValueError, match="mu_grid"):
        SweepSpec(mu_grid=(0.0, 0.01))
    with pytest.raises(ValueError, match="cells"):
        SweepSpec(n_grid=(100,), mu_grid=(0.01, 0.02))
    with pytest.raises(ValueError, match="n_grid"):
        SweepSpec(n_grid=(100, 0))


def test_log_binned_histogram_hand_case():
    hist = log_binned_histogram(np.array([1, 1, 2, 3, 7, 8]))
    assert hist == [(1.0, 2.0, 2), (2.0, 4.0, 2), (4.0, 8.0, 1), (8.0, 16.0, 1)]


def test_log_binned_histogram_validation():
    with pytest.raises(ValueError):
        log_binned_histogram(np.array([0.5, 2.0]))


def test_sales_distribution_small_scale():
    results = run_sales_distribution(
        targets=(0.5, 2.0), n_agents=100, steps=200, replicates=2, master_seed=9
    )
    assert [r.n_mu for r in results] == [0.5, 2.0]

    wta, powerlaw = results
    assert wta.winner_take_all and wta.fit is None
    assert not powerlaw.winner_take_all and powerlaw.fit is not None
    assert powerlaw.fit.alpha > 1

    for r in results:
        assert r.mu == pytest.approx(r.n_mu / 100)
        assert np.all(r.samples >= 1)  # every product ever created sold at least once
        assert sum(count for _, _, count in r.histogram) == len(r.samples)


def test_sales_distribution_rejects_bad_target():
    with pytest.raises(ValueError, match="target"):
        run_sales_distribution(targets=(200.0,), n_agents=100, steps=50, replicates=1)



def test_inventory_curves_delegate_matches_closed_form():
    points = inventory_curve(alpha=3.5, ab_ratios=(100.0,), mu_grid=(0.01, 0.1))
    params = InventoryParams(profit_per_item=100.0, turnover_cost=1.0, mu=0.1, alpha=3.5)
    assert points[1].y_value == closed_form_stock(params)[0]
