"""Ensemble drivers: seed derivation, reproducibility, histograms, sweeps."""

import concurrent.futures

import numpy as np
import pytest

from longtail import experiments
from longtail.analysis import InsufficientDataError
from longtail.experiments import (
    derive_run_seed,
    log_binned_histogram,
    per_mu_stats,
    run_sales_distribution,
    run_turnover_sweep,
)
from oracles import borel_pmf, traced_peak

SMALL = {"n_grid": (50, 100), "mu_grid": (0.02, 0.05), "runs_per_cell": 2, "steps": 60, "y": 3, "master_seed": 123}


def test_run_seeds_are_pure_and_distinct():
    assert derive_run_seed(7, 3, 1) == derive_run_seed(7, 3, 1)
    seeds = {derive_run_seed(7, cell, rep) for cell in range(30) for rep in range(10)}
    assert len(seeds) == 300
    assert derive_run_seed(8, 3, 1) != derive_run_seed(7, 3, 1)


def test_sweep_record_count_and_cell_order():
    cells, _ = run_turnover_sweep(**SMALL)
    assert len(cells) == len(SMALL["n_grid"]) * len(SMALL["mu_grid"])
    assert [(c.n_agents, c.mu) for c in cells] == [(n, mu) for n in SMALL["n_grid"] for mu in SMALL["mu_grid"]]


def test_sweep_parallel_matches_serial():
    serial, fit_serial = run_turnover_sweep(**SMALL, workers=1)
    parallel, fit_parallel = run_turnover_sweep(**SMALL, workers=2)
    assert serial == parallel
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
    cells, _ = run_turnover_sweep(**SMALL, workers=workers)
    assert sizes == ([] if pool_size is None else [pool_size])
    assert cells == run_turnover_sweep(**SMALL)[0]


def test_sweep_names_a_cell_without_turnover(monkeypatch):
    # 2 steps at N = 3 and mu <= 0.003 see no new product: z_bar is 0, which
    # the log-log fit cannot take
    empty = {"n_grid": (3,), "mu_grid": (0.001, 0.002, 0.003), "runs_per_cell": 1, "steps": 2, "y": 5,
             "master_seed": 0}
    # a pool runs every cell and reports the first empty one in grid order
    with pytest.raises(InsufficientDataError, match=r"cell N=3, mu=0\.001 "):
        run_turnover_sweep(**empty, workers=2)
    calls = []

    def counted(task, **protocol):
        calls.append(task)
        return run_cell(task, **protocol)

    run_cell = experiments._run_cell
    monkeypatch.setattr(experiments, "_run_cell", counted)  # after the pool: it cannot pickle counted
    with pytest.raises(InsufficientDataError, match=r"cell N=3, mu=0\.001 "):
        run_turnover_sweep(**empty)
    assert calls == [(0, (3, 0.001))]  # a serial sweep stops at the first empty cell


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_turnover_sweep(**SMALL, workers=workers)


def test_sweep_per_mu_stats_shape():
    cells, _ = run_turnover_sweep(**SMALL)
    stats = per_mu_stats(cells)
    assert [row[0] for row in stats] == list(SMALL["mu_grid"])
    for _, mean, std in stats:
        assert mean >= 0 and std >= 0


def test_spec_validation(monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the protocol was checked")

    # a check that stopped firing would run a cell, which fails here instead
    monkeypatch.setattr(experiments, "_run_cell", no_cell)
    with pytest.raises(ValueError):
        run_turnover_sweep(**{**SMALL, "n_grid": (), "mu_grid": (0.1,)})
    with pytest.raises(ValueError):
        run_turnover_sweep(**{**SMALL, "runs_per_cell": 0})
    # the pooled fit needs 2 distinct positive mu values and 3 cells
    with pytest.raises(ValueError, match="mu_grid"):
        run_turnover_sweep(**{**SMALL, "mu_grid": (0.01, 0.01)})
    with pytest.raises(ValueError, match="mu_grid"):
        run_turnover_sweep(**{**SMALL, "mu_grid": (0.0, 0.01)})
    with pytest.raises(ValueError, match="cells"):
        run_turnover_sweep(**{**SMALL, "n_grid": (100,), "mu_grid": (0.01, 0.02)})
    with pytest.raises(ValueError, match="n_grid"):
        run_turnover_sweep(**{**SMALL, "n_grid": (100, 0)})


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


def test_small_sales_follow_the_borel_law():
    # A product's lifetime sales are the total progeny of a branching process
    # with Poisson(1 - mu) copies per sale (oracles.borel_pmf), while s << N.
    # At N = 200, mu = 0.05 and s <= 10 (5% of N), the frequencies of 80 800
    # pooled products land within 4 binomial standard errors of the law: over
    # master seeds 0-11 every |z| stayed below 2.6 (seed 0: 0.7 at s = 1), while
    # the critical law (lambda = 1, ignoring that innovators do not copy) reads
    # z = 11.8 at s = 1 on the same samples.
    (result,) = run_sales_distribution(targets=(10.0,), n_agents=200, steps=2000, replicates=4, master_seed=0)
    samples, lam = result.samples, 1.0 - result.mu
    for s in (1, 2, 3, 5, 10):
        expected = borel_pmf(s, lam)
        z = (np.count_nonzero(samples == s) / samples.size - expected) / np.sqrt(
            expected * (1 - expected) / samples.size
        )
        assert abs(z) < 4, (s, z)


def test_sales_distribution_rejects_bad_target():
    with pytest.raises(ValueError, match="target"):
        run_sales_distribution(targets=(200.0,), n_agents=100, steps=50, replicates=1, master_seed=0)


def test_sweep_cell_keeps_no_lists_or_buffer():
    protocol = {"master_seed": 0, "runs_per_cell": 1, "steps": 4000, "y": 5}
    _, peak = traced_peak(experiments._run_cell, (0, (1000, 0.05)), **protocol)
    # streamed top lists peaked at 57 KB, flat in steps. Storing the 4001
    # lists peaked at 1.12 MB, and a cumulative buffer (1000 + 4000 * 50
    # int64 slots) would add 1.6 MB.
    assert peak < 300_000
