"""Acceptance suite: one test per shipped claim, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 1-4 read the
files of the shipped presets, run through the CLI: ``2left`` at the target
N*mu = 2, and ``2right`` at its defaults (60 cells), one worker process per
CPU, shared between tests: about 12 s on 2 CPUs, of about 15 s in total.
"""

import csv
import hashlib
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from longtail.analysis import (
    LogLogFit, PowerLawFit, calibrate_mu, expected_turnover, fit_alpha, fit_turnover_exponent, turnover,
)
from longtail.cli import main as cli_main
from longtail.experiments import CellResult, derive_run_seed, per_mu_stats
from longtail.inventory import InventoryParams, bruteforce_stock, closed_form_stock
from longtail.model import SimConfig, run, top_lists, trajectory
from oracles import argmax_by_enumeration, power_law_samples, rank_top_ties_to_newer


def _criterion(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


# SHA-256 of the 2right preset's data files at its defaults (numpy 2.4.6)
SWEEP_DIGESTS = {
    "turnover_sweep.csv": "5cc9dc45e5a5eccb8ca89e18ae87e22e40d739cd5c0cef33a3b6cc03b9cbb94f",
    "turnover_by_mu.csv": "d20ab7f01d3b1cca3b25fb09448a7efd18aa055d1a743d811364b32a9bcdcb76",
    "turnover_fit.json": "ab23af5c6f102ac5b1052bba3c8ecaa90bafc2eec1121629a44aad8118efcc13",
}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(cells, fit, y) of the 2right preset, read back from its files."""
    out = tmp_path_factory.mktemp("2right")
    started = time.monotonic()
    assert cli_main(["reproduce", "--figure", "2right", "--workers", os.cpu_count() or 1, "--out-dir", out]) == 0
    # the shipped preset's bytes: no other test runs the sweep at its defaults
    for name, digest in SWEEP_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    config = json.loads((out / "manifest.json").read_text())["config"]
    with (out / "turnover_sweep.csv").open(newline="") as fh:
        cells = [
            CellResult(n_agents=int(row["n_agents"]), mu=float(row["mu"]), z_bar=float(row["z_bar"]),
                       z_std=float(row["z_std"]))
            for row in csv.DictReader(fh)
        ]
    fit = LogLogFit(**json.loads((out / "turnover_fit.json").read_text()))
    print(f"\n[turnover sweep: {len(cells)} cells x {config['runs']} runs in {time.monotonic() - started:.1f}s]")
    return cells, fit, config["y"]


@pytest.fixture(scope="module")
def pooled_distribution(tmp_path_factory):
    """The exponent fit of the 2left preset at N*mu = 2, read back from exponent_fits.json."""
    out = tmp_path_factory.mktemp("2left")
    started = time.monotonic()
    assert cli_main(["reproduce", "--figure", "2left", "--targets", 2, "--out-dir", out]) == 0
    (target,) = json.loads((out / "exponent_fits.json").read_text())
    print(f"\n[sales distribution ensemble in {time.monotonic() - started:.1f}s; runtime target < 60s]")
    return PowerLawFit(**target["fit"])


def test_01_power_law_emergence(pooled_distribution):
    fit = pooled_distribution
    passed = 1.4 <= fit.alpha <= 1.7
    _criterion(
        1,
        "power-law emergence",
        passed,
        f"pooled alpha={fit.alpha:.4f} over {fit.n_samples} samples, required [1.4, 1.7]",
    )


def test_02_turnover_innovation_law(sweep):
    _, fit, _ = sweep
    passed = 0.3 <= fit.slope <= 0.5 and fit.r_squared >= 0.9
    _criterion(
        2,
        "turnover ~ mu^0.4",
        passed,
        f"slope={fit.slope:.4f} (required [0.3, 0.5]), r2={fit.r_squared:.4f} (required >= 0.9)",
    )


def test_03_population_size_independence(sweep):
    cells, _, _ = sweep
    worst_mu, worst_cov = None, -1.0
    for mu, mean, std in per_mu_stats(cells):
        cov = std / mean
        if cov > worst_cov:
            worst_mu, worst_cov = mu, cov
    passed = worst_cov < 0.2
    _criterion(
        3,
        "N-independence of turnover",
        passed,
        f"worst CoV across N is {worst_cov:.4f} at mu={worst_mu} (required < 0.2)",
    )


def test_04_sqrt_mu_approximation(sweep):
    cells, _, y = sweep
    worst_cell, worst_ratio = None, 1.0
    for cell in cells:
        reference = expected_turnover(y, cell.mu)
        ratio = max(cell.z_bar / reference, reference / cell.z_bar)
        if ratio > worst_ratio:
            worst_cell, worst_ratio = cell, ratio
    passed = worst_ratio <= 2.0
    detail = f"worst |log2 ratio| cell N={worst_cell.n_agents} mu={worst_cell.mu}: factor {worst_ratio:.3f} (required <= 2)"
    _criterion(4, "z_bar within factor 2 of y*sqrt(mu)", passed, detail)


def test_05_winner_take_all_regime():
    shares = {}
    for cell_index, mu in enumerate((0.005, 0.05)):  # N*mu = 0.5 vs 5 at N=100
        values = []
        for replicate in range(10):
            seed = derive_run_seed(0, cell_index, replicate)
            cumulative, _ = run(SimConfig(n_agents=100, mu=mu, steps=1000, seed=seed), y=1)
            values.append(cumulative.max() / cumulative.sum())
        shares[mu] = float(np.median(values))
    passed = shares[0.005] > shares[0.05]
    _criterion(
        5,
        "winner-take-all at N*mu <= 1",
        passed,
        f"median top-1 share {shares[0.005]:.3f} at N*mu=0.5 vs {shares[0.05]:.3f} at N*mu=5",
    )


def test_06_inventory_claims():
    mu_grid = np.geomspace(1e-4, 0.5, 60)
    worst_100 = max(
        closed_form_stock(InventoryParams(100.0, 1.0, float(mu), 3.5))[0] for mu in mu_grid
    )
    worst_1e6 = max(
        closed_form_stock(InventoryParams(1e6, 1.0, float(mu), 3.5))[0] for mu in mu_grid
    )
    passed = worst_100 < 20 and worst_1e6 <= 100
    _criterion(
        6,
        "closed-form shelf sizes stay small",
        passed,
        f"max y: {worst_100:.2f} at A/B=100 (required < 20), {worst_1e6:.2f} at A/B=1e6 (required <= 100)",
    )


def test_07_optimizer_correctness():
    rng = np.random.default_rng(20250809)
    disagreements = 0
    for _ in range(100):
        a = float(10 ** rng.uniform(-1, 1.7))
        b = float(10 ** rng.uniform(-0.3, 0.7))
        mu = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(1.2, 5.0))
        params = InventoryParams(a, b, mu, alpha, y_max=300)
        result = bruteforce_stock(params)
        y_star = result.y_bruteforce
        cost = b * math.sqrt(mu)

        assert y_star == argmax_by_enumeration(params, 300)
        # marginal condition: rank y_star still pays for itself, y_star+1 does not
        if y_star >= 1:
            assert a * y_star ** (-alpha) >= cost
        assert cost > a * (y_star + 1) ** (-alpha)
        if result.y_closed_form_floor != y_star:
            disagreements += 1
            assert result.note is not None
    _criterion(
        7,
        "exact optimizer vs enumeration + marginal condition",
        True,
        f"100 randomized parameter sets; closed form disagreed with argmax in {disagreements} (reported, not asserted away)",
    )


def test_08_mle_recovery():
    errors = []
    for seed in range(5):
        samples = power_law_samples(alpha=2.5, n=100_000, s_min=1.0, seed=seed)
        errors.append(abs(fit_alpha(samples, s_min=1).alpha - 2.5))
    passed = all(e <= 0.05 for e in errors)
    _criterion(
        8,
        "MLE recovers synthetic alpha=2.5",
        passed,
        f"max |alpha_hat - 2.5| = {max(errors):.4f} over 5 seeds (required <= 0.05)",
    )


def test_09_calibration_round_trip():
    y = 5
    max_error = max(
        abs(calibrate_mu(expected_turnover(y, mu) / y) - mu) for mu in (0.0, 1e-4, 1e-2, 0.25, 1.0)
    )
    exact = calibrate_mu(0.056) == 0.003136
    passed = max_error <= 1e-12 and exact
    _criterion(
        9,
        "mu calibration inverts the sqrt rule",
        passed,
        f"max round-trip error {max_error:.2e} (required <= 1e-12); calibrate_mu(0.056) == 0.003136 is {exact}",
    )


def test_10_reproduce_byte_identical(tmp_path):
    cases = [
        ("3", []),  # figure 3 draws nothing, so it reads no --seed
        ("2left", ["--seed", "11", "--targets", "0.5,2", "--n", "100", "--steps", "200", "--runs", "2"]),
        ("2right", ["--seed", "11", "--n-grid", "100,200", "--mu-grid", "0.01,0.05", "--runs", "2", "--steps", "100"]),
    ]
    compared = 0
    for figure, extra in cases:
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{figure}-{attempt}"
            code = cli_main(
                ["reproduce", "--figure", figure, "--out-dir", str(out), *extra]
            )
            assert code == 0
            dirs.append(out)
        for path in sorted(dirs[0].glob("*.csv")):
            assert path.read_bytes() == (dirs[1] / path.name).read_bytes(), path.name
            compared += 1
    _criterion(
        10,
        "reproduce outputs are byte-identical",
        True,
        f"{compared} CSV files compared across repeated runs of all three presets",
    )


def test_11_turnover_across_list_sizes():
    # z ~ y*sqrt(mu) is linear in y as well as in sqrt(mu): each run's top-50
    # stream gives every smaller list as a prefix, so one run serves each y
    list_sizes = (1, 2, 5, 10, 20, 50)
    details, passed = [], True
    for cell_index, (n_agents, mu) in enumerate(((1000, 0.01), (1000, 0.002), (500, 0.05))):
        z_bars = np.zeros(len(list_sizes))
        for replicate in range(4):
            seed = derive_run_seed(0, cell_index, replicate)
            lists = list(top_lists(SimConfig(n_agents=n_agents, mu=mu, steps=2000, seed=seed), 50))
            z_bars += [turnover([l[:y] for l in lists]).z_bar / 4 for y in list_sizes]
        ratios = [z / expected_turnover(y, mu) for z, y in zip(z_bars, list_sizes)]
        passed = passed and all(0.5 <= r <= 2.0 for r in ratios)
        slope = np.polyfit(np.log(list_sizes), np.log(z_bars), 1)[0]
        details.append(f"N={n_agents} mu={mu}: ratios {' '.join(f'{r:.2f}' for r in ratios)}, slope {slope:.3f}")
    _criterion(
        11,
        "z_bar/(y*sqrt(mu)) in [0.5, 2] for y in 1-50",
        passed,
        f"y = {', '.join(map(str, list_sizes))}; " + "; ".join(details),
    )


def test_12_turnover_laws_hold_with_ties_to_the_newer_product():
    # the bands of criteria 2 and 4, fixed before the first run, on lists
    # ranked by the other tie rule: each state of model.trajectory ranked by
    # the oracle, 18 cells (N x the 2right mu grid) x 3 runs of 1000 steps
    y, runs, steps = 5, 3, 1000
    cells, details, worst_ratio = [], [], 1.0
    grid = itertools.product((200, 500, 1000), (0.002, 0.003, 0.005, 0.01, 0.02, 0.05))
    for cell_index, (n_agents, mu) in enumerate(grid):
        z_bars, ties, periods = [], 0, 0
        for replicate in range(runs):
            lists = []
            for state in trajectory(SimConfig(n_agents, mu, steps, derive_run_seed(12, cell_index, replicate))):
                lists.append(rank_top_ties_to_newer(state.product_ids, state.sales, y))
                ranked = np.sort(state.sales)[::-1]
                ties += len(ranked) > y and ranked[y - 1] == ranked[y]  # the rule picks the list's last entry
                periods += 1
            z_bars.append(turnover(lists).z_bar)
        cell = CellResult(n_agents=n_agents, mu=mu, z_bar=float(np.mean(z_bars)), z_std=float(np.std(z_bars)))
        cells.append(cell)
        reference = expected_turnover(y, mu)
        worst_ratio = max(worst_ratio, cell.z_bar / reference, reference / cell.z_bar)
        details.append(f"N={n_agents} mu={mu}: z_bar {cell.z_bar:.3f}, boundary ties {ties / periods:.3f}")
    fit = fit_turnover_exponent([(c.mu, c.z_bar) for c in cells])
    print("\n" + "\n".join(details))
    passed = 0.3 <= fit.slope <= 0.5 and fit.r_squared >= 0.9 and worst_ratio <= 2.0
    _criterion(
        12,
        "criteria 2 and 4 with ties to the newer product",
        passed,
        f"slope={fit.slope:.4f} (required [0.3, 0.5]), r2={fit.r_squared:.4f} (required >= 0.9), "
        f"worst factor {worst_ratio:.3f} from y*sqrt(mu) (required <= 2)",
    )
