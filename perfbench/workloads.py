"""The three benchmark workloads: what each runs and how its output is checked.

Every workload is a closed loop with one caller: a pass is a fixed list of
``longtail.cli.main`` argv lists that one fresh child process runs in
order. Inputs derive from the workload seed only. Each ``cli.main`` call is
one attempted operation; it fails when its exit code is not 0 or when its
output fails a check below. Every check runs on every pass.

* ``sweep``: ``reproduce --figure 2right`` over the default 60-cell grid
  (N = 100..1000, six mu values, y = 5, 1000 steps) with 2 replicates per
  cell and one worker. Many small steps: per-call overhead of ``model.step``
  and ``rank_top`` dominates.
* ``simulate-large``: ``simulate --n 100000 --mu 0.001 --y 5 --steps 300``.
  Kernel-bound (the copier sampler) and write-heavy (about 1.2 MB of
  cumulative-sales CSV).
* ``analyze``: the read side, never touching ``model``. 100 each of
  ``fit`` (20 000-row sales CSV), ``turnover`` (1000-period x 10 chart CSV,
  y = 5) and ``optimize`` (25 parameter tuples, 5 of them capped at
  y_max = 10^6), interleaved fit, turnover, optimize.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDENS = Path(__file__).with_name("goldens.json")

SWEEP_RUNS, SWEEP_STEPS, SWEEP_Y = 2, 1000, 5
SWEEP_N_GRID, SWEEP_MU_COUNT = tuple(range(100, 1001, 100)), 6
SIM_N, SIM_MU, SIM_Y, SIM_STEPS = 100_000, 0.001, 5, 300

SALES_ROWS, SALES_ALPHA = 20_000, 1.6
CHART_PERIODS, CHART_LENGTH, CHART_Y, CHART_ENTRY_P = 1000, 10, 5, 0.2
OPT_TUPLES, OPT_CAPPED, OPT_Y_MAX = 25, 5, 1_000_000
ANALYZE_ROUNDS, ANALYZE_KINDS = 100, ("fit", "turnover", "optimize")


def program_seed(seed: int) -> int:
    """The seed handed to the program for a benchmark seed."""
    return seed % 2**32


def data_hashes(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every data file in an output directory.

    manifest.json is left out because it records a wall-clock duration;
    the SVG plots are left out because they are renderings, not data.
    """
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.suffix in (".csv", ".json") and p.name != "manifest.json"
    }


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _entrants(lists: list[list[int]]) -> list[int]:
    """z_t = |top(t) - top(t-1)|, counted with plain sets."""
    return [len(set(cur) - set(prev)) for prev, cur in zip(lists, lists[1:])]


class Workload:
    """A named workload: the argv of one pass and the checks on its output."""

    name = ""
    agent_steps = 0  # sum of N * steps simulated in one pass

    def __init__(self, seed: int, work: Path):
        self.seed = program_seed(seed)
        self.out_dir = work / "out"
        golden = json.loads(GOLDENS.read_text()).get(self.name, {})
        self.golden = golden.get(str(self.seed))

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, calls: list[dict]) -> list[str]:
        """One message per failed operation of a pass; empty when all passed."""
        raise NotImplementedError

    def _check_golden(self) -> list[str]:
        if self.golden is None:
            return []
        actual = data_hashes(self.out_dir)
        return [f"{name}: SHA-256 differs from the golden" for name, digest in self.golden.items() if actual.get(name) != digest]


class Sweep(Workload):
    name = "sweep"
    agent_steps = sum(SWEEP_N_GRID) * SWEEP_MU_COUNT * SWEEP_RUNS * SWEEP_STEPS

    def calls(self):
        return [[
            "reproduce", "--figure", "2right", "--out-dir", str(self.out_dir),
            "--seed", str(self.seed), "--runs", str(SWEEP_RUNS), "--workers", "1",
        ]]

    def check(self, calls):
        if calls[0]["code"] != 0:
            return [f"reproduce exited {calls[0]['code']}"]
        errors = self._check_golden()
        cells = _read_rows(self.out_dir / "turnover_sweep.csv")
        grid = sorted(int(c["n_agents"]) for c in cells)
        if grid != sorted(SWEEP_N_GRID * SWEEP_MU_COUNT):
            errors.append("turnover_sweep.csv does not hold the default 60-cell grid")
        if not all(0.0 <= float(c["z_bar"]) <= SWEEP_Y for c in cells):
            errors.append(f"a cell's z_bar lies outside [0, {SWEEP_Y}]")
        fit = json.loads((self.out_dir / "turnover_fit.json").read_text())
        if not (0.3 <= fit["slope"] <= 0.5 and fit["r_squared"] >= 0.9):
            errors.append(f"turnover fit slope {fit['slope']:.4f}, r^2 {fit['r_squared']:.4f} outside the sqrt-mu law")
        return ["; ".join(errors)] if errors else []


class SimulateLarge(Workload):
    name = "simulate-large"
    agent_steps = SIM_N * SIM_STEPS

    def calls(self):
        return [[
            "simulate", "--n", str(SIM_N), "--mu", repr(SIM_MU), "--y", str(SIM_Y),
            "--steps", str(SIM_STEPS), "--seed", str(self.seed), "--out-dir", str(self.out_dir),
        ]]

    def check(self, calls):
        if calls[0]["code"] != 0:
            return [f"simulate exited {calls[0]['code']}"]
        errors = self._check_golden()
        cumulative = _read_rows(self.out_dir / "cumulative_sales.csv")
        if [int(r["product_id"]) for r in cumulative] != list(range(len(cumulative))):
            errors.append("cumulative_sales.csv product ids are not 0..M-1")
        total = sum(int(r["cumulative_sales"]) for r in cumulative)
        if total != SIM_N * (SIM_STEPS + 1):
            errors.append(f"cumulative sales sum to {total}, expected N*(steps+1) = {SIM_N * (SIM_STEPS + 1)}")
        tops: dict[int, list[int]] = {}
        for r in _read_rows(self.out_dir / "top_products.csv"):
            tops.setdefault(int(r["period"]), []).append(int(r["product_id"]))
        lists = [tops.get(t, []) for t in range(SIM_STEPS + 1)]
        if len(tops) != SIM_STEPS + 1 or any(len(set(ids)) != SIM_Y or len(ids) != SIM_Y for ids in lists):
            errors.append(f"top_products.csv does not hold {SIM_Y} distinct ids for each of {SIM_STEPS + 1} periods")
        z = [int(r["new_entries"]) for r in _read_rows(self.out_dir / "turnover.csv")]
        if not all(0 <= v <= SIM_Y for v in z):
            errors.append(f"a turnover z_t lies outside [0, {SIM_Y}]")
        if z != _entrants(lists):
            errors.append("turnover.csv differs from the set-difference count of top_products.csv")
        return ["; ".join(errors)] if errors else []


def _bruteforce_shelf(a: float, b: float, mu: float, alpha: float, y_max: int) -> int:
    """Exact argmax over every y in 0..y_max of A*sum_{i<=y} i^-alpha - B*y*sqrt(mu).

    Enumerates the whole range instead of stopping at the marginal root, so
    it checks the program's early stop as well as its arithmetic.
    """
    ranks = np.arange(1, y_max + 1, dtype=float)
    values = np.concatenate([[0.0], a * np.cumsum(np.power(ranks, -alpha)) - b * math.sqrt(mu) * ranks])
    return int(np.argmax(values))


class Analyze(Workload):
    name = "analyze"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = np.random.default_rng(self.seed)
        work.mkdir(parents=True, exist_ok=True)

        # Discrete power-law sales: P(S >= s) ~ s^-(alpha-1) by inversion,
        # capped so that no value overflows.
        u = 1.0 - rng.random(SALES_ROWS)
        sales = np.minimum(np.floor(u ** (-1.0 / (SALES_ALPHA - 1.0))), 1e9).astype(np.int64).tolist()
        self.sales_csv = work / "sales.csv"
        self.sales_csv.write_text(
            "product_id,cumulative_sales\n" + "".join(f"{i},{s}\n" for i, s in enumerate(sales))
        )
        self.expected_fit = (1.0 + len(sales) / math.fsum(math.log(s) for s in sales), len(sales))

        # Ranked chart: each period some entries are replaced by new ids,
        # then the list is re-ranked; sales descend with rank.
        current = list(range(CHART_LENGTH))
        next_id = CHART_LENGTH
        lists, lines = [], ["period,product_id,sales\n"]
        for period in range(CHART_PERIODS):
            for pos in np.flatnonzero(rng.random(CHART_LENGTH) < CHART_ENTRY_P).tolist():
                current[pos] = next_id
                next_id += 1
            current = [current[i] for i in rng.permutation(CHART_LENGTH).tolist()]
            counts = np.sort(rng.integers(1, 10_000, CHART_LENGTH))[::-1].tolist()
            lists.append(list(current))
            lines.extend(f"{period},{pid},{s}\n" for pid, s in zip(current, counts))
        self.chart_csv = work / "chart.csv"
        self.chart_csv.write_text("".join(lines))
        z = _entrants([ids[:CHART_Y] for ids in lists])
        self.expected_z = (z, sum(z) / len(z))

        # optimize parameter tuples (A, B, mu, alpha); the first OPT_CAPPED
        # have a marginal root beyond y_max, so the program scans 10^6 ranks.
        self.tuples = []
        while len(self.tuples) < OPT_TUPLES:
            capped = len(self.tuples) < OPT_CAPPED
            a = float(10 ** rng.uniform(2, 4) if capped else 10 ** rng.uniform(0, 4))
            b = float(10 ** rng.uniform(-1, 1))
            mu = float(10 ** rng.uniform(-3, math.log10(0.5)))
            alpha = float(rng.uniform(0.3, 0.6) if capped else rng.uniform(1.2, 4.0))
            root = (a / (b * math.sqrt(mu))) ** (1.0 / alpha)
            if (root >= 2 * OPT_Y_MAX) if capped else (root < OPT_Y_MAX / 10):
                self.tuples.append((a, b, mu, alpha))
        self.expected_y = [_bruteforce_shelf(*t, OPT_Y_MAX) for t in self.tuples]

    def calls(self):
        calls = []
        for i in range(ANALYZE_ROUNDS):
            a, b, mu, alpha = self.tuples[i % OPT_TUPLES]
            calls.append(["fit", "--input", str(self.sales_csv)])
            calls.append(["turnover", "--input", str(self.chart_csv), "--y", str(CHART_Y)])
            calls.append(["optimize", "--A", repr(a), "--B", repr(b), "--mu", repr(mu), "--alpha", repr(alpha)])
        return calls

    def check(self, calls):
        errors = []
        for i, call in enumerate(calls):
            kind = ANALYZE_KINDS[i % 3]
            if call["code"] != 0:
                errors.append(f"{kind} call {i} exited {call['code']}")
                continue
            out = json.loads(call["stdout"])
            if kind == "fit":
                alpha, n = self.expected_fit
                ok = out["n_samples"] == n and math.isclose(out["alpha"], alpha, rel_tol=1e-9)
            elif kind == "turnover":
                z, z_bar = self.expected_z
                ok = out["z_per_period"] == z and math.isclose(out["z_bar"], z_bar, rel_tol=1e-12)
            else:
                ok = out["y_bruteforce"] == self.expected_y[(i // 3) % OPT_TUPLES]
            if not ok:
                errors.append(f"{kind} call {i} output differs from the independent recomputation")
        return errors


WORKLOADS = {w.name: w for w in (Sweep, SimulateLarge, Analyze)}
