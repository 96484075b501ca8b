"""Independent oracles used to freeze expected values in the tests.

These stay deliberately separate from the library code paths they check:
the sampler draws from the target distribution by inverse CDF, the
searchsorted step picks each copier's product by binary search over the
running sales totals, the enumeration scans the stocking objective value by
value, the whole-array argmax takes one cumsum over every scanned rank, the
high-precision sum recomputes the objective with 50-digit arithmetic,
Ewens' sampling formula gives the expected number of live products, the
Borel law gives the frequencies of small cumulative sales, the market's
Markov chain at small N gives the exact mean turnover of a top-y list, and
the square of a reported fraction is taken in exact rational arithmetic.
``traced_peak`` measures the peak of Python-traced memory over one call.
The CSV writer and readers are the earlier ones built on ``csv.writer``,
``csv.DictReader`` and a ``csv.reader`` loop numbering rows by count.
"""

import csv
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from longtail.chartdata import CHART_HEADERS
from longtail.inventory import InventoryParams
from longtail.model import SimConfig, SimState


def traced_peak(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` under tracemalloc; return (result, peak bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def power_law_samples(alpha: float, n: int, s_min: float, seed: int) -> np.ndarray:
    """Inverse-CDF draws from the continuous power law P(s) ~ s^-alpha, s >= s_min."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return s_min * (1.0 - u) ** (-1.0 / (alpha - 1.0))


def step_searchsorted(state: SimState, config: SimConfig, rng: np.random.Generator) -> SimState:
    """Advance one period; returns a new state, the input is not modified.

    The innovator count k is floor(mu*N) plus a Bernoulli draw on the
    fractional part, so E[k] = mu*N exactly. The other N-k agents each pick
    a product with probability proportional to its previous-period sales,
    sampled exactly by drawing uniform integers below N against the
    cumulative integer weight table (rebuilt every step).
    """
    n = config.n_agents
    mu_n = config.mu * n
    k = int(mu_n)
    frac = mu_n - k
    if frac > 0.0 and rng.random() < frac:
        k += 1

    n_copiers = n - k
    if n_copiers > 0:
        cum_weights = np.cumsum(state.sales)
        draws = rng.integers(0, n, size=n_copiers)
        chosen = np.searchsorted(cum_weights, draws, side="right")
        counts = np.bincount(chosen, minlength=state.sales.size).astype(np.int64)
    else:
        counts = np.zeros(state.sales.size, dtype=np.int64)

    survived = counts > 0
    new_ids = np.arange(state.next_product_id, state.next_product_id + k, dtype=np.int64)
    product_ids = np.concatenate([state.product_ids[survived], new_ids])
    sales = np.concatenate([counts[survived], np.ones(k, dtype=np.int64)])

    return SimState(product_ids=product_ids, sales=sales, next_product_id=state.next_product_id + k)


def ewens_expected_types(n: int, theta: float) -> float:
    """Expected number of distinct types among n, Ewens' sampling formula: sum of theta/(theta+i), i < n."""
    return math.fsum(theta / (theta + i) for i in range(n))


def borel_pmf(s: int, lam: float) -> float:
    """Borel law e^(-lam*s) (lam*s)^(s-1) / s!: total progeny of a Poisson(lam) branching process.

    In the copying model every sale of a product draws, in the next period,
    Binomial(N - k, 1/N) copies, about Poisson(1 - mu) since k ~ mu*N
    innovators do not copy; so a product's cumulative sales over its life are
    Borel with lam = 1 - mu. That treats the copies of each sale as
    independent of all others, which holds only while the product's share s/N
    of the N purchases a period is small: a larger product draws from a
    market whose fixed size it depletes, so the law describes s << N only.
    The products still alive at a run's last step count only the sales they
    had so far; over many steps they are a small share of the sample.
    """
    return math.exp(-lam * s + (s - 1) * math.log(lam * s) - math.lgamma(s + 1))


def _compositions(total: int, parts: int, least: int):
    """Every tuple of ``parts`` integers, each at least ``least``, summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(least, total - least * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, least):
            yield (first, *rest)


def exact_turnover(n: int, mu: float, y: int, ties_to_newer: bool = False) -> float:
    """Exact mean turnover E[z] of the top-y list, from the market's finite Markov chain.

    A state is the live products' sales in age order, a composition of N.
    A period has k = floor(mu*N) innovators plus one more with probability
    of the fractional part; the N - k copiers split over the products by a
    multinomial with probabilities s_i / N. Products that sold nothing drop
    out, the survivors keep their order, and k newcomers with one sale each
    are appended. The list ranks sales descending, ties to the older product
    (to the newer with ``ties_to_newer``), and z counts its entries that
    were not on the previous period's list. E[z] is the stationary average
    of E[z | state]; the stationary vector solves pi P = pi, sum(pi) = 1.
    """
    def top(sales):
        return sorted(range(len(sales)), key=lambda i: (-sales[i], -i if ties_to_newer else i))[:y]

    k_low = math.floor(mu * n)
    frac = mu * n - k_low
    innovators = [(k_low, 1.0 - frac), (k_low + 1, frac)] if frac > 0 else [(k_low, 1.0)]
    states = [s for parts in range(1, n + 1) for s in _compositions(n, parts, 1)]
    index = {s: i for i, s in enumerate(states)}
    transition = np.zeros((len(states), len(states)))
    z_given = np.zeros(len(states))
    for i, sales in enumerate(states):
        before = set(top(sales))
        for k, p_k in innovators:
            for copies in _compositions(n - k, len(sales), 0):
                p = p_k * math.factorial(n - k) * math.prod(
                    (s / n) ** c / math.factorial(c) for s, c in zip(sales, copies))
                survivors = [j for j, c in enumerate(copies) if c]
                after = tuple(copies[j] for j in survivors) + (1,) * k
                transition[i, index[after]] += p
                # entry m of the next state is the old product survivors[m], or a newcomer
                z_given[i] += p * sum(m >= len(survivors) or survivors[m] not in before for m in top(after))
    system = transition.T - np.eye(len(states))
    system[-1] = 1.0
    pi = np.linalg.solve(system, np.eye(len(states))[-1])
    return float(pi @ z_given)


def square_of_repr(f: float) -> float:
    """The square of the decimal value that ``repr(f)`` prints, rounded once to float."""
    return float(Fraction(repr(f)) ** 2)


def objective(y: int, params: InventoryParams) -> float:
    """Stocking profit at integer shelf size y (exact partial sum)."""
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    if y > params.y_max:
        raise ValueError(f"y exceeds y_max={params.y_max}, got {y}")
    if y == 0:
        return 0.0
    ranks = np.arange(1, y + 1, dtype=float)
    head_sales = float(np.power(ranks, -params.alpha).sum())
    return params.profit_per_item * head_sales - params.turnover_cost * y * math.sqrt(params.mu)


def argmax_by_enumeration(params: InventoryParams, y_max: int) -> int:
    """Exhaustive scan of the stocking objective over 0..y_max."""
    values = [objective(y, params) for y in range(y_max + 1)]
    return int(np.argmax(values))


def bruteforce_whole_array(params: InventoryParams) -> tuple[int, float]:
    """(y, objective) of the stocking argmax from one cumsum over ranks 1..limit.

    The same scan limit as ``bruteforce_stock`` (the marginal root, or y_max
    when the root lies beyond it), but all ranks held in memory at once.
    """
    a, cost = params.profit_per_item, params.turnover_cost * math.sqrt(params.mu)
    limit = 0
    if a > 0.0:
        root = (a / cost) ** (1.0 / params.alpha)
        capped = not math.isfinite(root) or root >= params.y_max
        limit = params.y_max if capped else min(params.y_max, math.ceil(root) + 1)
    ranks = np.arange(1, limit + 1, dtype=float)
    values = np.concatenate([[0.0], a * np.cumsum(np.power(ranks, -params.alpha)) - cost * ranks])
    y = int(np.argmax(values))
    return y, float(values[y])


def objective_highprec(y: int, a, b, mu, alpha) -> mpmath.mpf:
    """The stocking objective summed at 50-digit precision."""
    with mpmath.workdps(50):
        head = mpmath.fsum(mpmath.mpf(i) ** (-alpha) for i in range(1, y + 1))
        return a * head - b * y * mpmath.sqrt(mu)


def _f17(value: float) -> str:
    """17-significant-digit float serialization (round-trip safe)."""
    return format(float(value), ".17g")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return _f17(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _read_sales_column(path: Path) -> list[int]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        column = next((c for c in ("sales", "cumulative_sales") if c in fields), None)
        if column is None:
            raise ValueError(f"{path}: no 'sales' or 'cumulative_sales' column (found: {','.join(fields)})")
        values = []
        for line_no, row in enumerate(reader, start=2):
            raw = row.get(column)
            try:
                value = int(raw)
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{line_no}: sales value {raw!r} is not an integer") from None
            if value < 0:
                raise ValueError(f"{path}:{line_no}: sales value {value} is negative")
            values.append(value)
    return values


def load_chart(path: str | Path) -> list[list[int]]:
    """Per-period ranked product-id lists from a chart CSV."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
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
