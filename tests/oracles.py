"""Independent oracles used to freeze expected values in the tests.

These stay deliberately separate from the library code paths they check:
the sampler draws from the target distribution by inverse CDF, the
searchsorted step picks each copier's product by binary search over the
running sales totals, the enumeration scans the stocking objective value by
value, the whole-array argmax takes one cumsum over every scanned rank, and
the high-precision sum recomputes the objective with 50-digit arithmetic.
"""

import math

import mpmath
import numpy as np

from longtail.inventory import InventoryParams, objective
from longtail.model import SimConfig, SimState


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

    period = state.period + 1
    next_id = state.next_product_id + k
    cumulative = np.concatenate([state.cumulative, np.zeros(k, dtype=np.int64)])
    if period > config.burn_in:
        cumulative[product_ids] += sales

    return SimState(
        period=period,
        product_ids=product_ids,
        sales=sales,
        cumulative=cumulative,
        next_product_id=next_id,
    )


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
