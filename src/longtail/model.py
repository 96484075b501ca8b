"""Random-copying market simulator.

Each period every one of N agents buys exactly one product. A fraction mu
of them innovates (each buys a brand-new product); everyone else copies an
existing choice, picking product i with probability proportional to i's
sales in the *previous* period. Products that sell nothing in a period go
extinct and can never be bought again, so the set of live products keeps
turning over while its size stays bounded by N.

Randomness comes from numpy's PCG64 generator seeded from ``SimConfig.seed``;
the draw order inside a step is fixed (innovator-count coin flip first, then
one block of copier draws), which makes trajectories bit-reproducible for a
given (config, seed) on any platform.

Copiers are sampled through an owner table of N entries, one per agent,
holding the product that agent bought in the previous period (products in
id order, each repeated as often as it sold). A uniform draw below N picks
an agent, and the table gives its product in one lookup, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SimConfig:
    """Parameters for one simulation run.

    ``x0`` defaults to ``n_agents`` (one initial product per agent).
    ``burn_in`` counts early periods whose sales are excluded from the
    cumulative-sales record; with the default of 0 the initial allocation
    (period 0) is counted too.
    """

    n_agents: int
    mu: float
    steps: int
    x0: int | None = None
    seed: int = 0
    burn_in: int = 0

    def __post_init__(self):
        if self.x0 is None:
            self.x0 = self.n_agents
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be within [0, 1], got {self.mu}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 1 <= self.x0 <= self.n_agents:
            raise ValueError(f"x0 must be within [1, n_agents], got {self.x0}")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError(f"burn_in must be within [0, steps), got {self.burn_in}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class SimState:
    """Market state after some period.

    ``product_ids`` and ``sales`` describe the live products (ids ascending,
    sales summing to ``n_agents``). ``cumulative`` is indexed by product id
    and keeps accumulating sales for every product ever created, including
    extinct ones. Ids are never reused.
    """

    period: int
    product_ids: np.ndarray
    sales: np.ndarray
    cumulative: np.ndarray
    next_product_id: int

    @property
    def alive_count(self) -> int:
        return int(self.product_ids.size)


@dataclass
class TopYSeries:
    """Ranked best-seller lists, one per period (index = period number)."""

    y: int
    lists: list[list[int]] = field(default_factory=list)


def rank_top(product_ids: np.ndarray, sales: np.ndarray, y: int) -> np.ndarray:
    """Ids of the top-y sellers, sales descending, ties broken by lower id."""
    # stable sort + ascending id layout makes the tie-break implicit
    order = np.argsort(-sales, kind="stable")[:y]
    return product_ids[order]


def init_state(config: SimConfig) -> SimState:
    """Period-0 state: agents spread as evenly as possible over x0 products.

    When n_agents is not a multiple of x0 the remainder goes to the lowest
    product ids (round-robin assignment by id).
    """
    x0 = config.x0
    ids = np.arange(x0, dtype=np.int64)
    sales = np.full(x0, config.n_agents // x0, dtype=np.int64)
    sales[: config.n_agents % x0] += 1
    cumulative = sales.copy() if config.burn_in == 0 else np.zeros(x0, dtype=np.int64)
    return SimState(
        period=0,
        product_ids=ids,
        sales=sales,
        cumulative=cumulative,
        next_product_id=x0,
    )


def step(state: SimState, config: SimConfig, rng: np.random.Generator) -> SimState:
    """Advance one period; returns a new state, the input is not modified.

    The innovator count k is floor(mu*N) plus a Bernoulli draw on the
    fractional part, so E[k] = mu*N exactly. The other N-k agents each pick
    a product with probability proportional to its previous-period sales,
    sampled exactly by drawing uniform integers below N and reading each off
    the owner table: entry a of ``repeat(arange(L), sales)`` is the position
    of the product that agent a bought last period. Draw d lands on product
    i exactly when sales[0] + ... + sales[i-1] <= d < sales[0] + ... +
    sales[i], the product a right-sided binary search of the running sales
    totals finds (zero-sale products included), so with the same draws the
    trajectories match that sampler's bit for bit.
    """
    n = config.n_agents
    mu_n = config.mu * n
    k = int(mu_n)
    frac = mu_n - k
    if frac > 0.0 and rng.random() < frac:
        k += 1

    n_copiers = n - k
    if n_copiers > 0:
        owner = np.repeat(np.arange(state.sales.size), state.sales)
        draws = rng.integers(0, n, size=n_copiers)
        np.take(owner, draws, out=draws)  # each draw becomes its product's position
        del owner
        counts = np.bincount(draws, minlength=state.sales.size)
        del draws
    else:
        counts = np.zeros(state.sales.size, dtype=np.int64)

    survived = counts > 0
    sales = np.concatenate([counts[survived], np.ones(k, dtype=np.int64)])
    del counts
    new_ids = np.arange(state.next_product_id, state.next_product_id + k, dtype=np.int64)
    product_ids = np.concatenate([state.product_ids[survived], new_ids])

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


def run(config: SimConfig, y: int = 5) -> tuple[SimState, TopYSeries]:
    """Run init plus ``config.steps`` steps, recording the top-y list each period.

    Returns the final state and a TopYSeries with steps+1 lists (period 0
    included). Identical (config, y) inputs reproduce identical results.
    """
    if y < 1:
        raise ValueError(f"y must be >= 1, got {y}")
    rng = np.random.default_rng(config.seed)
    state = init_state(config)
    lists = [rank_top(state.product_ids, state.sales, y).tolist()]
    for _ in range(config.steps):
        state = step(state, config, rng)
        lists.append(rank_top(state.product_ids, state.sales, y).tolist())
    return state, TopYSeries(y=y, lists=lists)
