"""Random-copying market simulator.

Each period every one of N agents buys exactly one product. A fraction mu
of them innovates (each buys a brand-new product); everyone else copies an
existing choice, picking product i with probability proportional to i's
sales in the *previous* period. Products that sell nothing in a period go
extinct and can never be bought again, so the set of live products keeps
turning over while its size stays bounded by N.

Randomness comes from numpy's PCG64 generator seeded from ``SimConfig.seed``;
the draw order inside a step is fixed (innovator-count coin flip first, then
the copier draws), which makes trajectories bit-reproducible for a given
(config, seed) on any platform. The copiers are drawn in blocks of
COPIER_BLOCK, which give the same values, and leave the generator in the
same state, as one call for all of them would: ``Generator.integers``
buffers nothing from one call to the next.

Copiers are sampled through an owner table of N entries, one per agent,
holding the product that agent bought in the previous period (products in
id order, each repeated as often as it sold). A uniform draw below N picks
an agent, and the table gives its product in one lookup, with no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# numpy makes no int64 array of 2**60 entries (np.arange a few fewer) and a step holds up to 2N,
# so below this bound an N too large fails as a MemoryError, which run and the sweep report
MAX_AGENTS = 2**59

# copier draws per block of a step: each int64 block is 64 KB and is counted
# before the next is drawn, so a step at large N makes no N-entry draws array
# (that is the saving, not glibc's mmap threshold, which is dynamic: mallopt(3))
COPIER_BLOCK = 1 << 13


@dataclass
class SimConfig:
    """Parameters for one simulation run.

    Period 0 gives each of the ``n_agents`` agents its own product with one
    sale; ``run`` counts every period's sales, period 0's included.
    """

    n_agents: int
    mu: float
    steps: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_agents < MAX_AGENTS:
            raise ValueError(f"n_agents must be within [1, 2**59), got {self.n_agents}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be within [0, 1], got {self.mu}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class SimState:
    """Market state after some period.

    ``product_ids`` and ``sales`` describe the live products (ids ascending,
    sales summing to ``n_agents``). Ids are never reused; ``next_product_id``
    is the number of products ever created. Cumulative sales are not part of
    the state: ``run`` keeps them.
    """

    product_ids: np.ndarray
    sales: np.ndarray
    next_product_id: int


def rank_top(product_ids: np.ndarray, sales: np.ndarray, y: int) -> np.ndarray:
    """Ids of the top-y sellers, sales descending, ties broken by lower id."""
    # stable sort + ascending id layout makes the tie-break implicit
    order = np.argsort(-sales, kind="stable")[:y]
    return product_ids[order]


def init_state(config: SimConfig) -> SimState:
    """Period-0 state: one product per agent, each with one sale.

    ``sales`` is a read-only int64 view of a single 1, so the state holds one
    N-entry array, its ids.
    """
    n = config.n_agents
    return SimState(product_ids=np.arange(n, dtype=np.int64), sales=np.broadcast_to(np.int64(1), n), next_product_id=n)


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

    The draws come in blocks of COPIER_BLOCK, each mapped through the owner
    table and counted before the next is drawn; they equal the draws of one
    call for all N-k copiers. So a step holds the owner table, the counts
    and one 64 KB block.

    Raises ValueError when the state's sales do not sum to ``n_agents``:
    the owner table must hold exactly one entry per agent.
    """
    n = config.n_agents
    owner = np.repeat(np.arange(state.sales.size), state.sales)
    if owner.size != n:
        raise ValueError(f"state sales must sum to n_agents = {n}, got {owner.size}")
    mu_n = config.mu * n
    k = int(mu_n)
    frac = mu_n - k
    if frac > 0.0 and rng.random() < frac:
        k += 1

    # with no copiers (k == n) the empty first block draws nothing from rng
    # and bincount gives int64 zeros, so every product goes extinct
    copiers = n - k
    size = state.sales.size
    for lo in range(0, max(copiers, 1), COPIER_BLOCK):
        block = rng.integers(0, n, size=min(COPIER_BLOCK, copiers - lo))
        # each draw becomes its product's position; every draw is below owner.size,
        # so "clip" never acts, and unlike "raise" it does not copy the block first
        np.take(owner, block, out=block, mode="clip")
        if lo == 0:  # the k newcomers get the last k bins
            counts = np.bincount(block, minlength=size + k)
        else:
            np.add.at(counts, block, 1)
    del owner, block
    counts[size:] = 1  # each newcomer's one sale

    survived = counts > 0
    sales = counts[survived]
    del counts
    new_ids = np.arange(state.next_product_id, state.next_product_id + k, dtype=np.int64)
    product_ids = np.concatenate([state.product_ids[survived[:size]], new_ids])
    return SimState(product_ids=product_ids, sales=sales, next_product_id=state.next_product_id + k)


def trajectory(config: SimConfig) -> Iterator[SimState]:
    """Yield the period-0 state, then the state after each of ``config.steps`` steps.

    All steps draw from one ``default_rng(config.seed)``, so identical
    configs yield identical states. Only states are yielded: a consumer
    that drops its reference to a state before asking for the next one
    holds one state at a time.
    """
    rng = np.random.default_rng(config.seed)
    state = init_state(config)
    yield state
    for _ in range(config.steps):
        state = step(state, config, rng)
        yield state


def top_lists(config: SimConfig, y: int = 5) -> Iterator[list[int]]:
    """The ids of each period's top-y sellers, ranked as by ``rank_top``, one
    list per state of ``trajectory(config)``, made as they are read.

    Raises ValueError for y < 1 when called, before any step.
    """
    if y < 1:
        raise ValueError(f"y must be >= 1, got {y}")
    return (rank_top(state.product_ids, state.sales, y).tolist() for state in trajectory(config))


def run(config: SimConfig, y: int = 5) -> tuple[np.ndarray, list[list[int]]]:
    """Run init plus ``config.steps`` steps, recording the top-y list each period.

    Returns ``(cumulative, lists)``: ``cumulative[i]`` is product i's sales
    summed over all steps+1 periods, for every product ever created;
    ``lists`` equals ``list(top_lists(config, y))``, the steps+1 periods'
    top lists (period 0 included), from the same draws. Identical
    (config, y) inputs reproduce identical results. A caller that reads
    only the top lists, like the turnover sweep, streams ``top_lists``
    instead and keeps neither the buffer nor the lists. Each state's sales
    are added to the buffer once the next state exists, so period 0's N
    writes to the buffer's untouched (calloc) pages do not overlap step 1.

    Raises ValueError when numpy cannot allocate the cumulative-sales
    buffer, before the first step, naming ``steps`` when it exceeds the
    one-step buffer ``N + ceil(mu*N)`` (the buffer is at most their
    product) and ``n_agents`` otherwise; and naming ``n_agents`` when it
    cannot allocate a state or a step's arrays.
    """
    if y < 1:
        raise ValueError(f"y must be >= 1, got {y}")
    # step creates at most ceil(mu*N) products a period (the same float
    # product it rounds), so this one buffer holds every id run can reach
    per_step = math.ceil(config.mu * config.n_agents)
    try:
        totals = np.zeros(config.n_agents + config.steps * per_step, dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        # the buffer is at most steps times the one-step buffer: name the larger of the two
        larger = config.steps > config.n_agents + per_step
        name, value = ("steps", config.steps) if larger else ("n_agents", config.n_agents)
        raise ValueError(f"{name} {value} need a cumulative-sales buffer numpy cannot allocate: {exc}") from None
    lists, pending = [], None
    try:
        for state in trajectory(config):
            if pending is not None:  # one state late, so that step 1 runs before period 0's writes
                totals[pending.product_ids] += pending.sales
            pending = state
            lists.append(rank_top(state.product_ids, state.sales, y).tolist())
        totals[state.product_ids] += state.sales
    except MemoryError as exc:  # a state or a step holds arrays of up to about 2N entries
        raise ValueError(f"n_agents {config.n_agents} need arrays numpy cannot allocate: {exc}") from None
    return totals[: state.next_product_id], lists
