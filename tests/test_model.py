"""Core simulator: initialization, stepping rules, invariants, determinism."""

import math
from collections import Counter, deque

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longtail.analysis import turnover
from longtail.model import SimConfig, SimState, init_state, rank_top, run, step, top_lists, trajectory
from oracles import ewens_expected_types, exact_state_law, exact_turnover, step_searchsorted, traced_peak


def test_init_one_product_per_agent():
    state = init_state(SimConfig(n_agents=4, mu=0.1, steps=10))
    assert state.product_ids.tolist() == [0, 1, 2, 3]
    assert state.sales.tolist() == [1, 1, 1, 1]
    assert state.next_product_id == 4


def test_init_cumulative_counts_period_zero():
    # at mu = 1 every agent innovates, so period 1 sells ids 3..5 once each;
    # ids 0..2 sold once each in period 0 only
    cumulative, _ = run(SimConfig(n_agents=3, mu=1.0, steps=1))
    assert cumulative.tolist() == [1, 1, 1] + [1] * 3


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(n_agents=0, mu=0.1, steps=10), "n_agents"),
        (dict(n_agents=10, mu=-0.1, steps=10), "mu"),
        (dict(n_agents=10, mu=1.5, steps=10), "mu"),
        (dict(n_agents=10, mu=0.1, steps=0), "steps"),
        (dict(n_agents=10, mu=0.1, steps=10, seed=-1), "seed"),
        (dict(n_agents=10, mu=0.1, steps=10, seed=2**64), "seed"),
    ],
)
def test_config_validation_names_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SimConfig(**kwargs)


def test_step_mu_zero_is_absorbing():
    config = SimConfig(n_agents=20, mu=0.0, steps=10)
    rng = np.random.default_rng(0)
    state = SimState(product_ids=np.array([0]), sales=np.array([20]), next_product_id=1)
    for _ in range(10):
        state = step(state, config, rng)
        assert state.product_ids.tolist() == [0]
        assert state.sales.tolist() == [20]
    assert state.next_product_id == 1


def test_step_mu_one_replaces_everything():
    config = SimConfig(n_agents=7, mu=1.0, steps=5)
    rng = np.random.default_rng(0)
    state = init_state(config)
    previous_ids = set(state.product_ids.tolist())
    state = step(state, config, rng)
    assert state.sales.tolist() == [1] * 7
    assert set(state.product_ids.tolist()) == set(range(7, 14))
    assert set(state.product_ids.tolist()) & previous_ids == set()


def test_innovator_rate_matches_mu():
    # oracle: count brand-new ids per step directly off the id counter
    config = SimConfig(n_agents=1000, mu=0.2, steps=1000, seed=99)
    rng = np.random.default_rng(config.seed)
    state = init_state(config)
    created = []
    for _ in range(config.steps):
        before = state.next_product_id
        state = step(state, config, rng)
        created.append(state.next_product_id - before)
    assert 195 <= np.mean(created) <= 205


def test_run_records_every_period():
    _, lists = run(SimConfig(n_agents=30, mu=0.1, steps=25, seed=3), y=4)
    assert len(lists) == 26
    assert all(len(lst) <= 4 for lst in lists)


def test_run_rejects_bad_y():
    config = SimConfig(n_agents=10, mu=0.1, steps=5)
    with pytest.raises(ValueError, match="y"):
        run(config, y=0)
    # top_lists refuses y when called, before its first list is read
    with pytest.raises(ValueError, match="y must be >= 1, got 0"):
        top_lists(config, 0)


def test_rank_top_prefers_lower_id_on_ties():
    ids = np.array([3, 5, 9], dtype=np.int64)
    sales = np.array([2, 7, 7], dtype=np.int64)
    assert rank_top(ids, sales, 2).tolist() == [5, 9]
    assert rank_top(ids, sales, 10).tolist() == [5, 9, 3]


# mu in {0, 1} and fractional mu*N
ORACLE_CASES = dict(
    n_agents=st.integers(min_value=1, max_value=2000),
    mu=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    steps=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**ORACLE_CASES, x0_fraction=st.floats(min_value=0.0, max_value=1.0))
@example(n_agents=1, mu=0.5, steps=4, seed=0, x0_fraction=1.0)
@example(n_agents=7, mu=0.0, steps=6, seed=1, x0_fraction=0.0)
@example(n_agents=7, mu=1.0, steps=6, seed=2, x0_fraction=1.0)
@example(n_agents=2000, mu=0.003, steps=15, seed=3, x0_fraction=0.3)
@example(n_agents=20_000, mu=0.001, steps=3, seed=5, x0_fraction=1.0)  # copiers in 3 blocks
def test_step_matches_searchsorted_oracle(n_agents, mu, steps, seed, x0_fraction):
    # step takes any state whose sales sum to N: start from x0 products sharing
    # them as evenly as possible, a few large sellers when x0 is small
    config = SimConfig(n_agents, mu, steps, seed)
    x0 = max(1, round(x0_fraction * n_agents))
    sales = np.full(x0, n_agents // x0, dtype=np.int64)
    sales[: n_agents % x0] += 1
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    state = oracle = SimState(product_ids=np.arange(x0, dtype=np.int64), sales=sales, next_product_id=x0)
    names = ("product_ids", "sales")
    extinct: set[int] = set()
    for _ in range(steps):
        previous = state
        before = [getattr(previous, name).copy() for name in names]
        state = step(previous, config, rng)
        oracle = step_searchsorted(oracle, config, oracle_rng)
        for name, array in zip(names, before):  # the input state is left as it was
            assert np.array_equal(getattr(previous, name), array), name
        for name in names:
            got, want = getattr(state, name), getattr(oracle, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert state.next_product_id == oracle.next_product_id
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        # the rules of the market, which the oracle shares, checked on their own
        assert int(state.sales.sum()) == n_agents  # one purchase per agent
        assert state.sales.min() >= 1  # zero-sellers are removed
        assert np.all(np.diff(state.product_ids) > 0)  # ids strictly ascending
        live = set(state.product_ids.tolist())
        assert live.isdisjoint(extinct)  # extinction is permanent
        extinct |= set(previous.product_ids.tolist()) - live


@settings(max_examples=60, deadline=None)
@given(**ORACLE_CASES)
@example(n_agents=7, mu=0.0, steps=6, seed=1)
@example(n_agents=7, mu=1.0, steps=6, seed=2)
@example(n_agents=50, mu=0.13, steps=6, seed=4)
@example(n_agents=2000, mu=0.003, steps=15, seed=3)
@example(n_agents=20_000, mu=0.001, steps=3, seed=5)  # copiers in 3 blocks
@example(n_agents=20_000, mu=0.001, steps=1, seed=6)  # both deferred adds after the only step
def test_run_cumulative_matches_oracle_trajectory(n_agents, mu, steps, seed):
    config = SimConfig(n_agents, mu, steps, seed)
    oracle_rng = np.random.default_rng(seed)
    oracle = init_state(config)
    totals = Counter()
    for period in range(steps + 1):
        if period > 0:
            oracle = step_searchsorted(oracle, config, oracle_rng)
        totals.update(dict(zip(oracle.product_ids.tolist(), oracle.sales.tolist())))
    want = np.array([totals[i] for i in range(oracle.next_product_id)], dtype=np.int64)

    cumulative, lists = run(config)
    assert cumulative.dtype == want.dtype and np.array_equal(cumulative, want)
    assert len(cumulative) == oracle.next_product_id <= n_agents + steps * math.ceil(mu * n_agents)
    assert int(cumulative.sum()) == n_agents * (steps + 1)  # N sales a period, period 0's included
    # period 0 gives each initial product one sale and a newcomer sells once
    # in its first period, so no entry of cumulative is 0
    assert cumulative.min() >= 1
    assert list(top_lists(config, 5)) == lists  # the same draws, no sales summed


@pytest.mark.parametrize("sales", [[2, 1], [3, 3]])
def test_step_rejects_sales_not_summing_to_n_agents(sales):
    # a short owner table ended in an IndexError; a long one sampled a prefix of it
    config = SimConfig(n_agents=4, mu=0.0, steps=1)
    state = SimState(product_ids=np.arange(2), sales=np.array(sales), next_product_id=2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"n_agents = 4, got {sum(sales)}"):
        step(state, config, rng)
    assert rng.bit_generator.state == before  # rejected before any draw


def test_step_memory_is_bounded():
    config = SimConfig(n_agents=100_000, mu=0.001, steps=1)
    rng = np.random.default_rng(0)
    _, peak = traced_peak(lambda: step(init_state(config), config, rng))
    # init_state holds one 0.8 MB array, its ids; this kernel measured 3.20 MB.
    # The searchsorted kernel peaked at 8.0 MB, and a step that also copied the
    # cumulative array into one a period longer, with a buffered take, at 4.82 MB.
    assert peak < 4_000_000


def test_a_late_step_holds_no_draws_array():
    config = SimConfig(n_agents=100_000, mu=0.001, steps=300)
    rng = np.random.default_rng(0)
    state = init_state(config)
    for _ in range(config.steps):
        state = step(state, config, rng)
    _, peak = traced_peak(step, state, config, rng)
    # the owner table, counts and one 64 KB block of copiers: measured 0.89-0.95 MB.
    # One draws array of N - k entries, as a single integers call makes, peaked at 1.60 MB.
    assert peak < 1_200_000


def test_step_reads_read_only_states_and_leaves_them_alone():
    config = SimConfig(n_agents=20_000, mu=0.01, steps=5, seed=4)
    rng = np.random.default_rng(config.seed)
    start = init_state(config)
    assert not start.sales.flags.writeable  # period 0's sales are a view of one 1
    state = start
    for _ in range(config.steps):
        state = step(state, config, rng)
    for name in ("product_ids", "sales"):
        getattr(state, name).setflags(write=False)
    for previous in (start, state):
        before = [previous.product_ids.copy(), previous.sales.copy()]
        after = step(previous, config, rng)
        assert int(after.sales.sum()) == config.n_agents
        assert np.array_equal(previous.product_ids, before[0])
        assert np.array_equal(previous.sales, before[1])


def test_run_memory_is_bounded():
    config = SimConfig(n_agents=100_000, mu=0.001, steps=300)
    _, peak = traced_peak(run, config)
    # the 1.04 MB cumulative buffer plus one step: measured 4.26 MB. A run
    # whose every step rebuilt the cumulative array peaked at 4.82 MB.
    assert peak < 4_600_000


@pytest.mark.parametrize("n,mu,y,lower_id,newer", [(7, 0.2, 3, 0.82684, 1.53181), (6, 0.1, 2, 0.38896, 0.61379)])
def test_run_turnover_matches_the_exact_markov_chain(n, mu, y, lower_id, newer):
    # At N <= 7 the market is a finite Markov chain (oracles.exact_turnover),
    # so E[z] is exact; either tie rule is 17-98% away from the other, so the
    # chain pins the ranking of run's lists, ties to the lower id included.
    # The band, 4 standard errors of the mean of 20 per-seed z_bar, was
    # fixed before the simulator was run against it.
    assert exact_turnover(n, mu, y) == pytest.approx(lower_id, abs=5e-6)
    assert exact_turnover(n, mu, y, ties_to_newer=True) == pytest.approx(newer, abs=5e-6)
    z_bars = [turnover(run(SimConfig(n, mu, 1000, seed), y)[1]).z_bar for seed in range(20)]
    se = np.std(z_bars, ddof=1) / math.sqrt(len(z_bars))
    assert abs(np.mean(z_bars) - lower_id) < 4 * se


def test_last_states_match_the_exact_t_step_law_of_the_chain():
    # The chain gives the exact law of the state after T steps from one
    # product per agent (start vector x P^T), so the last states of
    # independent runs need no mixing. At (5, 0.3) every period has an
    # innovator, so the youngest product holds one sale: 8 of the 16
    # compositions are reachable, and the test has 7 degrees of freedom.
    # Seeds, T and the rejection level p < 0.001 were fixed before the first run.
    n, mu, steps, runs = 5, 0.3, 10, 2000
    law = {state: p for state, p in exact_state_law(n, mu, steps).items() if p > 0}
    assert len(law) == 8
    counts = Counter(
        tuple(deque(trajectory(SimConfig(n, mu, steps, seed)), maxlen=1)[0].sales.tolist()) for seed in range(runs)
    )
    assert set(counts) <= set(law)
    chi2 = sum((counts[state] - runs * p) ** 2 / (runs * p) for state, p in law.items())
    p_value = float(mpmath.gammainc((len(law) - 1) / 2, chi2 / 2, regularized=True))  # the upper tail
    print(f"chi2 {chi2:.2f} on {len(law) - 1} df, p = {p_value:.3f}")
    assert p_value > 0.001


def test_live_products_match_ewens_from_above():
    # Random copying with innovation is a haploid Wright-Fisher model with
    # infinite-alleles mutation, theta = 2*N*mu; Ewens' formula gives the
    # stationary mean number of live types in its diffusion limit (19.86 here;
    # theta = N*mu would give 11.6). Each period resamples all N purchases at
    # once, and that discrete-generation model keeps more types alive: the
    # exact mean of its single-product survival chain (k new products a period
    # times the expected lifetime under Binomial(N - k, share) resampling) is
    # 20.33, +2.35%, and the excess grows with mu (+7.6% at N = 200, mu = 0.05).
    # So the tolerance is one-sided: the mean may not read below Ewens and may
    # read at most 6% above it. Ten seeds read -0.2% to +4.3% one by one (sd
    # 1.3%, so 0.75% for a mean of three); seeds 1-3 read +3.4% pooled.
    n, mu = 500, 0.004
    burn_in, periods = 2000, 20_000
    counts = []
    for seed in (1, 2, 3):
        config = SimConfig(n_agents=n, mu=mu, steps=burn_in + periods, seed=seed)
        rng = np.random.default_rng(seed)
        state = init_state(config)
        for period in range(1, config.steps + 1):
            state = step(state, config, rng)
            if period > burn_in:
                counts.append(state.product_ids.size)
    ewens = ewens_expected_types(n, 2 * n * mu)
    assert 19.86 < ewens < 19.87
    assert ewens <= np.mean(counts) <= 1.06 * ewens
