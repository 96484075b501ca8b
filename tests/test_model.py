"""Core simulator: initialization, stepping rules, invariants, determinism."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longtail.model import SimConfig, TopYSeries, init_state, rank_top, run, step
from oracles import step_searchsorted


def test_init_one_product_per_agent():
    state = init_state(SimConfig(n_agents=4, mu=0.1, steps=10))
    assert state.period == 0
    assert state.product_ids.tolist() == [0, 1, 2, 3]
    assert state.sales.tolist() == [1, 1, 1, 1]
    assert state.next_product_id == 4


def test_init_even_split():
    state = init_state(SimConfig(n_agents=4, mu=0.1, steps=10, x0=2))
    assert state.product_ids.tolist() == [0, 1]
    assert state.sales.tolist() == [2, 2]


def test_init_remainder_goes_to_lowest_ids():
    state = init_state(SimConfig(n_agents=5, mu=0.1, steps=10, x0=2))
    assert state.product_ids.tolist() == [0, 1]
    assert state.sales.tolist() == [3, 2]


def test_init_cumulative_counts_period_zero_without_burn_in():
    state = init_state(SimConfig(n_agents=6, mu=0.1, steps=10, x0=3))
    assert state.cumulative.tolist() == [2, 2, 2]


def test_init_cumulative_empty_with_burn_in():
    state = init_state(SimConfig(n_agents=6, mu=0.1, steps=10, x0=3, burn_in=2))
    assert state.cumulative.tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(n_agents=0, mu=0.1, steps=10), "n_agents"),
        (dict(n_agents=10, mu=-0.1, steps=10), "mu"),
        (dict(n_agents=10, mu=1.5, steps=10), "mu"),
        (dict(n_agents=10, mu=0.1, steps=0), "steps"),
        (dict(n_agents=10, mu=0.1, steps=10, x0=0), "x0"),
        (dict(n_agents=10, mu=0.1, steps=10, x0=11), "x0"),
        (dict(n_agents=10, mu=0.1, steps=10, burn_in=10), "burn_in"),
        (dict(n_agents=10, mu=0.1, steps=10, seed=-1), "seed"),
        (dict(n_agents=10, mu=0.1, steps=10, seed=2**64), "seed"),
    ],
)
def test_config_validation_names_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SimConfig(**kwargs)


def test_step_mu_zero_is_absorbing():
    config = SimConfig(n_agents=20, mu=0.0, steps=10, x0=1)
    rng = np.random.default_rng(0)
    state = init_state(config)
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


def test_run_is_deterministic():
    config = SimConfig(n_agents=100, mu=0.01, steps=10, seed=42)
    state_a, series_a = run(config, y=5)
    state_b, series_b = run(config, y=5)
    assert state_a.cumulative.tolist() == state_b.cumulative.tolist()
    assert state_a.product_ids.tolist() == state_b.product_ids.tolist()
    assert state_a.sales.tolist() == state_b.sales.tolist()
    assert series_a.lists == series_b.lists


def test_run_records_every_period():
    _, series = run(SimConfig(n_agents=30, mu=0.1, steps=25, seed=3), y=4)
    assert len(series.lists) == 26
    assert all(len(lst) <= 4 for lst in series.lists)


def test_run_rejects_bad_y():
    with pytest.raises(ValueError, match="y"):
        run(SimConfig(n_agents=10, mu=0.1, steps=5), y=0)


def test_rank_top_prefers_lower_id_on_ties():
    ids = np.array([3, 5, 9], dtype=np.int64)
    sales = np.array([2, 7, 7], dtype=np.int64)
    assert rank_top(ids, sales, 2).tolist() == [5, 9]
    assert rank_top(ids, sales, 10).tolist() == [5, 9, 3]


@settings(max_examples=40, deadline=None)
@given(
    n_agents=st.integers(min_value=1, max_value=50),
    mu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    steps=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    x0_fraction=st.floats(min_value=0.0, max_value=1.0),
    burn_in_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_trajectory_invariants(n_agents, mu, steps, seed, x0_fraction, burn_in_fraction):
    x0 = max(1, round(x0_fraction * n_agents))
    burn_in = min(steps - 1, round(burn_in_fraction * (steps - 1)))
    config = SimConfig(n_agents=n_agents, mu=mu, steps=steps, x0=x0, seed=seed, burn_in=burn_in)
    rng = np.random.default_rng(config.seed)
    state = init_state(config)
    extinct: set[int] = set()
    previous_live = set(state.product_ids.tolist())
    created = x0
    for _ in range(steps):
        previous_next_id = state.next_product_id
        state = step(state, config, rng)
        created += state.next_product_id - previous_next_id
        live = set(state.product_ids.tolist())

        assert int(state.sales.sum()) == n_agents  # one purchase per agent
        assert state.sales.min() >= 1  # zero-sellers are removed
        assert state.alive_count <= n_agents
        assert live & extinct == set()  # extinction is permanent
        assert state.next_product_id >= previous_next_id
        assert np.all(np.diff(state.product_ids) > 0)  # ids ascending, unique
        if state.period > config.burn_in:
            assert np.all(state.cumulative[state.product_ids] >= state.sales)

        extinct |= previous_live - live
        previous_live = live
    assert state.next_product_id == created
    assert len(state.cumulative) == created


@settings(max_examples=60, deadline=None)
@given(
    n_agents=st.integers(min_value=1, max_value=2000),
    mu=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    steps=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    x0_fraction=st.floats(min_value=0.0, max_value=1.0),
    burn_in_fraction=st.floats(min_value=0.0, max_value=1.0),
)
@example(n_agents=1, mu=0.5, steps=4, seed=0, x0_fraction=1.0, burn_in_fraction=0.0)
@example(n_agents=7, mu=0.0, steps=6, seed=1, x0_fraction=0.0, burn_in_fraction=0.0)
@example(n_agents=7, mu=1.0, steps=6, seed=2, x0_fraction=1.0, burn_in_fraction=0.0)
@example(n_agents=2000, mu=0.003, steps=15, seed=3, x0_fraction=0.3, burn_in_fraction=0.5)
def test_step_matches_searchsorted_oracle(n_agents, mu, steps, seed, x0_fraction, burn_in_fraction):
    x0 = max(1, round(x0_fraction * n_agents))
    burn_in = min(steps - 1, round(burn_in_fraction * (steps - 1)))
    config = SimConfig(n_agents=n_agents, mu=mu, steps=steps, x0=x0, seed=seed, burn_in=burn_in)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    state = oracle = init_state(config)
    names = ("product_ids", "sales", "cumulative")
    for _ in range(steps):
        previous = state
        before = [getattr(previous, name).copy() for name in names]
        state = step(previous, config, rng)
        oracle = step_searchsorted(oracle, config, oracle_rng)
        for name, array in zip(names, before):  # the input state is left as it was
            assert np.array_equal(getattr(previous, name), array), name
        assert state.period == oracle.period
        for name in names:
            got, want = getattr(state, name), getattr(oracle, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert state.next_product_id == oracle.next_product_id
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_step_memory_is_bounded():
    config = SimConfig(n_agents=100_000, mu=0.001, steps=1)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        step(init_state(config), config, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # init_state holds three 0.8 MB arrays; the searchsorted kernel peaked at 8.0 MB
    assert peak < 6_000_000


def test_winner_take_all_contrast_fast():
    # regime contrast at reduced scale; the full protocol runs in acceptance
    shares = {0.005: [], 0.05: []}
    for mu, bucket in shares.items():
        for replicate in range(10):
            config = SimConfig(n_agents=100, mu=mu, steps=300, seed=1000 + replicate)
            state, _ = run(config, y=1)
            bucket.append(state.cumulative.max() / state.cumulative.sum())
    assert np.median(shares[0.005]) > np.median(shares[0.05])


def test_top_y_series_fields():
    series = TopYSeries(y=3, lists=[[1, 2], [2, 3, 4]])
    assert series.y == 3
    assert len(series.lists[1]) == 3
