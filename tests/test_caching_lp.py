"""Tests for subproblem P1 (caching LP / min-cost flow, Theorem 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p1_oracle import solve_p1_highs
from repro.core.caching_lp import (
    _solve_single_sbs_flow,
    caching_objective,
    class_prices,
    solve_caching,
)
from repro.exceptions import ConfigurationError
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.network.topology import single_cell_network


def _net(K=5, C=2, beta=2.0, M=3, rng=None):
    omega = rng.uniform(0, 1, M) if rng is not None else [0.5] * M
    return single_cell_network(
        num_items=K,
        cache_size=C,
        bandwidth=4.0,
        replacement_cost=beta,
        omega_bs=omega,
    )


class TestClassPrices:
    def test_aggregates_over_classes(self):
        net = _net(K=2, M=3)
        mu = np.ones((4, 3, 2))
        prices = class_prices(net, mu)
        assert prices.shape == (4, 1, 2)
        np.testing.assert_allclose(prices, 3.0)

    def test_multi_sbs_routing(self):
        net = Network(
            ContentCatalog(2),
            (SmallBaseStation(0, 1, 1.0, 1.0), SmallBaseStation(1, 1, 1.0, 1.0)),
            (MUClass(0, 0, 0.5), MUClass(1, 1, 0.5), MUClass(2, 1, 0.5)),
        )
        mu = np.ones((1, 3, 2))
        prices = class_prices(net, mu)
        np.testing.assert_allclose(prices[0, 0], 1.0)
        np.testing.assert_allclose(prices[0, 1], 2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_equal_add_at_scatter(self, seed):
        """Equal to the ``np.add.at`` scatter byte for byte, on uneven and
        interleaved class counts, an SBS with no class, signed zeros, +-inf
        and magnitudes where the summation order shows in the last bits."""
        rng = np.random.default_rng(seed)
        N, M, K, T = 5, 23, 6, 4
        owner = rng.integers(0, N - 1, M)  # SBS N-1 serves no class
        net = Network(
            ContentCatalog(K),
            tuple(SmallBaseStation(n, 1, 1.0, 1.0) for n in range(N)),
            tuple(MUClass(m, int(owner[m]), 0.5) for m in range(M)),
        )
        mu = rng.standard_normal((T, M, K)) * 10.0 ** rng.integers(-8, 9, (T, M, K))
        mu[rng.random(mu.shape) < 0.25] = -0.0
        mu[rng.random(mu.shape) < 0.02] = np.inf
        mu[rng.random(mu.shape) < 0.02] = -np.inf
        # An item that is -0.0 in every class of the widest SBS: summed
        # onto +0.0 it reads +0.0, started from its first class -0.0.
        mu[:, owner == np.bincount(owner).argmax(), 0] = -0.0
        expected = np.zeros((T, N, K))
        with np.errstate(invalid="ignore"):
            np.add.at(expected, (slice(None), net.class_sbs), mu)
            prices = class_prices(net, mu)
        assert prices.tobytes() == expected.tobytes()
        assert not np.signbit(prices[:, N - 1]).any()


class TestSolveCaching:
    def test_zero_prices_empty_cache(self):
        net = _net(beta=1.0)
        mu = np.zeros((3, 3, 5))
        sol = solve_caching(net, mu, np.zeros((1, 5)))
        assert sol.x.sum() == 0.0
        assert sol.objective == pytest.approx(0.0)

    def test_high_price_caches_item(self):
        net = _net(K=3, C=1, beta=1.0, M=1)
        mu = np.zeros((2, 1, 3))
        mu[:, 0, 2] = 10.0
        sol = solve_caching(net, mu, np.zeros((1, 3)))
        np.testing.assert_allclose(sol.x[:, 0, 2], 1.0)
        # One fetch (beta=1), gain 2*10.
        assert sol.objective == pytest.approx(1.0 - 20.0)

    def test_respects_capacity(self):
        net = _net(K=4, C=2, beta=0.5, M=1)
        mu = np.full((3, 1, 4), 5.0)
        sol = solve_caching(net, mu, np.zeros((1, 4)))
        assert np.all(sol.x.sum(axis=2) <= 2)

    def test_initial_cache_fetch_free(self):
        net = _net(K=2, C=1, beta=100.0, M=1)
        mu = np.zeros((1, 1, 2))
        mu[0, 0, 0] = 1.0  # small gain, not worth a 100-cost fetch...
        x0 = np.array([[1.0, 0.0]])  # ...but item 0 is already cached.
        sol = solve_caching(net, mu, x0)
        assert sol.x[0, 0, 0] == 1.0
        assert sol.objective == pytest.approx(-1.0)

    def test_switching_cost_induces_persistence(self):
        """With beta large, the cache holds one item across a price dip."""
        net = _net(K=2, C=1, beta=3.0, M=1)
        mu = np.zeros((3, 1, 2))
        mu[0, 0, 0] = 4.0
        mu[1, 0, 1] = 4.5  # momentary better item, not worth 2 switches
        mu[2, 0, 0] = 4.0
        sol = solve_caching(net, mu, np.zeros((1, 2)))
        np.testing.assert_allclose(sol.x[:, 0, 0], 1.0)
        np.testing.assert_allclose(sol.x[:, 0, 1], 0.0)

    def test_switching_when_shift_is_persistent(self):
        net = _net(K=2, C=1, beta=1.0, M=1)
        mu = np.zeros((4, 1, 2))
        mu[:2, 0, 0] = 5.0
        mu[2:, 0, 1] = 5.0
        sol = solve_caching(net, mu, np.zeros((1, 2)))
        np.testing.assert_allclose(sol.x[:2, 0, 0], 1.0)
        np.testing.assert_allclose(sol.x[2:, 0, 1], 1.0)

    def test_zero_capacity(self):
        net = _net(K=3, C=0, M=1)
        mu = np.ones((2, 1, 3))
        sol = solve_caching(net, mu, np.zeros((1, 3)))
        assert sol.x.sum() == 0.0

    def test_rejects_negative_mu(self):
        net = _net()
        with pytest.raises(ConfigurationError):
            solve_caching(net, -np.ones((1, 3, 5)), np.zeros((1, 5)))

    def test_rejects_bad_shape(self):
        net = _net()
        with pytest.raises(ConfigurationError):
            solve_caching(net, np.ones((1, 2, 5)), np.zeros((1, 5)))

    def test_objective_matches_evaluator(self, rng):
        net = _net(K=4, C=2, beta=1.5, M=2, rng=rng)
        mu = rng.uniform(0, 3, (5, 2, 4))
        x0 = np.array([[1.0, 0.0, 1.0, 0.0]])
        sol = solve_caching(net, mu, x0)
        assert sol.objective == pytest.approx(
            caching_objective(net, sol.x, mu, x0)
        )


#: Input families of the P1 cross-check: generic sparse prices plus the
#: degenerate ones where ties and binding caps are the rule, and a start
#: cache holding more items than the cap (a cache shrink between windows).
FAMILIES = (
    "generic", "uniform_price", "duplicated_item", "zero_beta", "cap_0", "cap_K",
    "x0_over_cap",
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), family=st.sampled_from(FAMILIES))
def test_flow_and_lp_backends_agree(seed: int, family: str):
    """Property: every P1 solve path reaches the HiGHS LP optimum."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 6))
    T = int(rng.integers(1, 5))
    M = int(rng.integers(1, 4))
    C = {"cap_0": 0, "cap_K": K, "x0_over_cap": int(rng.integers(0, K))}.get(
        family, int(rng.integers(0, K + 1))
    )
    beta = 0.0 if family == "zero_beta" else float(rng.uniform(0, 4))
    net = single_cell_network(
        num_items=K,
        cache_size=C,
        bandwidth=3.0,
        replacement_cost=beta,
        omega_bs=rng.uniform(0, 1, M),
    )
    mu = rng.uniform(0, 3, (T, M, K)) * (rng.random((T, M, K)) > 0.3)
    if family == "uniform_price":
        mu = np.full((T, M, K), float(rng.uniform(0.1, 3)))
    elif family == "duplicated_item":
        mu = mu[:, :, np.arange(K) % max(1, K // 2)]
    elif family == "zero_beta":
        mu = np.round(mu * 4.0) / 4.0  # coarse grid: exact cross-item ties
    x0 = (rng.random((1, K)) > 0.5).astype(float)
    if family == "x0_over_cap":
        x0 = np.ones((1, K))  # every item cached, C < K of them allowed

    c = class_prices(net, mu)[:, 0, :]
    _, oracle = solve_p1_highs(c, beta, C, x0[0])
    _, raw_flow = _solve_single_sbs_flow(c, beta, C, x0[0], canonical=False)
    sol = solve_caching(net, mu, x0)
    assert set(np.unique(sol.x)) <= {0.0, 1.0}  # Theorem 1: integral
    assert np.all(sol.x.sum(axis=2) <= C)
    assert sol.objective == pytest.approx(caching_objective(net, sol.x, mu, x0))
    objs = {"oracle": oracle, "flow": raw_flow, "solve_caching": sol.objective}
    for name, value in objs.items():
        assert value == pytest.approx(oracle, abs=1e-6 * (1 + abs(oracle))), name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_flow_beats_all_static_caches(seed: int):
    """Property: the P1 optimum is at least as good as every static cache."""
    from itertools import combinations

    rng = np.random.default_rng(seed)
    K, T, C = 4, 3, 2
    net = single_cell_network(
        num_items=K, cache_size=C, bandwidth=3.0,
        replacement_cost=float(rng.uniform(0, 3)), omega_bs=[0.5],
    )
    mu = rng.uniform(0, 2, (T, 1, K))
    x0 = np.zeros((1, K))
    sol = solve_caching(net, mu, x0)
    for chosen in combinations(range(K), C):
        x_static = np.zeros((T, 1, K))
        x_static[:, 0, list(chosen)] = 1.0
        static_obj = caching_objective(net, x_static, mu, x0)
        assert sol.objective <= static_obj + 1e-9
