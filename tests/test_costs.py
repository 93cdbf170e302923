"""Unit + property tests for the cost model (paper Eqs. 5-8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DimensionMismatchError
from repro.network.costs import (
    CostBreakdown,
    LinearOperatingCost,
    QuadraticOperatingCost,
    aggregate_bs_load,
    bs_operating_cost,
    replacement_cost,
    replacement_count,
    sbs_operating_cost,
    slot_costs,
    total_cost,
)
from repro.network.topology import Network, single_cell_network


def _net(M=3, K=4, omega=None, omega_hat=0.0):
    omega = omega if omega is not None else [0.5] * M
    return single_cell_network(
        num_items=K,
        cache_size=2,
        bandwidth=10.0,
        replacement_cost=3.0,
        omega_bs=omega,
        omega_sbs=omega_hat,
    )


class TestOperatingCosts:
    def test_bs_cost_matches_equation_5(self):
        """f_t = (sum_m omega_m sum_k (1-y) lam)^2 for one SBS."""
        net = _net(M=2, K=2, omega=[0.5, 1.0])
        lam = np.array([[1.0, 2.0], [3.0, 0.0]])
        y = np.array([[0.5, 0.0], [1.0, 0.0]])
        inner = 0.5 * (0.5 * 1.0 + 1.0 * 2.0) + 1.0 * (0.0 * 3.0 + 1.0 * 0.0)
        assert bs_operating_cost(net, lam, y) == pytest.approx(inner**2)

    def test_sbs_cost_matches_equation_6(self):
        net = _net(M=2, K=2, omega=[0.5, 1.0], omega_hat=[0.01, 0.02])
        lam = np.array([[1.0, 2.0], [3.0, 0.0]])
        y = np.array([[0.5, 0.0], [1.0, 0.0]])
        inner = 0.01 * (0.5 * 1.0) + 0.02 * (1.0 * 3.0)
        assert sbs_operating_cost(net, lam, y) == pytest.approx(inner**2)

    def test_full_offload_zeroes_bs_cost(self):
        net = _net()
        lam = np.ones((3, 4))
        assert bs_operating_cost(net, lam, np.ones((3, 4))) == pytest.approx(0.0)

    def test_no_offload_zeroes_sbs_cost(self):
        net = _net(omega_hat=0.1)
        lam = np.ones((3, 4))
        assert sbs_operating_cost(net, lam, np.zeros((3, 4))) == pytest.approx(0.0)

    def test_bs_cost_decreases_with_offload(self):
        net = _net()
        lam = np.ones((3, 4))
        y_lo = np.full((3, 4), 0.2)
        y_hi = np.full((3, 4), 0.8)
        assert bs_operating_cost(net, lam, y_hi) < bs_operating_cost(net, lam, y_lo)

    def test_shape_validation(self):
        net = _net()
        with pytest.raises(DimensionMismatchError):
            bs_operating_cost(net, np.ones((2, 4)), np.ones((2, 4)))

    def test_linear_cost_shape(self):
        cost = LinearOperatingCost(scale=2.0)
        agg = np.array([1.0, 3.0])
        assert cost.evaluate(agg) == pytest.approx(8.0)
        np.testing.assert_allclose(cost.derivative(agg), [2.0, 2.0])

    def test_quadratic_derivative(self):
        cost = QuadraticOperatingCost(scale=1.5)
        agg = np.array([2.0])
        assert cost.evaluate(agg) == pytest.approx(6.0)
        np.testing.assert_allclose(cost.derivative(agg), [6.0])

    def test_multi_sbs_aggregation(self):
        from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation

        net = Network(
            ContentCatalog(2),
            (SmallBaseStation(0, 1, 5.0, 1.0), SmallBaseStation(1, 1, 5.0, 1.0)),
            (MUClass(0, 0, 1.0), MUClass(1, 1, 2.0)),
        )
        lam = np.array([[1.0, 0.0], [0.0, 2.0]])
        y = np.zeros((2, 2))
        agg = aggregate_bs_load(net, lam, y)
        np.testing.assert_allclose(agg, [1.0, 4.0])
        # Squares are summed per SBS, not over the joint aggregate.
        assert bs_operating_cost(net, lam, y) == pytest.approx(1.0 + 16.0)


class TestReplacementCost:
    def test_counts_only_insertions(self):
        net = _net(K=4)
        prev = np.array([[1.0, 1.0, 0.0, 0.0]])
        new = np.array([[1.0, 0.0, 1.0, 1.0]])
        # Two insertions (items 2, 3), beta = 3.
        assert replacement_cost(net, new, prev) == pytest.approx(6.0)
        assert replacement_count(new, prev) == 2

    def test_eviction_is_free(self):
        net = _net(K=4)
        prev = np.array([[1.0, 1.0, 0.0, 0.0]])
        new = np.array([[0.0, 0.0, 0.0, 0.0]])
        assert replacement_cost(net, new, prev) == pytest.approx(0.0)
        assert replacement_count(new, prev) == 0

    def test_fractional_positive_part(self):
        net = _net(K=4)
        prev = np.array([[0.2, 0.0, 0.0, 0.0]])
        new = np.array([[0.7, 0.0, 0.0, 0.0]])
        assert replacement_cost(net, new, prev) == pytest.approx(3.0 * 0.5)


class TestCostBreakdown:
    def test_total_and_addition(self):
        a = CostBreakdown(1.0, 2.0, 3.0, 4)
        b = CostBreakdown(10.0, 20.0, 30.0, 40)
        s = a + b
        assert s.total == pytest.approx(66.0)
        assert s.operating == pytest.approx(33.0)
        assert s.replacements == 44
        assert CostBreakdown.zero().total == 0.0

    def test_total_cost_trajectory(self):
        net = _net(M=1, K=2, omega=[1.0])
        lam = np.ones((2, 1, 2))
        x = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        y = np.zeros((2, 1, 2))
        out = total_cost(net, lam, x, y)
        # Two slots each with residual (1+1) -> f = 4; two insertions.
        assert out.bs_cost == pytest.approx(8.0)
        assert out.replacement == pytest.approx(6.0)
        assert out.replacements == 2

    def test_total_cost_respects_initial_cache(self):
        net = _net(M=1, K=2, omega=[1.0])
        lam = np.ones((1, 1, 2))
        x = np.array([[[1.0, 0.0]]])
        y = np.zeros((1, 1, 2))
        out = total_cost(net, lam, x, y, x_initial=np.array([[1.0, 0.0]]))
        assert out.replacement == pytest.approx(0.0)

    def test_horizon_mismatch_raises(self):
        net = _net(M=1, K=2, omega=[1.0])
        with pytest.raises(DimensionMismatchError):
            total_cost(net, np.ones((2, 1, 2)), np.zeros((1, 1, 2)), np.zeros((2, 1, 2)))


    def test_total_cost_shape_errors(self):
        """A wrong horizon, ``y`` width or ``x_initial`` shape still raises
        through the stacked pass."""
        net = _net(M=1, K=2, omega=[1.0])
        lam, x, y = np.ones((2, 1, 2)), np.zeros((2, 1, 2)), np.zeros((2, 1, 2))
        with pytest.raises(DimensionMismatchError):
            total_cost(net, lam, x[:1], y)
        with pytest.raises(DimensionMismatchError):
            total_cost(net, lam, x, np.zeros((2, 1, 3)))
        with pytest.raises(DimensionMismatchError):
            total_cost(net, lam, x, y, x_initial=np.zeros((1, 3)))


class _CubicCost:
    """A custom shape outside the built-ins: scored one row at a time."""

    def evaluate(self, aggregates):
        return float(np.sum(aggregates**3))

    def derivative(self, aggregates):
        return 3.0 * aggregates**2


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _random_network(rng, N: int, K: int, omega_hat: bool) -> Network:
    """``N`` SBSs with 1-3 classes each, classes shuffled across SBSs so an
    SBS's classes are not contiguous."""
    from repro.network import ContentCatalog, MUClass, SmallBaseStation

    owners = rng.permutation(np.repeat(np.arange(N), rng.integers(1, 4, N)))
    classes = tuple(
        MUClass(
            m,
            int(n),
            float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(0.0, 0.5)) if omega_hat else 0.0,
        )
        for m, n in enumerate(owners)
    )
    sbss = tuple(
        SmallBaseStation(n, 2, 4.0, float(rng.uniform(0.1, 5.0))) for n in range(N)
    )
    return Network(ContentCatalog(K), sbss, classes)


_SHAPES = (QuadraticOperatingCost(1.7), LinearOperatingCost(0.3), _CubicCost(), None)


class TestSlotCosts:
    """``slot_costs`` equals the per-slot scalar functions byte for byte, and
    ``total_cost`` equals their slot-by-slot fold."""

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        N, K = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        T = int(rng.integers(1, 13))
        net = _random_network(rng, N, K, omega_hat=bool(seed % 2))
        demand = rng.uniform(0.0, 3.0, (T, net.num_classes, K))
        y = rng.uniform(0.0, 1.0, demand.shape)
        x = rng.uniform(0.0, 1.0, (T, N, K))  # fractional, as relaxed iterates
        x[rng.random(x.shape) < 0.4] = 0.0
        x_prev = (rng.random((N, K)) < 0.5).astype(float)
        bs, sbs = _SHAPES[seed % 4], _SHAPES[(seed // 4) % 4]
        return net, demand, y, x, x_prev, bs, sbs

    @pytest.mark.parametrize("seed", range(48))
    def test_stack_of_slots_bitwise(self, seed):
        net, demand, y, x, x_prev, bs, sbs = self._case(seed)
        got = slot_costs(net, demand, y, x, x_prev, bs_cost=bs, sbs_cost=sbs)
        ref = CostBreakdown.zero()
        prev = x_prev
        for t in range(demand.shape[0]):
            slot = CostBreakdown(
                bs_operating_cost(net, demand[t], y[t], bs),
                sbs_operating_cost(net, demand[t], y[t], sbs),
                replacement_cost(net, x[t], prev),
                replacement_count(x[t], prev),
            )
            assert _bits(got.bs_cost[t]) == _bits(slot.bs_cost)
            assert _bits(got.sbs_cost[t]) == _bits(slot.sbs_cost)
            assert _bits(got.replacement[t]) == _bits(slot.replacement)
            assert got.replacements[t] == slot.replacements
            assert got.loads[0, t].tobytes() == aggregate_bs_load(
                net, demand[t], y[t]
            ).tobytes()
            ref = ref + slot
            prev = x[t]
        total = total_cost(
            net, demand, x, y, x_initial=x_prev, bs_cost=bs, sbs_cost=sbs
        )
        for field in ("bs_cost", "sbs_cost", "replacement"):
            assert _bits(getattr(total, field)) == _bits(getattr(ref, field))
        assert total.replacements == ref.replacements

    @pytest.mark.parametrize("seed", range(24))
    def test_one_slots_candidates_bitwise(self, seed):
        """Candidates that differ in one SBS's block score like full slots."""
        net, demand, y, _x, _xp, bs, sbs = self._case(seed)
        rng = np.random.default_rng(seed + 1000)
        lam, y_t = demand[0], y[0]
        base = slot_costs(net, lam[None], y_t[None]).loads[:, 0]
        for n in range(net.num_sbs):
            classes = net.classes_of_sbs[n]
            blocks = rng.uniform(0.0, 1.0, (5, classes.size, net.num_items))
            got = slot_costs(
                net, lam[classes], blocks, sbs=n, base=base, bs_cost=bs, sbs_cost=sbs
            )
            for v, block in enumerate(blocks):
                full = y_t.copy()
                full[classes] = block
                assert _bits(got.bs_cost[v]) == _bits(
                    bs_operating_cost(net, lam, full, bs)
                )
                assert _bits(got.sbs_cost[v]) == _bits(
                    sbs_operating_cost(net, lam, full, sbs)
                )
                assert got.loads[0, v].tobytes() == aggregate_bs_load(
                    net, lam, full
                ).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    y_seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.1, 5.0),
)
def test_bs_cost_nonnegative_and_monotone(y_seed: int, scale: float):
    """Property: f_t >= 0 and raising any y entry never increases f_t."""
    rng = np.random.default_rng(y_seed)
    net = _net(M=3, K=4, omega=list(rng.uniform(0, 1, 3)))
    lam = rng.uniform(0, 2, (3, 4))
    y = rng.uniform(0, 1, (3, 4))
    cost = QuadraticOperatingCost(scale=scale)
    base = bs_operating_cost(net, lam, y, cost)
    assert base >= 0
    bumped = y.copy()
    m, k = rng.integers(0, 3), rng.integers(0, 4)
    bumped[m, k] = min(1.0, bumped[m, k] + 0.3)
    assert bs_operating_cost(net, lam, bumped, cost) <= base + 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_replacement_cost_triangle(seed: int):
    """Property: switching a->c costs at most switching a->b->c."""
    rng = np.random.default_rng(seed)
    net = _net(K=6)
    a, b, c = [(rng.random((1, 6)) > 0.5).astype(float) for _ in range(3)]
    direct = replacement_cost(net, c, a)
    detour = replacement_cost(net, b, a) + replacement_cost(net, c, b)
    assert direct <= detour + 1e-9
