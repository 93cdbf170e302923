"""Tests for the in-house bounded-variable simplex and the LP interface."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p1_oracle import solve_lp_highs
from repro.exceptions import (
    ConfigurationError,
    InfeasibleProblemError,
    UnboundedProblemError,
)
from repro.optim.linprog import solve_lp
from repro.optim.simplex import solve_simplex


class TestSolveSimplex:
    def test_textbook_problem(self):
        # min -x - 2y st x + y <= 3 (as equality with slack), 0<=x,y<=2.
        c = np.array([-1.0, -2.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0]])
        b = np.array([3.0])
        lo = np.zeros(3)
        hi = np.array([2.0, 2.0, np.inf])
        res = solve_simplex(c, A, b, lo, hi)
        assert res.objective == pytest.approx(-5.0)
        np.testing.assert_allclose(res.x[:2], [1.0, 2.0], atol=1e-8)

    def test_bound_flip_only_problem(self):
        # No constraint pressure: optimum at bounds.
        c = np.array([1.0, -1.0])
        A = np.array([[1.0, 1.0]])
        b = np.array([1.5])
        res = solve_simplex(c, A, b, np.zeros(2), np.ones(2))
        assert res.objective == pytest.approx(0.5 - 1.0)

    def test_infeasible_detected(self):
        c = np.zeros(2)
        A = np.array([[1.0, 1.0]])
        b = np.array([5.0])
        with pytest.raises(InfeasibleProblemError):
            solve_simplex(c, A, b, np.zeros(2), np.ones(2))

    def test_unbounded_detected(self):
        # min -x st x - y = 0, x,y >= 0 unbounded.
        c = np.array([-1.0, 0.0])
        A = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        with pytest.raises(UnboundedProblemError):
            solve_simplex(c, A, b, np.zeros(2), np.full(2, np.inf))

    def test_redundant_rows_handled(self):
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        res = solve_simplex(c, A, b, np.zeros(2), np.ones(2))
        assert res.objective == pytest.approx(1.0)

    def test_degenerate_problem_terminates(self):
        # Two constraints bind x1 at the same degenerate vertex.
        c = np.array([-1.0, -1.0, 0.0, 0.0])
        A = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
        b = np.array([1.0, 1.0])
        hi = np.array([np.inf, 1.0, np.inf, np.inf])
        res = solve_simplex(c, A, b, np.zeros(4), hi)
        assert res.objective == pytest.approx(-2.0)

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            solve_simplex(
                np.zeros(2), np.ones((1, 3)), np.ones(1), np.zeros(2), np.ones(2)
            )

    def test_requires_finite_lower_bounds(self):
        with pytest.raises(ConfigurationError):
            solve_simplex(
                np.zeros(1),
                np.ones((1, 1)),
                np.zeros(1),
                np.array([-np.inf]),
                np.array([np.inf]),
            )


class TestSolveLP:
    def test_box_only(self):
        res = solve_lp(np.array([1.0, -1.0]), lo=0.0, hi=1.0)
        np.testing.assert_allclose(res.x, [0.0, 1.0])
        assert res.objective == pytest.approx(-1.0)

    def test_box_only_unbounded(self):
        with pytest.raises(UnboundedProblemError):
            solve_lp(np.array([-1.0]), lo=0.0, hi=np.inf)

    def test_mixed_eq_and_ub(self):
        # min x1 + x2 st x1 + x2 >= 1 (as -x1 - x2 <= -1), x1 - x2 = 0.2.
        c = np.ones(2)
        res_own = solve_lp(
            c,
            A_ub=np.array([[-1.0, -1.0]]),
            b_ub=np.array([-1.0]),
            A_eq=np.array([[1.0, -1.0]]),
            b_eq=np.array([0.2]),
            lo=0.0,
            hi=1.0,
        )
        res_sp = solve_lp_highs(
            c,
            A_ub=np.array([[-1.0, -1.0]]),
            b_ub=np.array([-1.0]),
            A_eq=np.array([[1.0, -1.0]]),
            b_eq=np.array([0.2]),
            lo=0.0,
            hi=1.0,
        )
        assert res_own.objective == pytest.approx(res_sp.objective, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_simplex_agrees_with_highs_on_random_feasible_lps(seed: int):
    """Property: the in-house simplex matches HiGHS on random bounded LPs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 4))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    interior = rng.uniform(0.1, 0.9, size=n)
    b = A @ interior + rng.uniform(0.05, 0.5, size=m)  # strictly feasible
    own = solve_lp(c, A_ub=A, b_ub=b, lo=0.0, hi=1.0)
    ref = solve_lp_highs(c, A_ub=A, b_ub=b, lo=0.0, hi=1.0)
    assert own.objective == pytest.approx(ref.objective, abs=1e-6)
    # Feasibility of our solution.
    assert np.all(own.x >= -1e-8) and np.all(own.x <= 1 + 1e-8)
    assert np.all(A @ own.x <= b + 1e-7)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_simplex_equality_lps_match_highs(seed: int):
    """Property: equality-constrained problems also agree with HiGHS."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    c = rng.normal(size=n)
    A = rng.normal(size=(1, n))
    interior = rng.uniform(0.2, 0.8, size=n)
    b = A @ interior
    own = solve_lp(c, A_eq=A, b_eq=b, lo=0.0, hi=1.0)
    ref = solve_lp_highs(c, A_eq=A, b_eq=b, lo=0.0, hi=1.0)
    assert own.objective == pytest.approx(ref.objective, abs=1e-6)
