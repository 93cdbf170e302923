"""Ablation — solver backends (micro-benchmarks).

Times the interchangeable backends on paper-scale subproblems:

- ``P2`` (load balancing): the exact water-filling solver vs FISTA;
- raw LP: in-house bounded-variable simplex vs HiGHS.

``P1`` has one exact path (``repro.core.caching_lp.solve_caching``), so it
has no backend leg here.

These are real repeated-timing benchmarks (pytest-benchmark statistics),
unlike the figure benches which run once.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from repro.api import JointProblem, paper_demand, single_cell_network
# Internal by design: this bench ablates the P2 solver backends against
# each other, below the stable public surface.
from repro.core.load_balancing import _solve_p2_fista, solve_p2
from repro.optim.linprog import solve_lp


@pytest.fixture(scope="module")
def p2_instance():
    rng = np.random.default_rng(1)
    net = single_cell_network(
        num_items=30, cache_size=5, bandwidth=30.0, replacement_cost=100.0,
        omega_bs=rng.uniform(0, 1, 30),
    )
    demand = paper_demand(10, 30, 30, rng=rng, density_range=(0.0, 4.0))
    problem = JointProblem(net, demand.rates)
    mu = rng.uniform(0, 3, problem.y_shape)
    return problem, mu


def test_p2_waterfill_speed(benchmark, p2_instance):
    problem, mu = p2_instance
    result = benchmark(lambda: solve_p2(problem, mu))
    assert np.all(result.y >= 0) and np.all(result.y <= 1)


def test_p2_fista_speed(benchmark, p2_instance):
    problem, mu = p2_instance
    result = benchmark.pedantic(
        lambda: _solve_p2_fista(problem, mu, tol=1e-6, max_iter=2000),
        rounds=3,
        iterations=1,
    )
    # FISTA should land within a small factor of the exact solver.
    exact = solve_p2(problem, mu)
    assert result.objective <= exact.objective * 1.01 + 1e-6


@pytest.fixture(scope="module")
def lp_instance():
    rng = np.random.default_rng(2)
    n, m = 40, 12
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.2, 0.8, n) + 0.5
    return c, A, b


def test_lp_simplex_speed(benchmark, lp_instance):
    c, A, b = lp_instance
    result = benchmark(lambda: solve_lp(c, A_ub=A, b_ub=b, lo=0.0, hi=1.0))
    assert np.all(result.x >= -1e-8)


def test_lp_highs_speed(benchmark, lp_instance):
    # scipy is imported at module scope so no timed round pays for it.
    c, A, b = lp_instance
    result = benchmark(
        lambda: scipy.optimize.linprog(
            c, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs"
        )
    )
    assert result.success and np.all(result.x >= -1e-8)
