"""Independent HiGHS oracles: general LPs and subproblem ``P1`` (Eqs. 20-22).

The library solves LPs with its own simplex (``repro.optim.linprog``) and
answers ``P1`` with a digest memo, a relaxed DP, a capped cancel kernel and
a min-cost-flow fallback (``repro.core.caching_lp``). This module shares
none of that code: :func:`solve_lp_highs` hands an LP to
``scipy.optimize.linprog(method="highs")``, and :func:`solve_p1_highs`
writes the LP of Eqs. 20-22 out as a sparse matrix for it. Theorem 1
(total unimodularity) makes that LP's optimum integral, so its objective
is the exact ``P1`` optimum every solve path must reach.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse

from repro.core.caching_lp import CachingSolution, class_prices
from repro.optim.linprog import LPResult


def solve_lp_highs(
    c: np.ndarray,
    *,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    lo: np.ndarray | float = 0.0,
    hi: np.ndarray | float = np.inf,
) -> LPResult:
    """HiGHS twin of :func:`repro.optim.linprog.solve_lp` (same problem form)."""
    c = np.asarray(c, dtype=np.float64)
    bounds = np.column_stack(
        [np.broadcast_to(lo, c.shape), np.broadcast_to(hi, c.shape)]
    )
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    assert res.success, f"HiGHS failed: {res.message}"
    return LPResult(x=np.asarray(res.x), objective=float(res.fun))


def solve_p1_highs(
    c: np.ndarray, beta: float, cap: int, x0: np.ndarray
) -> tuple[np.ndarray, float]:
    """Optimal ``(x, objective)`` of one SBS's ``P1`` by HiGHS.

    Variables are ``x[t,k]`` in ``[0, 1]`` and ``p[t,k] >= 0``; the rows
    are one capacity row per slot (``sum_k x[t,k] <= cap``) and one
    switching row per cell (``x[t,k] - x[t-1,k] - p[t,k] <= [t=0] x0[k]``).
    The returned trajectory is the LP vertex snapped to 0/1; the snap must
    not change the objective (Theorem 1).
    """
    T, K = c.shape
    n_x = T * K
    cost = np.concatenate([-c.reshape(-1), np.full(n_x, float(beta))])

    cells = np.arange(n_x)
    later = cells[K:]  # cells with t > 0
    rows = np.concatenate(
        [np.repeat(np.arange(T), K), T + cells, T + later, T + cells]
    )
    cols = np.concatenate([cells, cells, later - K, n_x + cells])
    vals = np.concatenate(
        [np.ones(n_x), np.ones(n_x), -np.ones(n_x - K), -np.ones(n_x)]
    )
    A_ub = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(T + n_x, 2 * n_x))
    b_ub = np.concatenate(
        [np.full(T, float(cap)), np.asarray(x0, dtype=np.float64), np.zeros(n_x - K)]
    )
    hi = np.concatenate([np.ones(n_x), np.full(n_x, np.inf)])
    res = solve_lp_highs(cost, A_ub=A_ub, b_ub=b_ub, hi=hi)

    x = np.where(res.x[:n_x].reshape(T, K) > 0.5, 1.0, 0.0)
    objective = _p1_objective(c, beta, x, x0)
    assert objective <= res.objective + 1e-6 * max(1.0, abs(res.objective)), (
        "HiGHS vertex does not snap to an integral optimum"
    )
    return x, res.objective


def solve_caching_highs(network, mu, x_initial, **_ignored) -> CachingSolution:
    """Drop-in for ``solve_caching`` answering every SBS with HiGHS."""
    prices = class_prices(network, mu)
    x = np.zeros(prices.shape)
    objective = 0.0
    for n in range(network.num_sbs):
        xn, _ = solve_p1_highs(
            prices[:, n, :],
            float(network.replacement_costs[n]),
            int(network.cache_sizes[n]),
            x_initial[n],
        )
        x[:, n, :] = xn
        objective += _p1_objective(
            prices[:, n, :], float(network.replacement_costs[n]), xn, x_initial[n]
        )
    return CachingSolution(x=x, objective=objective)


def _p1_objective(c, beta, x, x0) -> float:
    prev = np.vstack([np.asarray(x0, dtype=np.float64)[None, :], x[:-1]])
    return float(beta * np.clip(x - prev, 0.0, None).sum() - (c * x).sum())
