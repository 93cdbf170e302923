"""Independent ``P1`` oracles: HiGHS LPs and the residual-graph sweeps.

The library solves LPs with its own simplex (``repro.optim.linprog``) and
answers ``P1`` with a digest memo, a relaxed DP, a capped cancel kernel and
a min-cost-flow fallback (``repro.core.caching_lp``). This module shares
none of that code: :func:`solve_lp_highs` hands an LP to
``scipy.optimize.linprog(method="highs")``, and :func:`solve_p1_highs`
writes the LP of Eqs. 20-22 out as a sparse matrix for it. Theorem 1
(total unimodularity) makes that LP's optimum integral, so its objective
is the exact ``P1`` optimum every solve path must reach.

:func:`bellman_converged` is the capped kernel's former optimality check:
label-correcting sweeps over a candidate's residual graph. It is kept as
the reference the kernel's one-shot hub-graph certificate is tested
against.
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


def bellman_converged(
    C: np.ndarray,
    fetch: np.ndarray,
    on: np.ndarray,
    ent: np.ndarray,
    cont: np.ndarray,
    exi: np.ndarray,
    counts: np.ndarray,
    caps: np.ndarray,
    tol: np.ndarray,
    max_pairs: int,
) -> np.ndarray:
    """Which rows' residual graphs admit no improving cycle, by sweeps.

    The reference for :func:`repro.core.capped._hub_certified`: the same
    residual arcs, each shifted by the row's danger band ``tol``, relaxed
    by label-correcting Bellman sweeps — one forward and one backward pass
    over the horizon per pair, all rows at once — from zero labels (the
    implicit super-source). A row whose labels stop changing is at a fixed
    point and holds no improving cycle. With ``max_pairs`` at least the
    node count ``T + 1 + 2 T K`` every row without one reaches its fixed
    point, so the mask is exact up to float summation order.
    """
    B, T, K = C.shape
    tb = np.asarray(tol)[:, None]
    t3 = tb[:, :, None]
    a_fetch = np.where(ent, np.inf, fetch) + t3  # hub(t) -> in(t,k): pay fetch
    a_fetchr = np.where(ent, -fetch, np.inf) + t3  # in(t,k) -> hub(t): refund
    a_add = np.where(on, np.inf, -C) + t3  # in -> out: start holding, gain c
    a_drop = np.where(on, C, np.inf) + t3  # out -> in: stop holding
    g_cf = np.where(cont, np.inf, 0.0) + t3  # out(t)  -> in(t+1)
    g_cr = np.where(cont, 0.0, np.inf) + t3  # in(t+1) -> out(t)
    g_ef = np.where(exi, np.inf, 0.0) + t3  # out(t)  -> hub(t+1)
    g_er = np.where(exi, 0.0, np.inf) + t3  # hub(t+1) -> out(t)
    h_f = np.where(counts > 0, 0.0, np.inf) + tb  # hub chain forward
    h_r = np.where(counts < np.asarray(caps)[:, None], 0.0, np.inf) + tb  # back

    d_hub = np.zeros((B, T + 1))
    d_in = np.zeros((B, T, K))
    d_out = np.zeros((B, T, K))
    changed = np.ones(B, dtype=bool)
    for _ in range(max_pairs):
        s_hub = d_hub.copy()
        s_in = d_in.copy()
        s_out = d_out.copy()
        for t in range(T):
            cin = d_hub[:, t, None] + a_fetch[:, t]
            if t:
                cin = np.minimum(cin, d_out[:, t - 1] + g_cf[:, t - 1])
            dit = d_in[:, t]
            np.minimum(dit, cin, out=dit)
            dot = d_out[:, t]
            np.minimum(dot, dit + a_add[:, t], out=dot)
            np.minimum(dit, dot + a_drop[:, t], out=dit)
            hc = np.minimum(
                (dot + g_ef[:, t]).min(axis=1), d_hub[:, t] + h_f[:, t]
            )
            dh = d_hub[:, t + 1]
            np.minimum(dh, hc, out=dh)
        for t in range(T - 1, -1, -1):
            cout = d_hub[:, t + 1, None] + g_er[:, t]
            if t < T - 1:
                cout = np.minimum(cout, d_in[:, t + 1] + g_cr[:, t])
            dot = d_out[:, t]
            np.minimum(dot, cout, out=dot)
            dit = d_in[:, t]
            np.minimum(dit, dot + a_drop[:, t], out=dit)
            np.minimum(dot, dit + a_add[:, t], out=dot)
            hc = np.minimum(
                (dit + a_fetchr[:, t]).min(axis=1), d_hub[:, t + 1] + h_r[:, t]
            )
            dh = d_hub[:, t]
            np.minimum(dh, hc, out=dh)
        changed = (
            (d_hub != s_hub).any(axis=1)
            | (d_in != s_in).any(axis=(1, 2))
            | (d_out != s_out).any(axis=(1, 2))
        )
        if not changed.any():
            break
    return ~changed
