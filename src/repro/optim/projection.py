"""Euclidean projections onto the feasible sets of the paper's subproblems.

The load-balancing subproblem ``P2`` is solved per SBS and slot over the
set ``{y : lo <= y <= hi, a . y <= budget}`` (box plus one weighted
halfspace — constraint (2) of the paper with the box (11)/(3)). Its
Euclidean projection reduces, by Lagrangian duality, to a one-dimensional
root-finding problem over the halfspace multiplier ``theta``: the
projected point is ``clip(v - theta a, lo, hi)`` and the budget usage of
that point is a continuous, piecewise-linear, non-increasing function of
``theta``. The batched operators solve for ``theta`` **exactly** — one
stable sort of the 2d clip breakpoints per row, prefix sums of the
per-segment linear coefficients, and a vectorized count to locate the
crossing segment (mirroring the parametric bandwidth-bound water-fill of
:mod:`repro.optim.waterfill`, DESIGN.md §7). The scalar
:func:`project_halfspace_box` stays a bisection because its callers are
not hot; it shares no code with the exact solve, so tests use it as the
batched operators' reference.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleProblemError
from repro.types import FloatArray


def project_box(v: FloatArray, lo: FloatArray | float, hi: FloatArray | float) -> FloatArray:
    """Project ``v`` onto the box ``[lo, hi]`` elementwise.

    Raises when the box is empty (some ``lo > hi``).
    """
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=np.float64), v.shape)
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=np.float64), v.shape)
    if np.any(lo_arr > hi_arr + 1e-12):
        raise InfeasibleProblemError("empty box: some lower bound exceeds upper bound")
    return np.clip(v, lo_arr, hi_arr)


def project_halfspace_box(
    v: FloatArray,
    a: FloatArray,
    budget: float,
    lo: FloatArray | float = 0.0,
    hi: FloatArray | float = 1.0,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> FloatArray:
    """Project ``v`` onto ``{y : lo <= y <= hi, a . y <= budget}`` with ``a >= 0``.

    The projection is ``clip(v - theta * a, lo, hi)`` for the smallest
    ``theta >= 0`` making the budget constraint hold; ``theta`` is found by
    bisection on the monotone non-increasing map
    ``theta -> a . clip(v - theta * a, lo, hi)``.

    Raises :class:`InfeasibleProblemError` when even the box's cheapest
    point violates the budget (i.e. ``a . lo > budget``).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != v.shape:
        raise ConfigurationError(f"a has shape {a.shape}, expected {v.shape}")
    if np.any(a < 0):
        raise ConfigurationError("halfspace weights must be non-negative")
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=np.float64), v.shape)
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=np.float64), v.shape)

    base = project_box(v, lo_arr, hi_arr)
    if float(a @ base) <= budget + tol:
        return base

    floor_usage = float(a @ lo_arr)
    if floor_usage > budget + 1e-9:
        raise InfeasibleProblemError(
            f"halfspace budget {budget} unreachable: box floor already uses {floor_usage}"
        )

    def usage(theta: float) -> float:
        return float(a @ np.clip(v - theta * a, lo_arr, hi_arr))

    theta_lo, theta_hi = 0.0, 1.0
    while usage(theta_hi) > budget and theta_hi < 1e18:
        theta_lo = theta_hi
        theta_hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (theta_lo + theta_hi)
        if usage(mid) > budget:
            theta_lo = mid
        else:
            theta_hi = mid
        if theta_hi - theta_lo <= tol * max(1.0, theta_hi):
            break
    return np.clip(v - theta_hi * a, lo_arr, hi_arr)


def halfspace_theta_exact(
    vv: FloatArray,
    aa: FloatArray,
    bb: FloatArray,
    lo: FloatArray | float,
    hi: FloatArray | float,
) -> FloatArray:
    """Exact halfspace multiplier for rows whose budget constraint binds.

    For each row, returns the smallest ``theta >= 0`` such that
    ``aa . clip(vv - theta aa, lo, hi) <= bb``. The usage map
    ``U(theta) = sum_j a_j clip(v_j - theta a_j, lo_j, hi_j)`` is
    continuous, piecewise linear and non-increasing; coordinate ``j``
    (with ``a_j > 0``) leaves its ``hi`` clip at ``theta = (v_j - hi_j) /
    a_j`` and enters its ``lo`` clip at ``theta = (v_j - lo_j) / a_j``,
    so between breakpoints ``U(theta) = C - Q theta`` with ``Q`` the sum
    of ``a_j^2`` over the unclipped coordinates. One **stable** argsort
    of the 2d breakpoints per row plus prefix sums of the segment deltas
    yields every ``(C_k, Q_k)``; counting the breakpoints whose usage
    still exceeds ``bb`` locates the crossing segment and the root is
    read off exactly. The stable sort makes tie order follow the
    original coordinate order, so zero-padded and compressed layouts of
    the same row produce bit-identical projections.

    Callers must pre-filter to violated rows (``U(0) > bb``); coordinates
    with ``a_j == 0`` never move and contribute nothing to the usage.
    """
    B, d = vv.shape
    lo_b = np.broadcast_to(np.asarray(lo, dtype=np.float64), vv.shape)
    hi_b = np.broadcast_to(np.asarray(hi, dtype=np.float64), vv.shape)
    pos = aa > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Breakpoint "events" in theta; a_j == 0 coordinates park at +inf
        # with zero deltas, so padding columns are inert.
        th_enter = np.where(pos, (vv - hi_b) / aa, np.inf)
        th_leave = np.where(pos, (vv - lo_b) / aa, np.inf)
        ev_th = np.concatenate([th_enter, th_leave], axis=1)
        av = np.where(pos, aa * vv, 0.0)
        dC = np.concatenate(
            [av - np.where(pos, aa * hi_b, 0.0), np.where(pos, aa * lo_b, 0.0) - av],
            axis=1,
        )
        aq = np.where(pos, aa * aa, 0.0)
        dQ = np.concatenate([aq, -aq], axis=1)
        order = np.argsort(ev_th, axis=1, kind="stable")
        ridx = np.arange(B)[:, None]
        th_s = ev_th[ridx, order]
        # C0 (all coordinates at their hi clip) must be a *sequential* sum:
        # np.sum's pairwise accumulation regroups when zero columns are
        # interleaved, which would break bit-identity between padded and
        # compressed layouts of the same rows. cumsum is sequential, so
        # inserted zeros are exact no-ops.
        C0 = np.cumsum(np.where(pos, aa * hi_b, 0.0), axis=1)[:, -1:]
        C = C0 + np.cumsum(dC[ridx, order], axis=1)
        # True Q is a sum of squares (>= 0 on every segment); clamp the
        # cancellation residue of the +/- prefix so the +inf tail events
        # evaluate to NaN / -inf below rather than +inf.
        Q = np.maximum(np.cumsum(dQ[ridx, order], axis=1), 0.0)
        # Usage at each breakpoint (evaluated with the right-segment
        # coefficients — U is continuous, so the side does not matter).
        # +inf tail events give -inf or NaN, neither of which counts.
        u_at = C - Q * th_s
        m = np.count_nonzero(u_at > bb[:, None], axis=1)
    seg = np.maximum(m - 1, 0)
    rows = np.arange(B)
    C_s, Q_s, th_c = C[rows, seg], Q[rows, seg], th_s[rows, seg]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(Q_s > 0.0, (C_s - bb) / Q_s, th_c)
    # m == 0 only for degenerate rows (all a_j == 0) that slipped past the
    # feasibility guard on tolerance; theta = 0 returns the plain clip.
    return np.maximum(np.where(m > 0, theta, 0.0), 0.0)


def project_halfspace_box_batch(
    v: FloatArray,
    a: FloatArray,
    budgets: FloatArray,
    lo: float = 0.0,
    hi: float = 1.0,
) -> FloatArray:
    """Batched :func:`project_halfspace_box` over leading blocks.

    ``v`` and ``a`` have shape ``(B, d)`` (``a`` may also be ``(d,)`` and is
    broadcast); ``budgets`` has shape ``(B,)``. Block ``i`` is projected
    onto ``{y : lo <= y <= hi, a[i] . y <= budgets[i]}``; the binding
    blocks are solved exactly via :func:`halfspace_theta_exact`.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ConfigurationError(f"expected (blocks, dim) array, got shape {v.shape}")
    a = np.broadcast_to(np.asarray(a, dtype=np.float64), v.shape)
    budgets = np.asarray(budgets, dtype=np.float64)
    if budgets.shape != (v.shape[0],):
        raise ConfigurationError(
            f"budgets shape {budgets.shape} does not match {v.shape[0]} blocks"
        )
    if np.any(a < 0):
        raise ConfigurationError("halfspace weights must be non-negative")
    if lo > hi:
        raise InfeasibleProblemError("empty box: lo > hi")

    base = np.clip(v, lo, hi)
    usage = np.einsum("bd,bd->b", a, base)
    violated = usage > budgets + 1e-12
    if not np.any(violated):
        return base
    floor_usage = lo * a.sum(axis=1)
    if np.any(floor_usage[violated] > budgets[violated] + 1e-9):
        raise InfeasibleProblemError("some block's budget is unreachable")

    vv = v[violated]
    aa = a[violated]
    theta = halfspace_theta_exact(vv, aa, budgets[violated], lo, hi)
    base[violated] = np.clip(vv - theta[:, None] * aa, lo, hi)
    return base


def project_capped_simplex(
    v: FloatArray,
    total: float,
    cap: FloatArray | float = 1.0,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> FloatArray:
    """Project ``v`` onto ``{x : 0 <= x <= cap, sum(x) = total}``.

    Used for relaxed caching iterates (capacity constraint (1) with the
    unit box). Solved by bisection on the shift ``tau`` in
    ``clip(v - tau, 0, cap)``, whose sum is monotone in ``tau``.
    """
    cap_arr = np.broadcast_to(np.asarray(cap, dtype=np.float64), v.shape)
    if np.any(cap_arr < 0):
        raise ConfigurationError("caps must be non-negative")
    reachable = float(cap_arr.sum())
    if total < -tol or total > reachable + 1e-9:
        raise InfeasibleProblemError(
            f"target sum {total} outside reachable range [0, {reachable}]"
        )
    total = min(max(total, 0.0), reachable)

    def mass(tau: float) -> float:
        return float(np.clip(v - tau, 0.0, cap_arr).sum())

    tau_lo = float(v.min() - cap_arr.max() - 1.0)
    tau_hi = float(v.max() + 1.0)
    for _ in range(max_iter):
        mid = 0.5 * (tau_lo + tau_hi)
        if mass(mid) > total:
            tau_lo = mid
        else:
            tau_hi = mid
        if tau_hi - tau_lo <= tol * max(1.0, abs(tau_hi)):
            break
    return np.clip(v - 0.5 * (tau_lo + tau_hi), 0.0, cap_arr)
