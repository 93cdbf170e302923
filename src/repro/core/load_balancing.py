"""Subproblem ``P2`` — load balancing (Eq. 19) and the fixed-cache oracle.

Two related problems are solved here, both per SBS and per slot:

1. ``P2`` inside Algorithm 1: minimize ``f_t(Y) + g_t(Y) + mu . Y`` over
   ``0 <= y <= 1`` and the bandwidth constraint (2) — the coupling ``y <= x``
   has been dualized into ``mu``.
2. The *fixed-cache oracle*: given an integral cache ``x``, compute the
   exact optimal ``y`` (now with ``y <= x`` enforced directly and no
   ``mu``). Every policy in the library is evaluated through this oracle so
   realized costs are always the best achievable for the chosen caches.

For the paper's evaluation setting — quadratic BS cost, ``omega-hat = 0``
(Section V-B) — both reduce to a one-dimensional fixed point over the BS
residual ``r``: at a given ``r`` the KKT conditions rank items by the
per-bandwidth-unit benefit ``kappa_j = 2 r omega_j - mu_j / lambda_j`` and
fill greedily up to the bandwidth, and the resulting residual is monotone
in ``r``. Both the loop and batched layouts route every (SBS, slot) row
through :func:`repro.optim.waterfill.waterfill_batch`, which solves the
fixed point *in closed form*: a single threshold scan whenever the
bandwidth constraint is slack (the overwhelmingly common case) and the
exact parametric bound solve (DESIGN.md §7) when it binds, with the
legacy residual bisection retained only as a fallback for degenerate
rows and as the A/B reference (``closed_form=False``). Both layouts are
bit-identical by construction, and results agree with the historical
all-bisection solver to the documented ``<= 1e-9`` objective envelope
(the closed form is exact where the bisection was a ``2^-26``-bracketed
approximation). ``RuntimeConfig`` (or ``REPRO_BW_CLOSED_FORM``)
selects the path; the resolution happens once in :func:`solve_p2` /
:func:`solve_y_given_x` and is threaded through every kernel and
projection call below. The general case (``omega-hat > 0`` or
non-quadratic costs) falls back to FISTA over the box-plus-halfspace
feasible set, whose binding-block projection uses the same exact
parametric solve (:func:`repro.optim.projection.halfspace_theta_exact`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import RuntimeConfig, resolved_batched, resolved_bw_closed_form
from repro.core.problem import JointProblem
from repro.exceptions import DimensionMismatchError
from repro.network.costs import QuadraticOperatingCost
from repro.optim.budget import SolveBudget
from repro.optim.fista import minimize_fista
from repro.optim.projection import halfspace_theta_exact
from repro.optim.waterfill import BISECTION_ITERS, waterfill_batch
from repro.types import FloatArray, IntArray


@dataclass(frozen=True)
class LoadBalancingSolution:
    """Solution of ``P2`` (or the fixed-cache oracle) over a window.

    Attributes
    ----------
    y:
        Load-balancing trajectory, shape ``(T, M, K)``.
    objective:
        The solved objective: ``sum_t (f + g) + sum mu . y`` for ``P2``;
        ``sum_t (f + g)`` for the fixed-cache oracle.
    """

    y: FloatArray
    objective: float


def _uses_fast_path(problem: JointProblem) -> bool:
    return isinstance(problem.bs_cost, QuadraticOperatingCost) and bool(
        np.all(problem.network.omega_sbs == 0.0)
    )


# --------------------------------------------------------------------- P2

def solve_p2(
    problem: JointProblem,
    mu: FloatArray,
    *,
    y0: FloatArray | None = None,
    tol: float = 1e-7,
    max_iter: int = 500,
    budget: SolveBudget | None = None,
    config: RuntimeConfig | None = None,
) -> LoadBalancingSolution:
    """Solve ``P2`` given multipliers ``mu`` of shape ``(T, M, K)``.

    ``budget`` is the enclosing anytime budget (shared clock): the FISTA
    fallback stops early once it is exhausted and returns its best feasible
    iterate. The closed-form fast path ignores it — one pass is exact.
    ``config`` selects the batched solve core (default on; both paths
    return bit-identical solutions) and the bandwidth-bound solve
    (``bw_closed_form``, default on).
    """
    if mu.shape != problem.y_shape:
        raise DimensionMismatchError(f"mu shape {mu.shape} != {problem.y_shape}")
    closed_form = resolved_bw_closed_form(config)
    if _uses_fast_path(problem):
        return _solve_p2_fast(
            problem, mu, batched=resolved_batched(config), closed_form=closed_form
        )
    return _solve_p2_fista(
        problem,
        mu,
        y0=y0,
        tol=tol,
        max_iter=max_iter,
        budget=budget,
        batched=resolved_batched(config),
        closed_form=closed_form,
    )


def solve_y_given_x(
    problem: JointProblem,
    x: FloatArray,
    *,
    y0: FloatArray | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    budget: SolveBudget | None = None,
    config: RuntimeConfig | None = None,
) -> LoadBalancingSolution:
    """Exact optimal ``y`` for a fixed integral caching trajectory ``x``.

    Enforces ``y <= x`` directly; with the paper's costs this is the greedy
    bandwidth fill by descending ``omega`` (a fractional knapsack), solved
    in closed form for all slots at once. ``budget`` caps the FISTA
    fallback only (the closed form is a single exact pass).
    """
    if x.shape != problem.x_shape:
        raise DimensionMismatchError(f"x shape {x.shape} != {problem.x_shape}")
    zero_mu = np.zeros(problem.y_shape)
    closed_form = resolved_bw_closed_form(config)
    if _uses_fast_path(problem):
        return _solve_p2_fast(
            problem,
            zero_mu,
            x_caps=x,
            batched=resolved_batched(config),
            closed_form=closed_form,
        )
    return _solve_p2_fista(
        problem,
        zero_mu,
        x_caps=x,
        y0=y0,
        tol=tol,
        max_iter=max_iter,
        budget=budget,
        batched=resolved_batched(config),
        closed_form=closed_form,
    )


def p2_objective(problem: JointProblem, y: FloatArray, mu: FloatArray) -> float:
    """Evaluate the ``P2`` objective ``sum_t (f + g) + mu . y`` (for tests)."""
    from repro.network.costs import bs_operating_cost, sbs_operating_cost

    total = float(np.sum(mu * y))
    for t in range(problem.horizon):
        total += bs_operating_cost(
            problem.network, problem.demand[t], y[t], problem.bs_cost
        )
        total += sbs_operating_cost(
            problem.network, problem.demand[t], y[t], problem.sbs_cost
        )
    return total


# ------------------------------------------------------------- fast solver

def _solve_p2_fast(
    problem: JointProblem,
    mu: FloatArray,
    *,
    x_caps: FloatArray | None = None,
    batched: bool = False,
    closed_form: bool | None = None,
) -> LoadBalancingSolution:
    """Exact solver for quadratic BS cost with ``omega-hat = 0``.

    Solves the per-(SBS, slot) residual fixed point; see module docstring.
    The loop path feeds one SBS at a time (all its slots as rows) through
    :func:`repro.optim.waterfill.waterfill_batch`; the batched path stacks
    all ``N x T`` (SBS, slot) rows into a single call. The kernel is
    padding- and stacking-invariant, so both produce bit-identical
    solutions — ``batched`` selects granularity, not semantics.
    ``closed_form`` is forwarded to the kernel verbatim (``None``
    re-resolves from the environment there).
    """
    if batched:
        return _solve_p2_fast_batched(
            problem, mu, x_caps=x_caps, closed_form=closed_form
        )
    net = problem.network
    scale = problem.bs_cost.scale  # type: ignore[union-attr]
    T = problem.horizon
    y = np.zeros(problem.y_shape)
    objective = 0.0
    for n in range(net.num_sbs):
        classes = net.classes_of_sbs[n]
        lam = problem.demand[:, classes, :].reshape(T, -1)  # (T, J)
        omega = np.repeat(net.omega_bs[classes], net.num_items)  # (J,)
        mu_n = mu[:, classes, :].reshape(T, -1)
        caps = lam.copy()
        if x_caps is not None:
            per_class_caps = np.broadcast_to(
                x_caps[:, n, None, :], (T, len(classes), net.num_items)
            ).reshape(T, -1)
            caps = caps * per_class_caps
        W = lam @ omega  # (T,)
        B = float(net.bandwidths[n])

        alloc, u = _waterfill(
            lam, caps, omega, mu_n, W, B, scale, closed_form=closed_form
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            y_n = np.where(lam > 0, alloc / lam, 0.0)
        y[:, classes, :] = y_n.reshape(T, len(classes), net.num_items)
        residual = W - u
        objective += float(scale * np.sum(residual**2)) + float(np.sum(mu_n * y_n))
    return LoadBalancingSolution(y=y, objective=objective)


def _solve_p2_fast_batched(
    problem: JointProblem,
    mu: FloatArray,
    *,
    x_caps: FloatArray | None = None,
    closed_form: bool | None = None,
) -> LoadBalancingSolution:
    """Batched fast path: one water-fill call over all ``N x T`` rows.

    Rows are stacked SBS-major (rows ``n*T .. (n+1)*T`` belong to SBS
    ``n``); SBSs with fewer (class, item) coordinates are zero-padded on
    the right, which is inert because padded caps are zero. ``W`` is
    accumulated per SBS with the same GEMV the loop path uses, so every
    per-row quantity entering the kernel is bit-identical to the loop
    path's.
    """
    net = problem.network
    scale = problem.bs_cost.scale  # type: ignore[union-attr]
    T = problem.horizon
    K = net.num_items
    N = net.num_sbs
    if N == 1:
        # One SBS: SBS-major stacking is the identity, so the loop body —
        # which already feeds all T rows through one kernel call — is the
        # same computation minus the zero-init/copy assembly.
        return _solve_p2_fast(
            problem, mu, x_caps=x_caps, batched=False, closed_form=closed_form
        )
    counts = [len(net.classes_of_sbs[n]) for n in range(N)]
    j_max = max(counts) * K if N else 0
    R = N * T

    lam_b = np.zeros((R, j_max))
    mu_b = np.zeros((R, j_max))
    om_b = np.zeros((R, j_max))
    caps_b = np.zeros((R, j_max))
    W_b = np.zeros(R)
    bw_b = np.zeros(R)
    group = np.repeat(np.arange(N, dtype=np.intp), T)
    for n in range(N):
        classes = net.classes_of_sbs[n]
        J = counts[n] * K
        rows = slice(n * T, (n + 1) * T)
        lam = problem.demand[:, classes, :].reshape(T, -1)
        omega = np.repeat(net.omega_bs[classes], K)
        lam_b[rows, :J] = lam
        mu_b[rows, :J] = mu[:, classes, :].reshape(T, -1)
        om_b[rows, :J] = omega
        caps = lam.copy()
        if x_caps is not None:
            per_class_caps = np.broadcast_to(
                x_caps[:, n, None, :], (T, counts[n], K)
            ).reshape(T, -1)
            caps = caps * per_class_caps
        caps_b[rows, :J] = caps
        W_b[rows] = lam @ omega
        bw_b[rows] = float(net.bandwidths[n])

    alloc_b, u_b = waterfill_batch(
        lam_b,
        caps_b,
        om_b,
        mu_b,
        W_b,
        bw_b,
        scale,
        group_ids=group,
        closed_form=closed_form,
    )

    y = np.zeros(problem.y_shape)
    objective = 0.0
    for n in range(N):
        classes = net.classes_of_sbs[n]
        J = counts[n] * K
        rows = slice(n * T, (n + 1) * T)
        lam = lam_b[rows, :J]
        mu_n = mu_b[rows, :J]
        with np.errstate(divide="ignore", invalid="ignore"):
            y_n = np.where(lam > 0, alloc_b[rows, :J] / lam, 0.0)
        y[:, classes, :] = y_n.reshape(T, counts[n], K)
        residual = W_b[rows] - u_b[rows]
        objective += float(scale * np.sum(residual**2)) + float(np.sum(mu_n * y_n))
    return LoadBalancingSolution(y=y, objective=objective)


def _waterfill(
    lam: FloatArray,
    caps: FloatArray,
    omega: FloatArray,
    mu: FloatArray,
    W: FloatArray,
    bandwidth: float,
    scale: float,
    *,
    closed_form: bool | None = None,
) -> tuple[FloatArray, FloatArray]:
    """One-SBS water-fill: thin wrapper over the shared batched kernel.

    Arrays are ``(T, J)`` with ``J`` the flattened (class, item) coordinates
    of one SBS. Returns the routed amounts ``alloc`` (in bandwidth units,
    ``alloc <= caps``) and the offloaded weighted volume ``u`` per slot.
    Routing through :func:`repro.optim.waterfill.waterfill_batch` is what
    makes the loop and batched ``P2`` paths bit-identical.
    """
    omega_rows = np.ascontiguousarray(np.broadcast_to(omega, caps.shape))
    bw = np.full(lam.shape[0], float(bandwidth))
    return waterfill_batch(
        np.ascontiguousarray(lam),
        caps,
        omega_rows,
        mu,
        W,
        bw,
        scale,
        closed_form=closed_form,
    )


def _waterfill_reference(
    lam: FloatArray,
    caps: FloatArray,
    omega: FloatArray,
    mu: FloatArray,
    W: FloatArray,
    bandwidth: float,
    scale: float,
    *,
    iters: int = BISECTION_ITERS,
) -> tuple[FloatArray, FloatArray]:
    """Historical all-bisection water-fill, kept as an independent test
    reference for the closed-form kernel.

    Bisection on the residual ``r`` with a greedy bandwidth fill inside;
    ``iters`` fixed iterations bracket the fixed point to ``~2^-iters``
    relative accuracy, then the closing interpolation mixes the two
    endpoint fills. The production kernel must match this solver's
    objective to ``1e-9`` (and is exact where this one is approximate).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(lam > 0, mu / lam, np.inf)
    omega_full = np.broadcast_to(omega, caps.shape)

    # The greedy order is re-derived from kappa every fill, but between
    # late bisection iterations it usually stops changing. The previous
    # order is kept and reused for every row whose sort keys are already
    # strictly ascending under it — that check is O(J) per row versus
    # O(J log J) for the argsort, and reuse is exact: a strictly ascending
    # row pins the unique sorted order of its eligible items, and
    # ineligible items (the +inf tail) carry zero capacity, so their
    # arrangement cannot affect the fill.
    prev_order: IntArray | None = None

    def fill(
        r: FloatArray, *, with_alloc: bool
    ) -> tuple[FloatArray | None, FloatArray]:
        nonlocal prev_order
        # Benefit per bandwidth unit at residual r; items with non-positive
        # benefit are never routed.
        kappa = 2.0 * scale * r[:, None] * omega[None, :] - slope
        eligible = (kappa > 0) & (caps > 0)
        key = np.where(eligible, -kappa, np.inf)
        order = None
        if prev_order is not None:
            seq = np.take_along_axis(key, prev_order, axis=1)
            lo, hi = seq[:, :-1], seq[:, 1:]
            sorted_ok = np.all((hi > lo) | (np.isposinf(lo) & np.isposinf(hi)), axis=1)
            if sorted_ok.all():
                order = prev_order
            elif sorted_ok.any():
                order = prev_order.copy()
                stale = ~sorted_ok
                order[stale] = np.argsort(key[stale], axis=1, kind="stable")
        if order is None:
            order = np.argsort(key, axis=1, kind="stable")
        prev_order = order
        caps_sorted = np.take_along_axis(np.where(eligible, caps, 0.0), order, axis=1)
        cum = np.cumsum(caps_sorted, axis=1)
        alloc_sorted = np.clip(bandwidth - (cum - caps_sorted), 0.0, caps_sorted)
        omega_sorted = np.take_along_axis(omega_full, order, axis=1)
        u = np.einsum("tj,tj->t", alloc_sorted, omega_sorted)
        if not with_alloc:
            return None, u
        alloc = np.zeros_like(caps)
        np.put_along_axis(alloc, order, alloc_sorted, axis=1)
        return alloc, u

    if not np.any((slope > 0) & (caps > 0)):
        # mu == 0 on every item that could be routed (items with zero cap
        # never receive flow regardless of their slope): the fill order
        # (by omega) and the eligible set do not depend on r, so a single
        # pass at any positive r is exact. This is the fixed-cache oracle's
        # hot path — it skips the bisection entirely.
        alloc, u = fill(np.maximum(W, 1.0), with_alloc=True)
        assert alloc is not None
        return alloc, u

    r_lo = np.zeros_like(W)
    r_hi = np.maximum(W.astype(np.float64), 1e-12)
    for _ in range(iters):
        mid = 0.5 * (r_lo + r_hi)
        _, u = fill(mid, with_alloc=False)
        implied = W - u
        too_small = implied > mid  # G(r) > 0 -> root is to the right
        r_lo = np.where(too_small, mid, r_lo)
        r_hi = np.where(too_small, r_hi, mid)

    # u(r) is a non-decreasing step function (the greedy order shifts toward
    # high-omega items as r grows), so the fixed point W - u(r) = r can sit
    # at a jump: G(r_lo) > 0 >= G(r_hi) with u jumping across the target.
    # The KKT-optimal point there mixes the two adjacent greedy fills (the
    # tied items split the bandwidth); both fills are feasible, u is linear
    # in y, so the exact mix is a convex interpolation.
    alloc_lo, u_lo = fill(r_lo, with_alloc=True)
    alloc_hi, u_hi = fill(r_hi, with_alloc=True)
    assert alloc_lo is not None and alloc_hi is not None
    u_target = W - 0.5 * (r_lo + r_hi)
    gap = u_hi - u_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(gap > 1e-15, np.clip((u_target - u_lo) / gap, 0.0, 1.0), 0.0)
    alloc = alloc_lo + t[:, None] * (alloc_hi - alloc_lo)
    u = u_lo + t * gap
    return alloc, u


# ------------------------------------------------------------ FISTA solver

def _solve_p2_fista(
    problem: JointProblem,
    mu: FloatArray,
    *,
    x_caps: FloatArray | None = None,
    y0: FloatArray | None = None,
    tol: float = 1e-7,
    max_iter: int = 500,
    budget: SolveBudget | None = None,
    batched: bool = False,
    closed_form: bool | None = None,
) -> LoadBalancingSolution:
    """General-case ``P2`` via accelerated projected gradient.

    The objective and gradient already operate on the full ``(T, M, K)``
    tensor; ``batched`` additionally runs the per-SBS block projection as
    one stacked :func:`_project_blocks_capped` call over all ``N x T``
    rows instead of one call per SBS. Per-row independence of the theta
    solve (exact by default, bisection under ``closed_form=False``) makes
    the two layouts bit-identical.
    """
    net = problem.network
    T = problem.horizon
    lam = problem.demand
    omega = net.omega_bs
    omega_hat = net.omega_sbs
    sbs_of = net.class_sbs

    # Per-slot, per-SBS totals; computed via scatter-add over classes.
    def per_sbs(values_per_class: FloatArray) -> FloatArray:
        out = np.zeros((T, net.num_sbs))
        np.add.at(out, (slice(None), sbs_of), values_per_class)
        return out

    W_ns = per_sbs(omega[None, :] * lam.sum(axis=2))  # (T, N)

    caps = np.ones(problem.y_shape)
    if x_caps is not None:
        caps = x_caps[:, sbs_of, :].astype(np.float64)

    def objective(y_flat: FloatArray) -> float:
        y = y_flat.reshape(problem.y_shape)
        offload = (lam * y).sum(axis=2)  # (T, M)
        u = per_sbs(omega[None, :] * offload)
        v = per_sbs(omega_hat[None, :] * offload)
        return (
            problem.bs_cost.evaluate(W_ns - u)
            + problem.sbs_cost.evaluate(v)
            + float(np.sum(mu * y))
        )

    def gradient(y_flat: FloatArray) -> FloatArray:
        y = y_flat.reshape(problem.y_shape)
        offload = (lam * y).sum(axis=2)
        u = per_sbs(omega[None, :] * offload)
        v = per_sbs(omega_hat[None, :] * offload)
        df = problem.bs_cost.derivative(W_ns - u)  # (T, N)
        dg = problem.sbs_cost.derivative(v)
        coeff = -df[:, sbs_of] * omega[None, :] + dg[:, sbs_of] * omega_hat[None, :]
        return (coeff[:, :, None] * lam + mu).reshape(-1)

    K = net.num_items
    N = net.num_sbs
    counts = [len(net.classes_of_sbs[n]) for n in range(N)]

    if batched:
        # Stack all (SBS, slot) blocks into one projection call. The
        # demand coefficients, caps and budgets are loop-invariant, so
        # they are assembled once; only the iterate is re-packed per call.
        # Zero padding (a = caps = v = 0) is inert in the bisection.
        j_max = max(counts) * K if N else 0
        R = N * T
        a_b = np.zeros((R, j_max))
        caps_b = np.zeros((R, j_max))
        bud_b = np.zeros(R)
        for n in range(N):
            classes = net.classes_of_sbs[n]
            J = counts[n] * K
            rows = slice(n * T, (n + 1) * T)
            a_b[rows, :J] = lam[:, classes, :].reshape(T, -1)
            caps_b[rows, :J] = caps[:, classes, :].reshape(T, -1)
            bud_b[rows] = float(net.bandwidths[n])

        def project(y_flat: FloatArray) -> FloatArray:
            yt = y_flat.reshape(problem.y_shape)
            v_b = np.zeros((R, j_max))
            for n in range(N):
                classes = net.classes_of_sbs[n]
                J = counts[n] * K
                rows = slice(n * T, (n + 1) * T)
                v_b[rows, :J] = yt[:, classes, :].reshape(T, -1)
            out_b = _project_blocks_capped(
                v_b, a_b, bud_b, caps_b, closed_form=closed_form
            )
            y = np.empty(problem.y_shape)
            for n in range(N):
                classes = net.classes_of_sbs[n]
                J = counts[n] * K
                rows = slice(n * T, (n + 1) * T)
                y[:, classes, :] = out_b[rows, :J].reshape(T, counts[n], K)
            return y.reshape(-1)

    else:

        def project(y_flat: FloatArray) -> FloatArray:
            # Each class belongs to exactly one SBS, so the per-SBS blocks
            # partition the coordinates and each is projected exactly once.
            # The raw (unclipped) iterate must be handed to the block
            # projection: clipping first would change the Euclidean
            # projection.
            y = y_flat.reshape(problem.y_shape).copy()
            for n in range(net.num_sbs):
                classes = net.classes_of_sbs[n]
                block = y[:, classes, :].reshape(T, -1)
                a = lam[:, classes, :].reshape(T, -1)
                budgets = np.full(T, net.bandwidths[n])
                projected = _project_blocks_capped(
                    block,
                    a,
                    budgets,
                    caps[:, classes, :].reshape(T, -1),
                    closed_form=closed_form,
                )
                y[:, classes, :] = projected.reshape(T, len(classes), net.num_items)
            return y.reshape(-1)

    start = np.zeros(problem.y_shape) if y0 is None else np.clip(y0, 0.0, caps)
    result = minimize_fista(
        objective,
        gradient,
        project,
        start.reshape(-1),
        tol=tol,
        max_iter=max_iter,
        budget=budget,
    )
    y = result.x.reshape(problem.y_shape)
    return LoadBalancingSolution(y=y, objective=result.objective)


def _project_blocks_capped(
    v: FloatArray,
    a: FloatArray,
    budgets: FloatArray,
    caps: FloatArray,
    *,
    early_exit: bool = True,
    closed_form: bool | None = None,
) -> FloatArray:
    """Batched projection onto ``{0 <= y <= caps, a . y <= budget}`` per row.

    Extends :func:`repro.optim.projection.project_halfspace_box_batch` to
    per-coordinate upper bounds (needed when ``y <= x`` is enforced
    directly rather than dualized). By default the binding rows solve the
    exact parametric theta (:func:`repro.optim.projection.halfspace_theta_exact`);
    ``closed_form=False`` (arg > config > ``REPRO_BW_CLOSED_FORM``) keeps
    the legacy theta bisection (26 steps) as the A/B reference.

    The theta bisection exits early for any row whose bracket endpoints
    already produce the same clipped point bitwise: ``clip(v - theta a)``
    is elementwise monotone in ``theta`` (``a >= 0``), so equal endpoint
    points pin the point on the whole bracket and every further iteration
    is a no-op for that row. The early exit is bitwise-invisible;
    ``early_exit=False`` runs the fixed iteration count for A/B tests.
    """
    base = np.clip(v, 0.0, caps)
    usage = np.einsum("bd,bd->b", a, base)
    violated = usage > budgets + 1e-12
    if not np.any(violated):
        return base
    vv, aa, bb, cc = v[violated], a[violated], budgets[violated], caps[violated]

    if resolved_bw_closed_form(None, closed_form):
        theta = halfspace_theta_exact(vv, aa, bb, 0.0, cc)
        out = base
        out[violated] = np.clip(vv - theta[:, None] * aa, 0.0, cc)
        return out

    theta_lo = np.zeros(vv.shape[0])
    theta_hi = np.ones(vv.shape[0])
    for _ in range(64):
        y = np.clip(vv - theta_hi[:, None] * aa, 0.0, cc)
        over = np.einsum("bd,bd->b", aa, y) > bb
        if not np.any(over):
            break
        theta_lo = np.where(over, theta_hi, theta_lo)
        theta_hi = np.where(over, theta_hi * 2.0, theta_hi)

    result = np.empty_like(vv)
    idx = np.arange(vv.shape[0])
    y_lo = np.clip(vv - theta_lo[:, None] * aa, 0.0, cc)
    y_hi = np.clip(vv - theta_hi[:, None] * aa, 0.0, cc)
    for _ in range(BISECTION_ITERS):
        if early_exit:
            same = np.all(y_lo == y_hi, axis=1)
            if same.any():
                result[idx[same]] = y_hi[same]
                keep = ~same
                idx = idx[keep]
                vv, aa, bb, cc = vv[keep], aa[keep], bb[keep], cc[keep]
                theta_lo, theta_hi = theta_lo[keep], theta_hi[keep]
                y_lo, y_hi = y_lo[keep], y_hi[keep]
                if idx.size == 0:
                    break
        mid = 0.5 * (theta_lo + theta_hi)
        y_m = np.clip(vv - mid[:, None] * aa, 0.0, cc)
        over = np.einsum("bd,bd->b", aa, y_m) > bb
        theta_lo = np.where(over, mid, theta_lo)
        theta_hi = np.where(over, theta_hi, mid)
        y_lo = np.where(over[:, None], y_m, y_lo)
        y_hi = np.where(over[:, None], y_hi, y_m)
    result[idx] = y_hi
    out = base
    out[violated] = result
    return out
