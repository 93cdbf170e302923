"""Batched dual-water-level fill for the ``P2`` fast path.

:func:`waterfill_batch` solves the per-(SBS, slot) residual fixed point of
subproblem ``P2`` for a whole stack of rows at once: every row is one
(SBS, slot) pair, so a single call covers all ``N`` SBSs of a window
instead of one solve per SBS. The scalar loop path routes through the same
kernel one SBS at a time, and every reduction inside the kernel is either
elementwise or a sequential per-row scan — zero-padded tail coordinates
are exactly inert and rows never interact — so the batched and loop
layouts return bit-identical solutions regardless of how rows are stacked,
padded, or chunked.

Closed-form solve, bandwidth slack (the common case)
----------------------------------------------------
Each row minimizes ``s (W - sum omega alloc)^2 + sum slope alloc`` over
``0 <= alloc <= caps`` and ``sum alloc <= bw``. Item ``j`` enters the
optimal allocation when the residual ``r = W - u`` exceeds its threshold
``t_j = slope_j / (2 s omega_j)`` (the benefit ``2 s r omega_j`` beats the
price ``slope_j``). When the bandwidth constraint is slack, the KKT system
collapses to a one-dimensional fixed point over a *sorted threshold scan*:

* sort items by ``t_j`` once; prefix-sum their weighted capacities ``U_k``;
* the fixed point lies in segment ``k*`` — the largest ``k`` with
  ``t_(k) < W - U_k`` (both sequences are monotone, so ``k*`` is a count);
* if ``W - U_k* <= t_(k*+1)`` the solution is interior: the first ``k*``
  items at full capacity, residual ``r* = W - U_k*``;
* otherwise the line ``W - r`` crosses inside the jump at ``r* = t_(k*+1)``
  and the items tied at that threshold (``kappa = 0``, indifferent) split
  the remaining weighted volume ``W - r* - U_k*`` greedily in stable order.

Closed-form solve, bandwidth bound (:func:`_solve_bw_bound`)
------------------------------------------------------------
Rows whose slack-scan allocation exceeds the bandwidth historically fell
back to a 26-iteration bisection. They are now solved exactly as well, via
a parametric KKT enumeration. With a bandwidth multiplier ``theta >= 0``
the optimum fills every item whose benefit margin ``kappa_j(r) = 2 s r
omega_j - slope_j`` exceeds ``theta``, zeroes those below, and puts at
most one *partial* item exactly at ``theta``. ``P2`` rows carry at most
two distinct positive weights (one ``omega`` per MU class of the SBS —
``G <= 2`` after padding), so splitting the items into a high-weight and a
low-weight group, each sorted by ``slope`` (within a group the ``kappa``
order equals the slope order and is independent of ``r``), makes the
candidate set enumerable: a candidate is "the first ``i`` items of one
group at capacity, the other group greedily filled with the remaining
bandwidth, the marginal item partial". Every candidate spends the whole
bandwidth, so its fill volume collapses to ``u(i) = m_M bw + (m_F - m_M)
P_F[i]`` — monotone in the prefix sum ``P_F[i]`` — and the KKT residual
``f(i) = kappa_excl(i) - theta(i)`` (first excluded full-group item's
margin minus the marginal item's) is non-increasing in ``i``. A
vectorized binary search over ``i`` — O(A log J) gather/compare steps
instead of any O(A J) candidate table — brackets the sign change, and
the exact KKT conditions (``theta >= 0``; every filled item's ``kappa >=
theta``; every zeroed item's ``kappa <= theta``) are then certified on a
small window of candidates around it, which by convexity certifies
*global* optimality — no fixed-point iteration, no bracketing error. One
shared argsort by slope, two cumsum-positioned group compactions, prefix
scans, and two binary searches replace up to 26 fresh greedy fills.

Fallback criteria: rows with three or more distinct positive weights
among cap-positive items (never produced by ``P2``, but the kernel is
general), rows where an item with non-positive weight could become
eligible (negative slope), and degenerate cross-group ``kappa`` ties
whose optimum needs two simultaneously-partial items (a measure-zero
coincidence under continuous inputs: it requires ``2 s r (omega_H -
omega_L) = slope_H - slope_L`` to hold exactly at the optimum) are routed
to the legacy bisection below. The counters ``p2_bw_bound_rows``,
``p2_bw_closed_form`` and ``p2_bisection_fallbacks`` (see
:mod:`repro.obs`) account for every bound row:
``p2_bw_closed_form + p2_bisection_fallbacks == p2_bw_bound_rows``.

Legacy bisection (A/B reference, and the fallback)
--------------------------------------------------
The greedy fill at residual ``r`` ranks items by ``kappa_j(r)`` and pours
bandwidth down the ranking; bisection finds ``W - u(r) = r`` in
:data:`BISECTION_ITERS` steps. The fill depends on ``r`` only through its
*allocated prefix*: the items in sorted order up to and including the one
whose running cap sum reaches ``bw``, plus a ``tight`` flag saying the
prefix uses up the bandwidth. Items past a tight prefix get exact zeros
in any order: every later running sum ``A`` is at least the prefix's
``cum_p``, ``fl(fl(A + c) - c)`` is monotone in ``A``, and a state is
stored as tight only after ``fl(fl(cum_p + c) - c) >= bw`` is checked for
every cap ``c`` past the prefix (otherwise the prefix is the whole
eligible set and every other item must stay ineligible). Those zeros add
``+0.0`` to the sequential ``u`` scan, so ``u`` is the prefix's alone.

The kernel stores the last state evaluated on each side of the bracket.
At a midpoint a stored state is valid, making ``u(mid)`` free, when (1)
the prefix's ``(key, column)`` pairs are finite and strictly increasing
along the stored order (exactly what a stable argsort yields) and (2) no
other pair sorts at or before the prefix's last one; for a non-tight
prefix, every other item is ineligible. Given (1), (2) is one count over
the row, so the tail past the prefix may reorder without costing a fill.
Each ``kappa_j(r)`` is linear in ``r``, so a prefix valid at both ends of
a bracket is valid throughout it: a *cross-side* match fixes the fill on
the whole bracket, where the fixed-depth bisection would interpolate
between two identical fills, and the row settles at once. Reuse and
settling are bitwise-invisible; ``early_exit=False`` runs every iteration
with fresh fills as the in-kernel reference, and the
``p2_bisection_fills`` counter reports the fresh fills.
``closed_form=False`` (or ``REPRO_BW_CLOSED_FORM=0``) demotes every bound
row to this path for cost-drift A/B runs. State arrays are allocated at
the *compressed* width of each fallback subset (columns with positive cap
in some row), never at the padded width.

Memory discipline
-----------------
Active rows are processed in chunks of roughly ``2^18`` matrix elements
(:data:`_CHUNK_ELEMS`). Every operation is row-wise, so chunking is
bitwise-invisible; it bounds the solver's transient state to a few MB
regardless of the stack size, where the historical kernel materialized
O(R x J) bracket-state arrays (two ``(R, J)`` intp arrays alone are
~320 MB at R=1000, J=20000).
"""

from __future__ import annotations

import numpy as np

from repro.config import resolved_bw_closed_form
from repro.obs.recorder import inc
from repro.types import FloatArray, IntArray

_INF = np.inf
_FMAX = np.finfo(np.float64).max

#: Depth of the legacy bisections (residual water-fill and capped-block
#: theta): 26 iterations bracket the root to ``~2^-26`` relative accuracy.
BISECTION_ITERS = 26

#: Row-chunk size for the active-row stages, in matrix elements. Chunks of
#: ``max(1, _CHUNK_ELEMS // J)`` rows keep per-stage temporaries at a few
#: MB each; all per-row math is chunk-invariant (bitwise).
_CHUNK_ELEMS = 1 << 18


def waterfill_batch(
    lam: FloatArray,
    caps: FloatArray,
    omega: FloatArray,
    mu: FloatArray,
    W: FloatArray,
    bandwidths: FloatArray,
    scale: float,
    *,
    group_ids: IntArray | None = None,
    early_exit: bool = True,
    closed_form: bool | None = None,
) -> tuple[FloatArray, FloatArray]:
    """Solve the water-fill for a stack of independent rows.

    Parameters
    ----------
    lam, caps, omega, mu:
        Row-stacked ``(R, J)`` arrays: demand, routing caps, BS weights
        and multipliers per flattened (class, item) coordinate. Rows from
        SBSs with fewer coordinates are zero-padded (zero caps make the
        padding inert — bitwise, not just approximately).
    W:
        Offloadable weighted volume per row, shape ``(R,)``.
    bandwidths:
        SBS bandwidth per row, shape ``(R,)``.
    scale:
        Quadratic BS-cost scale.
    group_ids:
        Optional ``(R,)`` int labels tying rows to their SBS. The
        "no bisection needed" shortcut (all slopes zero) is decided per
        SBS over the whole window, so the batched kernel must apply it
        per group, not per row. ``None`` treats the whole batch as one
        group.
    early_exit:
        Enable the state-reuse fast path of the legacy bisection
        (bitwise-invisible; see module docstring).
    closed_form:
        Solve bandwidth-bound rows by the exact parametric path (see
        module docstring). ``None`` resolves via
        :func:`repro.config.resolved_bw_closed_form` (default on);
        ``False`` demotes every bound row to the legacy bisection.

    Returns
    -------
    (alloc, u):
        Routed amounts ``(R, J)`` and offloaded weighted volume ``(R,)``.
    """
    R, J = lam.shape
    alloc_out = np.zeros_like(caps)
    u_out = np.zeros(R)
    if R == 0 or J == 0:
        return alloc_out, u_out

    # Columns with zero cap in every row are exactly inert: their
    # threshold is +inf, their weighted capacity contributes +0.0 to every
    # prefix scan, and their allocation is identically zero. Dropping them
    # up front is bitwise-invisible (stable sorts preserve the relative
    # order of the surviving columns) and shrinks every (rows, J) op —
    # typical caching instances route only the cached fraction of items.
    chunk = max(1, _CHUNK_ELEMS // J)
    col_any = np.zeros(J, dtype=bool)
    for s0 in range(0, R, chunk):
        col_any |= (caps[s0 : s0 + chunk] > 0).any(axis=0)
    keep_cols = np.flatnonzero(col_any)
    if keep_cols.size < J:
        alloc_c, u_out = waterfill_batch(
            np.ascontiguousarray(lam[:, keep_cols]),
            np.ascontiguousarray(caps[:, keep_cols]),
            np.ascontiguousarray(omega[:, keep_cols]),
            np.ascontiguousarray(mu[:, keep_cols]),
            W,
            bandwidths,
            scale,
            group_ids=group_ids,
            early_exit=early_exit,
            closed_form=closed_form,
        )
        alloc_out[:, keep_cols] = alloc_c
        return alloc_out, u_out

    two_s = 2.0 * scale
    cols = np.arange(J)

    def slope_of(rows: IntArray) -> FloatArray:
        lam_r = lam[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lam_r > 0, mu[rows] / lam_r, _INF)

    def full_fill(
        rows: IntArray, r: FloatArray, *, with_alloc: bool, zero_slope: bool = False
    ) -> tuple[FloatArray | None, FloatArray]:
        om = omega[rows]
        cp = caps[rows]
        kappa = two_s * r[:, None] * om
        if not zero_slope:
            kappa -= slope_of(rows)
        eligible = (kappa > 0) & (cp > 0)
        key = np.where(eligible, -kappa, _INF)
        order = np.argsort(key, axis=1, kind="stable")
        ridx = np.arange(rows.size)[:, None]
        caps_sorted = np.where(eligible, cp, 0.0)[ridx, order]
        cum = np.cumsum(caps_sorted, axis=1)
        alloc_sorted = np.clip(
            bandwidths[rows, None] - (cum - caps_sorted), 0.0, caps_sorted
        )
        # Sequential scan instead of a blocked dot keeps the value
        # invariant to trailing zero padding.
        u = np.cumsum(alloc_sorted * om[ridx, order], axis=1)[:, -1]
        alloc = None
        if with_alloc:
            alloc = np.zeros_like(cp)
            alloc[ridx, order] = alloc_sorted
        return alloc, u

    # Per-SBS shortcut: when no item of the group carries a positive slope
    # with positive cap, the fill order and eligible set do not depend on
    # r and one bandwidth-capped pass at max(W, 1) is exact. This is the
    # fixed-cache oracle's hot path. (caps > 0 implies lam > 0, where
    # slope > 0 iff mu > 0 — no division needed for the test.)
    row_any = np.zeros(R, dtype=bool)
    for s0 in range(0, R, chunk):
        sl = slice(s0, s0 + chunk)
        row_any[sl] = ((mu[sl] > 0) & (caps[sl] > 0)).any(axis=1)
    if group_ids is None:
        bisect_rows = np.full(R, bool(row_any.any()))
    else:
        grp = np.zeros(int(group_ids.max()) + 1, dtype=bool)
        np.logical_or.at(grp, group_ids, row_any)
        bisect_rows = grp[group_ids]

    single = np.flatnonzero(~bisect_rows)
    if single.size:
        # Every cap-positive item of a single-pass group has slope exactly
        # zero, so the zero-slope fill is bit-identical and skips the
        # (R, J) division.
        alloc, u = full_fill(
            single, np.maximum(W[single], 1.0), with_alloc=True, zero_slope=True
        )
        assert alloc is not None
        alloc_out[single] = alloc
        u_out[single] = u

    act = np.flatnonzero(bisect_rows)
    if act.size == 0:
        return alloc_out, u_out

    use_closed = resolved_bw_closed_form(None, closed_form)

    def bisect_rows_legacy(
        rows: IntArray,
        om_a: FloatArray,
        cp_a: FloatArray,
        sl_a: FloatArray,
        W_a: FloatArray,
        bw_a: FloatArray,
    ) -> int:
        """Legacy residual bisection over one subset of bound rows.

        State arrays live at the subset's compressed column width (columns
        with positive cap in some row) — dropping the rest is
        bitwise-invisible exactly as in the kernel-level compression —
        so the reference path never allocates O(rows x J) state. Returns
        the number of fresh greedy fills it ran.
        """
        kc = np.flatnonzero((cp_a > 0).any(axis=0))
        Jc = kc.size
        if Jc == 0:
            return 0  # nothing routable; alloc and u stay zero
        om_c = np.ascontiguousarray(om_a[:, kc])
        cp_c = np.ascontiguousarray(cp_a[:, kc])
        sl_c = np.ascontiguousarray(sl_a[:, kc])
        colc = np.arange(Jc)

        act_l = np.arange(rows.size)
        r_lo = np.zeros(rows.size)
        r_hi = np.maximum(W_a, 1e-12)
        A = rows.size
        fills = 0
        # Stored fill state per bracket side: sort order, allocated-prefix
        # length, tight flag, u, and a "present" flag. Invariant: a flagged
        # side's state is fill-valid at that side's current residual.
        ol = np.zeros((A, Jc), dtype=np.intp)
        oh = np.zeros((A, Jc), dtype=np.intp)
        ul = np.zeros(A)
        uh = np.zeros(A)
        pl = np.zeros(A, dtype=np.intp)
        ph = np.zeros(A, dtype=np.intp)
        tl = np.zeros(A, dtype=bool)
        th = np.zeros(A, dtype=bool)
        hl = np.zeros(A, dtype=bool)
        hh = np.zeros(A, dtype=bool)

        def state_fill(
            order: IntArray, p: IntArray, cp: FloatArray, bw: FloatArray
        ) -> FloatArray:
            """Replay a stored fill state; returns the compressed allocation.

            Only the prefix is replayed: every item past it receives an
            exact ``+0.0``, which the zero-initialized output already holds.
            """
            n = order.shape[0]
            w = int(p.max()) if n else 0
            sidx = np.arange(n)[:, None]
            o = order[:, :w]
            caps_sorted = np.where(colc[:w] < p[:, None], cp[sidx, o], 0.0)
            cum = np.cumsum(caps_sorted, axis=1)
            alloc = np.zeros((n, Jc))
            alloc[sidx, o] = np.clip(
                bw[:, None] - (cum - caps_sorted), 0.0, caps_sorted
            )
            return alloc

        def state_match(
            key: FloatArray,
            sub: IntArray,
            order: IntArray,
            p: IntArray,
            tight: np.ndarray,
        ) -> IntArray:
            """Rows (subset indices into ``key``) whose key row provably
            fills like the stored state.

            A stable argsort orders by ``(key, column)``. The fill is fixed
            by its allocated prefix alone when (1) the prefix's pairs are
            finite and strictly increasing along the stored order, and (2)
            no other pair sorts at or before the prefix's last one — for a
            non-tight prefix, before ``+inf``: every other item is
            ineligible. Given (1), (2) is a count: exactly ``p`` pairs sort
            at or before the bound. Counting keys ``<=`` the bound key
            settles it unless another item ties that key; only those rows
            compare columns.
            """
            kr = key[sub]
            pp = p[sub]
            rix = np.arange(sub.size)
            o = order[sub, : max(int(pp.max()), 1)]
            seq = kr[rix[:, None], o]
            a, b = seq[:, :-1], seq[:, 1:]
            ok = np.all(
                (b > a)
                | ((a == b) & (o[:, 1:] > o[:, :-1]))
                | (colc[1 : o.shape[1]] >= pp[:, None]),
                axis=1,
            )
            last = np.maximum(pp - 1, 0)
            k_last = seq[rix, last]
            ok &= (pp == 0) | (k_last < _INF)
            ts = tight[sub]
            # The largest finite key bounds a non-tight prefix: "<= bound"
            # then means finite, i.e. eligible.
            k_bound = np.where(ts, k_last, _FMAX)
            n_le = (kr <= k_bound[:, None]).sum(axis=1)
            tie = np.flatnonzero(ok & (n_le > pp))
            ok &= n_le == pp
            if tie.size:
                kb = np.where(ts[tie], k_bound[tie], _INF)[:, None]
                ob = np.where(ts[tie], o[tie, last[tie]], -1)[:, None]
                kt = kr[tie]
                before = (kt < kb) | ((kt == kb) & (colc <= ob))
                ok[tie] = before.sum(axis=1) == pp[tie]
            return sub[ok]

        def fresh_fill_u(
            sub: IntArray, r: FloatArray
        ) -> tuple[FloatArray, FloatArray]:
            """Compressed fresh fill at residual ``r``; returns (alloc, u)."""
            kappa = two_s * r[:, None] * om_c[sub] - sl_c[sub]
            eligible = (kappa > 0) & (cp_c[sub] > 0)
            key = np.where(eligible, -kappa, _INF)
            order = np.argsort(key, axis=1, kind="stable")
            sidx = np.arange(sub.size)[:, None]
            caps_sorted = np.where(eligible, cp_c[sub], 0.0)[sidx, order]
            cum = np.cumsum(caps_sorted, axis=1)
            alloc_sorted = np.clip(
                bw_a[sub, None] - (cum - caps_sorted), 0.0, caps_sorted
            )
            u = np.cumsum(alloc_sorted * om_c[sub][sidx, order], axis=1)[:, -1]
            alloc = np.zeros((sub.size, Jc))
            alloc[sidx, order] = alloc_sorted
            return alloc, u

        om_b, cp_b = om_c, cp_c
        sl_b = np.where(cp_c > 0, sl_c, _INF)
        bw_b, W_b = bw_a, W_a

        def scatter(sub_rows: IntArray, alloc_c: FloatArray, u: FloatArray) -> None:
            alloc_out[sub_rows[:, None], kc[None, :]] = alloc_c
            u_out[sub_rows] = u

        for _ in range(BISECTION_ITERS):
            if act_l.size == 0:
                break
            A = act_l.size
            mid = 0.5 * (r_lo + r_hi)
            # key = -kappa on eligible items: rounding is sign-symmetric, so
            # slope - 2 s r omega is bitwise the negated benefit margin, and
            # the +inf slopes of cap-0 items keep them ineligible.
            key = sl_b - two_s * mid[:, None] * om_b
            key = np.where(key < 0, key, _INF)
            u_m = np.empty(A)
            used = np.full(A, 2, dtype=np.int8)  # 0 = lo state, 1 = hi, 2 = fresh
            if early_exit:
                lo_rows = np.flatnonzero(hl)
                if lo_rows.size:
                    matched = state_match(key, lo_rows, ol, pl, tl)
                    u_m[matched] = ul[matched]
                    used[matched] = 0
                rem = np.flatnonzero((used == 2) & hh)
                if rem.size:
                    matched = state_match(key, rem, oh, ph, th)
                    u_m[matched] = uh[matched]
                    used[matched] = 1
            fresh = np.flatnonzero(used == 2)
            if fresh.size:
                fills += fresh.size
                keyf = key[fresh]
                order_f = np.argsort(keyf, axis=1, kind="stable")
                fidx = np.arange(fresh.size)[:, None]
                # Eligible items have finite keys and sort first.
                m_f = (keyf < _INF).sum(axis=1)
                cp_f = cp_b[fresh][fidx, order_f]
                caps_sorted = np.where(colc < m_f[:, None], cp_f, 0.0)
                cum_f = np.cumsum(caps_sorted, axis=1)
                bw_f = bw_b[fresh, None]
                alloc_sorted_f = np.clip(
                    bw_f - (cum_f - caps_sorted), 0.0, caps_sorted
                )
                u_m[fresh] = np.cumsum(
                    alloc_sorted_f * om_b[fresh][fidx, order_f], axis=1
                )[:, -1]
                # Allocated prefix: the eligible items up to the one whose
                # running cap sum reaches bw. It is tight only if every
                # item past it gets an exact zero in *any* order: each later
                # running sum is >= cum_p and fl(fl(A + c) - c) is monotone
                # in A, so ``bw - fl(fl(cum_p + c) - c) <= 0`` for every cap
                # c past the prefix suffices. Otherwise keep the old state:
                # the whole eligible set, with every other item ineligible.
                p_f = (cum_f < bw_f).sum(axis=1) + 1
                t_f = p_f <= m_f
                if t_f.any():
                    cum_p = np.take_along_axis(
                        cum_f, np.minimum(p_f, Jc)[:, None] - 1, axis=1
                    )
                    t_f &= np.all(
                        ((cum_p + cp_f) - cp_f >= bw_f) | (colc < p_f[:, None]),
                        axis=1,
                    )
                p_f = np.where(t_f, p_f, m_f)

            implied = W_b - u_m
            too_small = implied > mid  # G(r) > 0 -> root is to the right
            r_lo = np.where(too_small, mid, r_lo)
            r_hi = np.where(too_small, r_hi, mid)
            if not early_exit:
                continue

            # The updated side inherits the state used at the midpoint.
            cross_hi = (used == 1) & too_small
            if cross_hi.any():
                idx = np.flatnonzero(cross_hi)
                ol[idx] = oh[idx]
                ul[idx] = uh[idx]
                pl[idx] = ph[idx]
                tl[idx] = th[idx]
                hl[idx] = True
            cross_lo = (used == 0) & ~too_small
            if cross_lo.any():
                idx = np.flatnonzero(cross_lo)
                oh[idx] = ol[idx]
                uh[idx] = ul[idx]
                ph[idx] = pl[idx]
                th[idx] = tl[idx]
                hh[idx] = True
            if fresh.size:
                sel = too_small[fresh]
                tgt = fresh[sel]
                if tgt.size:
                    ol[tgt] = order_f[sel]
                    ul[tgt] = u_m[tgt]
                    pl[tgt] = p_f[sel]
                    tl[tgt] = t_f[sel]
                    hl[tgt] = True
                tgt = fresh[~sel]
                if tgt.size:
                    oh[tgt] = order_f[~sel]
                    uh[tgt] = u_m[tgt]
                    ph[tgt] = p_f[~sel]
                    th[tgt] = t_f[~sel]
                    hh[tgt] = True

            # Cross-side match -> the state is valid at both ends of the
            # new bracket, hence constant on it: the final gap is exactly
            # zero and the closing interpolation returns this state's
            # fill. Settle now.
            settle = cross_hi | cross_lo
            if settle.any():
                s = np.flatnonzero(settle)
                scatter(
                    rows[act_l[s]],
                    state_fill(ol[s], pl[s], cp_b[s], bw_b[s]),
                    ul[s],
                )
                kp = ~settle
                act_l = act_l[kp]
                om_b, cp_b, sl_b = om_b[kp], cp_b[kp], sl_b[kp]
                bw_b, W_b = bw_b[kp], W_b[kp]
                r_lo, r_hi = r_lo[kp], r_hi[kp]
                ol, oh, ul, uh = ol[kp], oh[kp], ul[kp], uh[kp]
                pl, ph, tl, th = pl[kp], ph[kp], tl[kp], th[kp]
                hl, hh = hl[kp], hh[kp]

        if act_l.size:
            A = act_l.size
            fills += int(np.count_nonzero(~hl) + np.count_nonzero(~hh))

            def endpoint(
                have: FloatArray,
                order: IntArray,
                u_s: FloatArray,
                p_s: IntArray,
                r_end: FloatArray,
            ) -> tuple[FloatArray, FloatArray]:
                alloc = np.empty((A, Jc))
                u = np.empty(A)
                hv = np.flatnonzero(have)
                if hv.size:
                    alloc[hv] = state_fill(order[hv], p_s[hv], cp_b[hv], bw_b[hv])
                    u[hv] = u_s[hv]
                nh = np.flatnonzero(~have)
                if nh.size:
                    al, uu = fresh_fill_u(act_l[nh], r_end[nh])
                    alloc[nh] = al
                    u[nh] = uu
                return alloc, u

            alloc_lo, u_lo = endpoint(hl, ol, ul, pl, r_lo)
            alloc_hi, u_hi = endpoint(hh, oh, uh, ph, r_hi)
            u_target = W_b - 0.5 * (r_lo + r_hi)
            gap = u_hi - u_lo
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(
                    gap > 1e-15, np.clip((u_target - u_lo) / gap, 0.0, 1.0), 0.0
                )
            scatter(
                rows[act_l],
                alloc_lo + t[:, None] * (alloc_hi - alloc_lo),
                u_lo + t * gap,
            )
        return fills

    def process(rows: IntArray) -> tuple[int, int, int, int]:
        """Solve one chunk of active rows.

        Returns ``(bound, closed, fallback, fills)`` counts for the chunk.
        """
        om_a = omega[rows]
        cp_a = caps[rows]
        bw_a = bandwidths[rows]
        W_a = W[rows].astype(np.float64, copy=False)
        A = rows.size
        ridx = np.arange(A)[:, None]
        valid = (cp_a > 0) & (om_a > 0)
        # Fused threshold t_j = mu_j / (2 s lam_j omega_j): one division,
        # and valid entries have lam > 0 so the denominator is positive.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_thr = np.where(valid, mu[rows] / (two_s * (lam[rows] * om_a)), _INF)
        ordt = np.argsort(t_thr, axis=1, kind="stable")
        tv = t_thr[ridx, ordt]
        cps = cp_a[ridx, ordt]
        cwv = np.where(valid, om_a * cp_a, 0.0)[ridx, ordt]
        cum = np.cumsum(cwv, axis=1)
        # k* = number of items strictly below the fixed-point residual.
        # Both tv (sorted) and W - cum (cumsum of non-negatives) are
        # monotone, so the comparison row is a prefix of Trues and the
        # count locates it.
        kstar = (tv < (W_a[:, None] - cum)).sum(axis=1)
        rows1 = np.arange(A)
        U_star = np.where(kstar > 0, cum[rows1, np.maximum(kstar - 1, 0)], 0.0)
        tv_next = np.where(kstar < J, tv[rows1, np.minimum(kstar, J - 1)], _INF)
        r_int = W_a - U_star
        interior = r_int <= tv_next
        u_a = np.where(interior, U_star, W_a - tv_next)

        alloc_sorted = np.where(cols < kstar[:, None], cps, 0.0)
        jrows = np.flatnonzero(~interior)
        if jrows.size:
            # The crossing sits inside the jump at r* = tv_next: items
            # tied at that threshold are indifferent (kappa = 0) and
            # greedily absorb the remaining weighted volume in stable
            # order. The budget never exceeds the tied run's weighted
            # capacity (otherwise k* would be larger), so items beyond
            # the run stay at zero.
            bu = ((W_a[jrows] - tv_next[jrows]) - U_star[jrows])[:, None]
            mass = cum[jrows] - U_star[jrows, None]
            # Ties can straddle the k* boundary (tv[k*-1] == tv[k*] with
            # the prefix condition flipping on cum alone). Straddling
            # items are first among the indifferent tied items in stable
            # order, so their full-caps prefix allocation is already
            # greedy-correct and their mass is inside U_star — the
            # residual budget is distributed over run positions >= k*
            # only.
            run = (tv[jrows] == tv_next[jrows, None]) & (cols >= kstar[jrows, None])
            cwj = cwv[jrows]
            run_full = run & (mass <= bu)
            boundary = run & (mass > bu) & ((mass - cwj) < bu)
            with np.errstate(divide="ignore", invalid="ignore"):
                part = np.clip(
                    (bu - (mass - cwj)) / om_a[jrows[:, None], ordt[jrows]],
                    0.0,
                    cps[jrows],
                )
            alloc_sorted[jrows] += np.where(
                run_full, cps[jrows], np.where(boundary, part, 0.0)
            )
            del bu, mass, run, cwj, run_full, boundary, part

        tot = alloc_sorted.sum(axis=1)
        closed = tot <= bw_a
        crows = np.flatnonzero(closed)
        if crows.size:
            allc = np.zeros((crows.size, J))
            allc[np.arange(crows.size)[:, None], ordt[crows]] = alloc_sorted[crows]
            alloc_out[rows[crows]] = allc
            u_out[rows[crows]] = u_a[crows]

        keep = ~closed
        brows = rows[keep]
        nb = brows.size
        if nb == 0:
            return 0, 0, 0, 0
        # Release the slack-scan temporaries before the bound stage: the
        # chunk's peak live set — not any O(R x J) allocation — is what
        # the kernel's memory budget consists of now.
        del t_thr, ordt, tv, cps, cwv, cum, alloc_sorted, valid
        if keep.all():
            om_b, cp_b = om_a, cp_a
            bw_b, W_b = bw_a, W_a
        else:
            om_b, cp_b = om_a[keep], cp_a[keep]
            bw_b, W_b = bw_a[keep], W_a[keep]
        sl_b = slope_of(brows)
        n_cf = n_fills = 0
        if use_closed:
            alloc_b, u_b, solved = _solve_bw_bound(
                om_b, cp_b, sl_b, W_b, bw_b, two_s
            )
            srows = np.flatnonzero(solved)
            if srows.size:
                alloc_out[brows[srows]] = alloc_b[srows]
                u_out[brows[srows]] = u_b[srows]
            n_cf = int(srows.size)
            if n_cf < nb:
                un = ~solved
                n_fills = bisect_rows_legacy(
                    brows[un], om_b[un], cp_b[un], sl_b[un], W_b[un], bw_b[un]
                )
        else:
            n_fills = bisect_rows_legacy(brows, om_b, cp_b, sl_b, W_b, bw_b)
        return nb, n_cf, nb - n_cf, n_fills

    n_bound = n_closed = n_fallback = n_fills = 0
    for start in range(0, act.size, chunk):
        nb, nc, nf, nfill = process(act[start : start + chunk])
        n_bound += nb
        n_closed += nc
        n_fallback += nf
        n_fills += nfill
    if n_bound:
        inc("p2_bw_bound_rows", float(n_bound))
    if n_closed:
        inc("p2_bw_closed_form", float(n_closed))
    if n_fallback:
        inc("p2_bisection_fallbacks", float(n_fallback))
    if n_fills:
        inc("p2_bisection_fills", float(n_fills))
    return alloc_out, u_out


def _solve_bw_bound(
    om: FloatArray,
    cp: FloatArray,
    slope: FloatArray,
    W: FloatArray,
    bw: FloatArray,
    two_s: float,
) -> tuple[FloatArray, FloatArray, np.ndarray]:
    """Exact allocation for bandwidth-bound rows (see module docstring).

    Parameters are row-stacked ``(A, J)`` arrays (weights, caps, slopes)
    plus per-row ``W``, ``bw`` and the fused cost scale ``2 s``. Returns
    ``(alloc, u, solved)`` where ``solved`` flags the rows certified
    optimal; unsolved rows (``G >= 3`` weights, stray eligible items with
    non-positive weight, or a degenerate cross-group tie) keep zero
    allocation and must be routed to the bisection by the caller.
    """
    A, J = cp.shape
    alloc = np.zeros((A, J))
    u = np.zeros(A)
    solved = np.zeros(A, dtype=bool)
    if A == 0 or J == 0:
        return alloc, u, solved

    # Items that can ever be routed: positive cap, positive weight, finite
    # slope (lam > 0). Items with infinite slope are never eligible
    # (kappa = -inf); items with non-positive weight are never eligible
    # unless their slope is negative — such "stray" rows are not
    # representable in the two-group structure and fall back.
    finite = np.isfinite(slope)
    valid = (cp > 0) & (om > 0) & finite
    stray = (cp > 0) & (om <= 0) & (slope < 0)
    with np.errstate(invalid="ignore"):
        m1 = np.max(np.where(valid, om, -_INF), axis=1)  # high weight
        m2 = np.min(np.where(valid, om, _INF), axis=1)  # low weight
    has = np.isfinite(m1) & (m1 > 0)
    m1s = np.where(has, m1, 1.0)
    m2s = np.where(has, m2, 1.0)
    third = valid & (om != m1s[:, None]) & (om != m2s[:, None])
    ok = has & ~stray.any(axis=1) & ~third.any(axis=1)
    if not ok.any():
        return alloc, u, solved

    ridx = np.arange(A)[:, None]
    rows1 = np.arange(A)
    # One argsort by slope shared by both groups. The sort MUST be
    # stable: slope ties (sparse ``mu`` rows tie at slope 0) then follow
    # the original column order of the valid items, which is invariant
    # under column compression — padding differs between the loop and
    # batched layouts, but compression only drops cap-0 (invalid)
    # columns, so the valid items' relative order is the same in every
    # layout and so is the tie-broken allocation. Introsort is faster
    # but permutes ties by padded-row content, which breaks the
    # batched-vs-loop bit-identity contract. (The slack scan's threshold
    # sort is *not* reused on purpose: t = slope / (2 s omega) agrees
    # with the slope order within a group only in real arithmetic —
    # rounding of the fused threshold can flip near-ties, and the KKT
    # certificate below checks only the marginal neighbours, so it
    # relies on the group slopes being exactly sorted.)
    ord0 = np.argsort(np.where(valid, slope, _INF), axis=1, kind="stable")
    slope_t = slope[ridx, ord0]
    cp_t = cp[ridx, ord0]
    om_t = om[ridx, ord0]
    valid_t = valid[ridx, ord0]
    gH = valid_t & (om_t == m1s[:, None])
    gL = valid_t & (om_t == m2s[:, None]) & (m2s < m1s)[:, None]
    del om_t, valid_t, finite, valid, stray, third
    Jm1 = J - 1

    def vgroup(g: np.ndarray) -> tuple:
        """Virtual group view over the shared slope order.

        Returns ``(idx, P, n_g)``: ``idx[:, k]`` is the sort-order
        position of each row's ``(k + 1)``-th group member (members keep
        their slope order; tail columns park the non-members), ``P`` is
        the running sum of group caps *in sort order* (so the prefix sum
        of the first ``k + 1`` members is ``P[idx[:, k]]``), and ``n_g``
        the member count. Nothing per-group is materialized beyond one
        int32 index row and one prefix row — group slopes and caps are
        gathered through ``idx`` on demand.
        """
        cnt = np.cumsum(g, axis=1, dtype=np.int32)
        n_g = cnt[:, -1].astype(np.intp)
        arange1 = np.arange(1, J + 1, dtype=np.int32)
        pos = np.where(g, cnt - 1, n_g[:, None].astype(np.int32) + (arange1 - cnt) - 1)
        idx = np.empty((A, J), dtype=np.int32)
        idx[ridx, pos] = np.arange(J, dtype=np.int32)
        P = np.cumsum(np.where(g, cp_t, 0.0), axis=1)
        return idx, P, n_g

    idxH, PH, nHr = vgroup(gH)
    idxL, PL, nLr = vgroup(gL)
    del gH, gL
    c1 = two_s * m1s
    c2 = two_s * m2s

    def make_family(
        idxF: np.ndarray,
        PF: FloatArray,
        nF: IntArray,
        idxM: np.ndarray,
        PM: FloatArray,
        nM: IntArray,
        mF: FloatArray,
        mM: FloatArray,
        cF: FloatArray,
        cM: FloatArray,
    ) -> tuple:
        """One candidate family: first ``i`` items of the *full* group F
        at capacity, the *marginal* group M greedily filled with the
        remaining bandwidth ``q = bw - PF0[i]``.

        Because every candidate spends the whole bandwidth, the fill
        volume collapses to ``u(i) = mM bw + (mF - mM) PF0[i]`` — no
        weighted-capacity prefixes needed, and ``u`` is monotone in
        ``i``. That makes the KKT residual ``f(i) = kappa_F_excl(i) -
        theta(i)`` non-increasing in ``i`` (each term is), so the first
        ``i`` with ``f <= 0`` — a vectorized binary search, O(A log J)
        gathers in place of any O(A J) candidate table — brackets the
        optimum and a small window around it is certified exactly.
        """
        dmf = mF - mM
        dcf = cF - cM

        def slp_at(idxG: np.ndarray, nG: IntArray, k: IntArray) -> FloatArray:
            """Slope of a group's ``(k + 1)``-th member; +inf past it."""
            kk = np.minimum(np.maximum(k, 0), Jm1)
            return np.where(
                (k >= 0) & (k < nG), slope_t[rows1, idxG[rows1, kk]], _INF
            )

        def pre_at(idxG: np.ndarray, P: FloatArray, k: IntArray) -> FloatArray:
            """Prefix cap sum of a group's first ``k`` members (k >= 0)."""
            kk = np.minimum(np.maximum(k - 1, 0), Jm1)
            return np.where(k > 0, P[rows1, idxG[rows1, kk]], 0.0)

        def count_m(q: FloatArray) -> IntArray:
            """Count of marginal-group members whose prefix sum <= q."""
            lo = np.zeros(A, dtype=np.intp)
            hi = nM.copy()
            while True:
                live = lo < hi
                if not live.any():
                    break
                mid = (lo + hi) >> 1
                gt = PM[rows1, idxM[rows1, np.minimum(mid, Jm1)]] > q
                hi = np.where(live & gt, mid, hi)
                lo = np.where(live & ~gt, mid + 1, lo)
            return lo

        def pieces(iv: IntArray) -> tuple:
            PF0 = pre_at(idxF, PF, iv)
            q = bw - PF0
            n = count_m(q)
            u_c = mM * bw + dmf * PF0
            r = W - u_c
            slpF_i = slp_at(idxF, nF, iv)
            slpM_n = slp_at(idxM, nM, n)
            return PF0, q, n, u_c, r, slpF_i, slpM_n

        def f_of(iv: IntArray) -> FloatArray:
            _pf, _q, _n, _u, r, slpF_i, slpM_n = pieces(iv)
            f = dcf * r - slpF_i + slpM_n
            # Past the full group's end there is no next item to promote,
            # so the search must never be pushed right of nF. Without the
            # override, iv >= nF with the marginal group also exhausted
            # gives -inf + inf = NaN there, which compares False ("push
            # right") and can strand the bracket outside the certifiable
            # window — whether it does depends on the probe sequence,
            # i.e. on the padded width J, breaking layout invariance.
            return np.where(iv >= nF, -_INF, f)

        def full_eval(iv: IntArray) -> tuple:
            PF0, q, n, u_c, r, slpF_i, slpM_n = pieces(iv)
            p = q - pre_at(idxM, PM, n)
            theta = cM * r - slpM_n
            kF_excl = cF * r - slpF_i
            kF_full = np.where(iv > 0, cF * r - slp_at(idxF, nF, iv - 1), _INF)
            kM_full = np.where(n > 0, cM * r - slp_at(idxM, nM, n - 1), _INF)
            pos = p > 0.0
            v_pos = (
                pos & (theta >= 0.0) & (kF_excl <= theta) & (theta <= kF_full)
            )
            lo_b = np.maximum(np.maximum(kF_excl, theta), 0.0)
            hi_b = np.minimum(kF_full, kM_full)
            v_vert = ~pos & (lo_b <= hi_b)
            ok_c = (q >= 0.0) & (iv <= nF) & (v_pos | v_vert)
            return ok_c, n, p, u_c

        return f_of, full_eval

    def search(f_of) -> IntArray:
        """Smallest candidate index in ``[0, J]`` with ``f(i) <= 0``.

        NaN residuals (both neighbour slopes ``+inf``) compare False and
        push the search right; the exact window check below decides."""
        lo = np.zeros(A, dtype=np.intp)
        hi = np.full(A, J, dtype=np.intp)
        while True:
            live = lo < hi
            if not live.any():
                break
            mid = (lo + hi) >> 1
            leq = f_of(mid) <= 0.0
            hi = np.where(live & leq, mid, hi)
            lo = np.where(live & ~leq, mid + 1, lo)
        return lo

    famL = np.zeros(A, dtype=bool)
    found = np.zeros(A, dtype=bool)
    cand_i = np.zeros(A, dtype=np.intp)
    cand_n = np.zeros(A, dtype=np.intp)
    cand_p = np.zeros(A)
    cand_u = np.zeros(A)
    with np.errstate(invalid="ignore", over="ignore"):
        families = (
            (True, make_family(idxH, PH, nHr, idxL, PL, nLr, m1s, m2s, c1, c2)),
            (False, make_family(idxL, PL, nLr, idxH, PH, nHr, m2s, m1s, c2, c1)),
        )
        for is_l, (f_of, full_eval) in families:
            if found.all():
                break
            istar = search(f_of)
            # Float round-off can displace the crossing by a step and exact
            # slope ties widen it into a run, so certify a small window of
            # candidates around the bracket. Any certified candidate is a
            # KKT point of a convex problem — a global optimum — so the
            # first one in fixed window order (family L, then H) is a
            # deterministic, layout-invariant choice. A row whose window
            # certifies nothing falls back to the bisection (counted).
            for d in (-2, -1, 0, 1, 2):
                iv = np.clip(istar + d, 0, J)
                ok_c, n, p, u_c = full_eval(iv)
                new = ok_c & ~found
                if new.any():
                    cand_i = np.where(new, iv, cand_i)
                    cand_n = np.where(new, n, cand_n)
                    cand_p = np.where(new, p, cand_p)
                    cand_u = np.where(new, u_c, cand_u)
                    famL |= new & is_l
                    found |= new

    solved = ok & found
    srows = np.flatnonzero(solved)
    if srows.size == 0:
        return alloc, u, solved

    def build(
        sub: IntArray,
        i_full: IntArray,
        n_marg: IntArray,
        p: FloatArray,
        idxF: np.ndarray,
        idxM: np.ndarray,
        u_val: FloatArray,
    ) -> None:
        """Scatter one candidate family's allocation back to item order.

        Gathers are width-limited to the longest prefix in play. The two
        scatters touch disjoint column sets per row (the groups are
        disjoint), entries past a row's own prefix write or add exact
        zeros, and a vertex candidate (``p == 0``) may have no marginal
        member at ``n_marg`` at all — its add is an exact ``+0.0`` at
        whatever column the tail parks there, which is a no-op.
        """
        ns = sub.size
        sub2 = sub[:, None]
        wF = int(i_full.max()) if ns else 0
        if wF > 0:
            tposF = idxF[sub2, np.arange(wF)[None, :]]
            aF = np.where(
                np.arange(wF) < i_full[:, None], cp_t[sub2, tposF], 0.0
            )
            alloc[sub2, ord0[sub2, tposF]] = aF
        wM = int(np.minimum(n_marg, Jm1).max()) + 1 if ns else 0
        if wM > 0:
            tposM = idxM[sub2, np.arange(wM)[None, :]]
            aM = np.where(
                np.arange(wM) < n_marg[:, None], cp_t[sub2, tposM], 0.0
            )
            aM[np.arange(ns), np.minimum(n_marg, wM - 1)] += np.where(
                n_marg < J, p, 0.0
            )
            alloc[sub2, ord0[sub2, tposM]] += aM
        u[sub] = u_val

    selL = famL[srows]
    rl = srows[selL]
    if rl.size:
        build(rl, cand_i[rl], cand_n[rl], cand_p[rl], idxH, idxL, cand_u[rl])
    rh = srows[~selL]
    if rh.size:
        build(rh, cand_i[rh], cand_n[rh], cand_p[rh], idxL, idxH, cand_u[rh])
    return alloc, u, solved
