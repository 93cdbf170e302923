"""Batched dual-water-level fill for the ``P2`` fast path.

:func:`waterfill_batch` solves the per-(SBS, slot) residual fixed point of
subproblem ``P2`` for a whole stack of rows at once: every row is one
(SBS, slot) pair, so a single call covers all ``N`` SBSs of a window
instead of one solve per SBS. Every reduction inside the kernel is either
elementwise or a sequential per-row scan — zero-padded tail coordinates
are exactly inert and rows never interact — so a row's solution is
bit-identical however the rows are stacked, padded, or chunked: a stacked
call returns, for each SBS, exactly what a call on that SBS alone does.

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
Rows whose slack-scan allocation exceeds the bandwidth are solved exactly
when their cap-positive items carry at most two distinct positive weights,
via a parametric KKT enumeration. A ``P2`` row holds one weight per MU
class of its SBS, so this covers SBSs with one or two classes (or classes
of equal weight); the paper's scenarios and the multicell workload have
three or more distinct weights on every row, and those rows go to the
bisection below. With a bandwidth multiplier ``theta >= 0`` the optimum
fills every item whose benefit margin ``kappa_j(r) = 2 s r omega_j -
slope_j`` exceeds ``theta``, zeroes those below, and puts at most one
*partial* item exactly at ``theta``. Splitting the items into a
high-weight and a low-weight group, each sorted by ``slope`` (within a
group the ``kappa`` order equals the slope order and is independent of
``r``), makes the candidate set enumerable: a candidate is "the first
``i`` items of one group at capacity, the other group greedily filled with
the remaining bandwidth, the marginal item partial". Every candidate
spends the whole bandwidth, so its fill volume collapses to ``u(i) = m_M
bw + (m_F - m_M) P_F[i]`` — monotone in the prefix sum ``P_F[i]`` — and
the KKT residual ``f(i) = kappa_excl(i) - theta(i)`` (first excluded
full-group item's margin minus the marginal item's) is non-increasing in
``i``. A vectorized binary search over ``i`` — O(A log J) gather/compare
steps instead of any O(A J) candidate table — brackets the sign change,
and the exact KKT conditions (``theta >= 0``; every filled item's ``kappa
>= theta``; every zeroed item's ``kappa <= theta``) are then certified on
a small window of candidates around it, which by convexity certifies
*global* optimality — no fixed-point iteration, no bracketing error.

Fallback criteria: rows with three or more distinct positive weights
among cap-positive items, rows where an item with non-positive weight
could become eligible (negative slope), and degenerate cross-group
``kappa`` ties whose optimum needs two simultaneously-partial items (a
measure-zero coincidence under continuous inputs: it requires ``2 s r
(omega_H - omega_L) = slope_H - slope_L`` to hold exactly at the optimum)
are routed to the bisection below. A bound row with zero bandwidth needs
no solve at all: zero is its only feasible allocation, and it counts as
closed form. The counters ``p2_bw_bound_rows``, ``p2_bw_closed_form`` and
``p2_bisection_fallbacks`` (see :mod:`repro.obs`) account for every bound
row: ``p2_bw_closed_form + p2_bisection_fallbacks == p2_bw_bound_rows``.

Residual bisection and the threshold search
-------------------------------------------
The greedy fill at residual ``r`` ranks items by ``kappa_j(r)`` and pours
bandwidth down the ranking; the bisection runs :data:`BISECTION_ITERS`
levels on ``G(r) = W - u(r) - r`` from the bracket ``[0, max(W, 1e-12)]``
and interpolates between the fills at the final bracket's two ends. Its
answer is defined by that fixed-depth arithmetic (``early_exit=False``
runs it with a fresh fill at every level and both ends, ``26 + 2`` per
row); the threshold search below returns the same bytes with fewer fills.

*Fill states.* The fill depends on ``r`` only through its *allocated
prefix*: the items in sorted order up to and including the one whose
running cap sum reaches ``bw``, plus a ``tight`` flag saying the prefix
uses up the bandwidth. Items past a tight prefix get exact zeros in any
order: every later running sum ``A`` is at least the prefix's ``cum_p``,
``fl(fl(A + c) - c)`` is monotone in ``A``, and a state is stored as
tight only after ``fl(fl(cum_p + c) - c) >= bw`` is checked for every cap
``c`` past the prefix (otherwise the prefix is the whole eligible set and
every other item must stay ineligible). Those zeros add ``+0.0`` to the
sequential ``u`` scan, so ``u`` is the prefix's alone. A stored state is
valid at a residual, making its fill free there, when (1) the prefix's
``(key, column)`` pairs are finite and strictly increasing along the
stored order (exactly what a stable argsort yields) and (2) no other pair
sorts at or before the prefix's last one; for a non-tight prefix, every
other item is ineligible. Given (1), (2) is one count over the row.

*One threshold decides every level.* Level ``k`` goes right when
``fl(W - u(mid_k)) > mid_k``. The greedy fill maximizes ``sum kappa_j(r)
alloc_j``, a convex function of ``r`` whose slope is ``2 s u(r)``, so
``u`` never falls as ``r`` grows, ``fl(W - u(r))`` never rises, and every
level's decision is ``mid_k < theta`` for one threshold ``theta`` per row.

*Allocation classes.* What a fill allocates in real arithmetic is its
class: for a tight fill, the marginal item ``l`` (the prefix's last) and
the full items before it; for a non-tight fill, the eligible set.
Reordering the full items changes the state and the last bits of ``u``,
not the class, and ``u`` is constant while the class holds, on an
interval ``[s, e)`` of residuals. The keys ``slope_j - 2 s r omega_j`` of
items ``j`` and ``l`` cross at ``r_jl = (slope_j - slope_l) / (2 s
(omega_j - omega_l))``: ``e`` is the least crossing of a prefix item
lighter than ``l`` or another cap-positive item heavier than it, ``s``
the largest crossing of the opposite two sets or ``l``'s eligibility
threshold ``slope_l / (2 s omega_l)``. A non-tight class is bounded alike
with a weightless, slopeless ``l``: by the eligibility thresholds.

*The search.* Each round fills the live rows once at ``r``; let ``q =
fl(W - u)``. A fill that goes right (``q > r``) with ``q < e``, or left
with ``q >= s``, holds the root inside its class: ``theta = q``.
Otherwise it bounds ``theta`` from its side, at or above a right-going
class's ``e`` or at or below a left-going class's ``s``, and becomes that
side's nearest fill. The bracket ``[e, s]``, clipped to the levels' range
``[0, max(W, 1e-12)]``, closes when the right side's ``e`` reaches the
left side's ``s``: the two classes are adjacent, the root sits at the
jump between them, and ``theta`` is the bracket's low end. The next ``r``
is a secant step between ``(e, q_a - e)`` and ``(s, q_b - s)``, a
fixed-point step ``r = q`` while one side is unknown, or the bracket's
midpoint when the step leaves it. The
first ``r`` lies halfway between ``W - bw max(omega)`` and ``W - bw
min(omega)``, the real-arithmetic bounds of a tight fill's fixed point.

*The certificate.* The levels are replayed under ``theta`` as scalar
compares in the loop's own ``0.5 * (r_lo + r_hi)`` arithmetic, leaving a
final bracket ``[lo, hi]``. The closing fill at ``lo`` is the nearest
right-going state where it is valid there, a fresh fill otherwise; at
``hi``, the nearest left-going one (an in-class row's one state stands on
both sides). The row is accepted only if ``fl(W - u_lo) > lo`` and
``fl(W - u_hi) <= hi``, and closes with the bisection's interpolation.
That suffices: ``lo`` is the largest replayed right-going midpoint and
``hi`` the smallest left-going one, so by monotonicity every midpoint the
replay sent right goes right, and every one it sent left goes left. The
replay took the fixed-depth bisection's every decision, and the
bisection's closing fills are exactly these two. The class ends only
steer the search; no decision rests on them, so their rounding can cost
fills but never bits.

*The fallback.* Rows inside the weight guard below, rows the certificate
rejects and rows still open after :data:`BISECTION_ITERS` rounds run the
fixed-depth bisection. ``p2_bisection_fills`` counts the fresh fills,
``p2_bisection_replayed`` the rows the search answers and
``p2_bisection_fixed_depth`` the rows the fixed-depth bisection answers;
the two add up to ``p2_bisection_fallbacks``.

*Float caveats and the weight guard.* ``kappa`` is evaluated as ``slope
- fl(fl(2 s r) omega)``, monotone in ``r`` per item, so eligibility never
flips back; but two items' order can. For two distinct weights with
relative gap above ``2^-50`` the products ``fl(c omega)`` differ for
every ``c > 0``, so equal-slope items keep the weight order at every
residual; closer weights tie for some ``c`` and not others, the column
tie-break then swaps them back and forth, and a row's fill can move
between two states inside a bracket whose ends agree. Rows holding two
distinct cap-positive weights within :data:`WEIGHT_GUARD` (``1e-12``,
``2^10`` above that gap and far below any class-weight gap a model
draws) therefore take the fixed-depth bisection. Outside the guard, two
items with different slopes swap order noisily only near their crossing,
within about ``4 eps / gap`` relative (``eps`` the unit roundoff,
``gap`` their relative weight gap); a replayed decision could differ from
the fixed-depth one only if a level landed in that window while the swap
moved the row's root. The closing ends are always checked exactly.

``closed_form=False`` demotes every bound row to the bisection; tests and
benchmarks use it as the closed form's reference. State arrays are
allocated at the *compressed* width of each bisected subset (columns with
positive cap in some row), never at the padded width.

Memory discipline
-----------------
Active rows are processed in chunks of roughly ``2^18`` matrix elements
(:data:`_CHUNK_ELEMS`). Every operation is row-wise, so chunking is
bitwise-invisible; it bounds the solver's transient state to a few MB
regardless of the stack size, where the historical kernel materialized
O(R x J) bracket-state arrays (two ``(R, J)`` intp arrays alone are
~320 MB at R=1000, J=20000).

Row blocks
----------
A stack of ``elements`` (active rows times compressed columns) splits into
``min(default_workers(), elements // MIN_BLOCK_ELEMS)`` contiguous row
blocks on the shared thread pool of :mod:`repro.perf.executor`; one block,
one usable core, or a call from an executor worker runs inline. Both row
loops split: the single-pass fill of slope-free groups and the active-row
chunks. Like chunking, the split is bitwise-invisible: rows never
interact, each block is chunked by :data:`_CHUNK_ELEMS`, and each writes
only its own output rows. NumPy releases the interpreter lock in the
sorts, gathers and ufuncs that make up the work, so the blocks overlap.
Block counters are summed on the calling thread; ``p2_row_blocks`` counts
the blocks dispatched (0 inline). Two-block over inline time, ``R x 900``
cuts of a ``multicell`` stack, median of 9 runs on 2 usable cores:

========  =====  ======  ======  ======  =======  =======
elements  9,000  18,000  36,000  72,000  144,000  360,000
ratio     1.73   1.31    1.09    0.91    0.77     0.66
========  =====  ======  ======  ======  =======  =======

So a block must hold :data:`MIN_BLOCK_ELEMS` (``2^16``) elements.
"""

from __future__ import annotations

import numpy as np

from repro.obs.recorder import inc
from repro.perf.executor import default_workers, get_executor, in_worker
from repro.types import FloatArray, IntArray

_INF = np.inf
_TINY = np.finfo(np.float64).smallest_subnormal

#: Depth of the bisections (residual water-fill and capped-block theta): 26
#: iterations bracket the root to ``~2^-26`` relative accuracy.
BISECTION_ITERS = 26

#: Relative gap at or below which two distinct weights count as tied, so the
#: row takes the fixed-depth bisection (module docstring, "Float caveats").
WEIGHT_GUARD = 1e-12

#: Row-chunk size for the active-row stages, in matrix elements. Chunks of
#: ``max(1, _CHUNK_ELEMS // J)`` rows keep per-stage temporaries at a few
#: MB each; all per-row math is chunk-invariant (bitwise).
_CHUNK_ELEMS = 1 << 18

#: Smallest row block worth a pool thread, in matrix elements, past the
#: measured crossover (module docstring, "Row blocks").
MIN_BLOCK_ELEMS = 1 << 16


def _map_row_blocks(fn, rows: IntArray, width: int) -> tuple[list, int]:
    """``fn`` over contiguous blocks of ``rows``, in block order, and the
    number of pooled blocks (0: one inline call). The size test comes
    first, so a small stack pays no executor lookup."""
    n = rows.size * width // MIN_BLOCK_ELEMS
    if n >= 2 and not in_worker():
        n = min(default_workers(), n, rows.size)
        if n >= 2:
            return get_executor("thread").map(fn, np.array_split(rows, n)), n
    return [fn(rows)], 0


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
    closed_form: bool = True,
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
        Answer bisected rows by the threshold search (bitwise-invisible;
        see module docstring). ``False`` runs the fixed-depth reference.
    closed_form:
        Solve bandwidth-bound rows by the exact parametric path, and those
        with zero bandwidth by their zero allocation (see module
        docstring). ``False`` demotes every bound row to the bisection,
        the reference tests and benchmarks compare against.

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

    def fill_single(rows: IntArray) -> None:
        # Every cap-positive item of a single-pass group has slope exactly
        # zero, so the zero-slope fill is bit-identical and skips the
        # (R, J) division.
        alloc, u = full_fill(
            rows, np.maximum(W[rows], 1.0), with_alloc=True, zero_slope=True
        )
        assert alloc is not None
        alloc_out[rows] = alloc
        u_out[rows] = u

    single = np.flatnonzero(~bisect_rows)
    blocks = _map_row_blocks(fill_single, single, J)[1] if single.size else 0
    act = np.flatnonzero(bisect_rows)

    def bisect_rows(
        rows: IntArray,
        om_a: FloatArray,
        cp_a: FloatArray,
        sl_a: FloatArray,
        W_a: FloatArray,
        bw_a: FloatArray,
    ) -> tuple[int, int, int]:
        """Residual bisection over one subset of bound rows.

        State arrays live at the subset's compressed column width (columns
        with positive cap in some row) — dropping the rest is
        bitwise-invisible exactly as in the kernel-level compression —
        so the reference path never allocates O(rows x J) state. Returns
        the number of fresh greedy fills it ran, the number of rows the
        threshold search answered and the number the fixed-depth
        bisection answered.
        """
        A = rows.size
        kc = np.flatnonzero((cp_a > 0).any(axis=0))
        Jc = kc.size
        if Jc == 0:
            return 0, 0, A  # nothing routable: the fixed-depth answer is zero
        om_b = np.ascontiguousarray(om_a[:, kc])
        cp_b = np.ascontiguousarray(cp_a[:, kc])
        # +inf slopes keep cap-0 items ineligible at every residual.
        sl_b = np.where(cp_b > 0, sl_a[:, kc], _INF)
        colc = np.arange(Jc)
        fills = 0
        narrow_u = bool(np.isfinite(om_b).all() and not np.signbit(om_b).any())
        r_top = np.maximum(W_a, 1e-12)

        def keys_at(sub: IntArray, r: FloatArray) -> FloatArray:
            """Keys ``slope - 2 s r omega`` of rows ``sub`` at residuals
            ``r``: rounding is sign-symmetric, so a key is bitwise the
            negated benefit margin ``-kappa``, and an item is eligible
            exactly when its key is negative."""
            if sub.size == A:  # every row, in order
                return sl_b - two_s * r[:, None] * om_b
            return sl_b[sub] - two_s * r[:, None] * om_b[sub]

        def fill(
            key: FloatArray, sub: IntArray
        ) -> tuple[IntArray, IntArray, np.ndarray, FloatArray]:
            """Fresh greedy fill of rows ``sub`` from their keys.

            Returns the state (sort order, allocated-prefix length, tight
            flag) and ``u``.
            """
            nonlocal fills
            fills += sub.size
            # Ineligible items sort last, in column order.
            key = np.where(key < 0, key, _INF)
            order = np.argsort(key, axis=1, kind="stable")
            # Eligible items have finite keys and sort first.
            m = (key < _INF).sum(axis=1)
            cp_f = cp_b[sub[:, None], order]
            caps_sorted = np.where(colc < m[:, None], cp_f, 0.0)
            cum = np.cumsum(caps_sorted, axis=1)
            bw_f = bw_a[sub, None]
            # Allocated prefix: the eligible items up to the one whose
            # running cap sum reaches bw. It is tight only if every item
            # past it gets an exact zero in *any* order: each later running
            # sum is >= cum_p and fl(fl(A + c) - c) is monotone in A, so
            # ``bw - fl(fl(cum_p + c) - c) <= 0`` for every cap c past the
            # prefix suffices. Otherwise keep the whole eligible set, with
            # every other item ineligible.
            p = (cum < bw_f).sum(axis=1) + 1
            tight = p <= m
            if tight.any():
                cum_p = np.take_along_axis(cum, np.minimum(p, Jc)[:, None] - 1, axis=1)
                # Columns before every row's prefix end pass trivially.
                k0 = min(int(p.min()), Jc)
                cp_t = cp_f[:, k0:]
                tight &= np.all(
                    ((cum_p + cp_t) - cp_t >= bw_f) | (colc[k0:] < p[:, None]), axis=1
                )
            p = np.where(tight, p, m)
            # Every item past the prefix gets an exact +0.0, so with finite
            # non-negative weights its +0.0 term leaves the sequential u scan
            # unchanged and the scan can stop at the longest prefix.
            w = int(p.max()) if narrow_u else Jc
            cs = caps_sorted[:, :w]
            alloc_sorted = np.clip(bw_f - (cum[:, :w] - cs), 0.0, cs)
            terms = alloc_sorted * om_b[sub[:, None], order[:, :w]]
            u = np.cumsum(terms, axis=1)[:, -1] if w else np.zeros(sub.size)
            return order, p, tight, u

        def state_match(
            kr: FloatArray, o: IntArray, pp: IntArray, ts: np.ndarray
        ) -> np.ndarray:
            """Mask of key rows ``kr`` that provably fill like the stored
            state with order prefix ``o``, prefix length ``pp`` and tight
            flag ``ts``.

            A stable argsort orders by ``(key, column)``, ineligible items
            (key ``>= 0``) last. The fill is fixed by its allocated prefix
            alone when (1) the prefix's pairs are eligible and strictly
            increasing along the stored order, and (2) no other pair sorts
            at or before the prefix's last one — for a non-tight prefix,
            every other item is ineligible. Given (1), (2) is a count:
            exactly ``p`` pairs sort at or before the bound. Counting keys
            ``<=`` the bound key settles it unless another item ties that
            key; only those rows compare columns.
            """
            rix = np.arange(kr.shape[0])
            seq = kr[rix[:, None], o]
            a, b = seq[:, :-1], seq[:, 1:]
            rising = (b > a) | (colc[1 : o.shape[1]] >= pp[:, None])
            ok = rising.all(axis=1)
            # Equal keys are in order when their columns are.
            eq = np.flatnonzero(~ok)
            if eq.size:
                oe = o[eq]
                ok[eq] = np.all(
                    rising[eq] | ((a[eq] == b[eq]) & (oe[:, 1:] > oe[:, :-1])), axis=1
                )
            last = np.maximum(pp - 1, 0)
            k_last = seq[rix, last]
            ok &= (pp == 0) | (k_last < 0)
            # The largest negative key bounds a non-tight prefix: "<= bound"
            # then means negative, i.e. eligible.
            k_bound = np.where(ts, k_last, -_TINY)
            n_le = (kr <= k_bound[:, None]).sum(axis=1)
            tie = np.flatnonzero(ok & (n_le > pp))
            ok &= n_le == pp
            if tie.size:
                kb = np.where(ts[tie], k_bound[tie], 0.0)[:, None]
                ob = np.where(ts[tie], o[tie, last[tie]], -1)[:, None]
                kt = kr[tie]
                before = (kt < kb) | ((kt == kb) & (colc <= ob))
                ok[tie] = before.sum(axis=1) == pp[tie]
            return ok

        def state_fill(sub: IntArray, order: IntArray, p: IntArray) -> FloatArray:
            """Replay the fill states of rows ``sub``; returns their
            compressed allocation.

            Only the prefix is replayed: every item past it receives an
            exact ``+0.0``, which the zero-initialized output already holds.
            """
            w = int(p.max()) if sub.size else 0
            sidx = np.arange(sub.size)[:, None]
            o = order[:, :w]
            caps_sorted = np.where(colc[:w] < p[:, None], cp_b[sub[:, None], o], 0.0)
            cum = np.cumsum(caps_sorted, axis=1)
            alloc = np.zeros((sub.size, Jc))
            alloc[sidx, o] = np.clip(
                bw_a[sub, None] - (cum - caps_sorted), 0.0, caps_sorted
            )
            return alloc

        def final_ends(
            lo: FloatArray, hi: FloatArray, theta: FloatArray, n: int
        ) -> tuple[FloatArray, FloatArray]:
            """The bracket ``n`` more levels leave when every midpoint below
            ``theta`` goes right: the bisection's own arithmetic, replayed
            in Python floats (IEEE doubles like the arrays' elements), which
            is cheaper than ``n`` rounds of array calls for the few rows a
            call usually holds."""
            ends = []
            for a, b, t in zip(lo.tolist(), hi.tolist(), theta.tolist()):
                for _ in range(n):
                    mid = 0.5 * (a + b)
                    if mid < t:
                        a = mid
                    else:
                        b = mid
                ends.append((a, b))
            out = np.array(ends).reshape(-1, 2)
            return out[:, 0], out[:, 1]

        def class_ends(
            sub: IntArray,
            key: FloatArray,
            order: IntArray,
            p: IntArray,
            tight: np.ndarray,
        ) -> tuple[FloatArray, FloatArray]:
            """Real-arithmetic ends ``[s, e)`` of the allocation classes of
            the fills of rows ``sub`` (module docstring, "Allocation
            classes"). A non-tight class is bounded like a tight one whose
            marginal item has slope and weight zero: its crossings are the
            eligibility thresholds."""
            rix = np.arange(sub.size)
            om, sl = (om_b, sl_b) if sub.size == A else (om_b[sub], sl_b[sub])
            key = np.where(key < 0, key, _INF)
            ell = np.where(tight, order[rix, np.maximum(p - 1, 0)], -1)
            om_l = np.where(tight, om[rix, ell], 0.0)
            sl_l = np.where(tight, sl[rix, ell], 0.0)
            k_l = np.where(tight, key[rix, ell], 0.0)[:, None]
            ahead = (key < k_l) | ((key == k_l) & (colc < ell[:, None]))
            behind = ~ahead & (sl < _INF) & (colc != ell[:, None])
            dw = om - om_l[:, None]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                cross = (sl - sl_l[:, None]) / (two_s * dw)
                t_l = np.where(tight, sl_l / (two_s * om_l), -_INF)
            rise, fall = dw > 0, dw < 0
            e = np.where((ahead & fall) | (behind & rise), cross, _INF).min(axis=1)
            s = np.where((ahead & rise) | (behind & fall), cross, -_INF).max(axis=1)
            return np.fmax(s, t_l), e

        def end_fills(
            sub: IntArray, r: FloatArray, side: tuple, known: np.ndarray
        ) -> tuple[IntArray, IntArray, FloatArray]:
            """Fill states of rows ``sub`` at residuals ``r``: the stored
            ``side`` state where :func:`state_match` proves it valid there,
            a fresh fill elsewhere."""
            order, p, tight, u = (arr[sub] for arr in side)
            key = keys_at(sub, r)
            ok = known[sub]
            k = np.flatnonzero(ok)
            if k.size:
                w = max(int(p[k].max()), 1)
                ok[k] = state_match(key[k], order[k, :w], p[k], tight[k])
            miss = np.flatnonzero(~ok)
            if miss.size:
                order[miss], p[miss], _, u[miss] = fill(key[miss], sub[miss])
            return order, p, u

        def close(
            sub: IntArray,
            lo: FloatArray,
            hi: FloatArray,
            ends: tuple[tuple[IntArray, IntArray, FloatArray], ...],
        ) -> None:
            """Write out rows ``sub`` as the fixed-depth bisection closes
            them: interpolate between the fills at the final bracket's ends."""
            (o_lo, p_lo, u_lo), (o_hi, p_hi, u_hi) = ends
            alloc_lo = state_fill(sub, o_lo, p_lo)
            alloc_hi = state_fill(sub, o_hi, p_hi)
            u_target = W_a[sub] - 0.5 * (lo + hi)
            gap = u_hi - u_lo
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(
                    gap > 1e-15, np.clip((u_target - u_lo) / gap, 0.0, 1.0), 0.0
                )
            alloc_out[rows[sub, None], kc[None, :]] = alloc_lo + t[:, None] * (
                alloc_hi - alloc_lo
            )
            u_out[rows[sub]] = u_lo + t * gap

        def fixed_depth(sub: IntArray) -> None:
            """The reference: a fresh fill at every level and at both ends."""
            lo, hi = np.zeros(sub.size), r_top[sub]
            for _ in range(BISECTION_ITERS):
                mid = 0.5 * (lo + hi)
                go = W_a[sub] - fill(keys_at(sub, mid), sub)[3] > mid
                lo = np.where(go, mid, lo)
                hi = np.where(go, hi, mid)
            ends = []
            for r_end in (lo, hi):
                order, p, _, u = fill(keys_at(sub, r_end), sub)
                ends.append((order, p, u))
            close(sub, lo, hi, tuple(ends))

        if not early_exit:
            fixed_depth(np.arange(A))
            return fills, 0, A

        # Threshold search. Side a holds the nearest right-going fill and
        # side b the nearest left-going one: their states (order, prefix
        # length, tight flag, u), their fixed points q = fl(W - u) and
        # their class ends e_a and s_b.
        side_a, side_b = (
            (np.zeros((A, Jc), np.intp), np.zeros(A, np.intp), np.zeros(A, bool))
            + (np.zeros(A),)
            for _ in range(2)
        )
        has_a, has_b = np.zeros(A, bool), np.zeros(A, bool)
        e_a, q_a = np.full(A, -_INF), np.zeros(A)
        s_b, q_b = np.full(A, _INF), np.zeros(A)
        theta = np.full(A, np.nan)
        live = np.flatnonzero(~_near_tied_weights(om_b, cp_b))
        # Start between the real-arithmetic bounds W - bw max(omega) and
        # W - bw min(omega) of a tight fill's fixed point; the level-0
        # midpoint where that leaves the levels' range.
        with np.errstate(invalid="ignore"):
            pos, om = cp_b[live] > 0, om_b[live]
            w_hi = np.where(pos, om, -_INF).max(axis=1)
            w_lo = np.where(pos, om, _INF).min(axis=1)
            r = W_a[live] - 0.5 * bw_a[live] * (w_hi + w_lo)
        r = np.where((r > 0) & (r < r_top[live]), r, 0.5 * r_top[live])
        for _ in range(BISECTION_ITERS):
            if live.size == 0:
                break
            key = keys_at(live, r)
            state = fill(key, live)
            q = W_a[live] - state[3]
            go = q > r
            s, e = class_ends(live, key, *state[:3])
            # The root lies inside the fill's class: theta = q, and the
            # state stands on both sides.
            inside = np.where(go, q < e, q >= s)
            for side, has, sel in (
                (side_a, has_a, go | inside),
                (side_b, has_b, ~go | inside),
            ):
                k = np.flatnonzero(sel)
                for arr, val in zip(side, state):
                    arr[live[k]] = val[k]
                has[live[k]] = True
            ka, kb = live[go], live[~go]
            e_a[ka], q_a[ka] = e[go], q[go]
            s_b[kb], q_b[kb] = s[~go], q[~go]
            # theta is at or above e_a and at or below s_b; a bracket that
            # has closed (two adjacent classes, or theta outside the
            # levels' range) fixes every level.
            lo = np.maximum(e_a[live], 0.0)
            hi = np.minimum(s_b[live], r_top[live])
            theta[live] = np.where(inside, q, lo)
            unsettled = ~inside & (lo < hi)
            # Next residual: a secant step between the two classes' ends,
            # or a fixed-point step while one side is unknown; the
            # bracket's midpoint when the step leaves it.
            ga = q_a[live] - e_a[live]
            gb = q_b[live] - s_b[live]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = np.where(
                    has_a[live] & has_b[live],
                    e_a[live] + ga * (s_b[live] - e_a[live]) / (ga - gb),
                    np.where(has_a[live], q_a[live], q_b[live]),
                )
            step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            live, r = live[unsettled], step[unsettled]
        theta[live] = np.nan

        # Certificate: replay the levels under theta, then check the
        # decisions at the two final ends with their closing fills.
        found = np.flatnonzero(~np.isnan(theta))
        fallback = np.ones(A, dtype=bool)
        if found.size:
            lo, hi = final_ends(
                np.zeros(found.size), r_top[found], theta[found], BISECTION_ITERS
            )
            ends = (
                end_fills(found, lo, side_a, has_a),
                end_fills(found, hi, side_b, has_b),
            )
            q_lo, q_hi = W_a[found] - ends[0][2], W_a[found] - ends[1][2]
            k = np.flatnonzero((q_lo > lo) & (q_hi <= hi))
            close(found[k], lo[k], hi[k], tuple((o[k], n[k], u[k]) for o, n, u in ends))
            fallback[found[k]] = False
        rest = np.flatnonzero(fallback)
        if rest.size:
            fixed_depth(rest)
        return fills, A - rest.size, rest.size

    def process(rows: IntArray) -> tuple[int, ...]:
        """Solve one chunk of active rows.

        Returns ``(bound, closed, fallback, fills, replayed, fixed_depth)``
        counts for the chunk.
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
            return 0, 0, 0, 0, 0, 0
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
        n_cf = 0
        if closed_form:
            alloc_b, u_b, solved = _solve_bw_bound(
                om_b, cp_b, sl_b, W_b, bw_b, two_s
            )
            srows = np.flatnonzero(solved)
            if srows.size:
                alloc_out[brows[srows]] = alloc_b[srows]
                u_out[brows[srows]] = u_b[srows]
            # Zero bandwidth: the zero allocation, already in the output.
            un = ~solved & (bw_b != 0)
            n_cf = nb - int(un.sum())
            brows, om_b, cp_b = brows[un], om_b[un], cp_b[un]
            sl_b, W_b, bw_b = sl_b[un], W_b[un], bw_b[un]
        counts = (
            bisect_rows(brows, om_b, cp_b, sl_b, W_b, bw_b) if brows.size else (0, 0, 0)
        )
        return (nb, n_cf, nb - n_cf, *counts)

    def process_block(rows: IntArray) -> np.ndarray:
        totals = np.zeros(6, dtype=np.int64)
        for start in range(0, rows.size, chunk):
            totals += process(rows[start : start + chunk])
        return totals

    parts, pooled = _map_row_blocks(process_block, act, J)
    totals = sum(parts)  # in block order
    for name, n in zip(
        (
            "p2_bw_bound_rows",
            "p2_bw_closed_form",
            "p2_bisection_fallbacks",
            "p2_bisection_fills",
            "p2_bisection_replayed",
            "p2_bisection_fixed_depth",
            "p2_row_blocks",
        ),
        (*totals, blocks + pooled),
    ):
        if n:
            inc(name, float(n))
    return alloc_out, u_out


def _near_tied_weights(om: FloatArray, cp: FloatArray) -> np.ndarray:
    """Rows holding two distinct cap-positive weights within
    :data:`WEIGHT_GUARD` of each other, relative (module docstring, "Float
    caveats"): their keys can swap order back and forth as the residual
    moves, so such a row takes the fixed-depth bisection."""
    w = np.sort(np.where(cp > 0, om, np.nan), axis=1)  # NaN sorts last
    lo, hi = w[:, :-1], w[:, 1:]
    with np.errstate(invalid="ignore"):
        near = (hi > lo) & (hi - lo <= WEIGHT_GUARD * np.abs(hi))
    return near.any(axis=1)


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
