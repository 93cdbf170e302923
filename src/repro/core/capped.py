"""Exact cap-constrained ``P1`` kernel — negative-cycle canceling.

The batched relaxation pass (:func:`repro.core.caching_lp._relaxed_dp_stack`)
accepts a row only when the *cardinality-relaxed* optimum happens to satisfy
the per-slot cache cap. On the paper's uniform-cost scenarios that premise
collapses: the relaxed optimum wants to cache every profitable item at once,
the cap binds in (nearly) every slot, and every row storms to the per-SBS
min-cost-flow backend — 1278 of 1284 memo misses on the headline quick
workload, each paying a Python-heap Dijkstra. This module solves those
cap-bound rows exactly, vectorized over the whole miss stack.

Method
------
Start from the canonical **prefix-greedy** candidate: each item's best prefix
value is ``max_e sum_{t<e} c[t,k] - beta * [k not initially cached]``; take
the top-``cap`` strictly-profitable items (stable order), each held on its own
best prefix (smallest argmax — leave as early as possible, matching the
relaxation pass's prefer-uncached tie discipline). The candidate is a feasible
integral flow of the caching network (the topology
:func:`repro.core.caching_lp._solve_single_sbs_flow` builds). By flow theory a
feasible flow is minimum-cost **iff its residual graph admits no negative-cost
cycle**, so:

1. **Check** (batched, no parent tracking): label-correcting Bellman sweeps
   over the residual graph — one forward and one backward pass over the
   horizon per sweep pair, all rows at once. Labels start at zero (the
   implicit super-source) and only decrease; a row whose labels reach a fixed
   point has *no* improving residual cycle and its candidate is accepted as
   exactly optimal.
2. **Cancel** (per row, rare): a row still improving at the sweep budget
   contains a negative cycle. Re-run its sweeps with parent pointers and the
   float-band update gate, walk the pointers into the cycle, flip the hold
   arcs it traverses (each toggles one ``x[t, k]``), and go back to step 1.

On the captured headline fallback storm the candidate is already optimal for
86% of rows and no row needs more than four cancel rounds.

Exactness and floats
--------------------
An accepted row is a flow with no strictly-improving residual relaxation under
float arithmetic — the same epistemic class as the min-cost flow fallback's own
optimality condition (both compare float path costs). The cancel phase gates
updates by the relaxation pass's danger band ``16 * eps * max(T, 4) * scale``
and accepts a residual cycle whose true gain is within the band as a tie, so
sub-band float ambiguity never drives a flip. On all 1278 captured storm rows
the kernel's objective equals the flow fallback's bitwise.

Every elementwise operation here is independent of the stack size ``B``
(reductions run over items and the horizon only), so a ``B = 1`` call made by
the per-SBS flow produces bitwise the row a stacked call would — the same
shared-kernel property the relaxation pass maintains, and the reason the
batched pass and the per-SBS flow fallback stay cost-identical.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray

__all__ = ["capped_cancel_stack"]

_EPS = float(np.finfo(np.float64).eps)
_INF = float("inf")

#: Cancel rounds before a row is given up to the per-SBS flow fallback. The
#: captured storm needs at most 4; each round removes one negative cycle, so
#: hitting this bound means the candidate was unusually far from optimal.
MAX_ROUNDS = 10


def _detect_pairs(T: int) -> int:
    """Sweep-pair budget for the batched convergence check.

    A forward+backward pair propagates label decreases across the whole
    horizon in each direction, so fixed points arrive in a handful of pairs
    (3–4 on the captured storm). A row still changing here is *routed* to
    the cancel phase, never rejected, so the budget is a routing heuristic:
    small enough that cycle rows don't burn sweeps proving the obvious,
    large enough that legitimate fixed points land within it.
    """
    return 8 + T // 8


def _cancel_pairs(T: int) -> int:
    """Sweep-pair budget for the parent-tracked cancel phase.

    Rarely reached: the cycle walk is attempted every pair once labels can
    have wrapped an improving cycle, and typically succeeds within two or
    three pairs.
    """
    return 2 * T + 10


def _prefix_greedy_stack(
    C: FloatArray, beta: FloatArray, X0: FloatArray, caps: FloatArray
) -> FloatArray:
    """Canonical feasible candidate: top-``cap`` items on their best prefix.

    Prefix intervals (enter at ``t = 0``) dominate for the storm's workload
    shape, but any feasible trajectory is a valid starting flow — the cancel
    rounds repair whatever optimality the candidate lacks.
    """
    B, T, K = C.shape
    vals = np.cumsum(C, axis=1) - np.where(X0 > 0.5, 0.0, beta[:, None])[:, None, :]
    best = vals.max(axis=1)
    e_best = vals.argmax(axis=1) + 1  # smallest argmax -> leave early
    order = np.argsort(-best, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(K)[None, :], axis=1)
    take = (rank < np.asarray(caps)[:, None]) & (best > 0.0)
    x = (np.arange(T)[None, :, None] < e_best[:, None, :]) & take[:, None, :]
    return x.astype(np.float64)


def _residual_masks(
    x: FloatArray, X0: FloatArray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arc-usage masks of a trajectory stack: on / enter / continue / exit.

    ``ent[:, 0]`` is ``on[:, 0]`` — the ``t = 0`` fetch arc carries every
    initially-held slot (at zero cost for ``x0`` items), mirroring the flow
    template's topology.
    """
    on = x > 0.5
    prev = np.concatenate([X0[:, None, :] > 0.5, on[:, :-1]], axis=1)
    ent = on & ~prev
    ent[:, 0] = on[:, 0]
    nxt = np.concatenate([on[:, 1:], np.zeros_like(on[:, :1])], axis=1)
    cont = on & nxt
    exi = on & ~nxt
    return on, ent, cont, exi


def _bellman_converged(
    C: FloatArray,
    fetch: FloatArray,
    on: np.ndarray,
    ent: np.ndarray,
    cont: np.ndarray,
    exi: np.ndarray,
    counts: np.ndarray,
    caps: FloatArray,
    tol: FloatArray,
    max_pairs: int,
) -> np.ndarray:
    """Which rows' residual graphs admit no improving cycle (batched).

    Residual arc costs are pre-masked with ``+inf`` where an arc is absent
    and pre-shifted by each row's float danger band ``tol``, so every
    relaxation is one fused add plus one in-place minimum and labels for
    all ``B`` rows advance together. The shift makes sub-band residual
    slivers (float-noise "cycles" of vanishing gain) non-improving — they
    are ties, and damping them is what makes fixed points arrive in a
    handful of sweep pairs — while a genuinely improving cycle's gain
    dwarfs its accumulated shift. Returns the ``(B,)`` converged mask: a
    row that stopped changing is at a fixed point (its updates read only
    its own slices, so it can never change again) and its candidate is
    optimal within the band; a row still changing at the budget holds an
    improving cycle for the cancel phase to extract and re-judge against
    the unshifted costs.
    """
    B, T, K = C.shape
    tb = np.asarray(tol)[:, None]
    t3 = tb[:, :, None]
    a_fetch = np.where(ent, _INF, fetch) + t3  # hub(t) -> in(t,k): pay fetch
    a_fetchr = np.where(ent, -fetch, _INF) + t3  # in(t,k) -> hub(t): refund
    a_add = np.where(on, _INF, -C) + t3  # in -> out: start holding, gain c
    a_drop = np.where(on, C, _INF) + t3  # out -> in: stop holding
    g_cf = np.where(cont, _INF, 0.0) + t3  # out(t)  -> in(t+1)
    g_cr = np.where(cont, 0.0, _INF) + t3  # in(t+1) -> out(t)
    g_ef = np.where(exi, _INF, 0.0) + t3  # out(t)  -> hub(t+1)
    g_er = np.where(exi, 0.0, _INF) + t3  # hub(t+1) -> out(t)
    h_f = np.where(counts > 0, 0.0, _INF) + tb  # hub chain forward
    h_r = np.where(counts < np.asarray(caps)[:, None], 0.0, _INF) + tb  # back

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


def _arc_cost(
    u: int, v: int, T: int, K: int, c: FloatArray, fetch: FloatArray
) -> float:
    """Cost of the residual arc ``u -> v`` (node ids as in the flow template)."""
    if u <= T and v <= T:
        return 0.0  # hub chain, either direction
    if u <= T:  # hub -> in (pay fetch) or hub -> out (exit reversal)
        r = v - (T + 1)
        t, k = divmod(r // 2, K)
        return float(fetch[t, k]) if r % 2 == 0 else 0.0
    if v <= T:  # in -> hub (fetch refund) or out -> hub (exit)
        r = u - (T + 1)
        t, k = divmod(r // 2, K)
        return -float(fetch[t, k]) if r % 2 == 0 else 0.0
    ru, rv = u - (T + 1), v - (T + 1)
    if ru // 2 == rv // 2:  # hold arc: in -> out gains c, out -> in repays it
        t, k = divmod(rv // 2, K)
        return -float(c[t, k]) if rv % 2 == 1 else float(c[t, k])
    return 0.0  # continue arc, either direction


def _cancel_round_single(
    c: FloatArray,
    fetch: FloatArray,
    x0: FloatArray,
    cap: int,
    x: FloatArray,
    tol: float,
    max_pairs: int,
) -> tuple[str, list[tuple[int, int, float]] | None]:
    """One gated, parent-tracked Bellman run on a single row's residual graph.

    Updates only fire beyond the float danger band ``tol``. After each sweep
    pair (from the second on — labels must have had a chance to wrap the
    cycle) the parent pointers are walked ``V + 1`` steps from the most
    negative label; landing in a cycle of true gain beyond the band yields
    the hold-arc flips. Returns ``("optimal", None)`` on a fixed point,
    ``("cycle", flips)`` when an improving cycle is extracted, and
    ``("stuck", None)`` when the budget ends ambiguously (defensive; hands
    the row to the exact per-SBS flow fallback).
    """
    T, K = c.shape
    on = x > 0.5
    prev = np.vstack([x0[None, :] > 0.5, on[:-1]])
    ent = on & ~prev
    ent[0] = on[0]
    nxt = np.vstack([on[1:], np.zeros((1, K), dtype=bool)])
    cont = on & nxt
    exi = on & ~nxt
    counts = on.sum(axis=1)

    base = T + 1
    in_id = base + 2 * (np.arange(T)[:, None] * K + np.arange(K)[None, :])
    out_id = in_id + 1

    a_fetch = np.where(ent, _INF, fetch)
    a_fetchr = np.where(ent, -fetch, _INF)
    a_add = np.where(on, _INF, -c)
    a_drop = np.where(on, c, _INF)
    g_cf = np.where(cont, _INF, 0.0)
    g_cr = np.where(cont, 0.0, _INF)
    g_ef = np.where(exi, _INF, 0.0)
    g_er = np.where(exi, 0.0, _INF)

    d_hub = np.zeros(T + 1)
    d_in = np.zeros((T, K))
    d_out = np.zeros((T, K))
    p_hub = np.full(T + 1, -1, dtype=np.int64)
    p_in = np.full((T, K), -1, dtype=np.int64)
    p_out = np.full((T, K), -1, dtype=np.int64)

    def upd(d: np.ndarray, p: np.ndarray, cand: np.ndarray, pids) -> bool:
        better = cand < d - tol
        if not better.any():
            return False
        d[better] = cand[better]
        p[better] = np.broadcast_to(pids, cand.shape)[better]
        return True

    def upd_hub(t: int, cand: float, pid: int) -> bool:
        if cand < d_hub[t] - tol:
            d_hub[t] = cand
            p_hub[t] = pid
            return True
        return False

    V = T + 1 + 2 * T * K

    def walk() -> tuple[float, list[tuple[int, int, float]]] | None:
        """Parent walk from the most negative label; its cycle, if any."""
        dvec = np.empty(V)
        pvec = np.full(V, -1, dtype=np.int64)
        dvec[: T + 1] = d_hub
        pvec[: T + 1] = p_hub
        dvec[in_id.ravel()] = d_in.ravel()
        pvec[in_id.ravel()] = p_in.ravel()
        dvec[out_id.ravel()] = d_out.ravel()
        pvec[out_id.ravel()] = p_out.ravel()
        node = int(dvec.argmin())
        for _ in range(V + 1):
            parent = int(pvec[node])
            if parent < 0:
                return None
            node = parent
        cyc = [node]
        cur = int(pvec[node])
        while cur != node:
            cyc.append(cur)
            cur = int(pvec[cur])
        gain = 0.0
        flips: list[tuple[int, int, float]] = []
        m = len(cyc)
        for i in range(m):
            v = cyc[i]
            u = cyc[(i + 1) % m]  # parent direction: the residual arc is u -> v
            gain += _arc_cost(u, v, T, K, c, fetch)
            if v > T and u > T:
                rv, ru = v - base, u - base
                if rv // 2 == ru // 2:  # a hold arc of the same (t, k) pair
                    t, k = divmod(rv // 2, K)
                    flips.append((t, k, 1.0 if rv % 2 == 1 else 0.0))
        return gain, flips

    for pair in range(max_pairs):
        changed = False
        for t in range(T):
            changed |= upd(d_in[t], p_in[t], d_hub[t] + a_fetch[t], t)
            if t:
                changed |= upd(
                    d_in[t], p_in[t], d_out[t - 1] + g_cf[t - 1], out_id[t - 1]
                )
            changed |= upd(d_out[t], p_out[t], d_in[t] + a_add[t], in_id[t])
            changed |= upd(d_in[t], p_in[t], d_out[t] + a_drop[t], out_id[t])
            vals = d_out[t] + g_ef[t]
            kb = int(vals.argmin())
            changed |= upd_hub(t + 1, float(vals[kb]), int(out_id[t, kb]))
            if counts[t] > 0:
                changed |= upd_hub(t + 1, float(d_hub[t]), t)
        for t in range(T - 1, -1, -1):
            changed |= upd(d_out[t], p_out[t], d_hub[t + 1] + g_er[t], t + 1)
            if t < T - 1:
                changed |= upd(d_out[t], p_out[t], d_in[t + 1] + g_cr[t], in_id[t + 1])
            changed |= upd(d_in[t], p_in[t], d_out[t] + a_drop[t], out_id[t])
            changed |= upd(d_out[t], p_out[t], d_in[t] + a_add[t], in_id[t])
            vals = d_in[t] + a_fetchr[t]
            kb = int(vals.argmin())
            changed |= upd_hub(t, float(vals[kb]), int(in_id[t, kb]))
            if counts[t] < cap:
                changed |= upd_hub(t, float(d_hub[t + 1]), t + 1)
        if not changed:
            return "optimal", None
        if pair >= 1:
            found = walk()
            if found is not None:
                gain, flips = found
                # Only a cycle of true gain beyond the band is an
                # improvement; a sub-band cycle on the walked path does not
                # prove optimality (a real one may sit elsewhere), so keep
                # sweeping in that case.
                if gain < -tol and flips:
                    return "cycle", flips
    return "stuck", None


def capped_cancel_stack(
    C: FloatArray,
    beta: FloatArray,
    X0: FloatArray,
    caps: FloatArray,
    *,
    max_rounds: int = MAX_ROUNDS,
) -> tuple[FloatArray, np.ndarray]:
    """Exact cap-constrained ``P1`` over a ``(B, T, K)`` stack.

    Returns ``(x, ok)``: trajectories and the mask of rows solved to
    certified optimality. Rows with ``~ok`` (budget exhaustion — never
    observed on the captured storm) must go to the per-SBS flow fallback;
    their ``x`` slices are meaningless.
    """
    B, T, K = C.shape
    ok = np.zeros(B, dtype=bool)
    if B == 0:
        return np.zeros((B, T, K)), ok
    x = _prefix_greedy_stack(C, beta, X0, caps) if T and K else np.zeros((B, T, K))
    if T == 0 or K == 0:
        ok[:] = True
        return x, ok

    fetch = np.broadcast_to(
        np.asarray(beta, dtype=np.float64)[:, None, None], (B, T, K)
    ).copy()
    fetch[:, 0][X0 > 0.5] = 0.0
    scale = np.maximum(
        1.0, np.maximum(np.asarray(beta, dtype=np.float64), np.abs(C).max(axis=(1, 2)))
    )
    tol = (16.0 * _EPS * max(T, 4)) * scale
    dp = _detect_pairs(T)
    cp = _cancel_pairs(T)

    active = np.arange(B)
    for _ in range(max_rounds):
        on, ent, cont, exi = _residual_masks(x[active], X0[active])
        counts = on.sum(axis=2)
        conv = _bellman_converged(
            C[active], fetch[active], on, ent, cont, exi, counts,
            np.asarray(caps)[active], tol[active], dp,
        )
        ok[active[conv]] = True
        active = active[~conv]
        if active.size == 0:
            break
        keep: list[int] = []
        for b in active:
            status, flips = _cancel_round_single(
                C[b], fetch[b], X0[b], int(caps[b]), x[b], float(tol[b]), cp
            )
            if status == "optimal":
                ok[b] = True
            elif status == "cycle":
                assert flips is not None
                for t, k, v in flips:
                    x[b, t, k] = v
                if (x[b].sum(axis=1) <= caps[b]).all():
                    keep.append(int(b))
                # An infeasible flip set cannot happen for a true residual
                # cycle; if it ever does, the row silently falls back to the
                # exact per-SBS flow fallback.
        active = np.asarray(keep, dtype=np.intp)
        if active.size == 0:
            break
    return x, ok
