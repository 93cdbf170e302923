"""Exact cap-constrained ``P1`` kernel — negative-cycle canceling.

The batched relaxation pass (:func:`repro.core.caching_lp._relaxed_dp_stack`)
accepts a row only when the *cardinality-relaxed* optimum satisfies the
per-slot cache cap. On the paper's uniform-cost scenarios the cap binds in
(nearly) every slot, so without this module 1278 of 1284 memo misses on the
headline quick workload stormed to the per-SBS min-cost flow, each paying a
Python-heap Dijkstra. This module solves those cap-bound rows exactly,
vectorized over the whole miss stack.

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

1. **Check** (batched, one shot): a negative-cycle test on the ``T + 1``
   hubs. Each item's residual chain ``in(0), out(0), in(1), ...`` is a path
   whose every arc is open in exactly one direction (add or drop, continue
   forward or back), so no cycle fits inside one chain: every residual cycle
   passes a hub. An item's cheapest hub-to-hub path is then an outer sum of
   prefix sums along its chain; the minimum over items, the hub-chain arcs
   and the one-item self-loops give a ``(T+1)^2`` matrix per row, and a
   Floyd–Warshall min-plus closure flags the rows with a negative diagonal
   entry. An unflagged row's candidate is accepted as exactly optimal.
2. **Cancel** (per row, rare): a flagged row contains a negative cycle. Run
   Bellman sweeps on it with parent pointers and the float-band update gate,
   walk the pointers into the cycle, flip the hold arcs it traverses (each
   toggles one ``x[t, k]``), and go back to step 1.

On the captured headline fallback storm the candidate is already optimal for
86% of rows and no row needs more than four cancel rounds.

Exactness and floats
--------------------
An accepted row is a flow with no strictly-improving residual cycle under
float arithmetic — the same epistemic class as the min-cost flow fallback's own
optimality condition. Every arc of the check is shifted by the row's danger
band ``tol = 16 * eps * max(T, 4) * scale``: a cycle improves only if its gain
beats its arc count times ``tol``, so exact ties are never cycles. The check
sums a path as a difference of prefix sums, not arc by arc; each addition
rounds by at most half an ulp of a partial sum of at most ``2T`` arcs, about
``eps * T * scale``, a sixteenth of the band every arc adds, so the order can
flip a verdict only for a cycle whose gain lies within a few ulps of its band
edge (the tests pin the verdicts to sweeps run to their fixed point). The
cancel phase gates updates by the same band and accepts a cycle whose true
gain is within it as a tie, so sub-band float ambiguity never drives a flip.
On all 1278 captured storm rows the kernel's objective equals the flow
fallback's bitwise.

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

#: Rows per certificate call are capped so its ``(rows, T+1, T+1, K)``
#: tensors stay near this many elements (8 MB each).
_CERT_CHUNK = 1 << 20


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


def _hub_certified(
    C: FloatArray,
    fetch: FloatArray,
    x: FloatArray,
    X0: FloatArray,
    caps: FloatArray,
    tol: FloatArray,
) -> np.ndarray:
    """Which rows' residual graphs admit no improving cycle (batched).

    The module docstring's one-shot check on arc costs shifted by ``tol``:
    a forward hub path ``a -> b`` runs ``in(a) .. out(b-1)`` over slots the
    item does not hold, a backward one ``out(a-1) .. in(b)`` over slots it
    holds. Rows left ``False`` hold an improving cycle for the cancel phase
    to extract and re-judge against the unshifted costs.
    """
    B, T, K = C.shape
    n = T + 1
    on, ent, cont, exi = _residual_masks(x, X0)
    t3 = np.asarray(tol)[:, None, None]
    a_fetch = np.where(ent, _INF, fetch) + t3  # hub(t) -> in(t,k): pay fetch
    a_fetchr = np.where(ent, -fetch, _INF) + t3  # in(t,k) -> hub(t): refund
    g_cf = np.where(cont, _INF, t3)  # out(t)  -> in(t+1), cost 0 + tol
    g_cr = np.where(cont, t3, _INF)  # in(t+1) -> out(t)
    g_ef = np.where(exi, _INF, t3)  # out(t)  -> hub(t+1)
    g_er = np.where(exi, t3, _INF)  # hub(t+1) -> out(t)

    # Chain prefix sums: each chain arc is open in exactly one direction,
    # the hold arc as drop (held) or add, the continue arc at 0 either way.
    seq = np.empty((B, T, 2, K))
    seq[:, :, 0] = np.where(on, C, -C) + t3
    seq[:, :, 1] = t3
    pos = np.cumsum(seq.reshape(B, 2 * T, K), axis=1)
    out_s = pos[:, 0::2]  # at out(t)
    in_s = np.concatenate([np.zeros((B, 1, K)), pos[:, 1:-1:2]], axis=1)  # in(t)

    # Entering or leaving a chain at a hub may cross the continue arc there.
    via_out = g_er[:, :-1] + g_cf[:, :-1]  # hub(a) -> out(a-1) -> in(a)
    via_in = a_fetch[:, 1:] + g_cr[:, :-1]  # hub(a) -> in(a) -> out(a-1)
    enter_f = a_fetch.copy()
    np.minimum(enter_f[:, 1:], via_out, out=enter_f[:, 1:])
    enter_b = g_er.copy()
    np.minimum(enter_b[:, :-1], via_in, out=enter_b[:, :-1])
    leave_f = g_ef.copy()
    np.minimum(leave_f[:, :-1], g_cf[:, :-1] + a_fetchr[:, 1:], out=leave_f[:, :-1])
    leave_b = a_fetchr.copy()
    np.minimum(leave_b[:, 1:], g_cr[:, :-1] + g_ef[:, :-1], out=leave_b[:, 1:])

    u = np.full((2, B, n, 1, K), _INF)  # by start hub: forward, backward
    v = np.full((2, B, 1, n, K), _INF)  # by end hub
    u[0, :, :T, 0] = enter_f - in_s
    u[1, :, 1:, 0] = enter_b + out_s
    v[0, :, 0, 1:] = out_s + leave_f
    v[1, :, 0, :T] = leave_b - in_s
    hub = np.arange(n)
    back = (hub[:, None] > hub[None, :])[:, :, None]  # a > b: backward paths
    cost = u[0] + v[0]
    np.copyto(cost, u[1] + v[1], where=back)
    # a -> b is open iff the item is held in none (a < b) or all (a > b) of
    # the slots between: ``held[b] - held[a] == min(0, b - a)``.
    held = np.zeros((B, n, K), dtype=np.int32)
    np.cumsum(on, axis=1, out=held[:, 1:])
    gap = np.minimum(0, hub[None, :] - hub[:, None])[:, :, None]
    open_ = held[:, None, :, :] - held[:, :, None, :] == gap
    D = np.min(cost, axis=3, where=open_, initial=_INF)

    flat = D.reshape(B, n * n)
    diag = flat[:, :: n + 1]  # a == b: the empty path or a one-item self-loop
    diag[:] = 0.0
    loop = np.minimum(via_in + g_ef[:, :-1], via_out + a_fetchr[:, 1:])
    np.minimum(diag[:, 1:-1], loop.min(axis=2), out=diag[:, 1:-1])
    counts = on.sum(axis=2)
    up, down = flat[:, 1 :: n + 1], flat[:, n :: n + 1]  # hub chain arcs
    np.minimum(up, np.where(counts > 0, t3[:, 0], _INF), out=up)
    np.minimum(down, np.where(counts < caps[:, None], t3[:, 0], _INF), out=down)
    for m in range(n):  # Floyd–Warshall closure
        np.minimum(D, D[:, :, m, None] + D[:, None, m, :], out=D)
    return (diag >= 0.0).all(axis=1)


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
        np.copyto(d, cand, where=better)
        np.copyto(p, pids, where=better)
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


def _arc_inputs(
    C: FloatArray, beta: FloatArray, X0: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Each cell's fetch cost (free at ``t = 0`` for initially cached items)
    and each row's danger band ``tol = 16 * eps * max(T, 4) * scale``."""
    B, T, K = C.shape
    beta = np.asarray(beta, dtype=np.float64)
    fetch = np.broadcast_to(beta[:, None, None], (B, T, K)).copy()
    fetch[:, 0][X0 > 0.5] = 0.0
    scale = np.maximum(1.0, np.maximum(beta, np.abs(C).max(axis=(1, 2))))
    return fetch, (16.0 * _EPS * max(T, 4)) * scale


def capped_cancel_stack(
    C: FloatArray,
    beta: FloatArray,
    X0: FloatArray,
    caps: FloatArray,
    *,
    max_rounds: int = MAX_ROUNDS,
) -> tuple[FloatArray, np.ndarray, int]:
    """Exact cap-constrained ``P1`` over a ``(B, T, K)`` stack.

    Returns ``(x, ok, cancel_rows)``: trajectories, the mask of rows solved
    to certified optimality, and how many rows the certificate sent to the
    cancel phase, summed over rounds. Rows with ``~ok`` (budget exhaustion
    — never observed on the captured storm) must go to the per-SBS flow
    fallback; their ``x`` slices are meaningless.
    """
    B, T, K = C.shape
    ok = np.zeros(B, dtype=bool)
    if B == 0:
        return np.zeros((B, T, K)), ok, 0
    x = _prefix_greedy_stack(C, beta, X0, caps) if T and K else np.zeros((B, T, K))
    if T == 0 or K == 0:
        ok[:] = True
        return x, ok, 0

    fetch, tol = _arc_inputs(C, beta, X0)
    caps = np.asarray(caps)
    cp = _cancel_pairs(T)
    step = max(1, _CERT_CHUNK // ((T + 1) ** 2 * K))
    cancel_rows = 0

    active = np.arange(B)
    for _ in range(max_rounds):
        conv = np.concatenate([
            _hub_certified(C[r], fetch[r], x[r], X0[r], caps[r], tol[r])
            for r in (active[i : i + step] for i in range(0, active.size, step))
        ])
        ok[active[conv]] = True
        active = active[~conv]
        if active.size == 0:
            break
        cancel_rows += active.size
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
    return x, ok, cancel_rows
