"""Local-search polish for caching trajectories.

Dual subgradient methods certify tight *bounds* but recover the primal
combinatorial piece only from the ``P1`` solutions visited along the way;
on weakly coupled instances (small ``beta``) the visited caches can miss
cheap single-item improvements. :func:`polish_caching` closes that gap
with a first-improvement local search over single-item moves:

- **swap**: replace one cached item with one uncached item in a slot;
- **insert**: add an item when the cache has free space;
- **evict**: drop an item.

Each move's effect is evaluated exactly: the slot's operating cost through
the fixed-cache oracle (a single-slot water-fill) and the switching-cost
delta against both temporal neighbours. Passes repeat until no move
improves or ``max_passes`` is reached, so the result never costs more than
the input trajectory.

Batched evaluation
------------------
On the paper's fast path (quadratic BS cost, ``omega-hat = 0``) the oracle
decomposes per SBS and a single-item move touches one SBS, so a cell's
``V`` moves are scored together. **Own-column fills:** one
:func:`repro.optim.waterfill.waterfill_batch` call fills every candidate on
its own routed columns — its cached items under each class of the SBS, in
column order, zero-capped up to the widest candidate; zero-cap columns are
inert in the kernel, so each block is bitwise the per-move oracle's.
**Array scan:** :func:`repro.network.costs.slot_costs` scores each
candidate's operating cost from its block against the slot's per-SBS loads
(only SBS ``n``'s changes), switching deltas come from the candidate rows,
and the first move whose delta is below ``-tol`` is applied before the scan
moves to the next cell. Every move of a cell is scored against the same
pre-move state, so that is the move the per-move loop applies. Per cell the
scan holds ``O(V (C K + N))`` floats, never a ``(V, M, K)`` stack. Problems
off the fast path (``omega-hat > 0`` or a non-quadratic cost) keep the
per-move oracle loop, the array scan's reference. ``polish_moves_scored``
and ``polish_moves_applied`` count the moves.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from repro.core.load_balancing import _uses_fast_path, solve_y_given_x
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError
from repro.network.costs import CostBreakdown, slot_costs
from repro.obs.recorder import inc
from repro.optim.waterfill import waterfill_batch
from repro.types import FloatArray


def _slot_problems(problem: JointProblem) -> list[JointProblem]:
    zero = np.zeros((problem.network.num_sbs, problem.network.num_items))
    return [
        dc_replace(problem, demand=problem.demand[t : t + 1], x_initial=zero)
        for t in range(problem.horizon)
    ]


def _switch_deltas(
    problem: JointProblem, x: FloatArray, t: int, n: int, new_rows: FloatArray
) -> FloatArray:
    """Switching-cost change of replacing ``x[t, n]`` by each of ``new_rows``."""
    beta = float(problem.network.replacement_costs[n])
    prev = problem.x_initial[n] if t == 0 else x[t - 1, n]
    old_row = x[t, n]
    delta = beta * (
        np.clip(new_rows - prev, 0, None).sum(axis=-1)
        - np.clip(old_row - prev, 0, None).sum()
    )
    if t + 1 < x.shape[0]:
        nxt = x[t + 1, n]
        delta = delta + beta * (
            np.clip(nxt - new_rows, 0, None).sum(axis=-1)
            - np.clip(nxt - old_row, 0, None).sum()
        )
    return delta


def _cell_moves(row: FloatArray, cap: int) -> FloatArray:
    """Candidate rows of one cell, ``(V, K)``, in scan order: every insert
    (while the cache has room), then every (out, in) swap, then every evict."""
    eye = np.eye(row.size)
    into = eye[row < 0.5]
    evicts = row - eye[row > 0.5]
    swaps = (evicts[:, None, :] + into).reshape(-1, row.size)
    inserts = row + into if len(evicts) < cap else into[:0]
    return np.concatenate([inserts, swaps, evicts])


def _candidate_blocks(sub: JointProblem, n: int, new_rows: FloatArray) -> FloatArray:
    """Oracle ``y`` blocks of SBS ``n`` for a stack of candidate cache rows.

    ``new_rows`` has shape ``(V, K)``; returns ``(V, C_n, K)`` over SBS
    ``n``'s classes — each block bitwise what :func:`solve_y_given_x`
    computes for that cache row on the fast path (``mu = 0`` makes every row
    a single greedy fill), though each is filled on its own routed columns.
    """
    net = sub.network
    K = net.num_items
    classes = net.classes_of_sbs[n]
    V = new_rows.shape[0]
    lam_row = sub.demand[:, classes, :].reshape(1, -1)[0]  # (J,)
    omega = np.repeat(net.omega_bs[classes], K)
    W_val = float(lam_row @ omega)
    cached = new_rows > 0.5
    width = int(cached.sum(axis=1).max())
    # Cached items first, in item order; the rest pad out to ``width``.
    items = np.argsort(~cached, axis=1, kind="stable")[:, :width]
    live = np.tile(np.take_along_axis(cached, items, axis=1), len(classes))
    cols = (np.arange(len(classes))[:, None] * K + items[:, None, :]).reshape(V, -1)
    lam_b = np.where(live, lam_row[cols], 0.0)
    alloc_b, _ = waterfill_batch(
        lam_b,
        lam_b,  # caps: lam * 1 on a cached column, 0 on padding
        omega[cols],
        np.zeros(lam_b.shape),
        np.full(V, W_val),
        np.full(V, float(net.bandwidths[n])),
        sub.bs_cost.scale,  # type: ignore[union-attr]
    )
    blocks = np.zeros((V, lam_row.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        blocks[np.arange(V)[:, None], cols] = np.where(lam_b > 0, alloc_b / lam_b, 0.0)
    return blocks.reshape(V, len(classes), K)


def polish_caching(
    problem: JointProblem,
    x: FloatArray,
    *,
    max_passes: int = 2,
    tol: float = 1e-9,
) -> tuple[FloatArray, FloatArray, CostBreakdown]:
    """Improve ``x`` by single-item local moves; returns ``(x, y, cost)``.

    The returned cost is never worse than the input trajectory's. ``y`` is
    the exact fixed-cache optimum for the polished caches.
    """
    if max_passes <= 0:
        raise ConfigurationError(f"max_passes must be positive, got {max_passes}")
    x = np.where(np.asarray(x, dtype=np.float64) > 0.5, 1.0, 0.0)
    if x.shape != problem.x_shape:
        raise ConfigurationError(f"x shape {x.shape} != {problem.x_shape}")
    net = problem.network
    batched = _uses_fast_path(problem)
    slots = _slot_problems(problem)
    costs = dict(bs_cost=problem.bs_cost, sbs_cost=problem.sbs_cost)
    ys = [solve_y_given_x(sub, x[t][None]).y for t, sub in enumerate(slots)]
    now = slot_costs(net, problem.demand, np.concatenate(ys), **costs)
    slot_cost, loads = now.bs_cost + now.sbs_cost, now.loads

    for _ in range(max_passes):
        improved = False
        for t, sub in enumerate(slots):
            for n in range(net.num_sbs):
                cap = int(net.cache_sizes[n])
                moves = _cell_moves(x[t, n], cap)
                if cap == 0 or not len(moves):
                    continue
                inc("polish_moves_scored", len(moves))
                # Every move of a cell is scored against the same pre-move
                # state, so both branches apply the same first improvement.
                switch = _switch_deltas(problem, x, t, n, moves)
                applied = None
                if batched:
                    lam = sub.demand[0, net.classes_of_sbs[n]]
                    blocks = _candidate_blocks(sub, n, moves)
                    cand = slot_costs(
                        net, lam, blocks, sbs=n, base=loads[:, t], **costs
                    )
                    new_op = cand.bs_cost + cand.sbs_cost
                    hits = np.flatnonzero((new_op - slot_cost[t]) + switch < -tol)
                    if hits.size:
                        applied = hits[0]
                        slot_cost[t] = new_op[applied]
                        loads[:, t] = cand.loads[:, applied]
                else:  # the per-move oracle; ``loads`` feed the fast path only
                    for v, new_row in enumerate(moves):
                        x_t = x[t].copy()[None]
                        x_t[0, n] = new_row
                        op = sub.cost(x_t, solve_y_given_x(sub, x_t).y).operating
                        if (op - slot_cost[t]) + switch[v] < -tol:
                            applied, slot_cost[t] = v, op
                            break
                if applied is not None:
                    # First improvement per cell: the remaining candidates
                    # were built for the old row, so move on.
                    x[t, n] = moves[applied]
                    improved = True
                    inc("polish_moves_applied")
        if not improved:
            break

    y = solve_y_given_x(problem, x).y
    return x, y, problem.cost(x, y)
