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
decomposes per SBS, and a single-item move touches exactly one SBS. The
batched evaluation exploits both facts: all candidate rows of a cell are
pushed through one :func:`repro.optim.waterfill.waterfill_batch` call,
each candidate's full-slot ``y`` is assembled from the cached current-slot
oracle plus the candidate's block, and moves are then scanned in
first-improvement order. Every assembled ``y`` and operating cost is
bit-identical to what the per-move oracle would have produced. Problems
off the fast path (``omega-hat > 0`` or a non-quadratic cost) evaluate
each move through the oracle instead.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from repro.core.load_balancing import _uses_fast_path, solve_y_given_x
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError
from repro.network.costs import CostBreakdown, bs_operating_cost, sbs_operating_cost
from repro.optim.waterfill import waterfill_batch
from repro.types import FloatArray


def _slot_problems(problem: JointProblem) -> list[JointProblem]:
    zero = np.zeros((problem.network.num_sbs, problem.network.num_items))
    return [
        dc_replace(problem, demand=problem.demand[t : t + 1], x_initial=zero)
        for t in range(problem.horizon)
    ]


def _operating_cost(sub: JointProblem, x_t: FloatArray) -> tuple[float, FloatArray]:
    y = solve_y_given_x(sub, x_t[None]).y
    return sub.cost(x_t[None], y).operating, y


def _switch_delta(
    problem: JointProblem,
    x: FloatArray,
    t: int,
    n: int,
    new_row: FloatArray,
) -> float:
    """Switching-cost change of replacing ``x[t, n]`` by ``new_row``."""
    beta = float(problem.network.replacement_costs[n])
    prev = problem.x_initial[n] if t == 0 else x[t - 1, n]
    old_row = x[t, n]
    delta = beta * float(
        np.clip(new_row - prev, 0, None).sum() - np.clip(old_row - prev, 0, None).sum()
    )
    if t + 1 < x.shape[0]:
        nxt = x[t + 1, n]
        delta += beta * float(
            np.clip(nxt - new_row, 0, None).sum() - np.clip(nxt - old_row, 0, None).sum()
        )
    return delta


def _cell_moves(
    row: FloatArray, cap: int
) -> list[tuple[int | None, int | None]]:
    cached = np.flatnonzero(row > 0.5)
    empty = np.flatnonzero(row < 0.5)
    moves: list[tuple[int | None, int | None]] = []
    if len(cached) < cap:
        moves.extend((None, int(k_in)) for k_in in empty)
    moves.extend((int(k_out), int(k_in)) for k_out in cached for k_in in empty)
    moves.extend((int(k_out), None) for k_out in cached)
    return moves


def _candidate_blocks(
    sub: JointProblem,
    n: int,
    new_rows: FloatArray,
) -> FloatArray:
    """Oracle ``y`` blocks of SBS ``n`` for a stack of candidate cache rows.

    ``new_rows`` has shape ``(V, K)``; returns ``(V, J)`` with ``J`` the
    flattened (class, item) coordinates of SBS ``n`` — each row bitwise
    equal to what :func:`solve_y_given_x` computes for that cache row on
    the fast path (``mu = 0`` makes every row a single greedy fill).
    """
    net = sub.network
    K = net.num_items
    classes = net.classes_of_sbs[n]
    C = len(classes)
    V = new_rows.shape[0]
    lam_row = sub.demand[:, classes, :].reshape(1, -1)[0]  # (J,)
    omega = np.repeat(net.omega_bs[classes], K)
    per_class_caps = np.broadcast_to(new_rows[:, None, :], (V, C, K)).reshape(V, -1)
    caps_b = lam_row[None, :] * per_class_caps
    lam_b = np.broadcast_to(lam_row, (V, lam_row.size))
    om_b = np.broadcast_to(omega, (V, omega.size))
    W_val = float(lam_row @ omega)
    alloc_b, _ = waterfill_batch(
        np.ascontiguousarray(lam_b),
        caps_b,
        np.ascontiguousarray(om_b),
        np.zeros((V, lam_row.size)),
        np.full(V, W_val),
        np.full(V, float(net.bandwidths[n])),
        sub.bs_cost.scale,  # type: ignore[union-attr]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam_b > 0, alloc_b / lam_b, 0.0)


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
    T = problem.horizon
    K = net.num_items
    batched = _uses_fast_path(problem)
    slots = _slot_problems(problem)
    slot_y: list[FloatArray] = []
    slot_cost = np.zeros(T)
    for t in range(T):
        slot_cost[t], y_t = _operating_cost(slots[t], x[t])
        slot_y.append(y_t)

    for _ in range(max_passes):
        improved = False
        for t in range(T):
            for n in range(net.num_sbs):
                cap = int(net.cache_sizes[n])
                if cap == 0:
                    continue
                row = x[t, n]
                moves = _cell_moves(row, cap)
                if not moves:
                    continue
                if batched:
                    new_rows = np.tile(row, (len(moves), 1))
                    for v, (k_out, k_in) in enumerate(moves):
                        if k_out is not None:
                            new_rows[v, k_out] = 0.0
                        if k_in is not None:
                            new_rows[v, k_in] = 1.0
                    blocks = _candidate_blocks(slots[t], n, new_rows)
                    classes = net.classes_of_sbs[n]
                    sub = slots[t]
                    for v, (k_out, k_in) in enumerate(moves):
                        y_move = slot_y[t].copy()
                        y_move[:, classes, :] = blocks[v].reshape(
                            1, len(classes), K
                        )
                        new_op = bs_operating_cost(
                            net, sub.demand[0], y_move[0], sub.bs_cost
                        ) + sbs_operating_cost(
                            net, sub.demand[0], y_move[0], sub.sbs_cost
                        )
                        delta = (new_op - slot_cost[t]) + _switch_delta(
                            problem, x, t, n, new_rows[v]
                        )
                        if delta < -tol:
                            # First improvement per cell, in the order the
                            # per-move loop below scans them.
                            x[t, n] = new_rows[v]
                            slot_cost[t] = new_op
                            slot_y[t] = y_move
                            improved = True
                            break
                    continue
                for k_out, k_in in moves:
                    new_row = row.copy()
                    if k_out is not None:
                        new_row[k_out] = 0.0
                    if k_in is not None:
                        new_row[k_in] = 1.0
                    x_t = x[t].copy()
                    x_t[n] = new_row
                    new_op, y_new = _operating_cost(slots[t], x_t)
                    delta = (new_op - slot_cost[t]) + _switch_delta(
                        problem, x, t, n, new_row
                    )
                    if delta < -tol:
                        # First improvement per cell: apply and move on (the
                        # remaining candidate moves were built for the old
                        # row and are no longer valid).
                        x[t, n] = new_row
                        slot_cost[t] = new_op
                        slot_y[t] = y_new
                        improved = True
                        break
        if not improved:
            break

    y = solve_y_given_x(problem, x).y
    return x, y, problem.cost(x, y)
