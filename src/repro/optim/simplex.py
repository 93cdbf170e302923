"""Bounded-variable primal simplex method, from scratch.

Solves linear programs in the computational form

    min  c . x    s.t.  A x = b,   lo <= x <= hi,

with possibly infinite upper bounds. This is the solver the paper names for
the caching subproblem ``P1`` ("simplex method is applied in this paper",
Section III-B); :mod:`repro.optim.linprog` wraps it for problems with
inequality rows.

Implementation notes
--------------------
- Two-phase method: phase 1 drives artificial variables (one per row) to
  zero; phase 2 optimizes the true objective with artificials fixed at 0.
- Bounded-variable pivoting: nonbasic variables rest at a finite bound and
  a pivot may be a *bound flip* (the entering variable travels from one of
  its bounds to the other without a basis change).
- Dantzig pricing with an automatic switch to Bland's rule after a stall,
  which guarantees termination in the presence of degeneracy.
- The basis system is re-solved densely each iteration; problem sizes in
  this library (hundreds to a few thousand variables) keep this fast and
  numerically transparent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    InfeasibleProblemError,
    SolverError,
    UnboundedProblemError,
)
from repro.types import FloatArray

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_FEAS_TOL = 1e-8
_OPT_TOL = 1e-9
_PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class SimplexResult:
    """Solution of a bounded-variable LP.

    Attributes
    ----------
    x:
        Optimal primal point.
    objective:
        Optimal value ``c . x``.
    iterations:
        Total simplex pivots across both phases.
    dual:
        Row duals ``y`` (Lagrange multipliers of ``A x = b``) at optimality.
    """

    x: FloatArray
    objective: float
    iterations: int
    dual: FloatArray


class _Tableau:
    """Mutable state of one simplex run (one phase)."""

    def __init__(
        self,
        A: FloatArray,
        b: FloatArray,
        c: FloatArray,
        lo: FloatArray,
        hi: FloatArray,
        basis: list[int],
        status: np.ndarray,
        values: FloatArray,
    ) -> None:
        self.A = A
        self.b = b
        self.c = c
        self.lo = lo
        self.hi = hi
        self.basis = basis
        self.status = status
        self.values = values
        self.iterations = 0
        self.duals = np.zeros(A.shape[0])

    def _refresh_basics(self) -> None:
        """Recompute basic values from the nonbasic rest points."""
        m, _ = self.A.shape
        nonbasic_mask = self.status != _BASIC
        rhs = self.b - self.A[:, nonbasic_mask] @ self.values[nonbasic_mask]
        B = self.A[:, self.basis]
        try:
            xb = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivots
            raise SolverError("singular basis matrix") from exc
        self.values[self.basis] = xb

    def run(self, *, max_iter: int) -> None:
        m, n = self.A.shape
        stall = 0
        last_obj = np.inf
        for _ in range(max_iter):
            self._refresh_basics()
            B = self.A[:, self.basis]
            y = np.linalg.solve(B.T, self.c[self.basis])
            self.duals = y
            reduced = self.c - self.A.T @ y

            obj = float(self.c @ self.values)
            if obj < last_obj - 1e-12 * max(1.0, abs(last_obj)):
                stall = 0
            else:
                stall += 1
            last_obj = obj
            use_bland = stall > 2 * (m + n)

            entering, direction = self._pick_entering(reduced, use_bland)
            if entering is None:
                return
            self._pivot(entering, direction)
            self.iterations += 1
        raise SolverError(f"simplex exceeded {max_iter} iterations")

    def _pick_entering(
        self, reduced: FloatArray, use_bland: bool
    ) -> tuple[int | None, float]:
        best_j: int | None = None
        best_score = _OPT_TOL
        best_dir = 0.0
        for j in range(self.A.shape[1]):
            s = self.status[j]
            if s == _BASIC:
                continue
            d = reduced[j]
            if s == _AT_LOWER and d < -_OPT_TOL and self.hi[j] > self.lo[j]:
                score = -d
                direction = 1.0
            elif s == _AT_UPPER and d > _OPT_TOL and self.hi[j] > self.lo[j]:
                score = d
                direction = -1.0
            else:
                continue
            if use_bland:
                return j, direction
            if score > best_score:
                best_score = score
                best_j = j
                best_dir = direction
        return best_j, best_dir

    def _pivot(self, j: int, direction: float) -> None:
        B = self.A[:, self.basis]
        d = np.linalg.solve(B, self.A[:, j])
        # Entering variable moves by ``direction * t``; basic variable i
        # moves by ``-direction * t * d[i]``.
        t_max = self.hi[j] - self.lo[j]
        leaving: int | None = None
        leaving_to_upper = False
        for i, var in enumerate(self.basis):
            delta = -direction * d[i]
            if delta > _PIVOT_TOL:
                room = self.hi[var] - self.values[var]
                limit = room / delta
                if limit < t_max - 1e-12:
                    t_max, leaving, leaving_to_upper = limit, i, True
            elif delta < -_PIVOT_TOL:
                room = self.values[var] - self.lo[var]
                limit = room / (-delta)
                if limit < t_max - 1e-12:
                    t_max, leaving, leaving_to_upper = limit, i, False
        if not np.isfinite(t_max):
            raise UnboundedProblemError("LP is unbounded below")
        t_max = max(t_max, 0.0)

        # Apply the move.
        self.values[j] += direction * t_max
        for i, var in enumerate(self.basis):
            self.values[var] -= direction * t_max * d[i]

        if leaving is None:
            # Bound flip: entering variable reached its opposite bound.
            self.status[j] = _AT_UPPER if direction > 0 else _AT_LOWER
            self.values[j] = self.hi[j] if direction > 0 else self.lo[j]
            return

        out_var = self.basis[leaving]
        self.status[out_var] = _AT_UPPER if leaving_to_upper else _AT_LOWER
        self.values[out_var] = self.hi[out_var] if leaving_to_upper else self.lo[out_var]
        self.basis[leaving] = j
        self.status[j] = _BASIC


def solve_simplex(
    c: FloatArray,
    A_eq: FloatArray,
    b_eq: FloatArray,
    lo: FloatArray,
    hi: FloatArray,
    *,
    max_iter: int = 50_000,
) -> SimplexResult:
    """Solve ``min c.x  s.t.  A_eq x = b_eq, lo <= x <= hi``.

    Raises
    ------
    InfeasibleProblemError
        When phase 1 cannot drive the artificials to zero.
    UnboundedProblemError
        When the objective is unbounded over the feasible set.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A_eq, dtype=np.float64)
    b = np.asarray(b_eq, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,) or lo.shape != (n,) or hi.shape != (n,):
        raise ConfigurationError("inconsistent LP dimensions")
    if np.any(lo > hi + 1e-12):
        raise InfeasibleProblemError("some variable has lo > hi")
    if not np.all(np.isfinite(lo)):
        raise ConfigurationError("this solver requires finite lower bounds")

    # Rest nonbasic variables at their (finite) lower bound.
    rest = lo.copy()
    residual = b - A @ rest

    # Artificial columns: +/-1 so artificial values start non-negative.
    art_sign = np.where(residual >= 0, 1.0, -1.0)
    A1 = np.hstack([A, np.diag(art_sign)])
    lo1 = np.concatenate([lo, np.zeros(m)])
    hi1 = np.concatenate([hi, np.full(m, np.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    values = np.concatenate([rest, np.abs(residual)])
    status = np.concatenate(
        [np.full(n, _AT_LOWER, dtype=np.int8), np.full(m, _BASIC, dtype=np.int8)]
    )
    basis = list(range(n, n + m))

    phase1 = _Tableau(A1, b, c1, lo1, hi1, basis, status, values)
    phase1.run(max_iter=max_iter)
    infeas = float(c1 @ phase1.values)
    if infeas > _FEAS_TOL * max(1.0, float(np.abs(b).sum())):
        raise InfeasibleProblemError(f"LP infeasible (phase-1 residual {infeas:.3e})")

    # Pin artificials to zero for phase 2 (keeps redundant-row artificials
    # harmlessly in the basis at value 0).
    hi1 = np.concatenate([hi, np.zeros(m)])
    phase1.values[n:] = np.clip(phase1.values[n:], 0.0, 0.0)
    c2 = np.concatenate([c, np.zeros(m)])
    phase2 = _Tableau(
        A1, b, c2, lo1, hi1, phase1.basis, phase1.status, phase1.values
    )
    phase2.run(max_iter=max_iter)

    x = phase2.values[:n].copy()
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        iterations=phase1.iterations + phase2.iterations,
        dual=phase2.duals.copy(),
    )
