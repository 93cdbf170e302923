"""General-form linear programming on the in-house simplex.

:func:`solve_lp` accepts ``min c.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq,
lo <= x <= hi``, adds one slack per inequality row and hands the
equality-form problem to the bounded-variable primal simplex of
:mod:`repro.optim.simplex`, the method the paper names. The test suite
checks it against an independent HiGHS oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, UnboundedProblemError
from repro.optim.simplex import solve_simplex
from repro.types import FloatArray


@dataclass(frozen=True)
class LPResult:
    """Solution of a linear program.

    Attributes
    ----------
    x:
        Optimal primal point (original variables only; no slacks).
    objective:
        Optimal value.
    """

    x: FloatArray
    objective: float


def solve_lp(
    c: FloatArray,
    *,
    A_ub: FloatArray | None = None,
    b_ub: FloatArray | None = None,
    A_eq: FloatArray | None = None,
    b_eq: FloatArray | None = None,
    lo: FloatArray | float = 0.0,
    hi: FloatArray | float = np.inf,
) -> LPResult:
    """Solve ``min c.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, lo <= x <= hi``."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (n,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (n,)).copy()
    rows_eq = 0 if A_eq is None else np.asarray(A_eq).shape[0]
    rows_ub = 0 if A_ub is None else np.asarray(A_ub).shape[0]

    blocks = []
    rhs_parts = []
    if rows_eq:
        A_eq_arr = np.asarray(A_eq, dtype=np.float64)
        if A_eq_arr.shape[1] != n:
            raise ConfigurationError("A_eq column count does not match c")
        blocks.append(np.hstack([A_eq_arr, np.zeros((rows_eq, rows_ub))]))
        rhs_parts.append(np.asarray(b_eq, dtype=np.float64))
    if rows_ub:
        A_ub_arr = np.asarray(A_ub, dtype=np.float64)
        if A_ub_arr.shape[1] != n:
            raise ConfigurationError("A_ub column count does not match c")
        blocks.append(np.hstack([A_ub_arr, np.eye(rows_ub)]))
        rhs_parts.append(np.asarray(b_ub, dtype=np.float64))
    if not blocks:
        # Pure box problem: each variable independently at its cheaper bound.
        x = np.where(c >= 0, lo, hi)
        if np.any(~np.isfinite(x)):
            raise UnboundedProblemError("box LP unbounded (negative cost, infinite bound)")
        return LPResult(x=x, objective=float(c @ x))

    A_full = np.vstack(blocks)
    b_full = np.concatenate(rhs_parts)
    c_full = np.concatenate([c, np.zeros(rows_ub)])
    lo_full = np.concatenate([lo, np.zeros(rows_ub)])
    hi_full = np.concatenate([hi, np.full(rows_ub, np.inf)])

    result = solve_simplex(c_full, A_full, b_full, lo_full, hi_full)
    return LPResult(x=result.x[:n], objective=result.objective)
