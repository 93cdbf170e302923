"""The joint caching + load-balancing problem over a (window of a) horizon.

:class:`JointProblem` bundles everything Eq. 9 needs: the network, the
demand over the slots being optimized, the cache state entering the first
slot, and the operating-cost shapes. It provides cost evaluation and
feasibility checking used by every algorithm in the library, so all
policies are scored by exactly the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.network.costs import (
    CostBreakdown,
    OperatingCost,
    QuadraticOperatingCost,
    total_cost,
)
from repro.network.topology import Network
from repro.types import FloatArray, INTEGRALITY_ATOL, is_binary


@dataclass(frozen=True)
class JointProblem:
    """One instance of the paper's optimization (Eq. 9) over ``T`` slots.

    Parameters
    ----------
    network:
        The 5G network (SBS capacities, bandwidths, weights, betas).
    demand:
        Mean arrival rates for the slots being optimized, shape ``(T, M, K)``.
        For online controllers this is a *predicted* window.
    x_initial:
        Cache state entering slot 0, shape ``(N, K)``; the replacement cost
        of slot 0 is charged against it. Defaults to empty caches.
    bs_cost, sbs_cost:
        Operating-cost shapes (default: the paper's quadratics, Eqs. 5-6).
    """

    network: Network
    demand: FloatArray
    x_initial: FloatArray = field(default=None)  # type: ignore[assignment]
    bs_cost: OperatingCost = field(default_factory=QuadraticOperatingCost)
    sbs_cost: OperatingCost = field(default_factory=QuadraticOperatingCost)

    def __post_init__(self) -> None:
        demand = np.ascontiguousarray(self.demand, dtype=np.float64)
        if demand.ndim != 3:
            raise DimensionMismatchError(
                f"demand must have shape (T, M, K), got {demand.shape}"
            )
        expected = (self.network.num_classes, self.network.num_items)
        if demand.shape[1:] != expected:
            raise DimensionMismatchError(
                f"demand slots have shape {demand.shape[1:]}, expected (M, K) = {expected}"
            )
        if not np.isfinite(demand).all():
            raise ConfigurationError("demand must be finite (no NaN or inf)")
        if np.any(demand < 0):
            raise ConfigurationError("demand must be non-negative")
        object.__setattr__(self, "demand", demand)

        if self.x_initial is None:
            x0 = np.zeros((self.network.num_sbs, self.network.num_items))
        else:
            x0 = np.ascontiguousarray(self.x_initial, dtype=np.float64)
            if x0.shape != (self.network.num_sbs, self.network.num_items):
                raise DimensionMismatchError(
                    f"x_initial has shape {x0.shape}, expected (N, K)"
                )
            if not is_binary(x0):
                raise ConfigurationError("x_initial must be a 0/1 matrix")
        object.__setattr__(self, "x_initial", x0)

    # --------------------------------------------------------------- shapes

    @property
    def horizon(self) -> int:
        return self.demand.shape[0]

    @property
    def x_shape(self) -> tuple[int, int, int]:
        """Shape of a caching trajectory: ``(T, N, K)``."""
        return (self.horizon, self.network.num_sbs, self.network.num_items)

    @property
    def y_shape(self) -> tuple[int, int, int]:
        """Shape of a load-balancing trajectory: ``(T, M, K)``."""
        return (self.horizon, self.network.num_classes, self.network.num_items)

    # ----------------------------------------------------------- evaluation

    def cost(self, x: FloatArray, y: FloatArray) -> CostBreakdown:
        """Itemized objective value of a trajectory (Eq. 9)."""
        return total_cost(
            self.network,
            self.demand,
            x,
            y,
            x_initial=self.x_initial,
            bs_cost=self.bs_cost,
            sbs_cost=self.sbs_cost,
        )

    def check_feasible(
        self,
        x: FloatArray,
        y: FloatArray,
        *,
        atol: float = 1e-6,
        require_integral_x: bool = True,
    ) -> None:
        """Raise :class:`ConfigurationError` if ``(x, y)`` violates any constraint.

        Checks constraints (1), (2), (3), (10), (11) of the paper.
        """
        if x.shape != self.x_shape:
            raise DimensionMismatchError(f"x shape {x.shape} != {self.x_shape}")
        if y.shape != self.y_shape:
            raise DimensionMismatchError(f"y shape {y.shape} != {self.y_shape}")
        if require_integral_x and not is_binary(x, atol=max(atol, INTEGRALITY_ATOL)):
            raise ConfigurationError("x is not integral")
        if np.any(x < -atol) or np.any(x > 1 + atol):
            raise ConfigurationError("x outside [0, 1]")
        if np.any(y < -atol) or np.any(y > 1 + atol):
            raise ConfigurationError("y outside [0, 1]")
        caps = self.network.cache_sizes
        used = x.sum(axis=2)
        if np.any(used > caps[None, :] + atol):
            worst = float((used - caps[None, :]).max())
            raise ConfigurationError(f"cache capacity exceeded by {worst:.3g}")
        # Constraint (3): y[m, k] <= x[sbs(m), k].
        x_of_class = x[:, self.network.class_sbs, :]
        if np.any(y > x_of_class + atol):
            raise ConfigurationError("coupling constraint y <= x violated")
        # Constraint (2): per-SBS bandwidth.
        load = (self.demand * y).sum(axis=2)  # (T, M)
        per_sbs = np.zeros((self.horizon, self.network.num_sbs))
        np.add.at(per_sbs, (slice(None), self.network.class_sbs), load)
        tol = atol * np.maximum(1.0, self.network.bandwidths)
        if np.any(per_sbs > self.network.bandwidths[None, :] + tol[None, :]):
            worst = float((per_sbs - self.network.bandwidths[None, :]).max())
            raise ConfigurationError(f"bandwidth exceeded by {worst:.3g}")

    # ------------------------------------------------------------ windowing

    def window(self, start: int, length: int, x_initial: FloatArray) -> "JointProblem":
        """Sub-problem over slots ``start..start+length-1`` with a new initial cache.

        Slots past the end of the demand are zero-padded, matching the
        paper's convention ``Lambda^t = 0`` for ``t > T``.
        """
        if length <= 0:
            raise ConfigurationError(f"window length must be positive, got {length}")
        T = self.horizon
        padded = np.zeros((length, *self.demand.shape[1:]))
        lo = max(start, 0)
        hi = min(start + length, T)
        if lo < hi:
            padded[lo - start : hi - start] = self.demand[lo:hi]
        return replace(self, demand=padded, x_initial=x_initial)
