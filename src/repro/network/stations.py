"""Base station and small base station models.

An SBS (micro/pico/femto cell) is characterized by:

- a cache of ``cache_size`` unit-size items (constraint (1) of the paper),
- a downlink ``bandwidth`` capacity in items per slot (constraint (2)),
- a per-item cache ``replacement_cost`` ``beta_n`` (Eq. 7).

The macro BS is assumed uncapacitated: any request not served by an SBS is
served by the BS (constraint (4)), at the operating cost modeled in
:mod:`repro.network.costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class BaseStation:
    """The macro base station.

    The BS stores the whole catalog and has unbounded serving capacity; its
    cost of serving appears only through the operating-cost function
    ``f_t``. ``name`` exists for reporting in multi-cell scenarios.
    """

    name: str = "BS"


@dataclass(frozen=True)
class SmallBaseStation:
    """A small base station ``n`` with finite cache and bandwidth.

    Parameters
    ----------
    sbs_id:
        Index of this SBS within the network (``0..N-1``).
    cache_size:
        ``C_n`` — maximum number of unit-size items cached simultaneously.
    bandwidth:
        ``B_n`` — maximum total demand volume served per slot,
        ``sum_{m,k} lambda[m,k] * y[m,k] <= B_n``.
    replacement_cost:
        ``beta_n`` — cost of fetching one new item into the cache
        (Eq. 7). Covers energy, update delay, and backhaul usage.
    """

    sbs_id: int
    cache_size: int
    bandwidth: float
    replacement_cost: float

    def __post_init__(self) -> None:
        if self.sbs_id < 0:
            raise ConfigurationError(f"sbs_id must be >= 0, got {self.sbs_id}")
        if int(self.cache_size) != self.cache_size or self.cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be a non-negative integer, got {self.cache_size}"
            )
        # Written as negated ``>=`` tests so NaN fails them; an infinite
        # bandwidth stays legal (an uncapacitated SBS link).
        if not self.bandwidth >= 0:
            raise ConfigurationError(f"bandwidth must be >= 0, got {self.bandwidth}")
        if not 0 <= self.replacement_cost < math.inf:
            raise ConfigurationError(
                "replacement_cost must be finite and >= 0, "
                f"got {self.replacement_cost}"
            )

    @property
    def name(self) -> str:
        return f"SBS-{self.sbs_id}"
