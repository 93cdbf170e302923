"""Whole-network container with vectorized parameter views.

:class:`Network` validates the wiring between SBSs and MU classes and
exposes numpy views of the scalar parameters so that the optimization code
can stay fully vectorized. Class indices are global (``0..M-1``); the
mapping from classes to their SBS is available both as an index vector and
as per-SBS index lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.content import ContentCatalog
from repro.network.stations import BaseStation, SmallBaseStation
from repro.network.users import MUClass
from repro.types import FloatArray, IntArray


@dataclass(frozen=True)
class Network:
    """One BS, ``N`` SBSs, and ``M`` MU classes over a catalog of ``K`` items.

    Parameters
    ----------
    catalog:
        The content catalog offered by the BS.
    sbss:
        SBSs, whose ``sbs_id`` must equal their position (``0..N-1``).
    mu_classes:
        MU classes, whose ``class_id`` must equal their position
        (``0..M-1``), each attached to an existing SBS.
    bs:
        The macro base station (uncapacitated).
    """

    catalog: ContentCatalog
    sbss: tuple[SmallBaseStation, ...]
    mu_classes: tuple[MUClass, ...]
    bs: BaseStation = field(default_factory=BaseStation)

    def __post_init__(self) -> None:
        if not self.sbss:
            raise ConfigurationError("network needs at least one SBS")
        if not self.mu_classes:
            raise ConfigurationError("network needs at least one MU class")
        for pos, sbs in enumerate(self.sbss):
            if sbs.sbs_id != pos:
                raise ConfigurationError(
                    f"SBS at position {pos} has sbs_id {sbs.sbs_id}; ids must be 0..N-1 in order"
                )
        for pos, mu in enumerate(self.mu_classes):
            if mu.class_id != pos:
                raise ConfigurationError(
                    f"MU class at position {pos} has class_id {mu.class_id}; "
                    "ids must be 0..M-1 in order"
                )
            if mu.sbs_id >= len(self.sbss):
                raise ConfigurationError(
                    f"MU class {mu.class_id} references SBS {mu.sbs_id}, "
                    f"but only {len(self.sbss)} SBSs exist"
                )
        for sbs in self.sbss:
            if sbs.cache_size > self.catalog.num_items:
                raise ConfigurationError(
                    f"{sbs.name} cache_size {sbs.cache_size} exceeds catalog size "
                    f"{self.catalog.num_items}"
                )

    # ------------------------------------------------------------------ sizes

    @property
    def num_sbs(self) -> int:
        """``N`` — number of small base stations."""
        return len(self.sbss)

    @property
    def num_classes(self) -> int:
        """``M`` — total number of MU classes across all SBSs."""
        return len(self.mu_classes)

    @property
    def num_items(self) -> int:
        """``K`` — catalog size."""
        return self.catalog.num_items

    # ------------------------------------------------------- vectorized views

    @cached_property
    def omega_bs(self) -> FloatArray:
        """Per-class BS transmission weights, shape ``(M,)``."""
        return np.array([mu.omega_bs for mu in self.mu_classes], dtype=np.float64)

    @cached_property
    def omega_sbs(self) -> FloatArray:
        """Per-class SBS transmission weights, shape ``(M,)``."""
        return np.array([mu.omega_sbs for mu in self.mu_classes], dtype=np.float64)

    @cached_property
    def class_sbs(self) -> IntArray:
        """For each MU class, the index of its SBS; shape ``(M,)``."""
        return np.array([mu.sbs_id for mu in self.mu_classes], dtype=np.int64)

    @cached_property
    def cache_sizes(self) -> IntArray:
        """Per-SBS cache capacities ``C_n``, shape ``(N,)``."""
        return np.array([sbs.cache_size for sbs in self.sbss], dtype=np.int64)

    @cached_property
    def bandwidths(self) -> FloatArray:
        """Per-SBS bandwidth capacities ``B_n``, shape ``(N,)``."""
        return np.array([sbs.bandwidth for sbs in self.sbss], dtype=np.float64)

    @cached_property
    def replacement_costs(self) -> FloatArray:
        """Per-SBS replacement costs ``beta_n``, shape ``(N,)``."""
        return np.array([sbs.replacement_cost for sbs in self.sbss], dtype=np.float64)

    @cached_property
    def classes_of_sbs(self) -> tuple[IntArray, ...]:
        """For each SBS ``n``, the (sorted) global indices of its MU classes."""
        buckets: list[list[int]] = [[] for _ in range(self.num_sbs)]
        for mu in self.mu_classes:
            buckets[mu.sbs_id].append(mu.class_id)
        return tuple(np.array(b, dtype=np.int64) for b in buckets)

    @cached_property
    def class_slots(self) -> IntArray:
        """``classes_of_sbs`` as one ``(N, C)`` array padded with ``-1``."""
        slots = np.full((self.num_sbs, max(map(len, self.classes_of_sbs))), -1)
        for n, members in enumerate(self.classes_of_sbs):
            slots[n, : len(members)] = members
        return slots

    # ----------------------------------------------------------- construction

    def classes_served_by(self, sbs_id: int) -> tuple[MUClass, ...]:
        """The MU classes attached to SBS ``sbs_id``."""
        if not 0 <= sbs_id < self.num_sbs:
            raise ConfigurationError(f"no SBS with id {sbs_id}")
        return tuple(self.mu_classes[i] for i in self.classes_of_sbs[sbs_id])

    def with_bandwidths(self, bandwidths: Sequence[float] | float) -> "Network":
        """Return a copy of this network with the SBS bandwidths replaced.

        Used by parameter sweeps (Fig. 4). A scalar applies to every SBS.
        """
        values = self._broadcast_per_sbs(bandwidths, "bandwidths")
        sbss = tuple(
            SmallBaseStation(s.sbs_id, s.cache_size, float(b), s.replacement_cost)
            for s, b in zip(self.sbss, values)
        )
        return Network(self.catalog, sbss, self.mu_classes, self.bs)

    def with_replacement_costs(self, betas: Sequence[float] | float) -> "Network":
        """Return a copy of this network with the per-SBS ``beta_n`` replaced.

        Used by parameter sweeps (Fig. 2). A scalar applies to every SBS.
        """
        values = self._broadcast_per_sbs(betas, "replacement costs")
        sbss = tuple(
            SmallBaseStation(s.sbs_id, s.cache_size, s.bandwidth, float(b))
            for s, b in zip(self.sbss, values)
        )
        return Network(self.catalog, sbss, self.mu_classes, self.bs)

    def with_cache_sizes(self, sizes: Sequence[int] | int) -> "Network":
        """Return a copy of this network with the per-SBS cache sizes replaced."""
        values = self._broadcast_per_sbs(sizes, "cache sizes")
        sbss = tuple(
            SmallBaseStation(s.sbs_id, int(c), s.bandwidth, s.replacement_cost)
            for s, c in zip(self.sbss, values)
        )
        return Network(self.catalog, sbss, self.mu_classes, self.bs)

    def _broadcast_per_sbs(
        self, values: Sequence[float] | float, what: str
    ) -> list[float]:
        if np.isscalar(values):
            return [float(values)] * self.num_sbs  # type: ignore[arg-type]
        out = [float(v) for v in values]  # type: ignore[union-attr]
        if len(out) != self.num_sbs:
            raise ConfigurationError(
                f"got {len(out)} {what} for {self.num_sbs} SBSs"
            )
        return out


def single_cell_network(
    *,
    num_items: int,
    cache_size: int,
    bandwidth: float,
    replacement_cost: float,
    omega_bs: Iterable[float],
    omega_sbs: Iterable[float] | float = 0.0,
) -> Network:
    """Build the paper's single-SBS evaluation network (Section V-B).

    Parameters mirror :class:`SmallBaseStation`; ``omega_bs`` supplies one BS
    weight per MU class and ``omega_sbs`` either one SBS weight per class or
    a scalar applied to all classes (the paper uses 0).
    """
    omegas = [float(w) for w in omega_bs]
    if np.isscalar(omega_sbs):
        omega_hats = [float(omega_sbs)] * len(omegas)  # type: ignore[arg-type]
    else:
        omega_hats = [float(w) for w in omega_sbs]  # type: ignore[union-attr]
    if len(omega_hats) != len(omegas):
        raise ConfigurationError(
            f"got {len(omegas)} BS weights but {len(omega_hats)} SBS weights"
        )
    catalog = ContentCatalog(num_items)
    sbs = SmallBaseStation(0, cache_size, bandwidth, replacement_cost)
    classes = tuple(
        MUClass(i, 0, w, wh) for i, (w, wh) in enumerate(zip(omegas, omega_hats))
    )
    return Network(catalog, (sbs,), classes)
