"""Mobile-user classes.

The paper aggregates MUs into classes ``m_n`` attached to a single SBS
``n``; a class is described by two weighted transmission parameters:

- ``omega_bs`` (the paper's ``omega_{m_n}``): the per-unit-load weight of
  serving this class from the macro BS, capturing distance/channel quality
  to the BS (Section II-B). Drawn ``U[0, 1]`` in the paper's simulations,
  interpreted as distance to the BS normalized by the cell radius.
- ``omega_sbs`` (the paper's ``omega-hat_{m_n}``): the analogous weight for
  serving from the local SBS. Much smaller than ``omega_bs`` since SBSs sit
  at the edge; the paper's simulations use 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class MUClass:
    """A class of mobile users attached to one SBS.

    Parameters
    ----------
    class_id:
        Global index of this class within the network (``0..M-1``).
    sbs_id:
        Index of the SBS serving this class.
    omega_bs:
        Weighted transmission parameter to the BS (``omega_{m_n} >= 0``).
    omega_sbs:
        Weighted transmission parameter to the SBS (``omega-hat_{m_n} >= 0``).
    """

    class_id: int
    sbs_id: int
    omega_bs: float
    omega_sbs: float = 0.0

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ConfigurationError(f"class_id must be >= 0, got {self.class_id}")
        if self.sbs_id < 0:
            raise ConfigurationError(f"sbs_id must be >= 0, got {self.sbs_id}")
        # Range tests written so NaN fails them too; an infinite weight
        # would make every cost inf and the dual bound NaN.
        if not 0 <= self.omega_bs < math.inf:
            raise ConfigurationError(
                f"omega_bs must be finite and >= 0, got {self.omega_bs}"
            )
        if not 0 <= self.omega_sbs < math.inf:
            raise ConfigurationError(
                f"omega_sbs must be finite and >= 0, got {self.omega_sbs}"
            )

    @property
    def name(self) -> str:
        return f"MU-{self.class_id}@SBS-{self.sbs_id}"
