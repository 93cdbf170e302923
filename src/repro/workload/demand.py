"""Demand matrices and workload generators.

The central object is :class:`DemandMatrix`, a validated wrapper around the
``(T, M, K)`` array of mean arrival rates ``lambda[t, m, k]`` (paper
notation ``lambda^t_{m_n, k}``). The paper's evaluation workload
(:func:`paper_demand`) draws a per-class request density uniformly from
``[0, 100]`` and spreads it over contents with the Zipf-Mandelbrot pmf;
additional generators provide richer temporal dynamics (diurnal load,
drifting popularity, flash crowds) for examples and stress tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.types import FloatArray, as_float_array
from repro.workload.zipf import DEFAULT_ALPHA, DEFAULT_SHIFT, zipf_mandelbrot_pmf


@dataclass(frozen=True)
class DemandMatrix:
    """Mean request arrival rates over a horizon, shape ``(T, M, K)``.

    The paper's convention ``Lambda^t = 0`` for ``t <= 0`` and ``t > T``
    is implemented by :meth:`slot` and :meth:`window`, which zero-pad
    outside the horizon so receding-horizon controllers can look past the
    end of the trace without special-casing.
    """

    rates: FloatArray

    def __post_init__(self) -> None:
        rates = as_float_array(self.rates, name="demand rates")
        if rates.ndim != 3:
            raise DimensionMismatchError(
                f"demand must have shape (T, M, K), got {rates.shape}"
            )
        if np.any(rates < 0):
            raise ConfigurationError("demand rates must be non-negative")
        object.__setattr__(self, "rates", rates)

    @property
    def horizon(self) -> int:
        """Number of timeslots ``T``."""
        return self.rates.shape[0]

    @property
    def num_classes(self) -> int:
        return self.rates.shape[1]

    @property
    def num_items(self) -> int:
        return self.rates.shape[2]

    def slot(self, t: int) -> FloatArray:
        """Demand of slot ``t``; zero outside ``0..T-1``."""
        if 0 <= t < self.horizon:
            return self.rates[t]
        return np.zeros(self.rates.shape[1:], dtype=np.float64)

    def window(self, start: int, length: int) -> FloatArray:
        """Demand for slots ``start..start+length-1``, zero-padded, shape ``(length, M, K)``."""
        if length < 0:
            raise ConfigurationError(f"window length must be >= 0, got {length}")
        out = np.zeros((length, *self.rates.shape[1:]), dtype=np.float64)
        lo = max(start, 0)
        hi = min(start + length, self.horizon)
        if lo < hi:
            out[lo - start : hi - start] = self.rates[lo:hi]
        return out

    def total_volume(self) -> float:
        """Total request volume over the horizon."""
        return float(self.rates.sum())

    def popularity(self) -> FloatArray:
        """Aggregate per-item demand share over the whole trace, shape ``(K,)``."""
        per_item = self.rates.sum(axis=(0, 1))
        total = per_item.sum()
        if total == 0:
            return np.full(self.num_items, 1.0 / self.num_items)
        return per_item / total


def _validated_sizes(horizon: int, num_classes: int, num_items: int) -> None:
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if num_classes <= 0:
        raise ConfigurationError(f"num_classes must be positive, got {num_classes}")
    if num_items <= 0:
        raise ConfigurationError(f"num_items must be positive, got {num_items}")


def _validated_density_range(
    density_range: tuple[float, float],
) -> tuple[float, float]:
    """The ``(lo, hi)`` of a density range: finite with ``0 <= lo <= hi``."""
    lo, hi = density_range
    if not (np.isfinite(lo) and np.isfinite(hi) and 0 <= lo <= hi):
        raise ConfigurationError(
            f"density_range must be finite with 0 <= lo <= hi, got {density_range}"
        )
    return float(lo), float(hi)


def paper_demand(
    horizon: int,
    num_classes: int,
    num_items: int,
    *,
    rng: np.random.Generator,
    alpha: float = DEFAULT_ALPHA,
    shift: float = DEFAULT_SHIFT,
    density_range: tuple[float, float] = (0.0, 100.0),
    per_class_preference: bool = True,
    density_mode: str = "random_walk",
    density_jitter: float = 0.3,
    density_step: float = 0.08,
) -> DemandMatrix:
    """The paper's evaluation workload (Section V-B).

    Per MU class ``m`` a request density is drawn uniformly from
    ``density_range`` (the paper states ``[0, 100]``) and distributed over
    contents by the Zipf-Mandelbrot pmf with the paper's ``alpha = 0.8``
    and ``q = 30``.

    Two aspects are under-specified in the paper and controlled here
    explicitly (see DESIGN.md for the full reasoning):

    - ``per_class_preference`` (default ``True``): each class ranks the
      catalog by its own random permutation of the Zipf weights. With a
      *shared* ranking every policy — LRFU included — caches the same
      top-``C`` items and all of the paper's comparison curves collapse
      onto each other, so the figures imply heterogeneous preferences.
    - ``density_mode``: how each class's density evolves over time.
      ``"random_walk"`` (default) lets densities drift as a reflected
      random walk inside ``density_range`` — the workload is
      non-stationary at the multi-slot timescale, so the optimal cache
      changes over time, LRFU's per-slot re-ranking produces the constant
      nonzero replacement stream Figs. 2b-2c show, and prediction windows
      have something to predict. ``"per_slot"`` re-draws densities IID
      every slot (non-stationary but memoryless); ``"static"`` draws one
      density per class for the whole horizon (strictly stationary).
    - ``density_jitter``: per-slot multiplicative noise ``U[1 -+ jitter]``
      applied on top of the density process — fast transient fluctuation
      that a myopic policy chases (LRFU re-ranks on it every slot) while a
      switching-cost-aware policy rides out. Set 0 to disable.
    - ``density_step``: random-walk step size as a fraction of the density
      range per slot (``random_walk`` mode only).
    """
    _validated_sizes(horizon, num_classes, num_items)
    lo, hi = _validated_density_range(density_range)
    if density_mode not in ("random_walk", "per_slot", "static"):
        raise ConfigurationError(f"unknown density_mode {density_mode!r}")
    if not 0 <= density_jitter <= 1:
        raise ConfigurationError(f"density_jitter must be in [0, 1], got {density_jitter}")
    if not (np.isfinite(density_step) and density_step >= 0):
        raise ConfigurationError(
            f"density_step must be finite and >= 0, got {density_step}"
        )

    pmf = zipf_mandelbrot_pmf(num_items, alpha=alpha, shift=shift)
    if per_class_preference:
        preferences = np.stack(
            [rng.permutation(num_items) for _ in range(num_classes)]
        )
        per_class_pmf = pmf[preferences]  # (M, K)
    else:
        per_class_pmf = np.broadcast_to(pmf, (num_classes, num_items))

    if density_mode == "per_slot":
        densities = rng.uniform(lo, hi, size=(horizon, num_classes))
    elif density_mode == "random_walk":
        densities = _reflected_random_walk(
            horizon, num_classes, lo, hi, rng, step_fraction=density_step
        )
    else:
        densities = np.broadcast_to(
            rng.uniform(lo, hi, size=num_classes), (horizon, num_classes)
        ).copy()
    if density_jitter > 0:
        densities = densities * rng.uniform(
            1.0 - density_jitter, 1.0 + density_jitter, size=(horizon, num_classes)
        )
    rates = densities[:, :, None] * per_class_pmf[None, :, :]
    return DemandMatrix(np.ascontiguousarray(rates))


def _reflected_random_walk(
    horizon: int,
    num_classes: int,
    lo: float,
    hi: float,
    rng: np.random.Generator,
    *,
    step_fraction: float = 0.08,
) -> FloatArray:
    """Per-class densities drifting as a reflected random walk in [lo, hi].

    The step size is ``step_fraction`` of the range per slot, so the walk
    decorrelates over roughly ``1 / step_fraction**2 ~ 150`` slots while
    moving visibly within a 10-slot prediction window.
    """
    span = hi - lo
    walk = np.empty((horizon, num_classes))
    walk[0] = rng.uniform(lo, hi, size=num_classes)
    if span == 0:
        walk[:] = walk[0]
        return walk
    steps = rng.normal(0.0, step_fraction * span, size=(horizon - 1, num_classes))
    for t in range(1, horizon):
        proposal = walk[t - 1] + steps[t - 1]
        # Reflect at the boundaries to stay inside [lo, hi].
        proposal = np.where(proposal > hi, 2 * hi - proposal, proposal)
        proposal = np.where(proposal < lo, 2 * lo - proposal, proposal)
        walk[t] = np.clip(proposal, lo, hi)
    return walk


def constant_demand(
    horizon: int, per_slot: FloatArray
) -> DemandMatrix:
    """Repeat a single-slot demand matrix over ``horizon`` slots."""
    per_slot = as_float_array(per_slot, name="per-slot demand")
    if per_slot.ndim != 2:
        raise DimensionMismatchError(
            f"per-slot demand must have shape (M, K), got {per_slot.shape}"
        )
    rates = np.broadcast_to(per_slot, (horizon, *per_slot.shape)).copy()
    return DemandMatrix(rates)


def diurnal_demand(
    horizon: int,
    num_classes: int,
    num_items: int,
    *,
    rng: np.random.Generator,
    period: int = 24,
    peak_to_trough: float = 3.0,
    alpha: float = DEFAULT_ALPHA,
    shift: float = DEFAULT_SHIFT,
    density_range: tuple[float, float] = (0.0, 100.0),
) -> DemandMatrix:
    """Sinusoidal day/night demand: the paper's workload modulated in time.

    Captures the "temporal variability of network traffic" the introduction
    motivates (cache updates can happen in low-traffic periods).
    """
    _validated_sizes(horizon, num_classes, num_items)
    if period <= 0:
        raise ConfigurationError(f"period must be positive, got {period}")
    if peak_to_trough < 1.0:
        raise ConfigurationError(
            f"peak_to_trough must be >= 1, got {peak_to_trough}"
        )
    base = paper_demand(
        horizon,
        num_classes,
        num_items,
        rng=rng,
        alpha=alpha,
        shift=shift,
        density_range=density_range,
    )
    t = np.arange(horizon, dtype=np.float64)
    # Oscillates in [2/(1+p2t), 2*p2t/(1+p2t)] with mean 1, ratio peak_to_trough.
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    modulation = 1.0 + amplitude * np.sin(2.0 * np.pi * t / period)
    return DemandMatrix(base.rates * modulation[:, None, None])


def shifting_popularity_demand(
    horizon: int,
    num_classes: int,
    num_items: int,
    *,
    rng: np.random.Generator,
    shift_every: int = 20,
    alpha: float = DEFAULT_ALPHA,
    shift: float = DEFAULT_SHIFT,
    density_range: tuple[float, float] = (0.0, 100.0),
) -> DemandMatrix:
    """Popularity ranks re-shuffle every ``shift_every`` slots.

    Exercises cache churn: a policy that never replaces contents pays a
    growing BS cost as the popular set drifts away from its cache.
    """
    _validated_sizes(horizon, num_classes, num_items)
    if shift_every <= 0:
        raise ConfigurationError(f"shift_every must be positive, got {shift_every}")
    lo, hi = _validated_density_range(density_range)
    densities = rng.uniform(lo, hi, size=num_classes)
    pmf = zipf_mandelbrot_pmf(num_items, alpha=alpha, shift=shift)
    rates = np.zeros((horizon, num_classes, num_items))
    perm = rng.permutation(num_items)
    for t in range(horizon):
        if t % shift_every == 0 and t > 0:
            perm = rng.permutation(num_items)
        rates[t] = densities[:, None] * pmf[perm][None, :]
    return DemandMatrix(rates)


def flash_crowd_demand(
    horizon: int,
    num_classes: int,
    num_items: int,
    *,
    rng: np.random.Generator,
    crowd_item: int = 0,
    start: int | None = None,
    duration: int = 10,
    magnitude: float = 5.0,
    alpha: float = DEFAULT_ALPHA,
    shift: float = DEFAULT_SHIFT,
    density_range: tuple[float, float] = (0.0, 100.0),
) -> DemandMatrix:
    """A sudden surge of demand for one item (e.g. a viral video).

    Between ``start`` and ``start + duration`` the demand for
    ``crowd_item`` is multiplied by ``magnitude``.
    """
    _validated_sizes(horizon, num_classes, num_items)
    if not 0 <= crowd_item < num_items:
        raise ConfigurationError(
            f"crowd_item {crowd_item} outside catalog of size {num_items}"
        )
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if magnitude <= 0:
        raise ConfigurationError(f"magnitude must be positive, got {magnitude}")
    base = paper_demand(
        horizon,
        num_classes,
        num_items,
        rng=rng,
        alpha=alpha,
        shift=shift,
        density_range=density_range,
    )
    rates = base.rates.copy()
    s = horizon // 3 if start is None else start
    e = min(s + duration, horizon)
    if s < 0 or s >= horizon:
        raise ConfigurationError(f"start {s} outside horizon {horizon}")
    rates[s:e, :, crowd_item] *= magnitude
    return DemandMatrix(rates)
