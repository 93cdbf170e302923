"""Runtime configuration: one typed object instead of scattered env reads.

Historically four environment variables steered the runtime — worker count
(``REPRO_WORKERS``), executor kind (``REPRO_EXECUTOR``), the ``auto``
caching-backend pin (``REPRO_CACHING_BACKEND``) and the flow-graph-reuse
kill switch (``REPRO_FLOW_REUSE``). :class:`RuntimeConfig` replaces them
with an explicit argument accepted across the library and by every
:mod:`repro.api` entry point.

Precedence, everywhere a knob is consulted: **explicit argument >
environment > built-in default**. The environment variables keep working
as deprecated fallbacks so existing scripts do not break, but each one
triggers a :class:`DeprecationWarning` the first time it is actually read
in a process — exactly once per variable, never once per solve.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: Deprecated environment fallbacks (see module docstring).
WORKERS_ENV = "REPRO_WORKERS"
EXECUTOR_ENV = "REPRO_EXECUTOR"
BACKEND_ENV = "REPRO_CACHING_BACKEND"
FLOW_REUSE_ENV = "REPRO_FLOW_REUSE"

#: Supported (non-deprecated) switch for the incremental re-solve layer —
#: CI uses it to A/B the layer without touching call sites, so unlike the
#: variables above it does not warn. ``0`` disables; anything else enables.
INCREMENTAL_ENV = "REPRO_INCREMENTAL"

#: Supported switch for the batched (vectorized) solve core — the stacked
#: ``P1`` certificate kernel and the all-SBS ``P2`` water-fill. CI A/Bs it
#: like :data:`INCREMENTAL_ENV`, so it does not warn. ``0`` disables.
BATCHED_ENV = "REPRO_BATCHED"

#: Supported switch for the tie-aware acceptance rule of the batched ``P1``
#: certificate pass (default on). ``REPRO_BATCHED_TIES=0`` restores the
#: strict-margin certificate — tie-degenerate rows fall back to the per-SBS
#: backends — without changing any cost: the per-SBS backends resolve ties
#: canonically either way, so CI A/Bs this switch under ``--gate-costs``.
BATCHED_TIES_ENV = "REPRO_BATCHED_TIES"

#: Supported switch for the closed-form bandwidth-bound ``P2`` water-fill
#: (default on). ``REPRO_BW_CLOSED_FORM=0`` routes every bandwidth-bound
#: row through the legacy bisection instead — the A/B reference path CI
#: uses to gate cost drift — so like the switches above it does not warn.
BW_CLOSED_FORM_ENV = "REPRO_BW_CLOSED_FORM"

#: Supported opt-in switch for the quantized ``P1`` memo key (see
#: :func:`repro.perf.solvecache.p1_quantized_digest`). Unset or ``0``
#: keeps the byte-exact digest; any other value enables quantization.
#: Measured on the headline-quick leg (EXPERIMENTS.md): the quantized key
#: adds no hits there — drifting-``mu`` iterations move prices by far more
#: than the 1e-9 band — so the byte-exact default stands; enable it only
#: for workloads with near-stationary prices.
QUANTIZED_MEMO_ENV = "REPRO_QUANTIZED_MEMO"

#: Supported environment fallbacks for the serve runtime (:mod:`repro.serve`).
#: Like the switches above they are part of the supported surface — CI and
#: deployment wrappers set them — so they do not warn. Precedence at every
#: consultation point: explicit argument > ``RuntimeConfig`` field > env >
#: built-in default (see the ``resolved_serve_*`` helpers).
SERVE_RPS_ENV = "REPRO_SERVE_RPS"
SERVE_ADMISSION_ENV = "REPRO_SERVE_ADMISSION"
SERVE_QUEUE_DEPTH_ENV = "REPRO_SERVE_QUEUE_DEPTH"
SERVE_SLOT_SECONDS_ENV = "REPRO_SERVE_SLOT_SECONDS"
SERVE_METRICS_PORT_ENV = "REPRO_SERVE_METRICS_PORT"
OBS_SLO_ENV = "REPRO_OBS_SLO"

#: Admission policies the serve runtime understands: ``"queue"`` applies
#: backpressure to the producer when the request queue fills; ``"shed"``
#: drops the overflow and keeps serving with whatever plan is committed.
ADMISSION_POLICIES = ("queue", "shed")

DEFAULT_SERVE_RPS = 200.0
DEFAULT_SERVE_ADMISSION = "queue"
DEFAULT_SERVE_QUEUE_DEPTH = 256
DEFAULT_SERVE_SLOT_SECONDS = 0.25

_WARNED: set[str] = set()


def deprecated_env(name: str) -> str | None:
    """Read a deprecated environment fallback, warning once per variable.

    Returns ``None`` (silently) when the variable is unset or empty —
    the warning fires only for users actually relying on the fallback.
    """
    value = os.environ.get(name)
    if not value:
        return None
    if name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"{name} is deprecated; pass RuntimeConfig("
            f"{_FIELD_OF[name]}=...) to the repro.api entry points instead",
            DeprecationWarning,
            stacklevel=3,
        )
    return value


_FIELD_OF = {
    WORKERS_ENV: "workers",
    EXECUTOR_ENV: "executor",
    BACKEND_ENV: "caching_backend",
    FLOW_REUSE_ENV: "flow_reuse",
}


def reset_deprecation_warnings() -> None:
    """Forget which fallbacks have warned (test isolation helper)."""
    _WARNED.clear()


@dataclass(frozen=True)
class RuntimeConfig:
    """Explicit runtime knobs for solves, sweeps and benchmarks.

    Every field defaults to ``None`` — "not specified" — in which case the
    deprecated environment fallback and then the built-in default apply.

    Parameters
    ----------
    executor:
        Executor spec, e.g. ``"serial"``, ``"thread"``, ``"process:4"``
        (formerly ``REPRO_EXECUTOR``).
    workers:
        Worker count for parallel fan-outs (formerly ``REPRO_WORKERS``);
        overrides a count embedded in ``executor``.
    caching_backend:
        Pin for the ``auto`` ``P1`` backend choice: ``"flow"``, ``"lp"``
        or ``"lp-simplex"`` (formerly ``REPRO_CACHING_BACKEND``). Explicit
        ``backend=`` arguments at call sites still win.
    flow_reuse:
        Whether the flow backend pools built graphs across same-shape
        solves (formerly ``REPRO_FLOW_REUSE``; default on).
    incremental:
        Whether the incremental re-solve layer is active (default on):
        per-SBS ``P1`` memoization, warm-resumed min-cost flow, and
        cross-window warm-candidate seeding in the online controllers.
        ``REPRO_INCREMENTAL=0`` is the supported environment override.
    batched:
        Whether the batched solve core is active (default on): the stacked
        ``P1`` certificate kernel with per-SBS fallback and the all-SBS
        ``P2`` water-fill with certificate early exit. ``REPRO_BATCHED=0``
        is the supported environment override.
    batched_ties:
        Whether the batched ``P1`` pass accepts tie-degenerate relaxed
        optima via the tie-aware exact certificate (default on).
        ``REPRO_BATCHED_TIES=0`` restores the strict-margin certificate,
        so degenerate rows fall back to the per-SBS backends; costs are
        unaffected either way (the per-SBS backends resolve ties with the
        same canonical discipline), which is what makes the CI off/on A/B
        gateable bit-for-bit.
    quantized_memo:
        Opt-in quantized ``P1`` memo key (default off): prices are rounded
        to a tolerance band before digesting so drifting-``mu`` iterations
        can share memo entries; objectives are recomputed for the actual
        prices on every quantized hit. ``REPRO_QUANTIZED_MEMO=1`` is the
        environment override. Measured on the headline leg it buys nothing
        (see EXPERIMENTS.md), hence off by default.
    bw_closed_form:
        Whether bandwidth-bound ``P2`` rows are solved by the exact
        closed-form parametric path (default on) or by the legacy
        bisection reference. ``REPRO_BW_CLOSED_FORM=0`` is the supported
        environment override; CI uses it for cost-drift A/B runs.
    serve_rps:
        Open-loop arrival rate for the serve runtime (requests/second;
        default 200). ``REPRO_SERVE_RPS`` is the environment override.
    serve_admission:
        Admission policy when the request queue fills: ``"queue"``
        (backpressure the producer; default) or ``"shed"`` (drop the
        overflow). ``REPRO_SERVE_ADMISSION`` is the environment override.
    serve_queue_depth:
        Bound on the serve request queue (default 256).
        ``REPRO_SERVE_QUEUE_DEPTH`` is the environment override.
    serve_slot_seconds:
        Wall-clock length of one model timeslot while serving (default
        0.25 s) — the budget the background re-solve has to produce the
        next plan. ``REPRO_SERVE_SLOT_SECONDS`` is the environment
        override.
    serve_metrics_port:
        Port for the live HTTP telemetry exporter (``/metrics``,
        ``/healthz``, ``/slo``); ``0`` binds an ephemeral port, ``None``
        (the default) disables the exporter. ``REPRO_SERVE_METRICS_PORT``
        is the environment override.
    obs_slo:
        Declarative SLO spec string for the serve runtime, e.g.
        ``"p99_decision_us<200,shed_ratio<0.01"``
        (:func:`repro.obs.live.parse_slo_specs`); ``None`` disables SLO
        tracking. ``REPRO_OBS_SLO`` is the environment override.
    """

    executor: str | None = None
    workers: int | None = None
    caching_backend: str | None = None
    flow_reuse: bool | None = None
    incremental: bool | None = None
    batched: bool | None = None
    batched_ties: bool | None = None
    quantized_memo: bool | None = None
    bw_closed_form: bool | None = None
    serve_rps: float | None = None
    serve_admission: str | None = None
    serve_queue_depth: int | None = None
    serve_slot_seconds: float | None = None
    serve_metrics_port: int | None = None
    obs_slo: str | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.caching_backend is not None and self.caching_backend not in (
            "flow",
            "lp",
            "lp-simplex",
        ):
            raise ConfigurationError(
                "caching_backend must be flow, lp, or lp-simplex; "
                f"got {self.caching_backend!r}"
            )
        if self.serve_rps is not None and not self.serve_rps > 0:
            raise ConfigurationError(
                f"serve_rps must be > 0, got {self.serve_rps}"
            )
        if (
            self.serve_admission is not None
            and self.serve_admission not in ADMISSION_POLICIES
        ):
            raise ConfigurationError(
                f"serve_admission must be one of {ADMISSION_POLICIES}; "
                f"got {self.serve_admission!r}"
            )
        if self.serve_queue_depth is not None and self.serve_queue_depth < 1:
            raise ConfigurationError(
                f"serve_queue_depth must be >= 1, got {self.serve_queue_depth}"
            )
        if self.serve_slot_seconds is not None and not self.serve_slot_seconds > 0:
            raise ConfigurationError(
                f"serve_slot_seconds must be > 0, got {self.serve_slot_seconds}"
            )
        if self.serve_metrics_port is not None and not (
            0 <= self.serve_metrics_port <= 65535
        ):
            raise ConfigurationError(
                f"serve_metrics_port must be in [0, 65535], "
                f"got {self.serve_metrics_port}"
            )
        if self.obs_slo is not None:
            # Validate eagerly so a bad spec fails at config construction,
            # not mid-run. Local import: repro.obs.live imports nothing
            # from this module at import time beyond the exception type.
            from repro.obs.live import parse_slo_specs

            parse_slo_specs(self.obs_slo)


def resolved_backend_pin(config: RuntimeConfig | None) -> str | None:
    """The ``auto``-backend pin: config field, else deprecated env, else none."""
    if config is not None and config.caching_backend is not None:
        return config.caching_backend
    env = deprecated_env(BACKEND_ENV)
    if env is not None and env not in ("flow", "lp", "lp-simplex"):
        raise ConfigurationError(
            f"{BACKEND_ENV} must be flow, lp, or lp-simplex; got {env!r}"
        )
    return env


def resolved_flow_reuse(config: RuntimeConfig | None) -> bool:
    """Flow-graph reuse: config field, else deprecated env, else on."""
    if config is not None and config.flow_reuse is not None:
        return config.flow_reuse
    env = deprecated_env(FLOW_REUSE_ENV)
    return env != "0"


def resolved_incremental(config: RuntimeConfig | None) -> bool:
    """Incremental re-solve layer: config field, else env, else on."""
    if config is not None and config.incremental is not None:
        return config.incremental
    return os.environ.get(INCREMENTAL_ENV, "") != "0"


def resolved_batched(config: RuntimeConfig | None) -> bool:
    """Batched solve core: config field, else env, else on."""
    if config is not None and config.batched is not None:
        return config.batched
    return os.environ.get(BATCHED_ENV, "") != "0"


def resolved_batched_ties(config: RuntimeConfig | None) -> bool:
    """Tie-aware batched ``P1`` acceptance: config field, else env, else on."""
    if config is not None and config.batched_ties is not None:
        return config.batched_ties
    return os.environ.get(BATCHED_TIES_ENV, "") != "0"


def resolved_quantized_memo(config: RuntimeConfig | None) -> bool:
    """Quantized ``P1`` memo key: config field, else env, else off."""
    if config is not None and config.quantized_memo is not None:
        return config.quantized_memo
    return os.environ.get(QUANTIZED_MEMO_ENV, "") == "1"


def resolved_bw_closed_form(
    config: RuntimeConfig | None, arg: bool | None = None
) -> bool:
    """Closed-form bandwidth-bound path: arg, else config, else env, else on."""
    if arg is not None:
        return bool(arg)
    if config is not None and config.bw_closed_form is not None:
        return config.bw_closed_form
    return os.environ.get(BW_CLOSED_FORM_ENV, "") != "0"


def _serve_env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be a number, got {raw!r}") from None


def _serve_env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {raw!r}") from None


def resolved_serve_rps(
    config: RuntimeConfig | None, arg: float | None = None
) -> float:
    """Serve arrival rate: explicit arg, else config, else env, else 200."""
    if arg is not None:
        if not arg > 0:
            raise ConfigurationError(f"serve rps must be > 0, got {arg}")
        return float(arg)
    if config is not None and config.serve_rps is not None:
        return config.serve_rps
    env = _serve_env_float(SERVE_RPS_ENV)
    if env is not None:
        if not env > 0:
            raise ConfigurationError(f"{SERVE_RPS_ENV} must be > 0, got {env}")
        return env
    return DEFAULT_SERVE_RPS


def resolved_serve_admission(
    config: RuntimeConfig | None, arg: str | None = None
) -> str:
    """Admission policy: explicit arg, else config, else env, else queue."""
    for source, value in (
        ("serve admission", arg),
        (None, config.serve_admission if config is not None else None),
        (SERVE_ADMISSION_ENV, os.environ.get(SERVE_ADMISSION_ENV) or None),
    ):
        if value is None:
            continue
        if source is not None and value not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"{source} must be one of {ADMISSION_POLICIES}, got {value!r}"
            )
        return value
    return DEFAULT_SERVE_ADMISSION


def resolved_serve_queue_depth(
    config: RuntimeConfig | None, arg: int | None = None
) -> int:
    """Serve queue bound: explicit arg, else config, else env, else 256."""
    if arg is not None:
        if arg < 1:
            raise ConfigurationError(f"serve queue depth must be >= 1, got {arg}")
        return int(arg)
    if config is not None and config.serve_queue_depth is not None:
        return config.serve_queue_depth
    env = _serve_env_int(SERVE_QUEUE_DEPTH_ENV)
    if env is not None:
        if env < 1:
            raise ConfigurationError(
                f"{SERVE_QUEUE_DEPTH_ENV} must be >= 1, got {env}"
            )
        return env
    return DEFAULT_SERVE_QUEUE_DEPTH


def resolved_serve_slot_seconds(
    config: RuntimeConfig | None, arg: float | None = None
) -> float:
    """Serve slot period: explicit arg, else config, else env, else 0.25 s."""
    if arg is not None:
        if not arg > 0:
            raise ConfigurationError(
                f"serve slot seconds must be > 0, got {arg}"
            )
        return float(arg)
    if config is not None and config.serve_slot_seconds is not None:
        return config.serve_slot_seconds
    env = _serve_env_float(SERVE_SLOT_SECONDS_ENV)
    if env is not None:
        if not env > 0:
            raise ConfigurationError(
                f"{SERVE_SLOT_SECONDS_ENV} must be > 0, got {env}"
            )
        return env
    return DEFAULT_SERVE_SLOT_SECONDS


def resolved_serve_metrics_port(
    config: RuntimeConfig | None, arg: int | None = None
) -> int | None:
    """Metrics endpoint port: explicit arg, else config, else env, else off.

    Returns ``None`` when the exporter is disabled; ``0`` means "bind an
    ephemeral port".
    """
    for source, value in (
        ("serve metrics port", arg),
        (None, config.serve_metrics_port if config is not None else None),
        (SERVE_METRICS_PORT_ENV, _serve_env_int(SERVE_METRICS_PORT_ENV)),
    ):
        if value is None:
            continue
        if not 0 <= value <= 65535:
            raise ConfigurationError(
                f"{source or 'serve_metrics_port'} must be in [0, 65535], "
                f"got {value}"
            )
        return int(value)
    return None


def resolved_obs_slo(
    config: RuntimeConfig | None, arg: str | None = None
) -> str | None:
    """SLO spec string: explicit arg, else config, else env, else none.

    The spec grammar is validated by the consumer
    (:func:`repro.obs.live.parse_slo_specs`).
    """
    if arg is not None:
        return arg
    if config is not None and config.obs_slo is not None:
        return config.obs_slo
    return os.environ.get(OBS_SLO_ENV) or None
