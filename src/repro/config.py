"""Runtime configuration: one typed object instead of scattered env reads.

:class:`RuntimeConfig` is the explicit argument accepted by every
:mod:`repro.api` entry point. It carries executor choice and worker count,
which come from it (or from explicit arguments) only, and the serve
runtime's settings, which also have an environment override for
deployment wrappers. The solvers take no runtime knobs: each subproblem
has one exact path.

Precedence, everywhere a serve setting is consulted: **explicit argument >
``RuntimeConfig`` field > environment > built-in default**.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: Environment overrides for the serve runtime (:mod:`repro.serve`). CI and
#: deployment wrappers set them. Precedence at every consultation point:
#: explicit argument > ``RuntimeConfig`` field > env > built-in default
#: (see the ``resolved_serve_*`` helpers).
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


@dataclass(frozen=True)
class RuntimeConfig:
    """Explicit runtime knobs for sweeps, benchmarks and the serve runtime.

    Every field defaults to ``None`` — "not specified" — in which case the
    environment override (where the knob has one) and then the built-in
    default apply.

    Parameters
    ----------
    executor:
        Executor spec, e.g. ``"serial"``, ``"thread"``, ``"process:4"``.
    workers:
        Worker count for parallel fan-outs; overrides a count embedded in
        ``executor``.
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
    serve_rps: float | None = None
    serve_admission: str | None = None
    serve_queue_depth: int | None = None
    serve_slot_seconds: float | None = None
    serve_metrics_port: int | None = None
    obs_slo: str | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
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
