"""RuntimeConfig precedence and the deprecated environment fallbacks."""

from __future__ import annotations

import warnings

import pytest

from repro.config import (
    BACKEND_ENV,
    BATCHED_TIES_ENV,
    BW_CLOSED_FORM_ENV,
    DEFAULT_SERVE_ADMISSION,
    DEFAULT_SERVE_QUEUE_DEPTH,
    DEFAULT_SERVE_RPS,
    DEFAULT_SERVE_SLOT_SECONDS,
    EXECUTOR_ENV,
    FLOW_REUSE_ENV,
    OBS_SLO_ENV,
    SERVE_ADMISSION_ENV,
    SERVE_METRICS_PORT_ENV,
    SERVE_QUEUE_DEPTH_ENV,
    SERVE_RPS_ENV,
    SERVE_SLOT_SECONDS_ENV,
    WORKERS_ENV,
    RuntimeConfig,
    deprecated_env,
    reset_deprecation_warnings,
    resolved_backend_pin,
    resolved_batched_ties,
    resolved_bw_closed_form,
    resolved_flow_reuse,
    resolved_obs_slo,
    resolved_serve_admission,
    resolved_serve_metrics_port,
    resolved_serve_queue_depth,
    resolved_serve_rps,
    resolved_serve_slot_seconds,
)
from repro.exceptions import ConfigurationError
from repro.perf.executor import get_executor


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Isolate each test from ambient env vars and the warn-once registry."""
    for name in (
        WORKERS_ENV,
        EXECUTOR_ENV,
        BACKEND_ENV,
        FLOW_REUSE_ENV,
        SERVE_RPS_ENV,
        SERVE_ADMISSION_ENV,
        SERVE_QUEUE_DEPTH_ENV,
        SERVE_SLOT_SECONDS_ENV,
        SERVE_METRICS_PORT_ENV,
        OBS_SLO_ENV,
        BW_CLOSED_FORM_ENV,
    ):
        monkeypatch.delenv(name, raising=False)
    reset_deprecation_warnings()
    yield
    reset_deprecation_warnings()


class TestRuntimeConfig:
    def test_defaults_are_unspecified(self):
        config = RuntimeConfig()
        assert config.executor is None
        assert config.workers is None
        assert config.caching_backend is None
        assert config.flow_reuse is None

    def test_validates_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            RuntimeConfig(workers=0)

    def test_validates_backend(self):
        with pytest.raises(ConfigurationError, match="caching_backend"):
            RuntimeConfig(caching_backend="magic")

    def test_frozen(self):
        with pytest.raises(Exception):
            RuntimeConfig().workers = 2  # type: ignore[misc]


class TestExecutorPrecedence:
    def test_default_is_serial(self):
        assert get_executor().kind == "serial"

    def test_config_selects_executor(self):
        ex = get_executor(config=RuntimeConfig(executor="thread:3"))
        assert (ex.kind, ex.workers) == ("thread", 3)

    def test_config_workers_alone_selects_process(self):
        ex = get_executor(config=RuntimeConfig(workers=2))
        assert (ex.kind, ex.workers) == ("process", 2)

    def test_explicit_spec_beats_config(self):
        ex = get_executor("thread:2", config=RuntimeConfig(executor="process:5"))
        assert (ex.kind, ex.workers) == ("thread", 2)

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "process:5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # config path must not touch env
            ex = get_executor(config=RuntimeConfig(executor="thread:2"))
        assert (ex.kind, ex.workers) == ("thread", 2)

    def test_env_fallback_still_works(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "thread:4")
        with pytest.warns(DeprecationWarning, match=EXECUTOR_ENV):
            ex = get_executor()
        assert (ex.kind, ex.workers) == ("thread", 4)


class TestBackendAndFlowReuse:
    def test_backend_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "lp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolved_backend_pin(RuntimeConfig(caching_backend="flow")) == "flow"

    def test_backend_env_fallback(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "lp")
        with pytest.warns(DeprecationWarning, match=BACKEND_ENV):
            assert resolved_backend_pin(None) == "lp"

    def test_backend_env_validated(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "magic")
        with pytest.raises(ConfigurationError):
            with pytest.warns(DeprecationWarning):
                resolved_backend_pin(None)

    def test_flow_reuse_default_on(self):
        assert resolved_flow_reuse(None) is True

    def test_flow_reuse_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(FLOW_REUSE_ENV, "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolved_flow_reuse(RuntimeConfig(flow_reuse=True)) is True

    def test_flow_reuse_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(FLOW_REUSE_ENV, "0")
        with pytest.warns(DeprecationWarning, match=FLOW_REUSE_ENV):
            assert resolved_flow_reuse(None) is False


class TestServeKnobs:
    """arg > config > env > default for the four ``serve_*`` settings.

    The ``REPRO_SERVE_*`` variables are *supported* fallbacks (headless
    deployments), not deprecated ones — resolution never warns.
    """

    def test_defaults(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolved_serve_rps(None) == DEFAULT_SERVE_RPS
            assert resolved_serve_admission(None) == DEFAULT_SERVE_ADMISSION
            assert resolved_serve_queue_depth(None) == DEFAULT_SERVE_QUEUE_DEPTH
            assert resolved_serve_slot_seconds(None) == DEFAULT_SERVE_SLOT_SECONDS

    def test_arg_beats_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(SERVE_RPS_ENV, "50")
        config = RuntimeConfig(serve_rps=100.0)
        assert resolved_serve_rps(config, arg=400.0) == 400.0
        assert resolved_serve_rps(config) == 100.0
        assert resolved_serve_rps(None) == 50.0

    def test_admission_precedence(self, monkeypatch):
        monkeypatch.setenv(SERVE_ADMISSION_ENV, "shed")
        assert resolved_serve_admission(None) == "shed"
        assert resolved_serve_admission(RuntimeConfig(serve_admission="queue")) == "queue"
        assert resolved_serve_admission(None, arg="queue") == "queue"

    def test_queue_depth_precedence(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_DEPTH_ENV, "8")
        assert resolved_serve_queue_depth(None) == 8
        assert resolved_serve_queue_depth(RuntimeConfig(serve_queue_depth=16)) == 16
        assert resolved_serve_queue_depth(None, arg=4) == 4

    def test_slot_seconds_precedence(self, monkeypatch):
        monkeypatch.setenv(SERVE_SLOT_SECONDS_ENV, "0.5")
        assert resolved_serve_slot_seconds(None) == 0.5
        assert (
            resolved_serve_slot_seconds(RuntimeConfig(serve_slot_seconds=1.0)) == 1.0
        )
        assert resolved_serve_slot_seconds(None, arg=0.125) == 0.125

    def test_config_validates_serve_fields(self):
        with pytest.raises(ConfigurationError, match="serve_rps"):
            RuntimeConfig(serve_rps=0.0)
        with pytest.raises(ConfigurationError, match="serve_admission"):
            RuntimeConfig(serve_admission="panic")
        with pytest.raises(ConfigurationError, match="serve_queue_depth"):
            RuntimeConfig(serve_queue_depth=0)
        with pytest.raises(ConfigurationError, match="serve_slot_seconds"):
            RuntimeConfig(serve_slot_seconds=-1.0)

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            resolved_serve_rps(None, arg=-5.0)
        with pytest.raises(ConfigurationError):
            resolved_serve_admission(None, arg="panic")
        with pytest.raises(ConfigurationError):
            resolved_serve_queue_depth(None, arg=0)
        with pytest.raises(ConfigurationError):
            resolved_serve_slot_seconds(None, arg=0.0)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(SERVE_RPS_ENV, "plenty")
        with pytest.raises(ConfigurationError):
            resolved_serve_rps(None)
        monkeypatch.setenv(SERVE_ADMISSION_ENV, "panic")
        with pytest.raises(ConfigurationError):
            resolved_serve_admission(None)
        monkeypatch.setenv(SERVE_QUEUE_DEPTH_ENV, "3.5")
        with pytest.raises(ConfigurationError):
            resolved_serve_queue_depth(None)


class TestTelemetrySettings:
    """arg > config > env > default for the live-telemetry knobs."""

    def test_defaults_off(self):
        assert resolved_serve_metrics_port(None) is None
        assert resolved_obs_slo(None) is None

    def test_metrics_port_precedence(self, monkeypatch):
        monkeypatch.setenv(SERVE_METRICS_PORT_ENV, "9100")
        assert resolved_serve_metrics_port(None) == 9100
        config = RuntimeConfig(serve_metrics_port=9200)
        assert resolved_serve_metrics_port(config) == 9200
        assert resolved_serve_metrics_port(config, arg=0) == 0

    def test_slo_precedence(self, monkeypatch):
        monkeypatch.setenv(OBS_SLO_ENV, "shed_ratio<0.5")
        assert resolved_obs_slo(None) == "shed_ratio<0.5"
        config = RuntimeConfig(obs_slo="p99_decision_us<200")
        assert resolved_obs_slo(config) == "p99_decision_us<200"
        assert resolved_obs_slo(config, arg="p50_decision_us<50") == (
            "p50_decision_us<50"
        )

    def test_empty_slo_env_means_disabled(self, monkeypatch):
        monkeypatch.setenv(OBS_SLO_ENV, "")
        assert resolved_obs_slo(None) is None

    def test_config_validates_telemetry_fields(self):
        with pytest.raises(ConfigurationError, match="serve_metrics_port"):
            RuntimeConfig(serve_metrics_port=-1)
        with pytest.raises(ConfigurationError, match="serve_metrics_port"):
            RuntimeConfig(serve_metrics_port=70000)
        with pytest.raises(ConfigurationError, match="unknown SLO"):
            RuntimeConfig(obs_slo="p42_decision_us<1")

    def test_invalid_sources_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolved_serve_metrics_port(None, arg=65536)
        monkeypatch.setenv(SERVE_METRICS_PORT_ENV, "not-a-port")
        with pytest.raises(ConfigurationError):
            resolved_serve_metrics_port(None)


class TestWarnOnce:
    def test_each_variable_warns_exactly_once(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            deprecated_env(WORKERS_ENV)
            deprecated_env(WORKERS_ENV)
            deprecated_env(WORKERS_ENV)
        ours = [w for w in caught if WORKERS_ENV in str(w.message)]
        assert len(ours) == 1
        assert "RuntimeConfig(workers=...)" in str(ours[0].message)

    def test_unset_variable_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert deprecated_env(WORKERS_ENV) is None

    def test_distinct_variables_warn_independently(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        monkeypatch.setenv(FLOW_REUSE_ENV, "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            deprecated_env(WORKERS_ENV)
            deprecated_env(FLOW_REUSE_ENV)
        messages = sorted(str(w.message).split(" ")[0] for w in caught)
        assert messages == [FLOW_REUSE_ENV, WORKERS_ENV]


class TestWaterfillKnobs:
    """arg > config > env > default for the P2 kernel knobs."""

    def test_closed_form_default_on(self):
        assert resolved_bw_closed_form(None) is True

    def test_closed_form_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(BW_CLOSED_FORM_ENV, "0")
        assert resolved_bw_closed_form(None) is False
        monkeypatch.setenv(BW_CLOSED_FORM_ENV, "1")
        assert resolved_bw_closed_form(None) is True

    def test_closed_form_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(BW_CLOSED_FORM_ENV, "0")
        assert resolved_bw_closed_form(RuntimeConfig(bw_closed_form=True)) is True
        monkeypatch.setenv(BW_CLOSED_FORM_ENV, "1")
        assert (
            resolved_bw_closed_form(RuntimeConfig(bw_closed_form=False)) is False
        )

    def test_closed_form_arg_beats_config(self):
        cfg = RuntimeConfig(bw_closed_form=True)
        assert resolved_bw_closed_form(cfg, False) is False
        assert resolved_bw_closed_form(RuntimeConfig(bw_closed_form=False), True)


class TestBatchedTiesKnob:
    """config > env > default for the tie-aware batched P1 acceptance.

    ``REPRO_BATCHED_TIES`` is a *supported* kill switch (the CI A/B leg
    sets it), not a deprecated fallback — resolution never warns.
    """

    def test_default_on(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolved_batched_ties(None) is True

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(BATCHED_TIES_ENV, "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolved_batched_ties(None) is False
        monkeypatch.setenv(BATCHED_TIES_ENV, "1")
        assert resolved_batched_ties(None) is True

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(BATCHED_TIES_ENV, "0")
        assert resolved_batched_ties(RuntimeConfig(batched_ties=True)) is True
        monkeypatch.setenv(BATCHED_TIES_ENV, "1")
        assert (
            resolved_batched_ties(RuntimeConfig(batched_ties=False)) is False
        )
