"""End-to-end trace determinism and instrumentation coverage.

The acceptance contract of `repro.obs`: a seeded run writes **byte-identical**
JSONL traces and manifests no matter which executor backend ran it, and
recording changes nothing about the results themselves.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.obs import (
    Recorder,
    read_trace,
    record_into,
    run_manifest,
    trace_digest,
    validate_manifest,
    validate_trace,
    write_trace,
)

EXECUTORS = ("serial", "thread:2", "process:2")


def _record_run(
    executor: str, *, seed: int = 1, horizon: int = 6, policies=None
) -> Recorder:
    scenario = api.build_scenario(seed=seed, horizon=horizon)
    recorder = Recorder()
    with record_into(recorder):
        api.compare_policies(
            scenario, policies or [api.LRFU(), api.NoCache()], executor=executor
        )
    return recorder


def _controllers():
    """Three controllers that open with shared cold windows (tau = 0, -1)."""
    return [api.RHC(window=3), api.CHC(window=3, commitment=2), api.AFHC(window=3)]


class TestCrossExecutorDeterminism:
    #: ``None``: the LRFU and NoCache baselines.
    policies = None

    @pytest.fixture(scope="class")
    def recorders(self) -> dict[str, Recorder]:
        return {
            executor: _record_run(executor, policies=self.policies)
            for executor in EXECUTORS
        }

    def test_traces_byte_identical(self, recorders, tmp_path):
        contents = {}
        for executor, recorder in recorders.items():
            path = write_trace(tmp_path / f"{executor.replace(':', '-')}.jsonl", recorder)
            contents[executor] = path.read_bytes()
        assert len(set(contents.values())) == 1, sorted(contents)
        assert len(recorders["serial"].events) > 0

    def test_manifests_byte_identical(self, recorders):
        manifests = set()
        for recorder in recorders.values():
            manifest = run_manifest(
                seed=1, config={"horizon": 6}, events=recorder.events
            )
            manifests.add(json.dumps(manifest, sort_keys=True))
        assert len(manifests) == 1
        validate_manifest(json.loads(next(iter(manifests))))

    def test_metrics_identical(self, recorders):
        dicts = {
            executor: json.dumps(r.metrics.to_dict(), sort_keys=True)
            for executor, r in recorders.items()
        }
        assert len(set(dicts.values())) == 1

    def test_trace_schema_valid_and_round_trips(self, recorders, tmp_path):
        recorder = recorders["serial"]
        assert validate_trace(recorder.events) == len(recorder.events)
        path = write_trace(tmp_path / "trace.jsonl", recorder)
        assert read_trace(path) == recorder.events
        assert trace_digest(read_trace(path)) == trace_digest(recorder.events)


class TestCrossExecutorDeterminismSharedWindows(TestCrossExecutorDeterminism):
    """The same contract when the comparison solves shared cold windows
    in the caller, ahead of the fan-out."""

    policies = _controllers()


def test_shared_windows_solved_ahead_of_the_tasks():
    recorder = _record_run("serial", policies=_controllers())
    assert recorder.metrics.counter("window_solves_shared") == 5
    solves = [e for e in recorder.events if e.kind == "solve_done"]
    policies = [e.data["policy"] for e in solves]
    assert policies[:2] == ["shared", "shared"]
    assert "shared" not in policies[2:]


class TestRecordingIsPassive:
    def test_results_identical_with_and_without_recorder(self):
        scenario = api.build_scenario(seed=2, horizon=5)
        policies = [api.LRFU(), api.NoCache()]
        plain = api.compare_policies(scenario, policies)
        with record_into(Recorder()):
            recorded = api.compare_policies(scenario, policies)
        assert set(plain) == set(recorded)
        for name in plain:
            assert plain[name].cost.total == recorded[name].cost.total
            assert (plain[name].x == recorded[name].x).all()
            assert (plain[name].y == recorded[name].y).all()

    def test_no_recorder_means_no_events(self):
        scenario = api.build_scenario(seed=2, horizon=4)
        recorder = Recorder()
        api.compare_policies(scenario, [api.LRFU()])  # outside record_into
        assert recorder.events == []


class TestInstrumentationCoverage:
    def test_engine_emits_slot_and_cache_events(self):
        scenario = api.build_scenario(seed=1, horizon=5)
        recorder = Recorder()
        with record_into(recorder):
            api.compare_policies(scenario, [api.LRFU()])
        kinds = {e.kind for e in recorder.events}
        assert {"slot_start", "slot_end", "cache_insert"} <= kinds
        slot_starts = [e for e in recorder.events if e.kind == "slot_start"]
        assert [e.slot for e in slot_starts] == list(range(5))
        assert all(e.data["policy"] == "LRFU" for e in slot_starts)

    def test_faulted_run_emits_fault_and_reroute_events(self):
        scenario = api.build_scenario(seed=1, horizon=20)
        schedule = api.default_fault_schedule(scenario.horizon)
        faulted = api.inject_faults(scenario, schedule)
        recorder = Recorder()
        with record_into(recorder):
            api.compare_policies(faulted, [api.LRFU()])
        kinds = {e.kind for e in recorder.events}
        assert {"fault_injected", "fault_cleared", "reroute"} <= kinds
        injected = [e for e in recorder.events if e.kind == "fault_injected"]
        cleared = [e for e in recorder.events if e.kind == "fault_cleared"]
        # the outage and the degradation windows each rise and fall
        assert len(injected) == len(cleared) == 2
        reroutes = [e for e in recorder.events if e.kind == "reroute"]
        assert all(e.data["load"] >= 0 for e in reroutes)
        mask = schedule.active_mask(scenario.horizon)
        assert all(mask[e.slot] for e in injected)

    def test_controller_metrics_counted(self):
        scenario = api.build_scenario(seed=1, horizon=6)
        recorder = Recorder()
        with record_into(recorder):
            api.run_policy(scenario, api.RHC(window=3))
        metrics = recorder.metrics
        assert metrics.counter("window_solves") >= 1
        assert metrics.counter("controller_commits", {"controller": "RHC"}) >= 1
        solve_events = [e for e in recorder.events if e.kind == "solve_done"]
        assert solve_events, "window solves must emit solve_done"
        assert all(e.data["policy"] == "RHC(w=3)" for e in solve_events)

    def test_convergence_trace_surfaced_by_solver(self):
        scenario = api.build_scenario(seed=1, horizon=4)
        result = api.solve_primal_dual(scenario.problem(), max_iter=20)
        assert result.convergence is not None
        assert len(result.convergence) == result.iterations
        assert result.convergence.series("gap")  # column exists
