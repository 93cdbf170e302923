"""Tests for the shared parallel-execution layer (``repro.perf``)."""

from __future__ import annotations

import pytest

from repro.config import RuntimeConfig
from repro.exceptions import ConfigurationError
from repro.perf.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_workers,
    get_executor,
    map_recorded,
    parse_spec,
    resolve_executor,
)
from repro.perf.profiler import profile_bench, render_profile
from repro.perf.timers import StageTimers


def _square(x: int) -> int:
    return x * x


def _resolved_kind(_item: object) -> str:
    """What a nested get_executor() resolves to inside a worker."""
    return get_executor("process:4").kind


class TestParseSpec:
    def test_kind_only(self):
        assert parse_spec("serial") == ("serial", None)
        assert parse_spec("thread") == ("thread", None)
        assert parse_spec("Process") == ("process", None)

    def test_kind_and_count(self):
        assert parse_spec("process:4") == ("process", 4)
        assert parse_spec("thread:2") == ("thread", 2)

    @pytest.mark.parametrize("bad", ["fork", "process:zero", "thread:0", ""])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigurationError):
            parse_spec(bad)


class TestExecutors:
    def test_serial_map_preserves_order(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_thread_map_preserves_order(self):
        with ThreadExecutor(2) as ex:
            assert ex.map(_square, list(range(20))) == [i * i for i in range(20)]

    def test_process_map_preserves_order(self):
        with ProcessExecutor(2) as ex:
            assert ex.map(_square, list(range(8))) == [i * i for i in range(8)]

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_rejects_nonpositive_workers(self, cls):
        with pytest.raises(ConfigurationError):
            cls(0)

    def test_thread_worker_resolves_serial(self):
        with ThreadExecutor(2) as ex:
            kinds = ex.map(_resolved_kind, [None, None])
        assert kinds == ["serial", "serial"]

    def test_process_worker_resolves_serial(self):
        with ProcessExecutor(2) as ex:
            kinds = ex.map(_resolved_kind, [None, None])
        assert kinds == ["serial", "serial"]


class TestSelection:
    def test_default_is_serial(self):
        assert get_executor().kind == "serial"

    def test_executor_instance_passes_through(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex
        assert resolve_executor(ex) is ex

    def test_spec_string(self):
        ex = get_executor("thread:3")
        assert ex.kind == "thread" and ex.workers == 3

    def test_spec_serial_short_circuits(self):
        assert get_executor("serial").kind == "serial"
        assert get_executor("process:1").kind == "serial"

    def test_workers_config_selects_process(self):
        ex = get_executor(config=RuntimeConfig(workers=3))
        assert ex.kind == "process" and ex.workers == 3

    def test_executor_config_spec(self):
        ex = get_executor(config=RuntimeConfig(executor="thread:2"))
        assert ex.kind == "thread" and ex.workers == 2

    def test_explicit_spec_beats_config(self):
        config = RuntimeConfig(executor="thread:2")
        assert get_executor("serial", config=config).kind == "serial"

    def test_shared_pool_reused(self):
        assert get_executor("thread:3") is get_executor("thread:3")

    def test_kind_only_spec_uses_default_workers(self):
        ex = get_executor(config=RuntimeConfig(executor="thread"))
        assert ex.workers == default_workers()

    def test_default_workers_without_env_positive(self):
        assert default_workers() >= 1

    def test_resolve_none_is_serial(self):
        ex = resolve_executor(None)
        assert isinstance(ex, Executor) and ex.kind == "serial"


class TestStageTimers:
    def test_add_and_read(self):
        t = StageTimers()
        t.add("p1", 0.5)
        t.add("p1", 0.25, calls=2)
        assert t.seconds("p1") == pytest.approx(0.75)
        assert t.calls("p1") == 3
        assert t.seconds("missing") == 0.0
        assert t.calls("missing") == 0

    def test_stage_context_accumulates(self):
        t = StageTimers()
        with t.stage("p2"):
            pass
        with t.stage("p2"):
            pass
        assert t.calls("p2") == 2
        assert t.seconds("p2") >= 0.0

    def test_merge(self):
        a, b = StageTimers(), StageTimers()
        a.add("p1", 1.0)
        b.add("p1", 2.0)
        b.add("repair", 0.5)
        a.merge(b)
        assert a.seconds("p1") == pytest.approx(3.0)
        assert a.seconds("repair") == pytest.approx(0.5)

    def test_merge_preserves_call_counts(self):
        a, b = StageTimers(), StageTimers()
        a.add("p1", 1.0, calls=3)
        b.add("p1", 2.0, calls=2)
        a.merge(b)
        assert a.calls("p1") == 5

    def test_merge_accepts_seconds_mapping(self):
        t = StageTimers()
        t.merge({"p1": 1.5, "repair": 0.5})
        assert t.seconds("p1") == pytest.approx(1.5)
        assert t.calls("p1") == 1

    def test_merge_accepts_pairs_mapping(self):
        t = StageTimers()
        t.merge({"p1": (1.5, 4), "repair": [0.5, 2]})
        assert t.seconds("p1") == pytest.approx(1.5)
        assert t.calls("p1") == 4
        assert t.calls("repair") == 2

    def test_as_pairs_round_trips_through_json(self):
        import json

        a = StageTimers()
        a.add("p1", 1.25, calls=3)
        a.add("repair", 0.5, calls=2)
        payload = json.loads(json.dumps(a.as_pairs()))
        b = StageTimers()
        b.merge(payload)
        assert b.as_pairs() == a.as_pairs()
        assert b.calls("p1") == 3 and b.calls("repair") == 2

    def test_as_dict_and_report(self):
        t = StageTimers()
        t.add("p1", 1.25)
        d = t.as_dict()
        assert d == {"p1": pytest.approx(1.25)}
        assert "p1" in t.report()


def _emit_square(x: int) -> int:
    """Task used by TestMapRecorded (module-level so process pools pickle it)."""
    from repro.obs.recorder import emit, inc

    emit("slot_start", slot=x, task=x)
    inc("tasks")
    return x * x


class TestMapRecorded:
    @pytest.mark.parametrize("spec", ["serial", "thread:2", "process:2"])
    def test_results_and_trace_in_input_order(self, spec):
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        results = map_recorded(get_executor(spec), _emit_square, [3, 1, 2], recorder)
        assert results == [9, 1, 4]
        # events arrive renumbered in task-input order, not completion order
        assert [e.data["task"] for e in recorder.events] == [3, 1, 2]
        assert [e.seq for e in recorder.events] == [0, 1, 2]
        assert recorder.metrics.counter("tasks") == 3.0

    def test_parent_recorder_not_ambient_in_tasks(self):
        from repro.obs.recorder import Recorder, record_into

        parent = Recorder()
        with record_into(parent):
            recorder = Recorder()
            map_recorded(get_executor("serial"), _emit_square, [1], recorder)
        # task events land in the per-task recorders (merged into `recorder`),
        # never directly in the ambient parent
        assert parent.events == []
        assert [e.kind for e in recorder.events] == ["slot_start"]


class TestProfiler:
    """profile_bench with an injected runner, and table determinism."""

    def test_injected_runner_writes_table(self, tmp_path):
        calls = []

        def runner():
            calls.append(1)
            sorted(range(500), key=lambda v: -v)

        out = profile_bench("bench_fake.py", tmp_path, runner=runner, top=10)
        assert calls == [1]
        # Leg name is normalized and the artifact lands in results/.
        assert out == tmp_path / "results" / "PROFILE_fake.txt"
        table = out.read_text()
        assert "functions by self time" in table
        assert f"{'ncalls':>12} {'tottime':>10} {'cumtime':>10}" in table
        # Rows are ordered by self time, so the sort key leads.
        tottimes = [float(line.split()[1]) for line in table.splitlines()[3:]]
        assert tottimes == sorted(tottimes, reverse=True)

    def test_out_dir_override(self, tmp_path):
        target = tmp_path / "elsewhere"
        out = profile_bench(
            "fake", tmp_path, runner=lambda: None, out_dir=target
        )
        assert out == target / "PROFILE_fake.txt"
        assert out.is_file()

    def test_render_is_deterministic_and_relative(self, tmp_path):
        import cProfile
        import pstats

        def work():
            return [str(v) for v in range(200)]

        prof = cProfile.Profile()
        prof.enable()
        work()
        prof.disable()
        stats = pstats.Stats(prof)
        a = render_profile(stats, repo_root=tmp_path, top=5, header="h")
        b = render_profile(stats, repo_root=tmp_path, top=5, header="h")
        assert a == b  # stable sort: identical rows in identical order
        assert a.startswith("h\n")
        # Interpreter-install prefixes never leak into the table.
        assert "site-packages/" not in a

    def test_unknown_leg_lists_available(self, tmp_path):
        (tmp_path / "bench_one.py").write_text("")
        (tmp_path / "bench_two.py").write_text("")
        with pytest.raises(FileNotFoundError, match="one, two"):
            profile_bench("zzz", tmp_path)

    def test_failing_leg_raises(self, tmp_path):
        def runner():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            profile_bench("fake", tmp_path, runner=runner)
        # The profiler must not leave a stale artifact behind on failure.
        assert not (tmp_path / "results" / "PROFILE_fake.txt").exists()
