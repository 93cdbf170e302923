"""Tests for the command-line interface (tiny scales)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--horizon", "6", "--window", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "headline comparison" in out
        assert "Offline" in out

    def test_fig3_small(self, capsys):
        code = main(
            ["fig3", "--windows", "2", "3", "--horizon", "5", "--seeds", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total operating cost vs window" in out
        assert "# cache replacements vs window" in out

    def test_fig5_small(self, capsys):
        code = main(
            ["fig5", "--etas", "0", "0.4", "--horizon", "5", "--window", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total operating cost vs eta" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_headline(self, capsys):
        code = main(
            ["headline", "--beta", "10", "--horizon", "5", "--window", "2"]
        )
        assert code == 0
        assert "vs Offline" in capsys.readouterr().out


class TestRedesignedCli:
    def test_run(self, capsys):
        code = main(["run", "--beta", "10", "--horizon", "5", "--window", "2"])
        assert code == 0
        assert "vs Offline" in capsys.readouterr().out

    def test_sweep_axis_noise(self, capsys):
        code = main(
            [
                "sweep", "--axis", "noise", "--values", "0", "0.4",
                "--horizon", "5", "--window", "2",
            ]
        )
        assert code == 0
        assert "total operating cost vs eta" in capsys.readouterr().out

    def test_sweep_axis_window_casts_int(self, capsys):
        code = main(
            ["sweep", "--axis", "window", "--values", "2", "3", "--horizon", "5"]
        )
        assert code == 0
        assert "vs window" in capsys.readouterr().out

    def test_sweep_requires_axis(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--horizon", "5"])

    def test_resilience(self, capsys, tmp_path):
        out = tmp_path / "resilience.json"
        code = main(
            [
                "resilience", "--horizon", "8", "--window", "3",
                "--json", str(out),
            ]
        )
        assert code == 0
        assert "recover" in capsys.readouterr().out
        import json

        payload = json.loads(out.read_text())
        assert payload["schedule"]["events"]
        assert all("violations" in p for p in payload["policies"])

    def test_json_output_for_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "fig5", "--etas", "0", "--horizon", "4", "--window", "2",
                "--json", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        import json

        assert json.loads(out.read_text())["points"]

    def test_legacy_aliases_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "resilience" in out
        assert "fig2" not in out

    def test_workers_flag_builds_runtime_config(self, capsys):
        # --workers routes through RuntimeConfig, not the deprecated env.
        code = main(
            [
                "run", "--beta", "10", "--horizon", "4", "--window", "2",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert "vs Offline" in capsys.readouterr().out


class TestServeCli:
    def test_serve_smoke_with_artifacts(self, tmp_path, capsys):
        import json

        from repro.obs import manifest_path_for
        from repro.serve import read_decision_log

        out = tmp_path / "serve.json"
        log = tmp_path / "decisions.jsonl"
        trace = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve", "--horizon", "6", "--window", "3", "--rps", "120",
                "--max-requests", "60", "--seeds", "3",
                "--json", str(out), "--decision-log", str(log),
                "--trace", str(trace),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "strategy=optimal-y" in stdout
        assert "plans" in stdout

        payload = json.loads(out.read_text())
        assert payload["requests_total"] == 60
        assert payload["decided"] + payload["shed"] == 60
        assert payload["decision_digest"]

        decisions = read_decision_log(log)
        assert len(decisions) == 60

        manifest = json.loads(manifest_path_for(trace).read_text())
        assert manifest["config"]["command"] == "serve"
        assert manifest["config"]["rps"] == 120.0

    def test_serve_same_seed_is_reproducible(self, tmp_path, capsys):
        import json

        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                [
                    "serve", "--horizon", "5", "--window", "2", "--rps", "80",
                    "--seeds", "7", "--json", str(out),
                ]
            ) == 0
            digests.append(json.loads(out.read_text())["decision_digest"])
        capsys.readouterr()
        assert digests[0] == digests[1]

    def test_serve_rejects_bad_admission(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--admission", "panic"])
        capsys.readouterr()


class TestTraceCli:
    def test_run_with_trace_writes_jsonl_and_manifest(self, tmp_path, capsys):
        import json

        from repro.obs import manifest_path_for, read_trace, validate_manifest

        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "run", "--beta", "10", "--horizon", "5", "--window", "2",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        events = read_trace(trace)
        assert events, "trace must contain events"
        kinds = {e.kind for e in events}
        assert {"slot_start", "slot_end", "solve_done"} <= kinds

        manifest = json.loads(manifest_path_for(trace).read_text())
        validate_manifest(manifest)
        assert manifest["seed"] == 1
        assert manifest["config"]["command"] == "run"
        assert manifest["config"]["horizon"] == 5
        assert manifest["trace"]["events"] == len(events)
        # the manifest never names an executor backend
        assert "executor" not in json.dumps(manifest)

    def test_resilience_trace_digests_fault_schedule(self, tmp_path, capsys):
        import json

        from repro.obs import manifest_path_for

        trace = tmp_path / "res.jsonl"
        code = main(
            ["resilience", "--horizon", "8", "--window", "3", "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path_for(trace).read_text())
        assert manifest["fault_schedule_digest"] is not None

    def test_obs_report_renders_dashboard(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            [
                "run", "--beta", "10", "--horizon", "5", "--window", "2",
                "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        before = trace.read_bytes()
        code = main(["obs", "report", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "per-slot cost" in out
        assert "manifest: seed=1" in out
        # reporting must never rewrite the artifact it reads
        assert trace.read_bytes() == before

    def test_verbose_prints_progress_via_logging(self, capsys):
        code = main(
            ["run", "--beta", "10", "--horizon", "4", "--window", "2", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[beta=10 seed=1]" in out

    def test_verbose_trace_captures_log_events(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "run", "--beta", "10", "--horizon", "4", "--window", "2",
                "--verbose", "--trace", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        logs = [e for e in read_trace(trace) if e.kind == "log"]
        assert logs
        assert all(e.data["logger"].startswith("repro.") for e in logs)

    def test_repeated_verbose_calls_do_not_stack_handlers(self, capsys):
        import logging

        baseline = len(logging.getLogger("repro").handlers)
        for _ in range(2):
            assert main(
                ["run", "--beta", "10", "--horizon", "4", "--window", "2",
                 "--verbose"]
            ) == 0
        capsys.readouterr()
        assert len(logging.getLogger("repro").handlers) == baseline


class TestBenchDiff:
    """``repro bench diff`` and its ``repro.perf.benchdiff`` backend."""

    @staticmethod
    def _record(serial=10.0, parallel=8.0, scale="quick", total=100.0, **extra):
        record = {
            "bench": "headline",
            "scale": scale,
            "beta": 50.0,
            "serial_seconds": serial,
            "parallel_seconds": parallel,
            "speedup": serial / parallel,
            "workers": 4,
            "executor": "process:4",
            "cpu_count": 4,
            "costs_identical": True,
            "sweep": {
                "parameter": "beta",
                "values": [50.0],
                "policies": ["Offline"],
                "points": [
                    {"value": 50.0, "metrics": {"Offline": {"total": total}}}
                ],
            },
        }
        record.update(extra)
        return record

    def _write(self, tmp_path, name, record):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    def test_identical_records_pass(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", self._record())
        new = self._write(tmp_path, "new.json", self._record())
        assert main(["bench", "diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "config: identical" in out
        assert "OK: no wall-time regression" in out

    def test_regression_beyond_threshold_fails(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", self._record(serial=10.0))
        new = self._write(tmp_path, "new.json", self._record(serial=11.5))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "diff", old, new])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "serial_seconds" in out

    def test_threshold_flag_loosens_gate(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", self._record(serial=10.0))
        new = self._write(tmp_path, "new.json", self._record(serial=11.5))
        assert main(["bench", "diff", old, new, "--threshold", "0.2"]) == 0
        capsys.readouterr()

    def test_differing_configs_never_gate(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", self._record(scale="quick"))
        new = self._write(
            tmp_path, "new.json", self._record(scale="full", serial=99.0)
        )
        assert main(["bench", "diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "config: DIFFERS" in out
        assert "wall-time gate disabled" in out

    def test_strategy_fields_do_not_break_comparability(self, tmp_path, capsys):
        """incremental on/off A/B runs of the same problem stay gated."""
        old = self._write(
            tmp_path, "old.json", self._record(serial=10.0, incremental=False)
        )
        new = self._write(
            tmp_path,
            "new.json",
            self._record(
                serial=6.0,
                incremental=True,
                solve_counters={"p1_memo_hits": 9.0},
            ),
        )
        assert main(["bench", "diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "config: identical" in out
        assert "p1_memo_hits" in out

    def test_cost_drift_reported(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", self._record(total=100.0))
        new = self._write(tmp_path, "new.json", self._record(total=95.0))
        assert main(["bench", "diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "cost drift (1 entries)" in out
        assert "Offline/total" in out

    def test_rejects_non_bench_json(self, tmp_path):
        import json

        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            main(["bench", "diff", str(path), str(path)])


class TestBenchProfile:
    """``repro bench profile`` — the cProfile artifact entry point."""

    def test_unknown_leg_exits_2(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "bench_fake.py").write_text("def test_ok():\n    pass\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "profile", "nosuch", "--path", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert "fake" in err  # the available legs are listed

    def test_missing_bench_dir_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["bench", "profile", "headline", "--path", str(tmp_path / "nope")]
            )
        assert exc.value.code == 2
        assert "benchmark suite not found" in capsys.readouterr().err

    def test_profiles_a_leg_end_to_end(self, tmp_path, capsys, monkeypatch):
        """A stub leg profiled through the real pytest runner lands as the
        deterministic table next to the leg's results, rooted at the leg:
        collection and the pytest/pluggy frames stay out of it."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        (tmp_path / "bench_fake.py").write_text(
            "def test_spin():\n    assert sum(range(1000)) == 499500\n"
        )
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "bench", "profile", "fake",
                "--path", str(tmp_path),
                "--out", str(out_dir),
                "--top", "5",
            ]
        )
        assert code in (0, None)
        table = (out_dir / "PROFILE_fake.txt").read_text()
        assert table.startswith("profile: bench leg 'fake' at scale 'quick'")
        assert "ncalls" in table
        rows = table.splitlines()[3:]
        assert any(row.endswith("bench_fake.py:1(test_spin)") for row in rows)
        assert [row for row in rows if "_pytest/" in row or "pluggy/" in row] == []
        assert "[saved to" in capsys.readouterr().out
