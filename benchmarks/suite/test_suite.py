"""Self-test of the benchmark at its smoke size: ``pytest benchmarks/suite -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, out: Path, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
            "--out",
            str(out),
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=NAMES)
def runs(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return request.param, out, {t: _run(request.param, t, out) for t in (0, 1)}


def test_output_schema_and_metric_names(runs):
    _, _, results = runs
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = results[trace]
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
        for m in result["metrics"].values():
            assert set(m) == {"value", "unit"}
            assert isinstance(m["value"], float)


def test_traced_outputs_match_untraced(runs):
    name, out, _ = runs
    records = [
        json.loads((out / f"{name}.seed1.trace{t}.json").read_text()) for t in (0, 1)
    ]
    # Each run also compares every operation's outputs, the traced one
    # included, and counts a difference as failed.
    assert records[0]["quality"] == records[1]["quality"]
    spans = (out / f"{name}.seed1.spans.jsonl").read_text().splitlines()
    assert spans and {"name", "parent_id", "run_id"} <= set(json.loads(spans[0]))


def test_corrupted_reference_fails(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["smoke"]["headline"]["0"]["Offline"] *= 1 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, result = _run("headline", 0, tmp_path, "--reference", str(path))
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
