"""The library's cold-start import contract.

scipy serves the tests' HiGHS oracles, the solver ablation bench and the
manifest version stamp; no solve path needs it. Loading it costs a fresh
interpreter hundreds of modules, so ``import repro`` and every solve below
must leave it unloaded. A fresh interpreter is the only place to check:
this test process has imported scipy already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json
import sys

import repro
import repro.cli
import repro.serve.loop
from repro import api

scenario = api.build_scenario(seed=1, horizon=4)
results = api.compare_policies(scenario, api.default_policies(window=2))
assert sorted(results) == ["AFHC(w=2)", "CHC(w=2,r=1)", "LRFU", "Offline", "RHC(w=2)"]
schedule = api.single_outage_with_degradation(
    outage_start=1, outage_duration=1, degradation_start=2, degradation_duration=2
)
faulted = api.inject_faults(scenario, schedule)
api.compare_policies(faulted, [api.OfflineOptimal(), api.RHC(window=2)])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_import_and_solves_leave_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == [], f"{len(loaded)} scipy modules loaded: {loaded[:5]}"
