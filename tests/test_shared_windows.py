"""Cold windows shared within a comparison: solved once, same bytes.

``run_policies`` and the sweeps solve each cold window that two or more of
their policies open with once, before the fan-out, and hand every task the
read-only results (``sim/runner.shared_cold_windows``). The oracle is each
policy run alone through ``run_policy``, which shares nothing.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import api
from repro.obs import Recorder, record_into
from repro.sim.runner import _stable_names, shared_cold_windows

HORIZON = 6


def _scenario(faulted: bool = False):
    scenario = api.build_scenario(seed=3, horizon=HORIZON, beta=50.0)
    if faulted:
        scenario = api.inject_faults(scenario, api.default_fault_schedule(HORIZON))
    return scenario


def _record(fn):
    recorder = Recorder()
    with record_into(recorder):
        out = fn()
    return out, recorder.metrics


@lru_cache(maxsize=None)
def _comparison(window: int, faulted: bool):
    """The default policy set, compared and run one by one, both recorded."""
    scenario = _scenario(faulted)
    policies = api.default_policies(window=window)
    shared, metrics = _record(lambda: api.compare_policies(scenario, policies))
    alone = []
    solves_alone = 0.0
    for policy in policies:
        result, m = _record(lambda p=policy: api.run_policy(scenario, p))
        alone.append(result)
        solves_alone += m.counter("window_solves")
        assert m.counter("window_solves_shared") == 0
    return list(shared.values()), alone, metrics, solves_alone


def _assert_same(shared, alone):
    assert shared.x.tobytes() == alone.x.tobytes()
    assert shared.y.tobytes() == alone.y.tobytes()
    assert repr(shared.cost) == repr(alone.cost)
    assert shared.per_slot_total.tobytes() == alone.per_slot_total.tobytes()
    assert (
        shared.per_slot_replacements.tobytes()
        == alone.per_slot_replacements.tobytes()
    )
    assert shared.solves == alone.solves


class TestOracle:
    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("window", [3, 5, 10])
    def test_comparison_equals_each_policy_alone(self, window, faulted):
        shared, alone, _, _ = _comparison(window, faulted)
        assert len(shared) == len(alone) == 5
        for s, a in zip(shared, alone):
            _assert_same(s, a)

    def test_duplicate_policies(self):
        scenario = _scenario()
        rhc, chc = api.RHC(window=5), api.CHC(window=5, commitment=2)
        policies = [rhc, rhc, chc]
        results, metrics = _record(lambda: api.compare_policies(scenario, policies))
        assert list(results) == ["RHC(w=5)", "RHC(w=5)#2", "CHC(w=5,r=2)"]
        for result, policy in zip(results.values(), policies):
            _assert_same(result, api.run_policy(scenario, policy))
        # The slot-0 window is shared three ways; CHC's tau = -1 window is
        # its own and stays in its task.
        assert metrics.counter("window_solves_shared") == 3

    def test_sweep_path(self):
        sweep = api.headline_comparison(horizon=HORIZON, window=3, seeds=(1,))
        scenario = api.build_scenario(seed=1, beta=50.0, horizon=HORIZON)
        metrics = sweep.points[0].metrics
        for policy in api.default_policies(window=3):
            alone = api.run_policy(scenario, policy)
            row = metrics[policy.name]
            assert repr(row["total"]) == repr(alone.cost.total)
            assert repr(row["bs_cost"]) == repr(alone.cost.bs_cost)
            assert repr(row["replacement"]) == repr(alone.cost.replacement)
            assert row["solves"] == alone.solves

    def test_window_sweep_renamed_policies_share(self):
        policies = _stable_names([api.RHC(window=3), api.CHC(window=3, commitment=1)])
        colds = shared_cold_windows(_scenario(), policies)
        assert [len(c) for c in colds] == [1, 1]
        ((key, result),) = colds[0].items()
        assert colds[1][key] is result


class TestCounters:
    @pytest.mark.parametrize(
        "window, shared, saved", [(3, 3, 2), (5, 5, 3), (10, 11, 6)]
    )
    def test_default_set(self, window, shared, saved):
        _, _, metrics, solves_alone = _comparison(window, False)
        assert metrics.counter("window_solves_shared") == shared
        assert metrics.counter("window_solves") == solves_alone - saved

    def test_nothing_shared_without_a_second_controller(self):
        scenario = _scenario()
        policies = [api.OfflineOptimal(max_iter=20), api.RHC(window=3)]
        _, metrics = _record(lambda: api.compare_policies(scenario, policies))
        assert metrics.counter("window_solves_shared") == 0
        assert metrics.counter("window_solves") == HORIZON
        assert shared_cold_windows(scenario, policies) == [None, None]

    def test_unique_cold_windows_stay_in_their_task(self):
        policies = [api.RHC(window=3), api.RHC(window=4), api.LRFU()]
        assert shared_cold_windows(_scenario(), policies) == [None] * 3


class TestReadOnly:
    def test_shared_results_are_read_only_and_one_object(self):
        policies = [api.RHC(window=3), api.AFHC(window=3)]
        colds = shared_cold_windows(_scenario(), policies)
        ((key, result),) = colds[0].items()
        assert colds[1][key] is result
        for array in (result.x, result.y, result.mu):
            with pytest.raises(ValueError):
                array[0] = 1.0
