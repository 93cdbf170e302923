"""Tests for the workload substrate: Zipf model, demand, predictors, traces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import build_scenario
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.workload.demand import (
    DemandMatrix,
    constant_demand,
    diurnal_demand,
    flash_crowd_demand,
    paper_demand,
    shifting_popularity_demand,
)
from repro.workload.predictor import (
    PerfectPredictor,
    PerturbedPredictor,
    window_view,
)
from repro.workload.trace import RequestTrace, empirical_rates, sample_poisson_trace
from repro.workload.zipf import zipf_mandelbrot_pmf, zipf_mandelbrot_weights


class TestZipf:
    def test_weights_match_equation_49(self):
        w = zipf_mandelbrot_weights(30, alpha=0.8, shift=30.0)
        assert w[0] == pytest.approx(30 / (1 + 30) ** 0.8)
        assert w[29] == pytest.approx(30 / (30 + 30) ** 0.8)

    def test_pmf_normalized_and_decreasing(self):
        p = zipf_mandelbrot_pmf(50)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) <= 0)

    def test_alpha_zero_is_uniform(self):
        p = zipf_mandelbrot_pmf(10, alpha=0.0)
        np.testing.assert_allclose(p, 0.1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            zipf_mandelbrot_weights(0)
        with pytest.raises(ConfigurationError):
            zipf_mandelbrot_weights(5, alpha=-1.0)
        with pytest.raises(ConfigurationError):
            zipf_mandelbrot_weights(5, shift=-2.0)


class TestDemandMatrix:
    def test_shape_and_padding(self, rng):
        dm = paper_demand(5, 3, 4, rng=rng)
        assert dm.horizon == 5
        assert dm.num_classes == 3
        assert dm.num_items == 4
        assert dm.slot(-1).sum() == 0.0
        assert dm.slot(5).sum() == 0.0
        assert dm.slot(2).shape == (3, 4)

    def test_window_zero_pads(self, rng):
        dm = paper_demand(5, 2, 3, rng=rng)
        w = dm.window(3, 4)
        assert w.shape == (4, 2, 3)
        np.testing.assert_allclose(w[:2], dm.rates[3:5])
        assert w[2:].sum() == 0.0
        w_neg = dm.window(-2, 3)
        assert w_neg[:2].sum() == 0.0
        np.testing.assert_allclose(w_neg[2], dm.rates[0])

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            DemandMatrix(-np.ones((2, 2, 2)))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            DemandMatrix(np.ones((2, 2)))

    def test_popularity_sums_to_one(self, rng):
        dm = paper_demand(5, 3, 4, rng=rng)
        assert dm.popularity().sum() == pytest.approx(1.0)

    def test_popularity_of_zero_demand_is_uniform(self):
        dm = DemandMatrix(np.zeros((2, 2, 4)))
        np.testing.assert_allclose(dm.popularity(), 0.25)


class TestGenerators:
    def test_paper_demand_static_mode_is_stationary(self, rng):
        dm = paper_demand(6, 4, 5, rng=rng, density_mode="static", density_jitter=0.0)
        for t in range(1, 6):
            np.testing.assert_allclose(dm.rates[t], dm.rates[0])

    def test_paper_demand_per_slot_varies(self, rng):
        dm = paper_demand(6, 4, 5, rng=rng, density_mode="per_slot")
        assert not np.allclose(dm.rates[0], dm.rates[1])

    def test_shared_preference_ranks_identically(self, rng):
        dm = paper_demand(
            3, 4, 6, rng=rng, per_class_preference=False, density_mode="static"
        )
        orders = np.argsort(-dm.rates[0], axis=1)
        for m in range(1, 4):
            np.testing.assert_array_equal(orders[m], orders[0])

    def test_per_class_preference_diversifies(self, rng):
        dm = paper_demand(
            3, 8, 12, rng=rng, per_class_preference=True, density_mode="static"
        )
        orders = {tuple(np.argsort(-dm.rates[0, m])) for m in range(8)}
        assert len(orders) > 1

    def test_constant_demand(self):
        per_slot = np.array([[1.0, 2.0]])
        dm = constant_demand(4, per_slot)
        assert dm.horizon == 4
        np.testing.assert_allclose(dm.rates[3], per_slot)

    def test_diurnal_mean_close_to_base(self, rng):
        dm = diurnal_demand(48, 3, 4, rng=rng, period=24, peak_to_trough=3.0)
        per_slot = dm.rates.sum(axis=(1, 2))
        assert per_slot.max() / max(per_slot.min(), 1e-9) > 1.5

    def test_shifting_popularity_changes_ranking(self, rng):
        dm = shifting_popularity_demand(40, 3, 10, rng=rng, shift_every=10)
        first = np.argsort(-dm.rates[0].sum(axis=0))
        later = np.argsort(-dm.rates[35].sum(axis=0))
        assert not np.array_equal(first, later)

    def test_flash_crowd_spike(self, rng):
        dm = flash_crowd_demand(
            30, 3, 5, rng=rng, crowd_item=2, start=10, duration=5, magnitude=10.0
        )
        inside = dm.rates[12, :, 2].sum()
        outside = dm.rates[2, :, 2].sum()
        assert inside > outside

    def test_generator_validation(self, rng):
        with pytest.raises(ConfigurationError):
            paper_demand(0, 2, 2, rng=rng)
        with pytest.raises(ConfigurationError):
            paper_demand(2, 2, 2, rng=rng, density_range=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            paper_demand(2, 2, 2, rng=rng, density_mode="weird")
        with pytest.raises(ConfigurationError):
            flash_crowd_demand(10, 2, 3, rng=rng, crowd_item=9)


_NAN, _INF = float("nan"), float("inf")

#: Hostile demand parameters, each of which must raise ConfigurationError
#: rather than a numpy error or a silent fallback.
HOSTILE_DEMAND = [
    (paper_demand, {"density_range": (_NAN, 1.0)}),
    (paper_demand, {"density_range": (0.0, _INF)}),
    (paper_demand, {"density_range": (0.0, _NAN)}),
    (paper_demand, {"density_step": -0.1}),
    (paper_demand, {"density_step": _INF}),
    (paper_demand, {"density_jitter": _NAN}),
    (shifting_popularity_demand, {"density_range": (3.0, 1.0)}),
    (shifting_popularity_demand, {"density_range": (_NAN, 1.0)}),
    (build_scenario, {"density_range": (0.0, _INF)}),
]


@pytest.mark.parametrize(
    ("generator", "kwargs"),
    HOSTILE_DEMAND,
    ids=[
        f"{g.__name__}-" + ",".join(f"{k}={v}" for k, v in kw.items())
        for g, kw in HOSTILE_DEMAND
    ],
)
def test_hostile_demand_parameters_raise(generator, kwargs):
    with pytest.raises(ConfigurationError):
        if generator is build_scenario:
            build_scenario(seed=1, horizon=4, **kwargs)
        else:
            generator(4, 2, 3, rng=np.random.default_rng(0), **kwargs)


class TestPredictors:
    def test_perfect_predictor_returns_truth(self, rng):
        dm = paper_demand(6, 2, 3, rng=rng)
        pred = PerfectPredictor(dm)
        np.testing.assert_allclose(
            pred.predict_window(0, 2, 3), dm.window(2, 3)
        )

    def test_zero_eta_is_exact(self, rng):
        dm = paper_demand(6, 2, 3, rng=rng)
        pred = PerturbedPredictor(dm, eta=0.0)
        np.testing.assert_allclose(pred.predict_window(1, 1, 4), dm.window(1, 4))

    def test_frozen_mode_consistent_across_decision_times(self, rng):
        dm = paper_demand(6, 2, 3, rng=rng)
        pred = PerturbedPredictor(dm, eta=0.3, mode="frozen", seed=7)
        a = pred.predict_window(0, 2, 2)
        b = pred.predict_window(2, 2, 2)
        np.testing.assert_allclose(a, b)

    def test_frozen_mode_within_bounds(self, rng):
        dm = paper_demand(6, 2, 3, rng=rng)
        eta = 0.25
        pred = PerturbedPredictor(dm, eta=eta, mode="frozen")
        w = pred.predict_window(0, 0, 6)
        true = dm.rates
        mask = true > 0
        ratio = w[mask] / true[mask]
        assert np.all(ratio >= 1 - eta - 1e-9)
        assert np.all(ratio <= 1 + eta + 1e-9)

    def test_degrading_noise_grows_with_distance(self, rng):
        dm = DemandMatrix(np.ones((40, 2, 3)))
        pred = PerturbedPredictor(dm, eta=0.2, mode="degrading", seed=3)
        near_err, far_err = [], []
        for tau in range(30):
            w = pred.predict_window(tau, tau, 10)
            near_err.append(np.abs(w[0] - 1.0).mean())
            far_err.append(np.abs(w[9] - 1.0).mean())
        assert np.mean(far_err) > 2.0 * np.mean(near_err)

    def test_degrading_resamples_per_decision_time(self, rng):
        dm = DemandMatrix(np.ones((10, 2, 3)))
        pred = PerturbedPredictor(dm, eta=0.2, mode="degrading")
        a = pred.predict_window(0, 5, 2)
        b = pred.predict_window(3, 5, 2)
        assert not np.allclose(a, b)

    def test_degrading_deterministic(self, rng):
        dm = DemandMatrix(np.ones((10, 2, 3)))
        p1 = PerturbedPredictor(dm, eta=0.2, mode="degrading", seed=5)
        p2 = PerturbedPredictor(dm, eta=0.2, mode="degrading", seed=5)
        np.testing.assert_allclose(
            p1.predict_window(2, 2, 4), p2.predict_window(2, 2, 4)
        )

    def test_negative_decision_time_supported(self, rng):
        dm = DemandMatrix(np.ones((10, 2, 3)))
        pred = PerturbedPredictor(dm, eta=0.2, mode="degrading")
        w = pred.predict_window(-3, -3, 5)
        assert w.shape == (5, 2, 3)
        assert w[:3].sum() == 0.0  # pre-horizon slots are zero

    def test_predictions_never_negative(self, rng):
        dm = paper_demand(8, 3, 4, rng=rng)
        pred = PerturbedPredictor(dm, eta=1.0, mode="degrading")
        for tau in range(8):
            assert np.all(pred.predict_window(tau, tau, 8) >= 0)

    def test_rejects_bad_eta_and_mode(self, rng):
        dm = paper_demand(4, 2, 2, rng=rng)
        with pytest.raises(ConfigurationError):
            PerturbedPredictor(dm, eta=1.5)
        with pytest.raises(ConfigurationError):
            PerturbedPredictor(dm, eta=0.1, mode="bogus")

    def test_window_view(self, rng):
        dm = paper_demand(6, 2, 3, rng=rng)
        pred = PerfectPredictor(dm)
        np.testing.assert_allclose(window_view(pred, 1, 3), dm.window(1, 3))
        with pytest.raises(ConfigurationError):
            window_view(pred, 0, 0)


class TestTraces:
    def test_poisson_trace_shape_and_mean(self, rng):
        dm = DemandMatrix(np.full((200, 2, 3), 4.0))
        trace = sample_poisson_trace(dm, rng=rng)
        assert trace.horizon == 200
        assert trace.counts.mean() == pytest.approx(4.0, rel=0.1)

    def test_per_item_counts(self, rng):
        counts = np.zeros((2, 2, 3), dtype=np.int64)
        counts[0, 0, 1] = 5
        counts[0, 1, 1] = 2
        trace = RequestTrace(counts)
        np.testing.assert_array_equal(trace.per_item_counts(0), [0, 7, 0])

    def test_to_demand_roundtrip(self):
        counts = np.arange(12, dtype=np.int64).reshape(2, 2, 3)
        dm = RequestTrace(counts).to_demand()
        np.testing.assert_allclose(dm.rates, counts)

    def test_empirical_rates_smoothing(self):
        trace = RequestTrace(np.zeros((1, 1, 2), dtype=np.int64))
        np.testing.assert_allclose(
            empirical_rates(trace, smoothing=0.5), np.full((1, 1, 2), 0.5)
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    eta=st.floats(0.0, 1.0),
)
def test_perturbed_prediction_bounded_by_eta_frozen(seed: int, eta: float):
    """Property: frozen-mode forecasts stay within the eta band."""
    rng = np.random.default_rng(seed)
    dm = paper_demand(5, 2, 3, rng=rng, density_range=(0.5, 2.0))
    pred = PerturbedPredictor(dm, eta=eta, seed=seed, mode="frozen")
    w = pred.predict_window(0, 0, 5)
    mask = dm.rates > 0
    ratio = w[mask] / dm.rates[mask]
    assert np.all(ratio >= 1 - eta - 1e-9)
    assert np.all(ratio <= 1 + eta + 1e-9)
