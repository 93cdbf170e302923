"""Scale=large benchmark: the workload the batched core unlocks.

``N = 500`` SBSs, ``K = 10,000`` contents, ``M = 1,000`` MU classes with a
multiplicity of ~1,000 users per class (~1e6 users total; a class's demand
density is the aggregate of its users' request rates, which is exactly how
the paper's demand model composes). This instance is out of reach for the
per-SBS loop paths: one min-cost-flow ``P1`` solve at ``K = 10,000`` costs
seconds, and Algorithm 1 needs 500 of them per subgradient iteration. The
batched certificate kernel answers all 500 in one vectorized pass, and the
stacked ``P2`` water-fill replaces 500 per-SBS solves with one.

Three legs, each timed into ``BENCH_large.json``:

- ``p2_kernel``: one stacked ``P2`` solve (R = N*T rows, J = 20,000
  columns) under generic positive prices — the overloaded paper regime,
  so rows are bandwidth-bound. A kernel-level A/B on the same row stack
  times the closed-form parametric solve against the legacy 26-iteration
  bisection (``closed_form=False, early_exit=False``) and gates a >= 3x
  speedup plus a >= 5x peak-memory reduction versus the seed kernel's two
  ``(R, J)`` bracket-state arrays (tracemalloc, measured beyond the
  output arrays).
- ``p1_batched``: one ``solve_caching`` over all 500 SBSs with sparse
  hot-set prices, plus the per-SBS flow (``_solve_single_sbs_flow``, one
  SBS at a time) on a small subsample to measure the per-SBS cost the
  batch replaces (the full loop run is the infeasible case — its
  projected time is reported, not measured).
- ``mini_alg1``: two full subgradient iterations of Algorithm 1 on the
  true demand — every stage (P1, P2, rounding, the fixed-cache oracle)
  at scale.

Opt-in: the whole module skips unless ``REPRO_BENCH_LARGE=1`` (the
scheduled CI job sets it; the quick-scale benches stay the default). The
record carries the batched solve counters and their accounting identity.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.caching_lp import (
    _solve_single_sbs_flow,
    class_prices,
    solve_caching,
)
from repro.core.load_balancing import solve_p2
from repro.core.primal_dual import solve_primal_dual
from repro.core.problem import JointProblem
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.obs import Recorder, record_into, run_manifest, write_manifest
from repro.optim.waterfill import waterfill_batch
from repro.perf.solvecache import SolveCache

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="scale=large is opt-in: set REPRO_BENCH_LARGE=1",
)

RESULTS_DIR = Path(__file__).parent / "results"

SEED = 7
NUM_SBS = 500
CLASSES_PER_SBS = 2
NUM_ITEMS = 10_000
USERS_PER_CLASS = 1_000  # class multiplicity -> ~1e6 users
HORIZON = 2
CACHE_SIZE = 12
BETA = 4.0
BANDWIDTH = 2.0  # ~half the mean offered load: the paper's overload regime
HOT_ITEMS = 5
LOOP_SAMPLE = 4  # SBSs measured on the per-SBS flow (the full 500 is the
# infeasible case this bench exists to document)

_COUNTERS = (
    "p1_memo_misses",
    "p1_batched_solves",
    "p1_batched_capped",
    "p1_batched_fallbacks",
)
_P2_COUNTERS = ("p2_bw_bound_rows", "p2_bw_closed_form", "p2_bisection_fallbacks")


def _p2_row_stack(problem):
    """The exact SBS-major row stack ``solve_p2`` feeds the kernel.

    Mirrors ``_solve_p2_fast``'s assembly (uncapped: ``caps = lam``)
    so the A/B leg below times the kernel on the true workload rows rather
    than a synthetic stand-in. Every SBS here has the same class count, so
    the stack has no padding columns.
    """
    net = problem.network
    T = problem.horizon
    K = net.num_items
    N = net.num_sbs
    J = CLASSES_PER_SBS * K
    R = N * T
    lam_b = np.zeros((R, J))
    om_b = np.zeros((R, J))
    W_b = np.zeros(R)
    bw_b = np.zeros(R)
    group = np.repeat(np.arange(N, dtype=np.intp), T)
    for n in range(N):
        classes = net.classes_of_sbs[n]
        rows = slice(n * T, (n + 1) * T)
        lam = problem.demand[:, classes, :].reshape(T, -1)
        omega = np.repeat(net.omega_bs[classes], K)
        lam_b[rows] = lam
        om_b[rows] = omega
        W_b[rows] = lam @ omega
        bw_b[rows] = float(net.bandwidths[n])
    return lam_b, om_b, W_b, bw_b, group


def _row_objectives(alloc, lam, omega, mu, W, scale):
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(lam > 0, mu / lam, 0.0)
    u = np.einsum("rj,rj->r", alloc, omega)
    return scale * (W - u) ** 2 + np.einsum("rj,rj->r", slope, alloc)


def _build_workload():
    """Network + demand; densities aggregate ~1e3 users per class."""
    rng = np.random.default_rng(SEED)
    num_classes = NUM_SBS * CLASSES_PER_SBS
    network = Network(
        ContentCatalog(NUM_ITEMS),
        tuple(
            SmallBaseStation(n, CACHE_SIZE, BANDWIDTH, BETA)
            for n in range(NUM_SBS)
        ),
        tuple(
            MUClass(m, m // CLASSES_PER_SBS, float(rng.uniform(0.5, 1.5)))
            for m in range(num_classes)
        ),
    )
    # Zipf(0.8, shift 30) catalog popularity, independently permuted per
    # class; per-class density ~ U[0, 4] is the aggregate of ~1e3 users'
    # individual rates (scaling users and rates jointly leaves the
    # optimization instance unchanged — multiplicity, not magnitude).
    zipf = (np.arange(1, NUM_ITEMS + 1) + 30.0) ** -0.8
    zipf /= zipf.sum()
    pref = np.stack([rng.permutation(zipf) for _ in range(num_classes)])
    density = rng.uniform(0.0, 4.0, size=(HORIZON, num_classes))
    demand = density[:, :, None] * pref[None, :, :]
    return network, JointProblem(network=network, demand=demand), rng


def _counters(recorder: Recorder) -> dict[str, float]:
    return {name: recorder.metrics.counter(name) for name in _COUNTERS}


def test_large_scale(save_report):
    build_started = time.perf_counter()
    network, problem, rng = _build_workload()
    build_seconds = time.perf_counter() - build_started

    # ---- leg 1: one stacked P2 solve under generic positive prices.
    mu_generic = rng.exponential(0.05, size=problem.y_shape)
    p2_recorder = Recorder()
    started = time.perf_counter()
    with record_into(p2_recorder):
        p2 = solve_p2(problem, mu_generic)
    p2_seconds = time.perf_counter() - started
    assert np.isfinite(p2.objective)
    p2_counters = {
        name: p2_recorder.metrics.counter(name) for name in _P2_COUNTERS
    }
    # The overload regime (bandwidth ~ half the offered load) must actually
    # bind, and every bound row must be accounted for: closed-form solve or
    # counted bisection fallback.
    assert p2_counters["p2_bw_bound_rows"] > 0
    assert (
        p2_counters["p2_bw_closed_form"] + p2_counters["p2_bisection_fallbacks"]
        == p2_counters["p2_bw_bound_rows"]
    )

    # ---- leg 1b: kernel-level A/B on the same bandwidth-bound row stack —
    # closed-form parametric solve vs the early-exit bisection reference vs
    # the legacy fixed-depth 26-iteration bisection this PR replaces.
    lam_b, om_b, W_b, bw_b, group = _p2_row_stack(problem)
    # Prices in the same SBS-major layout as the stack.
    mu_b = np.zeros_like(lam_b)
    for n in range(NUM_SBS):
        classes = network.classes_of_sbs[n]
        mu_b[n * HORIZON : (n + 1) * HORIZON] = mu_generic[:, classes, :].reshape(
            HORIZON, -1
        )
    scale = problem.bs_cost.scale
    R, J = lam_b.shape

    ab_recorder = Recorder()
    started = time.perf_counter()
    with record_into(ab_recorder):
        closed_a, closed_u = waterfill_batch(
            lam_b, lam_b, om_b, mu_b, W_b, bw_b, scale, group_ids=group
        )
    closed_seconds = time.perf_counter() - started
    ab_counters = {
        name: ab_recorder.metrics.counter(name) for name in _P2_COUNTERS
    }
    bound_rows = ab_counters["p2_bw_bound_rows"]
    assert bound_rows > 0
    assert (
        ab_counters["p2_bw_closed_form"] + ab_counters["p2_bisection_fallbacks"]
        == bound_rows
    )

    # Peak working set of the closed-form pass, beyond the two output
    # arrays, measured against the seed kernel's floor of two full (R, J)
    # bracket-state arrays: the >= 5x reduction is gated here.
    tracemalloc.start()
    mem_a, mem_u = waterfill_batch(
        lam_b, lam_b, om_b, mu_b, W_b, bw_b, scale, group_ids=group
    )
    _, mem_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    state_bytes = mem_peak - (mem_a.nbytes + mem_u.nbytes)
    seed_floor_bytes = 2 * R * J * 8
    assert state_bytes * 5 <= seed_floor_bytes, (
        f"P2 closed-form state {state_bytes / 1e6:.0f} MB is not >= 5x below "
        f"the seed bracket-array floor {seed_floor_bytes / 1e6:.0f} MB"
    )
    del mem_a, mem_u

    started = time.perf_counter()
    bisect_a, _ = waterfill_batch(
        lam_b, lam_b, om_b, mu_b, W_b, bw_b, scale,
        group_ids=group, closed_form=False,
    )
    bisect_seconds = time.perf_counter() - started

    started = time.perf_counter()
    legacy_a, _ = waterfill_batch(
        lam_b, lam_b, om_b, mu_b, W_b, bw_b, scale,
        group_ids=group, closed_form=False, early_exit=False,
    )
    legacy_seconds = time.perf_counter() - started
    speedup_vs_legacy = legacy_seconds / max(closed_seconds, 1e-9)
    assert speedup_vs_legacy >= 3.0, (
        f"closed form {closed_seconds:.1f}s vs legacy bisection "
        f"{legacy_seconds:.1f}s: {speedup_vs_legacy:.2f}x < 3x"
    )

    # Exactness: the closed form is never worse than either bisection,
    # beyond the 1e-9 relative envelope.
    ob_closed = _row_objectives(closed_a, lam_b, om_b, mu_b, W_b, scale)
    ob_legacy = _row_objectives(legacy_a, lam_b, om_b, mu_b, W_b, scale)
    envelope = 1e-9 * np.maximum(1.0, np.abs(ob_legacy))
    assert not (ob_closed > ob_legacy + envelope).any()
    del bisect_a, legacy_a, closed_a, closed_u

    # ---- leg 2: all-SBS P1 through the batched certificate pass, with
    # sparse hot-set prices (a handful of clearly-priced items per class,
    # the post-warmup shape of the subgradient iterates).
    mu_p1 = np.zeros(problem.y_shape)
    for m in range(network.num_classes):
        hot = rng.choice(NUM_ITEMS, size=HOT_ITEMS, replace=False)
        mu_p1[:, m, hot] = (
            rng.uniform(1.5, 2.5, size=(HORIZON, HOT_ITEMS)) * BETA / HORIZON
        )
    x0 = np.zeros((NUM_SBS, NUM_ITEMS))
    p1_recorder = Recorder()
    started = time.perf_counter()
    with record_into(p1_recorder):
        p1 = solve_caching(network, mu_p1, x0, cache=SolveCache())
    p1_seconds = time.perf_counter() - started
    assert np.isfinite(p1.objective)
    p1_counters = _counters(p1_recorder)
    assert p1_counters["p1_batched_solves"] > 0
    assert (
        p1_counters["p1_batched_solves"] + p1_counters["p1_batched_fallbacks"]
        == p1_counters["p1_memo_misses"]
        == NUM_SBS
    )
    # The relaxed pass plus the exact capped kernel must answer
    # (essentially) the whole stack — the per-SBS flow loop at K = 10,000 is
    # exactly what this scale cannot afford to fall back to.
    assert p1_counters["p1_batched_fallbacks"] <= 0.05 * NUM_SBS, (
        f"{p1_counters['p1_batched_fallbacks']:.0f} of {NUM_SBS} SBSs "
        "fell back to the per-SBS flow"
    )

    # The per-SBS flow on a subsample, one SBS at a time, to price what the
    # batch replaced.
    prices = class_prices(network, mu_p1)
    started = time.perf_counter()
    loop_x = [
        _solve_single_sbs_flow(
            prices[:, n, :],
            float(network.replacement_costs[n]),
            int(network.cache_sizes[n]),
            x0[n],
        )[0]
        for n in range(LOOP_SAMPLE)
    ]
    loop_sample_seconds = time.perf_counter() - started
    loop_projected_seconds = loop_sample_seconds / LOOP_SAMPLE * NUM_SBS
    # Same answer, both granularities.
    for n, xn in enumerate(loop_x):
        assert np.array_equal(xn, p1.x[:, n, :])

    # ---- leg 3: two full subgradient iterations of Algorithm 1.
    alg1_recorder = Recorder()
    started = time.perf_counter()
    with record_into(alg1_recorder):
        result = solve_primal_dual(
            problem,
            max_iter=2,
            solve_cache=SolveCache(),
            max_seconds=1800.0,  # safety net, not the expected stop
        )
    alg1_seconds = time.perf_counter() - started
    alg1_counters = _counters(alg1_recorder)
    assert alg1_counters["p1_batched_solves"] > 0
    assert (
        alg1_counters["p1_batched_solves"]
        + alg1_counters["p1_batched_fallbacks"]
        == alg1_counters["p1_memo_misses"]
    )
    assert np.isfinite(result.cost.total)
    assert result.lower_bound <= result.cost.total + 1e-6

    payload = {
        "bench": "large",
        "scale": "large",
        "workload": {
            "num_sbs": NUM_SBS,
            "num_items": NUM_ITEMS,
            "num_classes": network.num_classes,
            "users_per_class": USERS_PER_CLASS,
            "users_total": USERS_PER_CLASS * network.num_classes,
            "horizon": HORIZON,
            "cache_size": CACHE_SIZE,
            "bandwidth": BANDWIDTH,
            "beta": BETA,
            "seed": SEED,
        },
        "build_seconds": build_seconds,
        # Top-level *_seconds so `repro bench diff` gates them directly.
        "p2_closed_seconds": closed_seconds,
        "p2_bisect_seconds": bisect_seconds,
        "p2_legacy_seconds": legacy_seconds,
        "solve_counters": {**p1_counters, **ab_counters},
        "p2_kernel": {
            "seconds": p2_seconds,
            "objective": p2.objective,
            "rows": NUM_SBS * HORIZON,
            "columns": CLASSES_PER_SBS * NUM_ITEMS,
            "counters": p2_counters,
        },
        "p2_bw_ab": {
            "rows": R,
            "columns": J,
            "bound_rows": bound_rows,
            "closed_seconds": closed_seconds,
            "bisect_seconds": bisect_seconds,
            "legacy_seconds": legacy_seconds,
            "speedup_vs_legacy": speedup_vs_legacy,
            "speedup_vs_bisect": bisect_seconds / max(closed_seconds, 1e-9),
            "counters": ab_counters,
            "peak_bytes": mem_peak,
            "state_bytes": state_bytes,
            "seed_floor_bytes": seed_floor_bytes,
            "memory_reduction": seed_floor_bytes / max(state_bytes, 1),
        },
        "p1_batched": {
            "seconds": p1_seconds,
            "objective": p1.objective,
            "counters": p1_counters,
            "loop_sample_sbss": LOOP_SAMPLE,
            "loop_sample_seconds": loop_sample_seconds,
            "loop_projected_seconds": loop_projected_seconds,
            "batched_speedup_projected": loop_projected_seconds
            / max(p1_seconds, 1e-9),
        },
        "mini_alg1": {
            "seconds": alg1_seconds,
            "iterations": 2,
            "feasible_cost": result.cost.total,
            "lower_bound": result.lower_bound,
            "counters": alg1_counters,
            "stopped_by_budget": result.stopped_by_budget,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_large.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    manifest = run_manifest(seed=SEED, config=payload["workload"])
    write_manifest(RESULTS_DIR / "BENCH_large.manifest.json", manifest)

    lines = [
        f"scale=large: N={NUM_SBS} SBSs, K={NUM_ITEMS} items, "
        f"~{USERS_PER_CLASS * network.num_classes:,} users",
        f"  build               {build_seconds:8.1f}s",
        f"  P2 stacked kernel   {p2_seconds:8.1f}s   (one solve, "
        f"{NUM_SBS * HORIZON} x {CLASSES_PER_SBS * NUM_ITEMS})",
        f"  P2 bw-bound A/B     {closed_seconds:8.1f}s   closed vs "
        f"{bisect_seconds:.1f}s early-exit, {legacy_seconds:.1f}s legacy "
        f"({speedup_vs_legacy:.1f}x); state {state_bytes / 1e6:.0f} MB vs "
        f"seed floor {seed_floor_bytes / 1e6:.0f} MB "
        f"({seed_floor_bytes / max(state_bytes, 1):.1f}x)",
        f"  P1 batched (500)    {p1_seconds:8.1f}s   vs projected loop "
        f"{loop_projected_seconds:.0f}s "
        f"({loop_projected_seconds / max(p1_seconds, 1e-9):.0f}x)",
        f"  Alg.1, 2 iterations {alg1_seconds:8.1f}s   "
        f"cost={result.cost.total:.1f} lb={result.lower_bound:.1f}",
    ]
    save_report("large_scale", "\n".join(lines))
    print(f"\n[saved to {path}]")
