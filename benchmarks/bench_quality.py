"""True-approximation-ratio benchmark anchored by the MWU quality oracle.

Every other quality number in the repository is relative to *GMM-offline*
(a 1/2-approximation) via the ``2 * div(GMM)`` upper bound.  This bench
reports **true** ratios: the MWU + LP-rounding oracle
(:func:`repro.baselines.mwu.mwu_fair`) computes a near-exact fair optimum
on the full dataset, and SFDM2, SlidingWindowFDM, and the coreset pipeline
are scored against it on the same stream permutation.

Two layers of evidence land in ``BENCH_hot_paths.json`` (section
``quality`` at acceptance scale ``n >= 10_000``, ``quality_smoke`` below
it; override the scale with ``REPRO_BENCH_QUALITY_N``):

1. **Scale ratios** — per-algorithm diversity over MWU diversity at the
   bench scale, plus MWU's own certified lower bound against the
   ``2 * div(GMM)`` upper bound on the optimum.
2. **Exact sweep** — on seeded instances small enough for the brute-force
   :func:`exact_fdm`, MWU must land within 10% of the optimum on *every*
   configuration; the sweep's integer counters (cases, cases within 10%,
   MWU's counted distance evaluations) are deterministic per seed, so
   ``tools/perf_gate.py`` checks every smoke run reproduces them exactly.
"""

from __future__ import annotations

import os
import time

import numpy as np

import repro
from repro.baselines.exact import exact_fdm
from repro.baselines.mwu import mwu_fair
from repro.data.element import Element
from repro.evaluation.reporting import write_csv
from repro.fairness.constraints import FairnessConstraint, equal_representation
from repro.metrics.vector import EuclideanMetric
from repro.parallel.backends import usable_cpus

from .conftest import BENCH_SEED, print_table, record_bench_section, scaled_csv_name

#: Acceptance-scale dataset size (override with REPRO_BENCH_QUALITY_N).
QUALITY_N = int(os.environ.get("REPRO_BENCH_QUALITY_N", "10000"))
#: Acceptance threshold separating the `quality` and `quality_smoke` sections.
CANONICAL_N = 10_000

K = 10
M = 2
EPSILON = 0.1

#: The algorithms scored against the MWU anchor.
SCORED = ("SFDM2", "SlidingWindowFDM", "Coreset")

#: Exact-sweep configuration: seeds x group counts, all with n <= 25.
SWEEP_SEEDS = (3, 11, 29)
SWEEP_GROUPS = (2, 3, 4)

COLUMNS = ["algorithm", "n", "diversity", "ratio_vs_mwu", "distance_evals", "seconds"]


def _sweep_instance(seed: int, m: int):
    """A seeded small instance (n <= 25) with feasible quotas."""
    rng = np.random.default_rng(seed + 1_000 * m)
    n = int(rng.integers(4 * m, 26))
    quotas = {group: int(rng.integers(1, 3)) for group in range(m)}
    groups = rng.integers(0, m, size=n)
    slot = 0
    for group, quota in quotas.items():
        for _ in range(quota):
            groups[slot] = group
            slot += 1
    points = rng.uniform(0.5, 10.0, size=(n, 3))
    elements = [
        Element(uid=i, vector=points[i], group=int(groups[i])) for i in range(n)
    ]
    return elements, FairnessConstraint(quotas)


def _exact_sweep():
    """MWU vs brute force on every seeded small configuration.

    Returns the integer counters the perf gate re-proves: total cases,
    cases within 10% of the exact optimum, and the summed counted distance
    evaluations of the MWU runs (deterministic per seed).
    """
    metric = EuclideanMetric()
    cases = 0
    within = 0
    mwu_evals = 0
    for seed in SWEEP_SEEDS:
        for m in SWEEP_GROUPS:
            elements, constraint = _sweep_instance(seed, m)
            _, exact_div = exact_fdm(elements, metric, constraint)
            result = mwu_fair(elements, metric, constraint, seed=seed)
            cases += 1
            if result.solution.is_fair and result.solution.diversity >= 0.9 * exact_div:
                within += 1
            mwu_evals += result.stats.stream_distance_computations
    return cases, within, mwu_evals


def _solve(store, constraint, algorithm):
    """One scored run; returns (diversity, counted evals, seconds)."""
    started = time.perf_counter()
    result = repro.solve(
        store,
        constraint=constraint,
        algorithm=algorithm,
        epsilon=EPSILON,
        seed=BENCH_SEED,
    )
    elapsed = time.perf_counter() - started
    assert result.solution.is_fair, f"{algorithm} returned an unfair solution"
    return result, elapsed


def test_quality_ratios(results_dir):
    """True approximation ratios vs the MWU anchor, plus the exact sweep."""
    dataset = repro.synthetic_blobs(n=QUALITY_N, m=M, seed=BENCH_SEED)
    store = dataset.columnar()
    assert store is not None, "synthetic blobs must be columnar"
    constraint = equal_representation(K, sorted(dataset.group_sizes().keys()))

    mwu_result, mwu_s = _solve(store, constraint, "MWU")
    mwu_div = mwu_result.solution.diversity

    gmm_result = repro.solve(store, k=K, algorithm="GMM", seed=BENCH_SEED)
    upper_bound = 2.0 * gmm_result.solution.diversity
    mwu_certified = mwu_div / upper_bound

    rows = [
        {
            "algorithm": "MWU",
            "n": QUALITY_N,
            "diversity": mwu_div,
            "ratio_vs_mwu": 1.0,
            "distance_evals": mwu_result.stats.total_distance_computations,
            "seconds": mwu_s,
        }
    ]
    ratios = {}
    for algorithm in SCORED:
        result, elapsed = _solve(store, constraint, algorithm)
        ratio = result.solution.diversity / mwu_div
        ratios[algorithm] = ratio
        rows.append(
            {
                "algorithm": algorithm,
                "n": QUALITY_N,
                "diversity": result.solution.diversity,
                "ratio_vs_mwu": ratio,
                "distance_evals": result.stats.total_distance_computations,
                "seconds": elapsed,
            }
        )
        # The anchor must sit near the top: a scored heuristic beating the
        # oracle by more than the falloff resolution means the oracle broke.
        assert ratio <= 1.0 + EPSILON, f"{algorithm} beat MWU by {ratio:.3f}x"

    cases, within, sweep_evals = _exact_sweep()
    assert within == cases, f"MWU missed 10%-of-exact on {cases - within} configs"

    print_table(rows, COLUMNS, title=f"true approximation ratios — n={QUALITY_N}")
    write_csv(
        rows,
        results_dir / scaled_csv_name("quality", QUALITY_N, CANONICAL_N),
        columns=COLUMNS,
    )

    record_bench_section(
        "quality" if QUALITY_N >= CANONICAL_N else "quality_smoke",
        {
            "n": QUALITY_N,
            "k": K,
            "m": M,
            "epsilon": EPSILON,
            "seed": BENCH_SEED,
            "cpus": usable_cpus(),
            "mwu_diversity": round(mwu_div, 6),
            "mwu_certified_ratio": round(mwu_certified, 4),
            "mwu_distance_evals": int(mwu_result.stats.total_distance_computations),
            "mwu_s": round(mwu_s, 4),
            "sfdm2_ratio": round(ratios["SFDM2"], 4),
            "sliding_window_ratio": round(ratios["SlidingWindowFDM"], 4),
            "coreset_ratio": round(ratios["Coreset"], 4),
            "exact_cases": int(cases),
            "exact_within_10pct": int(within),
            "exact_sweep_evals": int(sweep_evals),
        },
    )
