"""Seeded randomized oracle tests for the distance-screening primitives.

Every streaming and offline algorithm reduces to a few brute-force
primitives over the metric kernels: the nearest-member distance
(``pairwise(X, Y).min(axis=1)``), the radius screen built on it (is a
point at least ``mu`` from every member?), the store-indexed kernels that
slice an :class:`ElementStore` directly, and GMM's farthest-point update.
Each test checks one primitive against an oracle over a grid of metrics
and dimensions 1 through 16:

* routes that evaluate the same kernel on the same operands (the
  store-indexed kernels, the chunked pairwise loop, the union screen of
  the ingestion engine) must agree *bitwise*;
* routes that evaluate the scalar ``Metric.distance`` instead must agree
  to ``1e-9``, and screens at radii away from any evaluated distance must
  take identical decisions.

Alongside correctness, the tests pin the accounting contract: every route
charges a :class:`~repro.metrics.cached.CountingMetric` exactly the scalar
distances it stands for.
"""

import numpy as np
import pytest

from repro.baselines.gmm import gmm_elements
from repro.core.base import _UnionScreen
from repro.core.candidate import Candidate
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.metrics import vector as vector_module
from repro.metrics.cached import CountingMetric
from repro.metrics.vector import (
    AngularMetric,
    ChebyshevMetric,
    CosineDistanceMetric,
    EuclideanMetric,
    HammingMetric,
    ManhattanMetric,
    MinkowskiMetric,
)

METRICS = [
    EuclideanMetric(),
    ManhattanMetric(),
    ChebyshevMetric(),
    MinkowskiMetric(3),
    AngularMetric(),
    CosineDistanceMetric(),
    HammingMetric(),
]
DIMS = (1, 2, 5, 16)
TOLERANCE = 1e-9


def _cloud(metric, seed: int, n: int, dim: int, duplicates: bool = False) -> np.ndarray:
    """A reproducible point cloud, binary for Hamming, optionally with repeats."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, dim))
    if duplicates:
        # Overwrite a third of the rows with copies of other rows so
        # screens and farthest-point rounds meet zero distances and ties.
        source = rng.integers(0, n, size=n // 3)
        target = rng.integers(0, n, size=n // 3)
        matrix[target] = matrix[source]
    if metric.name == "hamming":
        matrix = (matrix > 0).astype(float)
    return matrix


def _oracle(metric, Q: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The scalar distance matrix: one ``Metric.distance`` call per pair."""
    return np.array([[metric.distance(q, m) for m in M] for q in Q])


def _radii(distances: np.ndarray, quantiles=(0.1, 0.5, 0.9)):
    """Screen radii strictly inside gaps between the evaluated distances.

    Each radius is the midpoint of a gap wider than ``1e-6`` near the
    given quantile, so no screen decision hinges on the last bits of a
    distance and kernel and scalar routes must decide alike.
    """
    values = np.unique(distances)
    wide = np.nonzero(np.diff(values) > 1e-6)[0]
    if not wide.size:
        return [float(values[-1]) + 1.0]
    midpoints = 0.5 * (values[wide] + values[wide + 1])
    return [float(midpoints[int(q * (len(midpoints) - 1))]) for q in quantiles]


def _elements(matrix: np.ndarray, groups: int = 2):
    """Standalone (object-path) elements over the rows of ``matrix``."""
    return [Element(uid=i, vector=row, group=i % groups) for i, row in enumerate(matrix)]


def _at(elements, offset: int):
    """The screen's row-to-element callback for a chunk starting at ``offset``."""
    return lambda position: elements[offset + position]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
class TestKernelOracles:
    def test_radius_screen_matches_scalar_oracle(self, metric, dim):
        M = _cloud(metric, seed=dim + 7, n=50, dim=dim)
        Q = _cloud(metric, seed=dim + 200, n=15, dim=dim)
        oracle = _oracle(metric, Q, M)
        nearest = metric.pairwise(Q, M).min(axis=1)
        np.testing.assert_allclose(nearest, oracle.min(axis=1), rtol=TOLERANCE, atol=TOLERANCE)
        for mu in _radii(oracle):
            np.testing.assert_array_equal(nearest >= mu, (oracle >= mu).all(axis=1))

    def test_distances_idx_bitwise_equals_distances_to(self, metric, dim):
        M = _cloud(metric, seed=dim + 13, n=40, dim=dim)
        store = ElementStore(M, np.arange(40) % 3)
        for row, indexer in (
            (0, slice(0, 40)),
            (7, slice(5, 31)),
            (39, np.array([3, 1, 4, 1, 5, 9, 26])),
        ):
            assert np.array_equal(
                metric.distances_idx(store, row, indexer),
                metric.distances_to(M[row], M[indexer]),
            )

    def test_pairwise_idx_bitwise_equals_pairwise(self, metric, dim):
        M = _cloud(metric, seed=dim + 17, n=40, dim=dim)
        store = ElementStore(M, np.zeros(40, dtype=int))
        rows = np.array([2, 9, 9, 30, 17])
        assert np.array_equal(
            metric.pairwise_idx(store, rows, slice(10, 25)), metric.pairwise(M[rows], M[10:25])
        )
        assert np.array_equal(metric.pairwise_idx(store, rows), metric.pairwise(M[rows]))

    def test_chunked_pairwise_bitwise_equals_one_block(self, metric, dim, monkeypatch):
        M = _cloud(metric, seed=dim + 19, n=30, dim=dim)
        Q = _cloud(metric, seed=dim + 300, n=20, dim=dim)
        cross, within = metric.pairwise(Q, M), metric.pairwise(Q)
        # A one-float budget forces one row per chunk in every chunked kernel.
        monkeypatch.setattr(vector_module, "_CHUNK_BUDGET", 1)
        assert np.array_equal(metric.pairwise(Q, M), cross)
        assert np.array_equal(metric.pairwise(Q), within)

    def test_counting_charges_every_route_in_full(self, metric, dim):
        M = _cloud(metric, seed=dim + 23, n=30, dim=dim)
        store = ElementStore(M, np.zeros(30, dtype=int))
        counting = CountingMetric(metric)
        routes = [
            (lambda m: m.distances_to(M[0], M), 30),
            (lambda m: m.pairwise(M[:7], M), 7 * 30),
            (lambda m: m.pairwise(M[:7]), 7 * 7),
            (lambda m: m.distances_idx(store, 3, slice(4, 20)), 16),
            (lambda m: m.pairwise_idx(store, np.arange(5), slice(10, 22)), 5 * 12),
            (lambda m: m.pairwise_idx(store, np.arange(6)), 6 * 6),
        ]
        for route, charge in routes:
            before = counting.calls
            assert np.array_equal(route(counting), route(metric))
            assert counting.calls - before == charge


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
class TestEngineOracles:
    def test_one_candidate_screen_accepts_what_sequential_offer_accepts(self, metric, dim):
        M = _cloud(metric, seed=dim + 40, n=70, dim=dim, duplicates=True)
        elements = _elements(M)
        for mu in _radii(_oracle(metric, M, M)):
            sequential = Candidate(mu=mu, capacity=12, metric=metric)
            for element in elements:
                sequential.offer(element)
            screened = Candidate(mu=mu, capacity=12, metric=metric)
            screen = _UnionScreen([screened])
            for start in range(0, len(elements), 16):
                if not screen.exhausted:
                    screen.process(metric, M[start : start + 16], _at(elements, start))
            assert [e.uid for e in screened] == [e.uid for e in sequential]
            assert all(a is b for a, b in zip(screened, sequential))

    def test_union_screen_matches_one_screen_per_level(self, metric, dim):
        n = 96
        M = _cloud(metric, seed=dim + 50, n=n, dim=dim)
        store = ElementStore(M, np.arange(n) % 2)
        radii = _radii(_oracle(metric, M[:40], M), quantiles=(0.05, 0.2, 0.4, 0.7))
        union_counting, level_counting = CountingMetric(metric), CountingMetric(metric)
        union_levels = [Candidate(mu=mu, capacity=8, metric=union_counting) for mu in radii]
        single_levels = [Candidate(mu=mu, capacity=8, metric=level_counting) for mu in radii]
        union = _UnionScreen(list(union_levels))
        singles = [_UnionScreen([candidate]) for candidate in single_levels]
        order = np.random.default_rng(dim).permutation(n)
        for start in range(0, n, 16):
            rows = order[start : start + 16]
            views = [store.element(row) for row in rows]
            if not union.exhausted:
                union.process(union_counting, M[rows], _at(views, 0))
            for screen in singles:
                if not screen.exhausted:
                    screen.process(level_counting, M[rows], _at(views, 0))
        for union_level, single_level in zip(union_levels, single_levels):
            assert [e.uid for e in union_level] == [e.uid for e in single_level]
        # The shared columns are charged once per level, as separate screens are.
        assert union_counting.calls == level_counting.calls

    def test_farthest_point_store_and_list_routes_agree(self, metric, dim):
        M = _cloud(metric, seed=dim + 60, n=80, dim=dim, duplicates=True)
        store = ElementStore(M, np.arange(80) % 3)
        via_store, via_list = CountingMetric(metric), CountingMetric(metric)
        from_store = gmm_elements(store, via_store, k=10, start_index=5)
        from_list = gmm_elements(_elements(M, groups=3), via_list, k=10, start_index=5)
        assert [e.uid for e in from_store] == [e.uid for e in from_list]
        assert via_store.calls == via_list.calls
        restricted = gmm_elements(store, metric, k=6, restrict_group=1)
        assert [e.uid for e in restricted] == [
            e.uid for e in gmm_elements(_elements(M, groups=3), metric, k=6, restrict_group=1)
        ]
        assert all(e.group == 1 for e in restricted)

    def test_farthest_point_rounds_pick_the_farthest_element(self, metric, dim):
        M = _cloud(metric, seed=dim + 70, n=60, dim=dim)
        selected = [e.uid for e in gmm_elements(ElementStore(M, np.zeros(60, dtype=int)), metric, k=8)]
        assert len(selected) == len(set(selected)) == 8
        oracle = _oracle(metric, M, M)
        for step in range(1, len(selected)):
            nearest = oracle[:, selected[:step]].min(axis=1)
            nearest[selected[:step]] = -1.0
            assert nearest[selected[step]] >= nearest.max() - TOLERANCE


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
class TestDegenerateInputs:
    def test_single_row(self, metric):
        M = _cloud(metric, seed=81, n=1, dim=3)
        store = ElementStore(M, np.zeros(1, dtype=int))
        assert [e.uid for e in gmm_elements(store, metric, k=4)] == [0]
        candidate = Candidate(mu=0.5, capacity=3, metric=metric)
        _UnionScreen([candidate]).process(metric, M, store.element)
        assert [e.uid for e in candidate] == [0]

    def test_all_duplicate_rows(self, metric):
        M = np.repeat(_cloud(metric, seed=83, n=1, dim=4), 12, axis=0)
        store = ElementStore(M, np.zeros(12, dtype=int))
        # Zero up to round-off: the cosine kernel reads 2e-16 off a dot product.
        np.testing.assert_allclose(metric.pairwise(M), np.zeros((12, 12)), atol=TOLERANCE)
        # Every screen at a positive radius keeps only the first arrival.
        candidate = Candidate(mu=1e-6, capacity=5, metric=metric)
        _UnionScreen([candidate]).process(metric, M, store.element)
        assert [e.uid for e in candidate] == [0]
        assert [e.uid for e in gmm_elements(store, metric, k=3)] == [
            e.uid for e in gmm_elements(_elements(M), metric, k=3)
        ]

    def test_one_dimensional_payloads_promoted(self, metric):
        values = _cloud(metric, seed=85, n=9, dim=1)
        flat = values.ravel()
        assert np.array_equal(metric.pairwise(flat), metric.pairwise(values))
        assert np.array_equal(metric.distances_to(flat[0], flat), metric.distances_to(values[0], values))
        store = ElementStore(flat, np.zeros(9, dtype=int))
        assert np.array_equal(store.features, values)
