"""Seeded randomized oracle tests for the distance-screening primitives.

Every streaming and offline algorithm reduces to a few brute-force
primitives over the metric kernels: the nearest-member distance
(``pairwise(X, Y).min(axis=1)``), the radius screen built on it (is a
point at least ``mu`` from every member?), the store-indexed kernels that
slice an :class:`ElementStore` directly, and GMM's farthest-point update.
Each test checks one primitive against an oracle over a grid of metrics
and dimensions 1 through 16:

* routes that evaluate the same kernel on the same operands (the
  store-indexed kernels, the chunked pairwise loop, ``distances_to`` on a
  subset of rows) must agree *bitwise*, and the union screen of the
  ingestion engine, whose levels share their in-chunk head rows, must
  decide as one screen per level and as the sequential ``offer`` do;
* routes that evaluate the scalar ``Metric.distance`` instead must agree
  to ``1e-9``, and screens at radii away from any evaluated distance must
  take identical decisions;
* the metrics' radius screen must decide every level exactly as the brute
  force ``pairwise(X, Y)[:, columns].min(axis=1) >= mu`` does, also on
  hostile inputs: far offsets, extreme scales, integer grids whose
  distances equal ``mu``, pairs planted within a few ulps of ``mu``, and
  NaN, infinite and overflowing rows on either side.

Alongside correctness, the tests pin the accounting contract: every route
charges a :class:`~repro.metrics.cached.CountingMetric` exactly the scalar
distances it stands for.
"""

import zlib

import numpy as np
import pytest

from repro import SFDM2, equal_representation, synthetic_blobs
from repro.baselines.gmm import gmm_elements
from repro.core.base import _UnionScreen
from repro.core.candidate import Candidate
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.metrics import vector as vector_module
from repro.metrics.base import CallableMetric
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


#: Hostile inputs for the radius screen (see :func:`_screen_case`).
SCREEN_CASES = (
    "offset-1e6",
    "offset-1e9",
    "scale-1e150",
    "scale-1e-150",
    "integer-grid",
    "planted",
    "nan-chunk",
    "inf-chunk",
    "neg-inf-chunk",
    "huge-chunk",
    "nan-union",
    "inf-union",
    "neg-inf-union",
    "huge-union",
)
NON_FINITE = {"nan": np.nan, "inf": np.inf, "neg-inf": -np.inf, "huge": 1e200}


def _screen_case(metric, case: str, dim: int):
    """``(X, Y, columns, mus)`` for one radius-screen case.

    ``columns`` lays out four levels over the union rows ``Y`` (all of
    them, every other one, the second half, and row 0 alone).  Unless the
    case plants its own, the thresholds are evaluated distances: each
    level's ``mu`` is the nearest-member distance of some chunk row, so at
    least one row sits exactly on the threshold.
    """
    rng = np.random.default_rng(zlib.crc32(f"{case}/{dim}".encode()))
    X = _cloud(metric, seed=int(rng.integers(1 << 30)), n=40, dim=dim)
    Y = _cloud(metric, seed=int(rng.integers(1 << 30)), n=24, dim=dim)
    columns = [np.arange(24), np.arange(0, 24, 2), np.arange(12, 24), np.array([0])]
    value = case.partition("-")[2]
    if case.startswith("offset-"):
        X, Y = X + float(value), Y + float(value)
    elif case.startswith("scale-"):
        X, Y = X * float(value), Y * float(value)
    elif case == "integer-grid":
        X = rng.integers(0, 4, size=(40, dim)).astype(float)
        Y = rng.integers(0, 4, size=(24, dim)).astype(float)
    elif case == "planted":
        # Union rows 10 apart along one axis; chunk rows within a few ulps
        # of distance 1 from row 0 (on either side), plus a random cloud.
        Y = rng.normal(scale=0.1, size=(24, dim))
        Y[:, 0] += 10.0 * np.arange(24)
        direction = rng.normal(size=(16, dim))
        direction /= np.sqrt(np.einsum("ij,ij->i", direction, direction))[:, None]
        steps = np.arange(-8, 8)
        X[:16] = Y[0] + (1.0 + steps * 2.0**-52)[:, None] * direction
        return X, Y, columns, np.ones(len(columns))
    elif case.endswith("-chunk"):
        X[3, 0] = X[17] = NON_FINITE[case[: -len("-chunk")]]
    else:
        Y[0, -1] = Y[13] = NON_FINITE[case[: -len("-union")]]
    brute = metric.pairwise(X, Y)
    mus = []
    for level_columns in columns:
        nearest = brute[:, level_columns].min(axis=1)
        nearest = nearest[np.isfinite(nearest) & (nearest > 0)]
        mus.append(float(np.sort(nearest)[len(nearest) // 2]) if nearest.size else 1.0)
    return X, Y, columns, np.array(mus)


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

    @pytest.mark.parametrize("case", SCREEN_CASES)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_radius_screen_matches_brute_force(self, metric, dim, case):
        X, Y, columns, mus = _screen_case(metric, case, dim)
        survives, rechecked, exact = metric._radius_screen(
            X, Y, metric._screen_union(Y), columns, mus
        )
        brute = metric.pairwise(X, Y)
        assert survives.shape == (len(columns), len(X))
        for level, (level_columns, mu) in enumerate(zip(columns, mus)):
            np.testing.assert_array_equal(
                survives[level], brute[:, level_columns].min(axis=1) >= mu
            )
        if not isinstance(metric, EuclideanMetric):
            # The exact matrix is the screen of every other metric.
            assert (rechecked, exact) == (0, True)
        elif "chunk" in case or "union" in case:
            # Non-finite or overflowing rows send the chunk to the exact matrix.
            assert (rechecked, exact) == (0, True)
        else:
            # Some row's nearest distance equals each level's mu (the
            # planted rows lie within ulps of it), so the band holds it.
            assert not exact
            assert rechecked >= (16 if case == "planted" else 1)

    def test_distances_to_entries_depend_on_their_own_row_only(self, metric, dim):
        # The in-chunk resolve reads a round's distances off rows evaluated
        # for other subsets of the chunk, which is exact only if entry i
        # depends on row i alone.
        M = _cloud(metric, seed=dim + 29, n=60, dim=dim, duplicates=True)
        rng = np.random.default_rng(dim)
        subsets = [np.array([row]) for row in (0, 31, 59)]
        subsets += [np.sort(rng.choice(60, size=size, replace=False)) for size in (2, 7, 30, 59)]
        subsets.append(rng.integers(0, 60, size=40))
        outside = _cloud(metric, seed=dim + 31, n=1, dim=dim)[0]
        counting = CountingMetric(metric)
        for point in (M[0], M[17], outside):
            full = metric.distances_to(point, M)
            for subset in subsets:
                assert np.array_equal(metric.distances_to(point, M[subset]), full[subset])
                assert np.array_equal(counting._head_distances(point, M[subset]), full[subset])

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
            (
                lambda m: m._radius_screen(
                    M[:7], M[10:], m._screen_union(M[10:]),
                    [np.arange(20), np.array([3])], np.array([0.5, 1.0]),
                )[0],
                7 * 20,
            ),
            # The resolve charges its rounds itself; the hook is not counted.
            (lambda m: m._head_distances(M[0], M[3:19]), 0),
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

    def test_first_chunk_of_empty_levels_matches_sequential_offer(self, metric, dim):
        # Every level starts empty, so all of them resolve the first chunk in
        # full and share their head rows: the case the head-row table serves.
        # Shuffled levels make later rounds ask for entries an earlier round
        # with the same head did not need.
        n = 192
        M = _cloud(metric, seed=dim + 90, n=n, dim=dim, duplicates=True)
        elements = _elements(M)
        radii = _radii(_oracle(metric, M[:64], M[:64]), quantiles=np.linspace(0.02, 0.98, 24))
        levels = [(mu, 1 + level % 12) for level, mu in enumerate(radii)]
        levels = [levels[i] for i in np.random.default_rng(dim).permutation(len(levels))]
        shared_counting, single_counting = CountingMetric(metric), CountingMetric(metric)
        shared = [Candidate(mu=mu, capacity=cap, metric=shared_counting) for mu, cap in levels]
        singles = [Candidate(mu=mu, capacity=cap, metric=single_counting) for mu, cap in levels]
        sequential = [Candidate(mu=mu, capacity=cap, metric=metric) for mu, cap in levels]
        union = _UnionScreen(list(shared))
        per_level = [_UnionScreen([candidate]) for candidate in singles]
        for start in range(0, n, 64):
            rows = M[start : start + 64]
            if not union.exhausted:
                _, _, heads = union.process(shared_counting, rows, _at(elements, start))
            single_heads = sum(
                screen.process(single_counting, rows, _at(elements, start))[2]
                for screen in per_level
                if not screen.exhausted
            )
            if start == 0:
                # Heads are accepted rows, each evaluated once for all levels.
                accepted = {id(e) for candidate in shared for e in candidate}
                assert 0 < heads <= min(len(accepted), single_heads)
        for element in elements:
            for candidate in sequential:
                candidate.offer(element)
        for via_union, via_single, oracle in zip(shared, singles, sequential):
            assert [id(e) for e in via_union] == [id(e) for e in oracle]
            assert [id(e) for e in via_single] == [id(e) for e in oracle]
        assert shared_counting.calls == single_counting.calls

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


#: Distance evaluations an SFDM2 run charges on ``synthetic_blobs(n=3000,
#: m=2, seed=7)`` with k=10, per chunk size: every level's screen in full
#: and ``len(alive)`` per resolve round, as if each round were its own
#: kernel call.
PER_ROUND_CHARGES = {64: 596_901, 256: 762_062}


@pytest.mark.parametrize("batch_size", sorted(PER_ROUND_CHARGES))
def test_resolve_evaluates_no_more_scalar_distances_than_its_rounds(batch_size, monkeypatch):
    """Shared head rows never cost a scalar metric more than a kernel call per round would.

    Each ``(head, row)`` pair is evaluated at most once per chunk, so in
    every union screen the metric's own calls during the resolve stay
    within the rounds' charged distances, and fall below them where guess
    levels share heads.  The charged counts are unaffected by the sharing.
    """
    calls = [0]
    euclidean = EuclideanMetric()

    def counted(x, y):
        calls[0] += 1
        return euclidean.distance(x, y)

    ledger = []
    process = _UnionScreen.process

    def recorded(screen, metric, vectors, element_at):
        # The screen evaluates chunk x union and charges chunk x members.
        members = [id(member) for candidate in screen.candidates for member in candidate]
        own, charged = calls[0], metric.calls
        result = process(screen, metric, vectors, element_at)
        ledger.append((
            calls[0] - own - len(vectors) * len(set(members)),
            metric.calls - charged - len(vectors) * len(members),
            result[2],
        ))
        return result

    monkeypatch.setattr(_UnionScreen, "process", recorded)
    dataset = synthetic_blobs(n=3000, m=2, seed=7)
    constraint = equal_representation(k=10, groups=dataset.group_sizes().keys())
    algorithm = SFDM2(
        metric=CallableMetric(counted), constraint=constraint, batch_size=batch_size
    )
    stats = algorithm.run(dataset.elements).stats
    assert (
        stats.stream_distance_computations + stats.postprocess_distance_computations
        == PER_ROUND_CHARGES[batch_size]
    )
    assert all(evaluated <= rounds for evaluated, rounds, _ in ledger)
    assert all(evaluated == 0 for evaluated, _, heads in ledger if not heads)
    assert sum(evaluated for evaluated, _, _ in ledger) < sum(rounds for _, rounds, _ in ledger)
