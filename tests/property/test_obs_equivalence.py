"""Tracing must never perturb results: traced == untraced, every algorithm.

Instrumentation only observes.  For **every** registered algorithm this
suite runs the same ``repro.solve`` call twice — once untraced, once into
a :class:`~repro.obs.MemorySink` — and asserts byte-identical solutions
(same uids in the same order, bit-equal diversity) and equal distance
accounting.  Driven off :func:`repro.algorithm_names`, so a newly
registered algorithm is covered automatically.

A second check re-computes two golden-pinned cases with tracing enabled
and compares them against the tracked ``tests/golden/solutions.json`` —
the pins hold with tracing on or off.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.datasets.synthetic import synthetic_blobs
from repro.obs import MemorySink

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "solutions.json"

K = 6
EPSILON = 0.1
SEED = 7
#: Options forwarded to solve() per algorithm (match test_solve_equivalence).
SOLVE_OPTIONS = {
    "ParallelFDM": {"shards": 3, "backend": "serial"},
    "Coreset": {"num_parts": 3},
    "SlidingWindowFDM": {"window": 100, "blocks": 5},
}


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Tracing state never leaks between tests."""
    obs.configure(sink=None, enabled=False)
    yield
    obs.configure(sink=None, enabled=False)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_blobs(n=250, m=2, seed=3)


def _solve(dataset, name, trace=None):
    return repro.solve(
        dataset,
        k=K,
        algorithm=name,
        epsilon=EPSILON,
        seed=SEED,
        trace=trace,
        **SOLVE_OPTIONS.get(name, {}),
    )


@pytest.mark.parametrize("name", sorted(repro.algorithm_names()))
def test_traced_run_is_byte_identical(name, dataset):
    untraced = _solve(dataset, name)
    sink = MemorySink()
    traced = _solve(dataset, name, trace=sink)

    assert not obs.enabled(), "solve(trace=...) must restore the tracer state"
    assert [e.uid for e in traced.solution.elements] == [
        e.uid for e in untraced.solution.elements
    ]
    assert traced.solution.diversity == untraced.solution.diversity
    assert (
        traced.stats.total_distance_computations
        == untraced.stats.total_distance_computations
    )
    assert (
        traced.stats.stream_distance_computations
        == untraced.stats.stream_distance_computations
    )
    assert traced.stats.elements_processed == untraced.stats.elements_processed

    # The trace is non-trivial: a solve root span wrapping the run.
    solve_spans = sink.spans("solve")
    assert len(solve_spans) == 1
    assert solve_spans[0]["attrs"]["algorithm"] == repro.get_algorithm(name).name


def _array_data(dataset):
    features = np.stack([element.vector for element in dataset.elements])
    groups = np.array([element.group for element in dataset.elements])
    return features, groups


def test_solve_span_encloses_the_array_solve(dataset):
    """Data resolution runs inside the ``solve`` span, and the run nests under it."""
    features, groups = _array_data(dataset)
    sink = MemorySink()
    repro.solve(features, k=K, groups=groups, algorithm="SFDM2", seed=SEED, trace=sink)
    (solve,) = sink.spans("solve")
    (run,) = sink.spans("run")
    assert solve["attrs"] == {"algorithm": "SFDM2", "n": dataset.size, "k": K}
    assert run["parent_id"] == solve["span_id"]
    assert solve["mono"] <= run["mono"]
    assert run["mono"] + run["dur"] <= solve["mono"] + solve["dur"]


def test_rejected_labels_leave_a_solve_span_with_the_error(dataset):
    features, groups = _array_data(dataset)
    labels = groups.astype(float)
    labels[5] = np.nan
    sink = MemorySink()
    with pytest.raises(repro.InvalidParameterError, match="row 5"):
        repro.solve(features, k=K, groups=labels, algorithm="SFDM2", trace=sink)
    (solve,) = sink.spans("solve")
    assert solve["error"] == "InvalidParameterError"
    assert not sink.spans("run")
    assert not obs.enabled()


def test_chunk_spans_record_the_screen_recheck_and_exact_fallback():
    """``ingest.chunk`` says which chunks the rounding band or the exact matrix decided.

    Points one apart on a line meet the integer thresholds 1, 2, 4, ...
    exactly, so the Euclidean screen's band fires; row 390, at 1e200,
    overflows the screen's squared norms and sends the blind screen of its
    chunk to the exact matrix.
    """
    features = np.column_stack([np.arange(400.0), np.zeros(400)])
    features[390] = 1e200
    options = dict(
        k=K, groups=np.arange(400) % 2, algorithm="SFDM2", epsilon=0.5,
        distance_bounds=(1.0, 256.0), batch_size=50,
    )
    untraced = repro.solve(features, **options)
    sink = MemorySink()
    traced = repro.solve(features, trace=sink, **options)
    assert traced.solution.uids == untraced.solution.uids
    assert traced.solution.diversity == untraced.solution.diversity
    chunks = {span["attrs"]["start"]: span["attrs"] for span in sink.spans("ingest.chunk")}
    assert sorted(chunks) == list(range(0, 400, 50))
    assert [start for start, attrs in chunks.items() if attrs["exact"]] == [350]
    assert all(isinstance(attrs["rechecked"], int) for attrs in chunks.values())
    assert sum(attrs["rechecked"] for attrs in chunks.values()) > 0


def test_chunk_spans_count_the_head_rows_the_resolve_evaluated():
    """``ingest.chunk`` says how many head rows its in-chunk resolve evaluated.

    The first chunk after the warm-up meets every guess level empty, so
    every level resolves it in full; later chunks resolve few rounds.
    """
    features, groups = _array_data(synthetic_blobs(n=3000, m=2, seed=7))
    options = dict(k=10, groups=groups, algorithm="SFDM2", batch_size=256)
    untraced = repro.solve(features, **options)
    sink = MemorySink()
    traced = repro.solve(features, trace=sink, **options)
    assert traced.solution.uids == untraced.solution.uids
    assert traced.solution.diversity == untraced.solution.diversity
    assert traced.stats.total_distance_computations == untraced.stats.total_distance_computations
    chunks = sorted(sink.spans("ingest.chunk"), key=lambda span: span["attrs"]["start"])
    heads = [span["attrs"]["heads"] for span in chunks]
    assert chunks[0]["attrs"]["start"] == 0
    assert all(isinstance(count, int) for count in heads)
    assert heads[0] > max(heads[1:])


def test_sfdm2_guess_spans_record_the_intersection(dataset):
    """One ``sfdm2.guess`` span per eligible guess, carrying its pool, clusters and paths."""
    sink = MemorySink()
    result = repro.solve(
        dataset, k=K, algorithm="SFDM2", epsilon=EPSILON, seed=SEED, trace=sink
    )
    guesses = sink.spans("sfdm2.guess")
    assert len(guesses) == result.stats.extra["eligible_guesses"] > 0
    for span in guesses:
        attrs = span["attrs"]
        assert attrs["pool"] >= K
        assert 1 <= attrs["clusters"] <= attrs["pool"]
        assert attrs["augmenting_paths"] >= 0


def test_one_shot_postprocess_extracts_every_eligible_guess(dataset):
    """A one-shot run has no earlier query to reuse: its ``postprocess`` span says so."""
    sink = MemorySink()
    result = repro.solve(
        dataset, k=K, algorithm="SFDM2", epsilon=EPSILON, seed=SEED, trace=sink
    )
    (span,) = sink.spans("postprocess")
    assert span["attrs"]["levels_reused"] == 0
    assert span["attrs"]["levels_extracted"] == result.stats.extra["eligible_guesses"] > 0
    assert "levels_reused" not in result.stats.extra
    assert "levels_extracted" not in result.stats.extra


def test_repeat_session_query_extracts_no_guess(dataset):
    """A query with nothing offered since the last one reuses every eligible guess."""
    session = repro.open_session(k=K, groups=[0, 1], algorithm="SFDM2", epsilon=EPSILON)
    session.offer_batch(dataset.stream(seed=SEED))
    with obs.tracing("memory") as sink:
        first = session.solution()
        again = session.solution()
    eligible = again.stats.extra["eligible_guesses"]
    assert eligible > 0
    first_span, again_span = (span["attrs"] for span in sink.spans("session.solution"))
    assert (first_span["levels_reused"], first_span["levels_extracted"]) == (0, eligible)
    assert (again_span["levels_reused"], again_span["levels_extracted"]) == (eligible, 0)
    # Off the stats, so session and one-shot stats stay equal.
    assert first.stats.extra == again.stats.extra == _solve(dataset, "SFDM2").stats.extra


@pytest.mark.parametrize("case", ["blobs-m2/SFDM1", "blobs-m2/SFDM2"])
def test_golden_pins_hold_with_tracing_on(case):
    """The tracked golden records are reproduced by a *traced* solve."""
    golden = json.loads(GOLDEN_PATH.read_text())
    recorded = golden["entries"][case]
    _, name = case.split("/")
    dataset = synthetic_blobs(n=140, m=2, seed=101)
    with obs.tracing("memory"):
        result = repro.solve(
            dataset, k=golden["k"], algorithm=name,
            epsilon=golden["epsilon"], seed=golden["seed"],
        )
    assert [int(uid) for uid in result.solution.uids] == recorded["uids"]
    assert float(result.solution.diversity) == recorded["diversity"]
    assert (
        int(result.stats.total_distance_computations)
        == recorded["distance_computations"]
    )
