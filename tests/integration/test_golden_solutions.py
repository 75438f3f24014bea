"""Golden-pin regression tests: every registry algorithm vs. tracked outputs.

Every registered algorithm runs on two seeded tiny datasets and its
solution uids, diversity, and distance accounting are asserted against the
tracked ``tests/golden/solutions.json``.  The point is cross-PR drift
protection: a refactor that silently changes any algorithm's output — a
reordered reduction, a different tie-break, a lost distance charge — fails
here with a readable diff instead of slipping through.

The case list is driven off the registry, so registering a new built-in
without recording its golden entries fails loudly.  After an *intentional*
behaviour change, regenerate the file with ``make golden`` (which runs
``python tests/integration/test_golden_solutions.py --write``) and commit
the JSON diff for review.
"""

import json
import sys
from pathlib import Path

import pytest

import repro
from repro.datasets.synthetic import synthetic_blobs

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "solutions.json"

K = 6
SEED = 7
EPSILON = 0.1

#: The two seeded tiny datasets every algorithm is pinned on.
DATASETS = {
    "blobs-m2": lambda: synthetic_blobs(n=140, m=2, seed=101),
    "blobs-m3": lambda: synthetic_blobs(n=150, m=3, seed=202),
}

#: Options forwarded to solve() per algorithm (defaults elsewhere).
OPTIONS = {
    "ParallelFDM": {"shards": 3, "backend": "serial"},
    "Coreset": {"num_parts": 3},
    "SlidingWindowFDM": {"window": 80, "blocks": 4},
    "WindowFDM": {"blocks": 4},
}


def _cases():
    """Every (dataset, algorithm) pair within the algorithm's capabilities."""
    cases = []
    for dataset_key, factory in DATASETS.items():
        num_groups = factory().num_groups
        for name in repro.algorithm_names():
            entry = repro.get_algorithm(name)
            if not entry.capabilities.supports_groups(num_groups):
                continue
            cases.append((dataset_key, name))
    return cases


def _compute_record(dataset_key, name):
    """The golden record of one case: uids, diversity, and accounting."""
    dataset = DATASETS[dataset_key]()
    result = repro.solve(
        dataset,
        k=K,
        algorithm=name,
        epsilon=EPSILON,
        seed=SEED,
        **OPTIONS.get(name, {}),
    )
    assert result.solution is not None, f"{name} found no solution on {dataset_key}"
    return {
        "uids": [int(uid) for uid in result.solution.uids],
        "diversity": float(result.solution.diversity),
        "distance_computations": int(result.stats.total_distance_computations),
        "elements_processed": int(result.stats.elements_processed),
    }


def write_golden():
    """Regenerate the tracked golden file from the current registry."""
    golden = {
        "k": K,
        "seed": SEED,
        "epsilon": EPSILON,
        "entries": {
            f"{dataset_key}/{name}": _compute_record(dataset_key, name)
            for dataset_key, name in _cases()
        },
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing golden file {GOLDEN_PATH}; run `make golden`")
    return json.loads(GOLDEN_PATH.read_text())


def test_every_registered_algorithm_is_pinned(golden):
    """Registering a new algorithm without golden entries fails loudly."""
    expected = {f"{dataset_key}/{name}" for dataset_key, name in _cases()}
    assert set(golden["entries"]) == expected, (
        "golden case list is out of date; run `make golden` and review the diff"
    )


@pytest.mark.parametrize(
    "dataset_key,name", _cases(), ids=[f"{d}/{n}" for d, n in _cases()]
)
def test_solution_matches_golden(dataset_key, name, golden):
    """Uids, diversity, and distance accounting match the tracked values."""
    recorded = golden["entries"].get(f"{dataset_key}/{name}")
    assert recorded is not None, f"no golden entry for {dataset_key}/{name}; run `make golden`"
    fresh = _compute_record(dataset_key, name)
    assert fresh["uids"] == recorded["uids"], (
        f"{name} on {dataset_key} drifted; if intentional, run `make golden`"
    )
    assert fresh["distance_computations"] == recorded["distance_computations"]
    assert fresh["elements_processed"] == recorded["elements_processed"]
    assert fresh["diversity"] == pytest.approx(recorded["diversity"], rel=1e-9)


def _batched_cases():
    """Every golden case whose algorithm declares the ``batch_size`` option."""
    return [
        (dataset_key, name, batch_size)
        for dataset_key, name in _cases()
        if "batch_size" in repro.get_algorithm(name).capabilities.options
        for batch_size in (7, 64)
    ]


@pytest.mark.parametrize(
    "dataset_key,name,batch_size",
    _batched_cases(),
    ids=[f"{d}/{n}/batch{b}" for d, n, b in _batched_cases()],
)
def test_batched_solution_matches_golden(dataset_key, name, batch_size, golden):
    """Explicit chunk sizes reproduce the pinned default-chunk solution.

    Only uids, diversity and the element count are asserted: the pins were
    recorded at the default chunk size, and a chunk is screened in full, so
    the counted distance evaluations depend on where the chunks are cut.
    """
    recorded = golden["entries"].get(f"{dataset_key}/{name}")
    assert recorded is not None, f"no golden entry for {dataset_key}/{name}; run `make golden`"
    result = repro.solve(
        DATASETS[dataset_key](),
        k=K,
        algorithm=name,
        epsilon=EPSILON,
        seed=SEED,
        batch_size=batch_size,
        **OPTIONS.get(name, {}),
    )
    assert result.solution is not None, f"{name} found no solution on {dataset_key}"
    assert [int(uid) for uid in result.solution.uids] == recorded["uids"], (
        f"batched {name} on {dataset_key} diverged from the pinned solution"
    )
    assert result.stats.elements_processed == recorded["elements_processed"]
    assert float(result.solution.diversity) == pytest.approx(recorded["diversity"], rel=1e-9)


if __name__ == "__main__":  # pragma: no cover - exercised via `make golden`
    if "--write" not in sys.argv:
        print("usage: python tests/integration/test_golden_solutions.py --write")
        raise SystemExit(2)
    data = write_golden()
    print(f"wrote {len(data['entries'])} golden entries to {GOLDEN_PATH}")
