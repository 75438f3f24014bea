"""Every ``repro.solve`` input form: one answer, and elements only where needed.

``solve`` accepts one logical dataset in five forms: a ``DatasetSpec``, an
``(n, d)`` array with ``groups=``, an ``ElementStore``, a ``DataStream``
and a list of store views.  For **every** registered algorithm, with and
without a seed, each form must give the same uids in the same order,
bit-equal diversity and equal distance counts.

The second half counts ``Element`` constructions on n=20k array and store
inputs.  The per-row element list is built only when an offline algorithm
reads it:

* streaming algorithms build no more elements than they store;
* windowed and parallel algorithms build one element per row plus their
  summaries (what the same run builds from a ready list of views);
* offline algorithms build exactly one element per row;
* ``open_session(data=X, groups=g)`` builds at most one per row.

Both halves are driven off :func:`repro.algorithm_names`, so a newly
registered algorithm is covered automatically.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.data.element import Element

K = 4
N_LARGE = 20_000
#: Options that keep each algorithm's run short; every form gets the same.
OPTIONS = {
    "MWU": {"iterations": 8, "rounds": 2},
    "ParallelFDM": {"shards": 3, "backend": "serial"},
    "SlidingWindowFDM": {"window": 100, "blocks": 5},
}


def _columns(dataset):
    features = np.stack([element.vector for element in dataset.elements])
    groups = np.array([element.group for element in dataset.elements], dtype=np.int64)
    return features, groups


def _kind(name):
    return repro.get_algorithm(name).capabilities.kind


@pytest.fixture(scope="module")
def dataset():
    return repro.synthetic_blobs(n=300, m=2, seed=13)


@pytest.fixture(scope="module")
def forms(dataset):
    """``form -> (data, extra solve keywords)`` for one logical dataset."""
    features, groups = _columns(dataset)
    store = repro.ElementStore(features, groups)
    return {
        "spec": (dataset, {}),
        "array": (features, {"groups": groups}),
        "store": (store, {}),
        "stream": (repro.DataStream(store=store, name="data"), {}),
        "views": (store.elements(), {}),
    }


@pytest.mark.parametrize("seed", [None, 5], ids=["canonical", "seeded"])
@pytest.mark.parametrize("name", repro.algorithm_names())
def test_every_input_form_gives_the_same_answer(name, seed, forms):
    answers = {}
    for form, (data, keywords) in forms.items():
        result = repro.solve(
            data, k=K, algorithm=name, seed=seed, **keywords, **OPTIONS.get(name, {})
        )
        stats = result.stats
        answers[form] = (
            result.solution.uids,
            result.diversity,
            stats.stream_distance_computations,
            stats.postprocess_distance_computations,
        )
    reference = answers.pop("spec")
    for form, answer in answers.items():
        assert answer == reference, form


@pytest.fixture(scope="module")
def large():
    features, groups = _columns(repro.synthetic_blobs(n=N_LARGE, m=2, seed=11))
    return features, groups, repro.ElementStore(features, groups)


@pytest.fixture
def built(monkeypatch):
    """Counts ``Element.__init__`` calls in ``built.calls`` (tests may reset it)."""
    counter = SimpleNamespace(calls=0)
    original = Element.__init__

    def counting(element, *args, **kwargs):
        counter.calls += 1
        original(element, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counting)
    return counter


def _large_solve(name, data, **keywords):
    return repro.solve(data, k=K, algorithm=name, **keywords, **OPTIONS.get(name, {}))


@pytest.mark.parametrize("form", ["array", "store"])
@pytest.mark.parametrize("name", repro.algorithm_names())
def test_solve_builds_the_element_list_only_for_offline_algorithms(name, form, large, built):
    features, groups, store = large
    kind = _kind(name)
    summaries = 0
    if kind in ("window", "parallel"):
        views = store.elements()
        built.calls = 0
        _large_solve(name, views)
        summaries = built.calls

    built.calls = 0
    if form == "array":
        result = _large_solve(name, features, groups=groups)
    else:
        result = _large_solve(name, store)

    if kind == "streaming":
        assert built.calls <= result.stats.peak_stored_elements
    elif kind in ("window", "parallel"):
        assert built.calls <= N_LARGE + summaries
    elif kind in ("offline", "coreset"):
        assert built.calls == N_LARGE
    else:  # pragma: no cover - a new kind needs its bound here
        pytest.fail(f"no element bound for algorithm kind {kind!r}")


@pytest.mark.parametrize(
    "name",
    [
        name
        for name in repro.algorithm_names()
        if _kind(name) == "streaming" and repro.get_algorithm(name).capabilities.sessions
    ],
)
def test_open_session_with_data_builds_at_most_one_element_per_row(name, large, built):
    features, groups, _ = large
    session = repro.open_session(data=features, groups=groups, k=K, algorithm=name)
    assert session.elements_offered == N_LARGE
    assert built.calls <= N_LARGE


@pytest.mark.parametrize("name", ["auto", "GMM"])
def test_generated_dataset_builds_elements_only_where_needed(name, built):
    dataset = repro.synthetic_blobs(n=N_LARGE, m=3, dimensions=16, seed=7)
    assert built.calls == 0
    result = repro.solve(dataset, k=K, algorithm=name, seed=1)
    if name == "auto":
        assert built.calls <= result.stats.peak_stored_elements
    else:
        assert built.calls == N_LARGE
