"""The dataset boundary: generators return a ``DatasetSpec`` over one store.

* Every registered dataset and ``uniform_points`` produce, row for row,
  the elements they produced when each generator built one ``Element``
  per row: uid, group, label and the vector bit for bit (sha256 digests
  recorded from that implementation, two seeds each).
* ``group_sizes()`` (read off the store's group column) equals the
  first-appearance walk over ``elements``.
* Sizes, group counts, streams and a streaming ``solve`` never build the
  element list; its first read builds plain elements once and caches them.
"""

import hashlib
import pickle

import numpy as np
import pytest

import repro
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.datasets import DatasetSpec, dataset_names, load_dataset, uniform_points
from repro.metrics.vector import EuclideanMetric

N = 257
SEEDS = (0, 11)

#: ``name/seed -> sha256`` of ``_digest`` over the generated elements.
DIGESTS = {
    "adult-race/0": "90849dbabc6ce3911785c69cf667eff25333c10b70643f9ef7ba713912b54538",
    "adult-race/11": "7d658bb7bcfb18db35d121d851ac1a0dfba01c0a625f2d864aa91e834dd0cb5d",
    "adult-sex+race/0": "61e4a717d56bfa79232b0209b18ca6b5fe2d28437fecdd2a34903977c0ad319e",
    "adult-sex+race/11": "14e246131d872a99db14d432974357ba73ce33ba9039690f826fbcb87e22ee10",
    "adult-sex/0": "49c8c92cdb0f07d8347a4634fc62994ca1b22347232e21b46dba182ceef4ce47",
    "adult-sex/11": "828ae0259e7afc02cf3b1e0a721fda6b197daa6f3123fd731efa1d829751e95c",
    "celeba-age/0": "45b03e30dac4fa43d8930d6812808504190e6e21f53cbbe830d0e630ba4654ab",
    "celeba-age/11": "c14fe7229815bf4788bd05cc3d32f37e9740edbcd96a608edeb71e071ddd29eb",
    "celeba-sex+age/0": "c3bc565aadb5879aca048678944545334b9398ba1d293f9f4ecef9670eeb5175",
    "celeba-sex+age/11": "0abc0f18405b7cac1751de900f5264fa67f68390a4e882dc9d43810cb262cfcc",
    "celeba-sex/0": "2e609b7b19c28d062072883dae339c1534b9c9afb046a464a9db65567c6cad12",
    "celeba-sex/11": "3d0e5eeea6a520c39b36a18053262cfb76ae74456a4d2e562a4cc8112e43c3d3",
    "census-age/0": "f192ef81c027aa151120a4f596ca1dd8a7896c2e5c382cbdc90cee4456b9094d",
    "census-age/11": "0bdaf3a057919e9a93e75b0adb9dedb0779aef47a9319eb11aa0b90e8e1dfe88",
    "census-sex+age/0": "ab55727ae4bccd2df67a106a77d462cae907a68bbfbec446af198a0965c36fcf",
    "census-sex+age/11": "1a757fa0f40b941a5a19c1b7d5aeb4a53c1994cf5c81d6cd8c530fd549754924",
    "census-sex/0": "6ad1c839444ff3f76a427e60778ef8db17fa1128da259d959e77303c2dcd399f",
    "census-sex/11": "25dbbb05bdb154482410aa88c1199ce3b6c6280be56611dd9490d097009d5c50",
    "lyrics-genre/0": "2b2f626187fb4c6bb92683d8b856d02ef9b7dd7f447003a900fc8edc5336d173",
    "lyrics-genre/11": "4d9d436169b9afebb7399815a5c12968f02c5b67609ada4968e19ec3774c0a54",
    "synthetic-m10/0": "eb2d720dc2ea356d8b1ae723f1f3c4f98c2ef0f3ac6b77190ad39755dfb9273e",
    "synthetic-m10/11": "7592d42a57f9bd2ca6c47d044568436487123d2b4a4bbfb3e453cca1461266ff",
    "synthetic-m2/0": "af5c68aa34572b667840715ffeac25ac2a68accd11b1b52aaaacc1cde496fe9a",
    "synthetic-m2/11": "f1eed89eda0a498aaffbf3b5d9d88a055f203c3022ba87292455c070c9a4b7e0",
    "uniform/0": "4d6384a064d21b88d7b80db3aab0b8f984a2a41843c72fcef06c3591d554b6f9",
    "uniform/11": "711dd12eb00b201d79b0711648d0bde8c0d9348ffaac5342541532250c60854f",
}

CASES = [(name, seed) for name in dataset_names() for seed in SEEDS]
CASES += [("uniform", seed) for seed in SEEDS]


def _generate(name, seed):
    if name == "uniform":
        return uniform_points(n=N, m=3, dimensions=3, seed=seed)
    return load_dataset(name, n=N, seed=seed)


def _digest(elements):
    digest = hashlib.sha256()
    for element in elements:
        digest.update(np.int64(element.uid).tobytes())
        digest.update(np.int64(element.group).tobytes())
        digest.update(repr(element.label).encode())
        vector = np.asarray(element.vector)
        digest.update(str(vector.dtype).encode())
        digest.update(vector.tobytes())
    return digest.hexdigest()


def test_every_dataset_is_pinned():
    assert {f"{name}/{seed}" for name, seed in CASES} == set(DIGESTS)


@pytest.mark.parametrize("name,seed", CASES)
def test_generated_elements_are_unchanged(name, seed):
    dataset = _generate(name, seed)
    assert _digest(dataset.elements) == DIGESTS[f"{name}/{seed}"]


@pytest.mark.parametrize("name,seed", CASES)
def test_group_sizes_equal_the_first_appearance_walk(name, seed):
    dataset = _generate(name, seed)
    sizes = dataset.group_sizes()
    walk = {}
    for element in dataset.elements:
        walk[element.group] = walk.get(element.group, 0) + 1
    assert list(sizes.items()) == list(walk.items())
    assert all(type(label) is int and type(count) is int for label, count in sizes.items())
    assert dataset.num_groups == len(walk)
    assert dataset.size == N


class TestStoreFirstSpec:
    def test_columns_stream_and_solve_build_no_element_list(self):
        dataset = repro.synthetic_blobs(n=400, m=3, seed=2)
        assert dataset.size == 400 and dataset.num_groups == 3
        dataset.group_sizes()
        repr(dataset)
        assert len(list(dataset.stream(seed=1))) == 400
        repro.solve(dataset, k=6, seed=1)
        assert "elements" not in vars(dataset)

    def test_elements_are_plain_rows_of_the_store_built_once(self):
        dataset = repro.synthetic_blobs(n=50, m=2, seed=4)
        store = dataset.columnar()
        elements = dataset.elements
        assert dataset.elements is elements
        assert "elements" in vars(dataset)
        for row, element in enumerate(elements):
            assert type(element) is Element
            assert element.store is None and element.row == -1
            assert element.uid == store.uids[row] and element.group == store.groups[row]
            assert np.shares_memory(element.vector, store.features)
            assert np.array_equal(element.vector, store.features[row])

    def test_store_labels_become_element_labels(self):
        store = ElementStore(np.eye(3), [0, 1, 0], uids=[7, 8, 9], labels=["a", None, "c"])
        dataset = DatasetSpec.from_store("labelled", store, EuclideanMetric())
        assert [(e.uid, e.group, e.label) for e in dataset.elements] == [
            (7, 0, "a"), (8, 1, None), (9, 0, "c"),
        ]
        assert dataset.columnar() is store
        assert dataset.group_names == {}

    def test_pickle_before_and_after_the_first_read(self):
        dataset = repro.synthetic_blobs(n=30, m=2, seed=5)
        copy = pickle.loads(pickle.dumps(dataset))
        assert "elements" not in vars(copy)
        assert copy.group_sizes() == dataset.group_sizes()
        assert [e.uid for e in copy.elements] == [e.uid for e in dataset.elements]
        again = pickle.loads(pickle.dumps(dataset))
        assert _digest(again.elements) == _digest(dataset.elements)

    def test_other_missing_attributes_still_raise(self):
        dataset = repro.synthetic_blobs(n=10, seed=1)
        with pytest.raises(AttributeError):
            dataset.missing  # noqa: B018
        spec = DatasetSpec.__new__(DatasetSpec)
        with pytest.raises(AttributeError):
            spec.elements  # noqa: B018

    def test_equal_to_the_element_list_spec_of_its_rows(self):
        dataset = repro.synthetic_blobs(n=60, m=2, seed=8)
        listed = DatasetSpec(
            name=dataset.name,
            elements=list(dataset.elements),
            metric=dataset.metric,
            notes=dataset.notes,
        )
        assert listed.group_sizes() == dataset.group_sizes()
        assert listed.size == dataset.size
        for seed in (None, 3):
            a = repro.solve(dataset, k=4, seed=seed)
            b = repro.solve(listed, k=4, seed=seed)
            assert a.solution.uids == b.solution.uids
            assert a.diversity == b.diversity
