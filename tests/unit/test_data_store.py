"""Unit tests for the columnar ElementStore and its zero-copy contracts."""

import pickle

import numpy as np
import pytest

from repro.data.store import ElementStore, group_codes, store_rows_of
from repro.metrics.vector import _as_batch
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError


def _store(n=10, d=3):
    features = np.arange(n * d, dtype=float).reshape(n, d)
    groups = np.arange(n) % 2
    return ElementStore(features, groups)


class TestConstruction:
    def test_coerces_to_c_contiguous_float64(self):
        fortran = np.asfortranarray(np.ones((4, 2), dtype=np.float32))
        store = ElementStore(fortran, np.zeros(4, dtype=int))
        assert store.features.dtype == np.float64
        assert store.features.flags["C_CONTIGUOUS"]

    def test_no_copy_when_already_canonical(self):
        features = np.ascontiguousarray(np.ones((4, 2)))
        store = ElementStore(features, np.zeros(4, dtype=int))
        assert store.features is features

    def test_default_uids_are_arange(self):
        store = _store(5)
        assert list(store.uids) == [0, 1, 2, 3, 4]

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            ElementStore(np.ones((2, 2, 2)), np.zeros(2))
        with pytest.raises(InvalidParameterError):
            ElementStore(np.ones((3, 2)), np.zeros(2))
        with pytest.raises(InvalidParameterError):
            ElementStore(np.ones((3, 2)), np.zeros(3), uids=np.zeros(2))
        with pytest.raises(InvalidParameterError):
            ElementStore(np.ones((3, 2)), np.zeros(3), labels=["a"])

    def test_non_integer_uids_rejected(self):
        with pytest.raises(InvalidParameterError, match="uids must hold integer labels, but row 0"):
            ElementStore(np.ones((3, 2)), np.zeros(3), uids=[0.5, 1.7, 2.2])
        assert list(ElementStore(np.ones((3, 2)), np.zeros(3), uids=[4.0, 5.0, 6.0]).uids) == [4, 5, 6]

    def test_from_elements_roundtrip(self):
        elements = [
            Element(uid=7 + i, vector=[float(i), 0.0], group=i % 3, label=f"e{i}")
            for i in range(6)
        ]
        store = ElementStore.from_elements(elements)
        rebuilt = store.elements()
        assert [e.uid for e in rebuilt] == [e.uid for e in elements]
        assert [e.group for e in rebuilt] == [e.group for e in elements]
        assert [e.label for e in rebuilt] == [e.label for e in elements]
        assert all(np.allclose(a.vector, b.vector) for a, b in zip(rebuilt, elements))

    def test_try_from_elements_rejects_non_columnar(self):
        ragged = [
            Element(uid=0, vector=np.ones(1)),
            Element(uid=1, vector=np.ones(2)),
        ]
        assert ElementStore.try_from_elements(ragged) is None
        categorical = [Element(uid=0, vector=np.array(["a", "b"]))]
        assert ElementStore.try_from_elements(categorical) is None
        scalar = [Element(uid=0, vector=3)]
        assert ElementStore.try_from_elements(scalar) is None

    def test_from_elements_gathers_views_of_parent_store(self):
        parent = _store(8)
        views = [parent.element(i) for i in (5, 1, 3)]
        child = ElementStore.from_elements(views)
        assert list(child.uids) == [5, 1, 3]
        assert np.allclose(child.features, parent.features[[5, 1, 3]])


class TestGroupCodes:
    """One label conversion for every array entry point."""

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([2, 0, 1], dtype=np.uint8),
            [2.0, 0.0, 1.0],
            ["2", "0", "1"],
            [b"2", b"0", b"1"],
            np.array([2, np.float64(0.0), "1"], dtype=object),
            (label for label in [2, 0, 1]),
        ],
        ids=["uint8", "integral-float", "str", "bytes", "object", "generator"],
    )
    def test_convertible_labels(self, labels):
        codes = group_codes(labels, 3)
        assert codes.dtype == np.int64
        assert codes.tolist() == [2, 0, 1]

    def test_int64_column_is_not_copied(self):
        labels = np.arange(4, dtype=np.int64)
        assert group_codes(labels, 4) is labels

    def test_scalar_stands_for_one_row(self):
        assert group_codes(True, 1).tolist() == [1]

    @pytest.mark.parametrize(
        "labels",
        [[[2], [0], [1]], np.array([[2.0, 0.0, 1.0]])],
        ids=["column", "row"],
    )
    def test_label_column_or_row_is_read_flat(self, labels):
        assert group_codes(labels, 3).tolist() == [2, 0, 1]

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, None, 1], "row 1 has None"),
            ([0, 1, 1e300], "row 2 has 1e\\+300"),
            ([0, "1.5", 1], "row 1 has '1.5'"),
            ([[0, 1], [1, 0], [1, 1]], r"row 0 has \[0, 1\]"),
            ([0, [1, 2], 1], r"row 1 has \[1, 2\]"),
            ([[0.5], [1], [1]], "row 0 has 0.5"),
            ([0, 1], "got 3 feature rows but 2 group labels"),
            (1, "got 3 feature rows but 1 group labels"),
        ],
        ids=[
            "none",
            "overflow",
            "fractional-string",
            "matrix",
            "ragged",
            "fractional-column",
            "count",
            "scalar",
        ],
    )
    def test_rejected_labels(self, labels, message):
        with pytest.raises(InvalidParameterError, match=message):
            group_codes(labels, 3)


class TestZeroCopyContracts:
    def test_row_range_slices_share_memory(self):
        store = _store(20)
        window = store.rows(slice(4, 12))
        assert np.shares_memory(window, store.features)
        assert window.flags["C_CONTIGUOUS"]

    def test_kernel_coercion_is_identity_on_slices(self):
        # The regression pinning "no copy on the slice path": the batch
        # kernels coerce payload stacks with `_as_batch`, which must be a
        # no-op for a store row-range (already C-contiguous float64).
        store = _store(20)
        window = store.rows(slice(3, 9))
        assert _as_batch(window) is window

    def test_element_view_payload_shares_memory(self):
        store = _store(6)
        view = store.element(2)
        assert np.shares_memory(view.vector, store.features)
        assert view.store is store and view.row == 2

    def test_slice_store_shares_memory(self):
        store = _store(10)
        sub = store.slice(2, 7)
        assert len(sub) == 5
        assert np.shares_memory(sub.features, store.features)
        assert list(sub.uids) == [2, 3, 4, 5, 6]

    def test_select_gathers(self):
        store = _store(10)
        sub = store.select(np.array([9, 0, 4]))
        assert list(sub.uids) == [9, 0, 4]
        assert not np.shares_memory(sub.features, store.features)


class TestViewsAndHelpers:
    def test_store_rows_of_recovers_backing(self):
        store = _store(7)
        views = [store.element(i) for i in (6, 2, 2, 0)]
        backing = store_rows_of(views)
        assert backing is not None
        recovered, rows = backing
        assert recovered is store
        assert list(rows) == [6, 2, 2, 0]

    def test_store_rows_of_rejects_mixed_sources(self):
        store_a, store_b = _store(4), _store(4)
        mixed = [store_a.element(0), store_b.element(1)]
        assert store_rows_of(mixed) is None
        assert store_rows_of([Element(uid=0, vector=[1.0])]) is None
        assert store_rows_of([]) is None

    def test_views_detach_on_pickle(self):
        store = _store(5)
        view = store.element(3)
        restored = pickle.loads(pickle.dumps(view))
        assert restored.uid == 3
        assert restored.store is None and restored.row == -1
        assert np.allclose(restored.vector, view.vector)

    def test_group_rows_partition(self):
        store = _store(10)
        partition = store.group_rows()
        assert set(partition) == {0, 1}
        assert list(partition[0]) == [0, 2, 4, 6, 8]
        assert list(partition[1]) == [1, 3, 5, 7, 9]

    def test_iter_elements_order(self):
        store = _store(5)
        order = [4, 0, 2]
        assert [e.uid for e in store.iter_elements(order)] == order


class TestElementCoercion:
    def test_lists_become_contiguous_float64(self):
        element = Element(uid=0, vector=[1, 2, 3])
        assert element.vector.dtype == np.float64
        assert element.vector.flags["C_CONTIGUOUS"]

    def test_numeric_arrays_coerced_once(self):
        strided = np.arange(10, dtype=np.float64)[::2]
        element = Element(uid=0, vector=strided)
        assert element.vector.flags["C_CONTIGUOUS"]
        already = np.ascontiguousarray([1.0, 2.0])
        assert Element(uid=1, vector=already).vector is already

    def test_int_arrays_become_float64(self):
        element = Element(uid=0, vector=np.array([1, 0, 1]))
        assert element.vector.dtype == np.float64

    def test_non_numeric_payloads_untouched(self):
        categorical = np.array(["a", "b"])
        assert Element(uid=0, vector=categorical).vector is categorical
        assert Element(uid=1, vector=5).vector == 5
