"""Unit tests for the Element value object."""

import numpy as np

from repro.data.element import Element


class TestElement:
    def test_identity_by_uid(self):
        a = Element(uid=1, vector=np.array([0.0]), group=0)
        b = Element(uid=1, vector=np.array([99.0]), group=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_by_uid(self):
        a = Element(uid=1, vector=np.array([0.0]))
        b = Element(uid=2, vector=np.array([0.0]))
        assert a != b

    def test_not_equal_to_other_types(self):
        assert Element(uid=1, vector=[0.0]) != "element"

    def test_usable_in_sets(self):
        elements = {Element(uid=i % 3, vector=[float(i)]) for i in range(9)}
        assert len(elements) == 3

    def test_list_vector_converted_to_array(self):
        element = Element(uid=0, vector=[1.0, 2.0])
        assert isinstance(element.vector, np.ndarray)

    def test_ordering_by_uid(self):
        elements = [Element(uid=i, vector=[0.0]) for i in (3, 1, 2)]
        assert [e.uid for e in sorted(elements)] == [1, 2, 3]

    def test_group_defaults_to_zero(self):
        assert Element(uid=0, vector=[0.0]).group == 0

    def test_label_in_repr(self):
        element = Element(uid=0, vector=[0.0], group=1, label="female")
        assert "female" in repr(element)
