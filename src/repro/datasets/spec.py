"""Value object bundling a generated dataset with its metric and metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.data.store import ElementStore
from repro.metrics.base import Metric
from repro.metrics.space import MetricSpace
from repro.data.element import Element
from repro.streaming.stream import DataStream


@dataclass
class DatasetSpec:
    """A fully materialised dataset ready to be streamed or used offline.

    A spec holds its rows in one of two forms.  ``DatasetSpec(name,
    elements, metric)`` keeps the given element list (categorical and
    ragged payloads stay on this path).  :meth:`from_store` keeps one
    columnar :class:`ElementStore`, which is how every generator in
    :mod:`repro.datasets` returns its data: sizes, group counts and
    streams read the store's columns, and the element list is built only
    when something reads ``elements``.

    Attributes
    ----------
    name:
        Dataset identifier used in reports (e.g. ``"adult-sex"``).
    elements:
        The elements in canonical order.  For a spec over a store, the
        first read builds one plain :class:`Element` per row (its
        ``vector`` a row of the store's matrix) and caches the list.
    metric:
        The distance metric the paper uses for this dataset.
    group_names:
        Optional mapping from group label to a human-readable name.
    notes:
        Free-text description of how the data was generated (surrogate
        parameters, scaling decisions, …).
    """

    name: str
    elements: List[Element]
    metric: Metric
    group_names: Dict[int, str] = field(default_factory=dict)
    notes: str = ""
    _store: Optional[ElementStore] = field(default=None, init=False, repr=False, compare=False)
    _store_resolved: bool = field(default=False, init=False, repr=False, compare=False)

    @classmethod
    def from_store(
        cls,
        name: str,
        store: ElementStore,
        metric: Metric,
        group_names: Optional[Dict[int, str]] = None,
        notes: str = "",
    ) -> DatasetSpec:
        """A spec over the rows of ``store``, which :meth:`columnar` returns."""
        spec = cls.__new__(cls)
        spec.name = name
        spec.metric = metric
        spec.group_names = {} if group_names is None else dict(group_names)
        spec.notes = notes
        spec._store = store
        spec._store_resolved = True
        return spec

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: the element
        # list of a spec over a store, before its first read.
        if name != "elements" or self._store is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        store = self._store
        columns = [store.uids.tolist(), list(store.features), store.groups.tolist()]
        if store.labels is not None:
            columns.append(store.labels)
        self.elements = list(map(Element, *columns))
        return self.elements

    @property
    def size(self) -> int:
        """Number of elements ``n``."""
        return len(self._store) if self._store is not None else len(self.elements)

    @property
    def num_groups(self) -> int:
        """Number of distinct groups ``m``."""
        return len(self.group_sizes())

    def group_sizes(self) -> Dict[int, int]:
        """Mapping of group label to element count, in first-appearance order.

        ``equal_representation`` takes its quota order from this mapping.
        """
        if self._store is not None:
            groups = self._store.groups
        else:
            groups = np.fromiter(
                (element.group for element in self.elements),
                dtype=np.int64,
                count=len(self.elements),
            )
        labels, first, counts = np.unique(groups, return_index=True, return_counts=True)
        order = np.argsort(first)
        return dict(zip(labels[order].tolist(), counts[order].tolist()))

    def columnar(self) -> Optional[ElementStore]:
        """The dataset as a columnar :class:`ElementStore`.

        A spec over a store returns that store; an element-list spec
        builds one lazily, once.  ``None`` when the payloads are not
        uniformly numeric (ragged or categorical data stays on the object
        path).
        """
        if not self._store_resolved:
            self._store = ElementStore.try_from_elements(self.elements)
            self._store_resolved = True
        return self._store

    def stream(self, seed: Optional[int] = None) -> DataStream:
        """A one-pass stream over the dataset, shuffled with ``seed`` if given.

        Numeric datasets stream from the columnar store (zero-copy row
        views, store-aware ingestion); others stream the element list.  The
        element order — and therefore every algorithm's output — is
        identical either way.
        """
        store = self.columnar()
        if store is not None:
            return DataStream(store=store, shuffle_seed=seed, name=self.name)
        return DataStream(self.elements, shuffle_seed=seed, name=self.name)

    def space(self) -> MetricSpace:
        """The offline :class:`MetricSpace` view used by baselines and oracles."""
        return MetricSpace(self.elements, self.metric)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatasetSpec(name={self.name!r}, n={self.size}, m={self.num_groups}, "
            f"metric={self.metric.name})"
        )
