"""Columnar element storage: the structure-of-arrays ``ElementStore``.

The streaming algorithms spend their wall-clock in NumPy distance kernels;
what used to surround those kernels was Python object plumbing — every
layer re-packed per-:class:`~repro.data.element.Element` payloads into
fresh arrays (one list comprehension per chunk *per guess level* during
ingestion, one re-stack per post-processing call, one pickle per element on
the way to process workers).  The :class:`ElementStore` fixes the data
layout instead: one C-contiguous float64 ``features[n, d]`` matrix plus
int64 ``groups[n]`` / ``uids[n]`` columns, so that

* contiguous row-ranges are zero-copy slices handed straight to the batch
  kernels (``store.features[a:b]`` shares memory with the store);
* group filtering is a vectorized mask over ``groups`` rather than a
  Python loop over elements;
* shipping a shard to a process worker pickles three arrays instead of
  thousands of ``Element`` objects.

``Element`` survives as a *thin view*: :meth:`ElementStore.element` returns
an ordinary :class:`~repro.data.element.Element` whose ``vector`` is a
zero-copy row view of ``features`` and whose ``store``/``row`` back-pointers
let consumers (``stack_vectors``, ``greedy_fair_fill``, the shard
packer) recover columnar access from an element list without copying.
Everything that accepts elements keeps working; everything hot gets to
bypass them.
"""

from __future__ import annotations

import numbers
import reprlib
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.element import Element
from repro.utils.errors import InvalidParameterError

#: Row addressing accepted by :meth:`ElementStore.rows`: a basic slice
#: (zero-copy) or an integer index array (one vectorized gather).
RowIndexer = Union[slice, np.ndarray, Sequence[int]]


class ElementStore:
    """Columnar (structure-of-arrays) storage for a set of elements.

    Parameters
    ----------
    features:
        ``(n, d)`` feature matrix; coerced once, at construction, to a
        C-contiguous float64 array so no kernel ever pays a per-call
        conversion.  A 1-D input is treated as ``n`` one-dimensional
        payloads.
    groups:
        ``n`` integer group labels, stored as an int64 column after
        :func:`group_codes` has checked them.
    uids:
        ``n`` unique integer identifiers; defaults to ``0..n-1``.
    labels:
        Optional per-element human-readable annotations (kept as a plain
        list; labels are reporting-only and never touch a hot path).
    """

    __slots__ = ("features", "groups", "uids", "labels")

    def __init__(
        self,
        features: Any,
        groups: Any,
        uids: Optional[Any] = None,
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.ndim != 2:
            raise InvalidParameterError(
                f"features must be a 2-D (n, d) matrix, got ndim={features.ndim}"
            )
        n = features.shape[0]
        groups = group_codes(groups, n)
        uids = np.arange(n, dtype=np.int64) if uids is None else group_codes(uids, n, "uids")
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise InvalidParameterError(
                    f"labels must have length {n}, got {len(labels)}"
                )
            if not any(label is not None for label in labels):
                labels = None
        self.features = features
        self.groups = groups
        self.uids = uids
        self.labels = labels

    # ------------------------------------------------------------------
    # Construction from object-path data
    # ------------------------------------------------------------------
    @classmethod
    def from_elements(cls, elements: Sequence[Element]) -> "ElementStore":
        """Columnarise an element list (raises for non-uniform payloads).

        When every element is already a view of one parent store, the
        columns are gathered with three vectorized fancy-index operations
        instead of per-element stacking — this is how shard stores are cut
        out of a dataset store.
        """
        if not len(elements):
            return cls(np.empty((0, 1)), np.empty(0, dtype=np.int64))
        backing = store_rows_of(elements)
        if backing is not None:
            parent, rows = backing
            labels = (
                None
                if parent.labels is None
                else [parent.labels[int(i)] for i in rows]
            )
            return cls(
                parent.features[rows],
                parent.groups[rows],
                uids=parent.uids[rows],
                labels=labels,
            )
        payloads = [element.vector for element in elements]
        features = np.asarray(payloads, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.ndim != 2:
            raise InvalidParameterError(
                "element payloads are not uniformly stackable into an (n, d) matrix"
            )
        return cls(
            features,
            np.fromiter((e.group for e in elements), dtype=np.int64, count=len(elements)),
            uids=np.fromiter((e.uid for e in elements), dtype=np.int64, count=len(elements)),
            labels=[element.label for element in elements],
        )

    @classmethod
    def try_from_elements(cls, elements: Sequence[Element]) -> Optional["ElementStore"]:
        """Like :meth:`from_elements` but ``None`` for non-columnar payloads.

        Ragged, categorical (string), and scalar-index payloads (e.g. the
        :class:`~repro.metrics.matrix.PrecomputedMetric` indices) stay on
        the object path; numeric vector payloads get the columnar layout.
        """
        try:
            for element in elements:
                payload = element.vector
                if not isinstance(payload, np.ndarray) or payload.ndim != 1:
                    return None
                if payload.dtype.kind not in "fiub":
                    return None
            return cls.from_elements(elements)
        except (InvalidParameterError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Shape and addressing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d``."""
        return self.features.shape[1]

    def rows(self, indexer: RowIndexer) -> np.ndarray:
        """Feature rows for ``indexer``.

        A basic slice returns a zero-copy view into ``features`` (pinned by
        the no-copy regression test); an index array performs one
        vectorized gather.
        """
        return self.features[indexer]

    def element(self, row: int) -> Element:
        """A thin :class:`Element` view of one row (zero-copy payload)."""
        row = int(row)
        view = Element(
            uid=int(self.uids[row]),
            vector=self.features[row],
            group=int(self.groups[row]),
            label=None if self.labels is None else self.labels[row],
        )
        view.store = self
        view.row = row
        return view

    def elements(self, order: Optional[Iterable[int]] = None) -> List[Element]:
        """Element views for every row (or for ``order``), as a list."""
        if order is None:
            return [self.element(row) for row in range(len(self))]
        return [self.element(int(row)) for row in order]

    def iter_elements(self, order: Optional[Iterable[int]] = None) -> Iterator[Element]:
        """Lazily yield element views in row order (or in ``order``)."""
        if order is None:
            order = range(len(self))
        for row in order:
            yield self.element(int(row))

    # ------------------------------------------------------------------
    # Derived stores
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "ElementStore":
        """Sub-store over the contiguous row-range ``[start, stop)``.

        The columns of the result are zero-copy views of this store's
        columns (basic slices share memory).
        """
        return self._wrap(slice(start, stop))

    def select(self, rows: RowIndexer) -> "ElementStore":
        """Sub-store over arbitrary rows (one vectorized gather per column)."""
        return self._wrap(np.asarray(rows, dtype=np.int64) if not isinstance(rows, slice) else rows)

    def _wrap(self, indexer: RowIndexer) -> "ElementStore":
        """Build a sub-store without re-validating the columns."""
        sub = ElementStore.__new__(ElementStore)
        sub.features = self.features[indexer]
        sub.groups = self.groups[indexer]
        sub.uids = self.uids[indexer]
        if self.labels is None:
            sub.labels = None
        elif isinstance(indexer, slice):
            sub.labels = self.labels[indexer]
        else:
            sub.labels = [self.labels[int(i)] for i in np.asarray(indexer)]
        return sub

    def group_rows(self) -> "dict[int, np.ndarray]":
        """Mapping from group label to the (ascending) rows of that group."""
        order = np.argsort(self.groups, kind="stable")
        values, starts = np.unique(self.groups[order], return_index=True)
        splits = np.split(order, starts[1:])
        return {int(value): np.sort(rows) for value, rows in zip(values, splits)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ElementStore(n={len(self)}, d={self.dim}, "
            f"groups={len(np.unique(self.groups))})"
        )


def group_codes(labels: Any, count: int, column: str = "groups") -> np.ndarray:
    """``count`` integer labels of one column as a validated int64 column.

    Every array entry point (:class:`ElementStore` construction,
    ``stream_from_arrays``, session ``offer_rows`` and the served offer)
    converts its group labels, and any uids it is given (``column="uids"``),
    here, once.  Integer, boolean, integral float and numeric string labels
    convert; a NaN, infinite, fractional or non-scalar label raises
    :class:`InvalidParameterError` naming ``column`` and the first such
    row, as does a label count other than ``count``.  A scalar label stands
    for a single row, and a label array of ``count`` entries in any shape
    (an ``(n, 1)`` column, a ``(1, n)`` row) is read flat.
    """
    if isinstance(labels, Iterator):
        labels = list(labels)
    try:
        array = np.asarray(labels)
    except ValueError:  # ragged nesting such as [0, [1, 2]]
        array = np.empty(len(labels), dtype=object)
        for row, label in enumerate(labels):
            array[row] = label
    if array.ndim == 0 or (array.ndim > 1 and array.size == count):
        array = array.reshape(-1)
    if array.shape[0] != count:
        raise InvalidParameterError(
            f"{column} must hold one label per row: got {count} feature rows "
            f"but {array.shape[0]} {column[:-1]} labels"
        )
    if array.ndim != 1:
        raise _bad_label(column, 0, array[0].tolist())
    kind = array.dtype.kind
    if kind in "biu":
        return np.ascontiguousarray(array, dtype=np.int64)
    if kind == "f":
        valid = np.isfinite(array) & (np.floor(array) == array) & (np.abs(array) < 2.0**63)
        if not valid.all():
            row = int(np.argmin(valid))
            raise _bad_label(column, row, array[row].item())
        return array.astype(np.int64)
    codes = np.empty(count, dtype=np.int64)
    for row, label in enumerate(array.tolist()):
        try:
            codes[row] = _label_code(label)
        except (TypeError, ValueError, OverflowError):
            raise _bad_label(column, row, label) from None
    return codes


def feature_rows(features: Any) -> np.ndarray:
    """Offered feature rows as a finite float64 ``(n, d)`` matrix.

    Session ``offer_rows`` and the served offer convert their features
    here, once, before anything is queued or ingested; a single ``(d,)``
    row stands for one row.  Anything else than a matrix raises
    :class:`InvalidParameterError`: a row that is not numeric or not as
    long as the first, naming the first such row, and a NaN or infinite
    entry, naming the first row that holds one — a non-finite row would
    otherwise poison the bounds estimate or win every distance comparison.
    """
    try:
        matrix = np.asarray(features, dtype=float)
    except (TypeError, ValueError):
        raise _bad_feature_row(features) from None
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2:
        raise InvalidParameterError(
            f"features must be a (n, d) matrix or a single row, got shape {matrix.shape}"
        )
    finite = np.isfinite(matrix)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        value = matrix[row][~finite[row]][0]
        raise InvalidParameterError(
            f"features must be finite, but row {row} holds {float(value)}"
        )
    return matrix


def _bad_feature_row(features: Any) -> InvalidParameterError:
    """The error for offered features that do not convert to a float matrix."""
    sequences = (list, tuple, np.ndarray)
    rows = list(features) if isinstance(features, sequences) else [features]
    if rows and not isinstance(rows[0], sequences):  # a single (d,) row
        rows = [features]
    width = None
    for row, values in enumerate(rows):
        try:
            vector = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            return InvalidParameterError(
                f"features must be numeric, but row {row} holds {reprlib.repr(values)}"
            )
        if width is None:
            width = vector.shape
        elif vector.shape != width:
            return InvalidParameterError(
                f"features must have one length per row, but row {row} has "
                f"{vector.size} entries and row 0 has {int(np.prod(width))}"
            )
    return InvalidParameterError("features must be a numeric (n, d) matrix")


def _label_code(label: Any) -> int:
    """One label of a string or object column as an ``int`` (else raises)."""
    if isinstance(label, (str, bytes, numbers.Integral)):
        return int(label)
    if isinstance(label, numbers.Real) and float(label).is_integer():
        return int(label)
    raise TypeError(label)


def _bad_label(column: str, row: int, label: Any) -> InvalidParameterError:
    """The error for a label of ``column`` that is not an integer."""
    return InvalidParameterError(
        f"{column} must hold integer labels, but row {row} has {label!r}"
    )


def store_rows_of(
    elements: Sequence[Element],
) -> Optional[Tuple[ElementStore, np.ndarray]]:
    """``(store, rows)`` when every element is a view of one store, else ``None``.

    This is the bridge that lets element-list APIs (post-processing, the
    offline baselines, ``stack_vectors``) recover columnar access: if the
    list came out of one :class:`ElementStore`, its payload matrix is a
    single vectorized gather ``store.features[rows]`` instead of a
    per-element re-stack.
    """
    if not len(elements):
        return None
    first = elements[0]
    store = getattr(first, "store", None)
    if store is None:
        return None
    rows = np.empty(len(elements), dtype=np.int64)
    for position, element in enumerate(elements):
        if getattr(element, "store", None) is not store:
            return None
        rows[position] = element.row
    return store, rows
