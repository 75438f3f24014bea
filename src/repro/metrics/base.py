"""Abstract metric interface.

A *metric* in this library is any object with a ``distance(x, y) -> float``
method where ``x`` and ``y`` are the ``vector`` payloads carried by
:class:`repro.data.element.Element` (usually one-dimensional numpy
arrays, but a metric implementation may accept any hashable / array-like
payload it understands).

Besides the scalar ``distance``, every metric offers two *batch kernels*:
``distances_to(point, X)`` (one point against a stack of payloads) and
``pairwise(X, Y)`` (all cross distances between two stacks).  The base
class implements both as scalar loops, so any metric — including user
callables — works everywhere a batch kernel is requested; the built-in
vector metrics override them with NumPy-broadcast implementations and
advertise that via :attr:`Metric.supports_batch`, which the offline
helpers consult to pick between a batched and a scalar formulation of the
same computation.

The streaming ingestion engine screens every chunk through the private
radius screen :meth:`Metric._radius_screen`, whatever the metric.  Its
base implementation is the exact matrix, one :meth:`Metric.pairwise`
call; a metric may override it with a faster route whose decisions equal
that matrix's (the Euclidean metric does).  The in-chunk resolve after
the screen evaluates its distances through the private
:meth:`Metric._head_distances`, :meth:`distances_to` by default, and
reads subsets of them, so every entry of :meth:`distances_to` must
depend on its own row only.

The mathematical requirements — non-negativity, symmetry, identity of
indiscernibles, and the triangle inequality — are not enforced at runtime
for performance reasons; they are verified by the property-based test suite
for every concrete metric shipped with the library.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.data.store import store_rows_of


class Metric(ABC):
    """Base class for distance functions between element payloads."""

    #: Human-readable name used in experiment reports.
    name: str = "metric"

    #: Whether :meth:`distances_to` and :meth:`pairwise` are backed by a
    #: vectorized kernel (``True``) or by the scalar fallback loops
    #: (``False``).  Offline helpers use this to decide between a batched
    #: and a scalar formulation of the same computation.
    supports_batch: bool = False

    @abstractmethod
    def distance(self, x: Any, y: Any) -> float:
        """Return the distance between two payloads as a ``float``."""

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Distances from one ``point`` to every payload in the stack ``X``.

        Parameters
        ----------
        point:
            A single payload (whatever :meth:`distance` accepts).
        X:
            A sequence of payloads, or a 2-D array whose rows are payloads.

        Returns
        -------
        numpy.ndarray
            1-D float array of length ``len(X)`` where entry ``i`` equals
            ``distance(point, X[i])``.

        The base implementation is a scalar loop; vectorized metrics
        override it with a broadcast kernel that agrees with the scalar
        path to floating-point round-off.
        """
        return np.array([self.distance(point, row) for row in X], dtype=float)

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """All cross distances between the payload stacks ``X`` and ``Y``.

        Parameters
        ----------
        X:
            A sequence of payloads, or a 2-D array whose rows are payloads.
        Y:
            Second stack; when ``None`` (default) distances are computed
            within ``X`` itself, i.e. ``pairwise(X, X)``.

        Returns
        -------
        numpy.ndarray
            2-D float array of shape ``(len(X), len(Y))`` with entry
            ``(i, j)`` equal to ``distance(X[i], Y[j])``.

        The base implementation loops over all pairs; vectorized metrics
        override it with a broadcast kernel.
        """
        rows: Sequence[Any] = X
        cols: Sequence[Any] = X if Y is None else Y
        out = np.empty((len(rows), len(cols)), dtype=float)
        for i, x in enumerate(rows):
            for j, y in enumerate(cols):
                out[i, j] = self.distance(x, y)
        return out

    def distances_idx(self, store: Any, row: int, indexer: Any) -> np.ndarray:
        """Distances from store row ``row`` to the store rows in ``indexer``.

        Index-based counterpart of :meth:`distances_to`: both sides are
        sliced straight out of an
        :class:`~repro.data.store.ElementStore`'s contiguous feature
        matrix, so a basic-slice ``indexer`` reaches the kernel with zero
        copies.
        """
        return self.distances_to(store.features[int(row)], store.rows(indexer))

    def pairwise_idx(self, store: Any, rows: Any, cols: Optional[Any] = None) -> np.ndarray:
        """Distance matrix between two sets of store rows.

        Index-based counterpart of :meth:`pairwise` over an
        :class:`~repro.data.store.ElementStore`; ``cols=None`` computes the
        self-distance matrix of ``rows``.
        """
        return self.pairwise(
            store.rows(rows), None if cols is None else store.rows(cols)
        )

    def _screen_union(self, union: np.ndarray) -> Any:
        """What :meth:`_radius_screen` reuses of ``union`` from chunk to chunk.

        The ingestion engine's union screen builds this once per union and
        hands it back with every chunk it screens against that union.  The
        exact screen needs nothing beyond the union itself.
        """
        return None

    def _radius_screen(
        self,
        X: Any,
        union: Any,
        prepared: Any,
        columns: Sequence[np.ndarray],
        mus: np.ndarray,
    ) -> Tuple[np.ndarray, int, bool]:
        """Per level, which rows of ``X`` lie at least ``µ`` from all of its union rows.

        Parameters
        ----------
        X:
            The chunk's payload stack.
        union:
            The payload stack of every level's members, each member once.
        prepared:
            What :meth:`_screen_union` returned for ``union``.
        columns:
            Per level, the union rows holding its members (never empty).
        mus:
            Per level, its threshold ``µ``.

        Returns
        -------
        tuple
            ``(survives, rechecked, exact)``.  ``survives`` is a boolean
            ``(levels, len(X))`` matrix whose row ``i`` is exactly
            ``pairwise(X, union)[:, columns[i]].min(axis=1) >= mus[i]``.
            ``rechecked`` counts the rows an approximate screen handed to
            the exact kernel, and ``exact`` says whether the chunk was
            decided on the exact distance matrix in full.

        The base implementation is that exact matrix, one :meth:`pairwise`
        call; metrics with a faster screen override it.
        """
        by_member = np.ascontiguousarray(self.pairwise(X, union).T)
        return _level_minima(by_member, columns) >= mus[:, None], 0, True

    def _head_distances(self, point: Any, X: Any) -> np.ndarray:
        """:meth:`distances_to` as the engine's in-chunk resolve evaluates it.

        The resolve evaluates each row that heads one of its rounds once
        per chunk and shares the entries between guess levels, reading a
        subset of them in every round.  It relies on entry ``i`` depending
        on ``X[i]`` alone, so a subset's entries equal what
        :meth:`distances_to` returns for the subset; every shipped metric
        keeps to this.  The resolve charges each round's distances itself,
        so a counting wrapper forwards this hook uncounted.
        """
        return self.distances_to(point, X)

    def __call__(self, x: Any, y: Any) -> float:
        """Alias for :meth:`distance` so metrics can be used as callables."""
        return self.distance(x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _level_minima(by_member: np.ndarray, columns: Sequence[np.ndarray]) -> np.ndarray:
    """Each level's minimum over its union rows, for every chunk row.

    ``by_member`` holds one row per union member and one column per chunk
    row; ``columns`` lists each level's member rows.  The result holds one
    row per level.
    """
    minima = np.empty((len(columns), by_member.shape[1]))
    for level, level_columns in enumerate(columns):
        if level_columns.shape[0] == 1:
            minima[level] = by_member[level_columns[0]]
        else:
            np.minimum.reduce(by_member[level_columns], axis=0, out=minima[level])
    return minima


def stack_vectors(elements: Sequence[Any]) -> np.ndarray:
    """Stack the ``vector`` payloads of ``elements`` into one array.

    Rows follow the order of ``elements``; the dtype is whatever
    ``np.asarray`` infers from the payloads (float for numeric vectors,
    object/str for categorical Hamming payloads, int for precomputed-matrix
    indices).  When every element is a view of one
    :class:`~repro.data.store.ElementStore`, the payload matrix is gathered
    with a single vectorized ``features[rows]`` instead of a per-element
    re-stack.  Lives here — the leaf module of the metrics layer — so the
    batch-kernel call sites in ``core`` can import it without creating
    import cycles through the streaming package.
    """
    backing = store_rows_of(elements)
    if backing is not None:
        store, rows = backing
        return store.features[rows]
    return stack_payloads([element.vector for element in elements])


def stack_payloads(payloads: Sequence[Any]) -> np.ndarray:
    """Stack raw payloads into one array, row ``i`` being ``payloads[i]``.

    Uniform payloads become a regular matrix (or a 1-D array of scalar
    payloads); ragged ones, which NumPy cannot stack, become a 1-D object
    array holding the payloads themselves — the layout the scalar-loop
    kernels of :class:`Metric` iterate over.
    """
    try:
        return np.asarray(payloads)
    except ValueError:
        stacked = np.empty(len(payloads), dtype=object)
        for position, payload in enumerate(payloads):
            stacked[position] = payload
        return stacked


def join_payloads(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of separately stacked payload arrays, in order, as one array.

    Pieces of one layout are concatenated.  Pieces of variable-length
    payloads can disagree — a uniform piece is a matrix whose width is its
    payloads' length, a ragged one an object array — and are then restacked
    row by row with :func:`stack_payloads`.
    """
    if len({piece.shape[1:] for piece in pieces}) == 1:
        return np.concatenate(pieces)
    return stack_payloads([row for piece in pieces for row in piece])


class CallableMetric(Metric):
    """Adapter that wraps a plain ``f(x, y) -> float`` callable as a :class:`Metric`.

    Example
    -------
    >>> metric = CallableMetric(lambda x, y: abs(x - y), name="absdiff")
    >>> metric.distance(3, 5)
    2
    """

    def __init__(self, func: Callable[[Any, Any], float], name: str = "callable") -> None:
        if not callable(func):
            raise TypeError("func must be callable")
        self._func = func
        self.name = name

    def distance(self, x: Any, y: Any) -> float:
        """Distance between ``x`` and ``y`` via the wrapped callable."""
        return self._func(x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CallableMetric(name={self.name!r})"
