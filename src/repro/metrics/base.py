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
advertise that via :attr:`Metric.supports_batch`.  Code that wants to take
a faster route only when it actually pays off (e.g. the streaming batch
ingestion path) checks ``supports_batch`` before switching away from the
scalar short-circuiting path.

The mathematical requirements — non-negativity, symmetry, identity of
indiscernibles, and the triangle inequality — are not enforced at runtime
for performance reasons; they are verified by the property-based test suite
for every concrete metric shipped with the library.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.data.store import store_rows_of


class Metric(ABC):
    """Base class for distance functions between element payloads."""

    #: Human-readable name used in experiment reports.
    name: str = "metric"

    #: Whether :meth:`distances_to` and :meth:`pairwise` are backed by a
    #: vectorized kernel (``True``) or by the scalar fallback loops
    #: (``False``).  Consumers use this to decide between the batched and
    #: the short-circuiting element-at-a-time code paths.
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

    def pairwise_min(self, X: Any, Y: Any) -> np.ndarray:
        """Row-wise minimum of :meth:`pairwise`: ``min_j d(X[i], Y[j])``.

        A screening primitive — a whole chunk against a candidate's
        members, keeping only each row's nearest distance.  The base
        implementation materialises the full matrix; metrics may override
        it with a fused kernel that skips work which cannot affect the row
        minima (the Euclidean metric defers the square root to the reduced
        vector).
        Overrides must agree with ``pairwise(X, Y).min(axis=1)`` bitwise so
        screening decisions are independent of the code path.
        """
        return self.pairwise(X, Y).min(axis=1)

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

    def __call__(self, x: Any, y: Any) -> float:
        """Alias for :meth:`distance` so metrics can be used as callables."""
        return self.distance(x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


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
    return np.asarray([element.vector for element in elements])


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
