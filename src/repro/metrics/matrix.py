"""Metric backed by a precomputed distance matrix.

Useful for small exact-oracle tests (where the brute-force optimum is
computed anyway) and for datasets whose dissimilarities come from an
external source rather than a vector-space formula.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.metrics.base import Metric
from repro.utils.errors import InvalidParameterError


class PrecomputedMetric(Metric):
    """A metric whose payloads are integer indices into a distance matrix.

    Parameters
    ----------
    matrix:
        A square, symmetric, non-negative matrix with a zero diagonal.
        Symmetry and the zero diagonal are validated eagerly; the triangle
        inequality is the caller's responsibility (and is exercised by the
        property tests for matrices the library itself generates).
    """

    name = "precomputed"

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError(
                f"distance matrix must be square, got shape {matrix.shape}"
            )
        if not np.allclose(matrix, matrix.T):
            raise InvalidParameterError("distance matrix must be symmetric")
        if not np.allclose(np.diag(matrix), 0.0):
            raise InvalidParameterError("distance matrix must have a zero diagonal")
        if (matrix < 0).any():
            raise InvalidParameterError("distance matrix must be non-negative")
        self._matrix = matrix

    @property
    def size(self) -> int:
        """Number of points indexed by the matrix."""
        return self._matrix.shape[0]

    def distance(self, x: Any, y: Any) -> float:
        """Distance between the points indexed by ``x`` and ``y``."""
        i, j = int(x), int(y)
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise InvalidParameterError(
                f"index out of range for precomputed metric of size {self.size}: ({i}, {j})"
            )
        return float(self._matrix[i, j])

    def _indices(self, X: Any) -> np.ndarray:
        """Validate and coerce a stack of index payloads to a 1-D int array."""
        idx = np.asarray(X, dtype=int).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise InvalidParameterError(
                f"index out of range for precomputed metric of size {self.size}"
            )
        return idx

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Distances from the point indexed by ``point`` to the indices in ``X``."""
        i = int(np.asarray(point).ravel()[0]) if np.ndim(point) else int(point)
        if not (0 <= i < self.size):
            raise InvalidParameterError(
                f"index out of range for precomputed metric of size {self.size}: {i}"
            )
        return self._matrix[i, self._indices(X)].astype(float)

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Distance sub-matrix for the index stacks ``X`` and ``Y`` (or ``X, X``)."""
        rows = self._indices(X)
        cols = rows if Y is None else self._indices(Y)
        return self._matrix[np.ix_(rows, cols)].astype(float)

    def as_array(self) -> np.ndarray:
        """A read-only view of the underlying matrix."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view
