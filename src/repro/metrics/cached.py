"""Metric decorator for distance-evaluation counting.

The paper reports per-element update cost in terms of *distance
computations*; :class:`CountingMetric` lets the harness and the tests verify
the ``O(k log(Delta)/eps)`` accounting empirically.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.base import Metric


class CountingMetric(Metric):
    """Wraps another metric and counts how many distances were evaluated.

    The batch kernels are forwarded to the wrapped metric and each kernel
    invocation is charged the number of scalar distances it evaluates
    (``len(X)`` for :meth:`distances_to`, ``len(X) * len(Y)`` for
    :meth:`pairwise`), so the paper's distance-computation accounting stays
    comparable between scalar :meth:`distance` calls and the batch kernels.
    """

    def __init__(self, inner: Metric) -> None:
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.calls = 0

    def distance(self, x: Any, y: Any) -> float:
        """Distance via the wrapped metric; increments the call counter by one."""
        self.calls += 1
        return self.inner.distance(x, y)

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Batched distances via the wrapped metric; counts ``len(X)`` calls."""
        result = self.inner.distances_to(point, X)
        self.calls += int(result.shape[0])
        return result

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Batched distance matrix via the wrapped metric; counts ``len(X) * len(Y)`` calls."""
        result = self.inner.pairwise(X, Y)
        self.calls += int(result.shape[0] * result.shape[1])
        return result

    def _screen_union(self, union: np.ndarray) -> Any:
        """The wrapped metric's per-union screen data (no distances are counted)."""
        return self.inner._screen_union(union)

    def _radius_screen(
        self,
        X: Any,
        union: Any,
        prepared: Any,
        columns: Sequence[np.ndarray],
        mus: np.ndarray,
    ) -> Tuple[np.ndarray, int, bool]:
        """The wrapped metric's radius screen; counts ``len(X) * len(union)`` calls.

        That is what :meth:`pairwise` of the same operands counts.  Rows
        the screen rechecks on the exact kernel are not counted again.
        """
        result = self.inner._radius_screen(X, union, prepared, columns, mus)
        self.calls += len(X) * len(union)
        return result

    def _head_distances(self, point: Any, X: Any) -> np.ndarray:
        """The wrapped metric's resolve distances (not counted: each round is charged)."""
        return self.inner._head_distances(point, X)

    def charge(self, count: int) -> None:
        """Add ``count`` nominal distance evaluations to the counter.

        Used by engine paths that memoise identical distance computations
        (e.g. the columnar ingestion's union screen, which evaluates each
        (chunk element, stored point) pair once and reuses it across every
        guess level containing that point): the *algorithm's* per-level
        cost is charged in full even though the arithmetic ran once, so
        the paper's accounting stays identical across engine paths.
        """
        self.calls += int(count)

    def reset(self) -> None:
        """Zero the call counter."""
        self.calls = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CountingMetric({self.inner!r}, calls={self.calls})"
