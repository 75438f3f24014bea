"""Metric decorators: memoisation and distance-evaluation counting.

The paper reports per-element update cost in terms of *distance
computations*; :class:`CountingMetric` lets the harness and the tests verify
the ``O(k log(Delta)/eps)`` accounting empirically.  :class:`CachedMetric`
memoises repeated pairs, which matters for the offline baselines that probe
the same pairs many times.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.metrics.base import Metric

_LOGGER = obs.get_logger("metrics")


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

    @property
    def supports_batch(self) -> bool:
        """Whether the wrapped metric has vectorized batch kernels."""
        return self.inner.supports_batch

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


class CachedMetric(Metric):
    """Memoises distances keyed on caller-provided hashable identifiers.

    Vector payloads (numpy arrays) are not hashable, so callers that want
    caching pass a ``key`` function mapping a payload to a hashable id — the
    algorithms in this library use the element identifier.  When no key is
    available the metric falls through to the inner metric uncached.

    The memo dictionary is **bounded**: once ``maxsize`` entries are cached
    the least-recently-used pair is evicted to admit a new one, so long
    offline-baseline runs (which probe ``O(n·k)`` distinct pairs) hold the
    working set rather than every pair ever seen.  Pass ``maxsize=None``
    for the old unbounded behaviour.  :meth:`stats` reports hit/miss/
    eviction counters and the current occupancy.
    """

    #: Default memo capacity (entries).  A float plus its two-tuple key
    #: costs ~150 bytes, so the default bounds the cache near 150 MB.
    DEFAULT_MAXSIZE = 1 << 20

    def __init__(self, inner: Metric, maxsize: Optional[int] = DEFAULT_MAXSIZE) -> None:
        self.inner = inner
        self.name = f"cached({inner.name})"
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._cache: "OrderedDict[Tuple[Hashable, Hashable], float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def supports_batch(self) -> bool:
        """Whether the wrapped metric has vectorized batch kernels."""
        return self.inner.supports_batch

    def distance(self, x: Any, y: Any) -> float:
        """Uncached distance via the wrapped metric (no key available)."""
        return self.inner.distance(x, y)

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Batched distances via the wrapped metric (bypasses the cache)."""
        return self.inner.distances_to(point, X)

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Batched distance matrix via the wrapped metric (bypasses the cache)."""
        return self.inner.pairwise(X, Y)

    def distance_keyed(self, key_x: Hashable, x: Any, key_y: Hashable, y: Any) -> float:
        """Distance between payloads ``x``/``y`` memoised under ``(key_x, key_y)``.

        A cache hit refreshes the pair's recency; a miss computes the
        distance, inserts it, and — at capacity — evicts the least recently
        used pair.
        """
        if key_x == key_y:
            return 0.0
        cache_key = (key_x, key_y) if key_x <= key_y else (key_y, key_x)
        cached = self._cache.get(cache_key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(cache_key)
            return cached
        self.misses += 1
        value = self.inner.distance(x, y)
        if self.maxsize is not None and len(self._cache) >= self.maxsize:
            self._cache.popitem(last=False)
            self.evictions += 1
            if self.evictions == 1:
                _LOGGER.warning(
                    "%s reached capacity (%d entries); evicting least-recently-"
                    "used pairs from here on — repeated probes of evicted pairs "
                    "recompute their distances",
                    self.name,
                    self.maxsize,
                )
        self._cache[cache_key] = value
        return value

    def stats(self) -> Dict[str, float]:
        """Occupancy and effectiveness counters for the memo dictionary.

        Also mirrors the counters into the process-local obs registry as
        ``repro.metric.cache.*`` gauges when tracing is enabled, so a
        traced run's cache effectiveness lands next to its spans.
        """
        lookups = self.hits + self.misses
        data = {
            "size": len(self._cache),
            "capacity": float("inf") if self.maxsize is None else self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
        obs.gauges("repro.metric.cache", data)
        return data

    def clear(self) -> None:
        """Drop all memoised entries and reset hit/miss/eviction counters."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._cache)
