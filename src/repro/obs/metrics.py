"""Process-local registry of named counters, gauges, and histograms.

The registry is the aggregate side of the observability layer: while the
tracer (:mod:`repro.obs.trace`) records *where time went* inside one run,
the registry accumulates *how much work happened* across every run in the
process.  The engine feeds it at run-finalization boundaries —
:meth:`repro.streaming.stats.StreamStats.publish` after each
:meth:`StreamingAlgorithm.run` — alongside (never instead of) the private
fields the existing accounting tests pin.

Instruments are deliberately minimal.  Updates are plain attribute
arithmetic guarded by the tracer's enabled flag at the call sites, so the
disabled path costs one attribute read; under CPython's GIL that is also
thread-safe enough for best-effort operational metrics.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing named count.

    Parameters
    ----------
    name:
        Registry key, conventionally dot-separated (``repro.runs``).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self.value += amount


class Gauge:
    """A named value that tracks the most recent observation.

    Parameters
    ----------
    name:
        Registry key, conventionally dot-separated.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Replace the gauge's value."""
        self.value = value


class Histogram:
    """Streaming summary (count/total/min/max/mean) of observed values.

    A full bucketed histogram is overkill for the repo's current needs;
    this keeps the four moments that the benchmarks and the serving
    milestone's p99 work can build on without unbounded memory.

    Parameters
    ----------
    name:
        Registry key, conventionally dot-separated.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: Number) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def summary(self) -> Dict[str, float]:
        """The aggregate as a JSON-safe dict (zeros when empty)."""
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
        }


class MetricsRegistry:
    """Name-keyed store of :class:`Counter`/:class:`Gauge`/:class:`Histogram`.

    Instruments are created on first access and live for the registry's
    lifetime; asking for an existing name with a different instrument
    kind is a programming error and raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, kind: type) -> Any:
        """Fetch-or-create the instrument ``name`` of class ``kind``."""
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as a JSON-safe ``{name: value-or-summary}`` dict."""
        out: Dict[str, Any] = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived processes)."""
        self._instruments.clear()

    def __len__(self) -> int:
        """The number of registered instruments."""
        return len(self._instruments)
