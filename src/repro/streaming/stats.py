"""Accounting collected while an algorithm consumes a stream.

The paper's evaluation reports three resource measures per algorithm run:
average update time, post-processing time, and the number of distinct
elements stored.  ``StreamStats`` gathers them in one value object that is
attached to every :class:`repro.core.result.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro import obs


@dataclass
class StreamStats:
    """Resource-usage counters for one algorithm run."""

    #: Number of elements consumed from the stream.
    elements_processed: int = 0
    #: Total distance evaluations performed during stream processing.
    stream_distance_computations: int = 0
    #: Total distance evaluations performed during post-processing.
    postprocess_distance_computations: int = 0
    #: Largest number of distinct elements held in memory at any point.
    peak_stored_elements: int = 0
    #: Number of distinct elements held when the run finished.
    final_stored_elements: int = 0
    #: Wall-clock seconds spent consuming the stream.
    stream_seconds: float = 0.0
    #: Wall-clock seconds spent in post-processing.
    postprocess_seconds: float = 0.0
    #: Extra named values (e.g. number of guesses, candidates balanced).
    #: Values are JSON-safe scalars — usually numbers, occasionally strings.
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Stream plus post-processing wall-clock time."""
        return self.stream_seconds + self.postprocess_seconds

    @property
    def average_update_seconds(self) -> float:
        """Stream-processing time per element (the paper's "update time")."""
        if self.elements_processed == 0:
            return 0.0
        return self.stream_seconds / self.elements_processed

    @property
    def total_distance_computations(self) -> int:
        """Distance evaluations across both phases."""
        return self.stream_distance_computations + self.postprocess_distance_computations

    def record_stored(self, count: int) -> None:
        """Update the peak/final stored-element counters with ``count``."""
        self.final_stored_elements = count
        if count > self.peak_stored_elements:
            self.peak_stored_elements = count

    def as_dict(self) -> Dict[str, Any]:
        """Flatten all counters into one JSON-serializable dictionary.

        Most values are numbers, but ``extra`` may carry strings — hence
        the ``Any`` value type.  The result always round-trips through
        ``json.dumps``.
        """
        data: Dict[str, Any] = {
            "elements_processed": self.elements_processed,
            "stream_distance_computations": self.stream_distance_computations,
            "postprocess_distance_computations": self.postprocess_distance_computations,
            "peak_stored_elements": self.peak_stored_elements,
            "final_stored_elements": self.final_stored_elements,
            "stream_seconds": self.stream_seconds,
            "postprocess_seconds": self.postprocess_seconds,
            "total_seconds": self.total_seconds,
            "average_update_seconds": self.average_update_seconds,
        }
        data.update(self.extra)
        return data

    def publish(self, algorithm: str) -> None:
        """Feed this run's accounting into the process-local obs registry.

        A no-op while tracing is disabled.  The registry view aggregates
        *across* runs (counters add up, histograms summarize) alongside —
        never instead of — the per-run fields above, which the accounting
        tests pin.
        """
        if not obs.enabled():
            return
        metrics = obs.get_metrics()
        metrics.counter("repro.runs").inc()
        metrics.counter(f"repro.runs.{algorithm}").inc()
        metrics.counter("repro.elements_processed").inc(self.elements_processed)
        metrics.counter("repro.distance.stream").inc(self.stream_distance_computations)
        metrics.counter("repro.distance.postprocess").inc(
            self.postprocess_distance_computations
        )
        metrics.gauge("repro.stored.final").set(self.final_stored_elements)
        metrics.gauge("repro.stored.peak").set(self.peak_stored_elements)
        metrics.histogram("repro.seconds.stream").observe(self.stream_seconds)
        metrics.histogram("repro.seconds.postprocess").observe(self.postprocess_seconds)
