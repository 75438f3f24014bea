"""Observability layer: hierarchical tracing, run metrics, and logging.

``repro.obs`` is the one place the engine reports *what it is doing*:

* **Spans and events** — :func:`span`/:func:`event` record nested, timed
  intervals through a process-wide :class:`~repro.obs.trace.Tracer` into
  pluggable sinks (:class:`~repro.obs.sinks.MemorySink` for tests,
  :class:`~repro.obs.sinks.JsonlSink` files, human-readable
  :class:`~repro.obs.sinks.StderrSink`).  Tracing ships disabled and the
  disabled path is a no-op fast path cheap enough for hot chunk loops.
* **Metrics** — a process-local :class:`~repro.obs.metrics.MetricsRegistry`
  of named counters/gauges/histograms fed at run boundaries
  (:func:`count`/:func:`gauge`/:func:`observe`, all no-ops while tracing
  is disabled).
* **Logging** — the package-level ``logging.getLogger("repro")`` with a
  ``NullHandler`` (silent by default, per library convention); engine
  layers route warning-worthy events (clamped window ``blocks``) through
  :func:`get_logger`.

Enable tracing globally with :func:`configure`, for one scope with
:func:`tracing`, per call with ``repro.solve(..., trace=...)``, per
session with ``trace=`` on the session constructors, or from the CLI
with ``--trace``/``--trace-out``.  This package imports only the
standard library, so every engine layer can depend on it without cycles.
"""

from __future__ import annotations

import logging
from typing import Any, Optional, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sinks import JsonlSink, MemorySink, Sink, StderrSink
from repro.obs.trace import _UNSET, Tracer, resolve_sink

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "StderrSink",
    "resolve_sink",
    "get_tracer",
    "get_metrics",
    "get_logger",
    "configure",
    "tracing",
    "enabled",
    "span",
    "event",
    "count",
    "gauge",
    "observe",
]

#: Package logger: silent unless the embedding application attaches a
#: handler, per the standard library-logging convention.
logger = logging.getLogger("repro")
logger.addHandler(logging.NullHandler())

_TRACER = Tracer()
_METRICS = MetricsRegistry()


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _TRACER


def get_metrics() -> MetricsRegistry:
    """The process-local metrics registry."""
    return _METRICS


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The ``repro`` package logger, or its child ``repro.<name>``."""
    return logger if name is None else logger.getChild(name)


def enabled() -> bool:
    """Whether tracing (and metrics feeding) is currently on."""
    return _TRACER.enabled


def configure(
    sink: Any = _UNSET, *, enabled: Optional[bool] = None, reset_metrics: bool = False
) -> Tracer:
    """Configure the process-wide tracer; returns it.

    Parameters
    ----------
    sink:
        Sink spec — a :class:`Sink` instance, ``"stderr"``, ``"memory"``,
        or a JSONL file path; ``None`` removes all sinks and disables
        tracing (unless ``enabled=True`` is passed explicitly).
    enabled:
        Explicit on/off override; defaults to "on when a sink is given".
    reset_metrics:
        Also clear the process-local metrics registry.
    """
    if reset_metrics:
        _METRICS.reset()
    return _TRACER.configure(sink, enabled=enabled)


def tracing(target: Any = "memory") -> Any:
    """Scoped tracing context manager on the process-wide tracer.

    ``with repro.obs.tracing("run.jsonl"):`` traces the block into the
    file, then restores the previous sink/enabled state and closes the
    file.  Yields the active sink.
    """
    return _TRACER.tracing(target)


def span(name: str, **attrs: Any) -> Any:
    """A (possibly no-op) context manager timing the named interval."""
    return _TRACER.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point event under the current span (no-op when disabled)."""
    _TRACER.event(name, **attrs)


def count(name: str, amount: Union[int, float] = 1) -> None:
    """Increment the named registry counter (no-op when disabled)."""
    if _TRACER.enabled:
        _METRICS.counter(name).inc(amount)


def gauge(name: str, value: Union[int, float]) -> None:
    """Set the named registry gauge (no-op when disabled)."""
    if _TRACER.enabled:
        _METRICS.gauge(name).set(value)


def observe(name: str, value: Union[int, float]) -> None:
    """Fold one observation into the named histogram (no-op when disabled)."""
    if _TRACER.enabled:
        _METRICS.histogram(name).observe(value)
