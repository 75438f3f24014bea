"""Lightweight wall-clock timer used by the algorithms and the harness.

The paper reports *average update time* (stream-processing time divided by
the number of elements) and *post-processing time* separately, so the
runners time each stage with its own :class:`Timer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional
from contextlib import contextmanager


@dataclass
class Timer:
    """A simple start/stop wall-clock timer.

    The timer can be re-started; elapsed time accumulates across runs.
    """

    elapsed: float = 0.0
    _started_at: Optional[float] = field(default=None, repr=False)

    def start(self) -> "Timer":
        """Start (or resume) the timer.  Starting twice is an error."""
        if self._started_at is not None:
            raise RuntimeError("Timer is already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the timer and return the total elapsed time so far."""
        if self._started_at is None:
            raise RuntimeError("Timer is not running")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed

    @property
    def running(self) -> bool:
        """Whether the timer is currently running."""
        return self._started_at is not None

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        """Context manager form: ``with timer.measure(): ...``."""
        self.start()
        try:
            yield self
        finally:
            self.stop()
