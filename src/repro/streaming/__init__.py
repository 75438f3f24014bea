"""Streaming substrate: elements, one-pass data streams, and accounting."""

from repro.data.element import Element
from repro.streaming.stream import DataStream, iter_batches, stream_from_arrays
from repro.streaming.stats import StreamStats

__all__ = [
    "Element",
    "DataStream",
    "iter_batches",
    "stream_from_arrays",
    "StreamStats",
]
