"""Data-only session checkpoints: the one format a session is saved in.

A checkpoint holds what a live session needs to continue byte-identically
and nothing that runs code when it is read.  Layout (format version 3)::

    MAGIC     b"repro-session-checkpoint\\n"
    prelude   struct "<II": header length, CRC-32 of header and body
    header    one UTF-8 JSON object
    body      raw little-endian arrays, each starting on an 8-byte boundary

The header holds the format name and version, the session kind, the
algorithm's registry name and constructor configuration (its metric by
name: one of :func:`repro.solve`'s named metrics, or ``minkowski`` with its
``p``), the ladder bounds, the counters, stats and watermarks, and the
``arrays`` manifest (``name -> [dtype, shape, offset]``).  The arrays hold
every distinct element the session stores exactly once (payload ``rows``,
``uids``, ``groups`` and, when any element has one, ``labels``); everything
else names elements by their position in that table: each candidate's
members, the pending partial chunk, a windowed session's block summaries
and raw block, and the :class:`~repro.core.base.ExtractionMemo` (per entry
its level, member-count key, answer positions and kind, diversity and
evaluations).  A resumed session therefore rebuilds its candidates through
the algorithm's ``_make_candidates`` plus one gather, evaluates no
distance, and answers warm: its first query re-extracts only the guess
levels that grew since the checkpoint.

:func:`load` reads the file with one ``read()`` and maps every array with
``np.frombuffer``.  It raises :class:`~repro.utils.errors.CheckpointError`,
naming the path, for anything else: a pickle (the format of version 2 and
earlier, which is never unpickled), foreign bytes, a truncated file, a
checksum mismatch, an array whose dtype is outside the allowlist (bool,
signed and unsigned integers, floats, fixed-width strings; never
``object``) or whose bytes lie outside the body, an element position past
the table, and an algorithm or metric outside the allowlists below.
:func:`save` raises it at checkpoint time for a session it cannot encode:
an unnamed metric (``CallableMetric``, ``PrecomputedMetric``), an
``object``-dtype or ragged payload, or an algorithm class outside the
allowlist.

This module is the one place that knows the private state of sessions,
ingestion engines and windowed algorithms as a layout: it reads that
state to write a checkpoint and puts it back into freshly constructed
objects to resume one.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import os
import re
import struct
import tempfile
import zlib
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.solve import _METRIC_FACTORIES
from repro.core.base import ExtractionMemo, IngestState, StreamChunk
from repro.core.sfdm1 import SFDM1
from repro.core.sfdm2 import SFDM2
from repro.core.solution import FairSolution, Solution
from repro.core.streaming_dm import StreamingDiversityMaximization
from repro.data.element import Element
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric
from repro.metrics.cached import CountingMetric
from repro.metrics.vector import MinkowskiMetric
from repro.streaming.stats import StreamStats
from repro.utils.errors import CheckpointError, ReproError
from repro.windowing.checkpointed import CheckpointedWindowFDM
from repro.windowing.sliding import SlidingWindowFDM, _Block

#: First bytes of every checkpoint file.
MAGIC = b"repro-session-checkpoint\n"
#: Format name recorded in the header.
FORMAT = "repro-session"
#: Bumped whenever the header or array layout changes incompatibly.
VERSION = 3

_PRELUDE = struct.Struct("<II")
#: Array dtypes a checkpoint may hold: little-endian (or byte-order-free)
#: bool, int, uint, float, and fixed-width unicode or byte strings.
_DTYPE = re.compile(r"[<|](?:[biuf][1248]|[US][1-9][0-9]{0,5})")

#: The session-capable algorithm classes, by registry name.
_STREAMING = {
    "SFDM1": SFDM1,
    "SFDM2": SFDM2,
    "StreamingDM": StreamingDiversityMaximization,
}
_WINDOWED = {"WindowFDM": CheckpointedWindowFDM, "SlidingWindowFDM": SlidingWindowFDM}

_UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)
_SIGNED = (np.int8, np.int16, np.int32, np.int64)

#: Memo answer kinds: no answer, a :class:`Solution`, a :class:`FairSolution`.
_NO_ANSWER, _SOLUTION, _FAIR_SOLUTION = 0, 1, 2

PathLike = Union[str, "os.PathLike[str]"]


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def save(session: Any, path: PathLike) -> None:
    """Write ``session`` to ``path`` (atomic replace).

    The whole payload is encoded first, so a session that cannot be
    encoded touches no file.  It then goes to a uniquely named temporary
    file in the target directory, is flushed and fsynced, and only then
    replaces ``path``; a failure at any point leaves the previous
    checkpoint untouched and removes the temporary file.

    Raises
    ------
    CheckpointError
        If the session cannot be encoded, or the target directory does
        not exist or is not writable.
    """
    path = Path(path)
    data = _encode(session, path)
    try:
        fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    except OSError as error:
        raise CheckpointError(path, f"cannot create temp file ({error})") from error
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException as error:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already gone
            pass
        if isinstance(error, OSError):
            raise CheckpointError(path, f"cannot write ({error})") from error
        raise


class _Encoder:
    """Collects one checkpoint's arrays and its table of distinct elements."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.arrays: Dict[str, np.ndarray] = {}
        self._elements: List[Element] = []
        #: ``id(element) -> table position``: distinct objects stay distinct
        #: even when their uids clash, and shared objects are stored once.
        self._position: Dict[int, int] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        """Record one array of the body (an integer array in its narrowest dtype)."""
        array = _narrowest(np.ascontiguousarray(array))
        if array.dtype.str.startswith(">"):
            array = array.astype(array.dtype.newbyteorder("<"))
        if not _DTYPE.fullmatch(array.dtype.str):
            raise CheckpointError(
                self.path,
                f"cannot encode {name!r}: dtype {array.dtype} is not data "
                f"(payloads must be numeric or fixed-width strings)",
            )
        self.arrays[name] = array

    def positions(self, name: str, elements: Sequence[Element]) -> None:
        """Record ``elements`` as positions into the element table."""
        table, position = self._elements, self._position
        out = np.empty(len(elements), dtype=np.int64)
        for index, element in enumerate(elements):
            at = position.setdefault(id(element), len(table))
            if at == len(table):
                table.append(element)
            out[index] = at
        self.add(name, out)

    def runs(self, name: str, lists: Sequence[Sequence[Element]]) -> None:
        """Record a list of element lists: flat positions plus their lengths."""
        self.add(f"{name}_sizes", np.fromiter(map(len, lists), np.int64, len(lists)))
        self.positions(name, [element for run in lists for element in run])

    def element_table(self) -> None:
        """Record the distinct elements collected so far, once each."""
        elements = self._elements
        count = len(elements)
        self.add("uids", np.fromiter((e.uid for e in elements), np.int64, count))
        self.add("groups", np.fromiter((e.group for e in elements), np.int64, count))
        if count:
            try:
                rows = np.stack([np.asarray(element.vector) for element in elements])
            except ValueError as error:
                raise CheckpointError(
                    self.path, f"cannot encode ragged payloads ({error})"
                ) from error
        else:
            rows = np.empty((0, 0))
        self.add("rows", rows)
        labels = [element.label for element in elements]
        if any(label is not None for label in labels):
            if not all(label is None or isinstance(label, str) for label in labels):
                raise CheckpointError(
                    self.path, "cannot encode element labels that are not strings"
                )
            self.add("labelled", np.array([label is not None for label in labels], dtype=bool))
            self.add("labels", np.array([label or "" for label in labels], dtype=str))


def _narrowest(array: np.ndarray) -> np.ndarray:
    """``array`` in the smallest integer dtype that holds its values (others as is).

    Positions into a table of a few hundred elements fit one byte each, so
    this keeps a checkpoint several times smaller than int64 columns would.
    """
    if array.dtype.kind not in "iu" or not array.size:
        return array
    low, high = int(array.min()), int(array.max())
    for dtype in _UNSIGNED if low >= 0 else _SIGNED:
        limits = np.iinfo(dtype)
        if limits.min <= low and high <= limits.max:
            return array.astype(dtype, copy=False)
    return array


def _encode(session: Any, path: Path) -> bytes:
    """The checkpoint bytes of ``session``."""
    from repro.api.session import StreamingSession, WindowSession

    encoder = _Encoder(path)
    algorithm = session._algorithm
    header: Dict[str, Any] = {
        "format": FORMAT,
        "version": VERSION,
        "algorithm": algorithm.name,
        "offered": session._offered,
        "next_uid": session._next_uid,
        "stream_seconds": session._stream_timer.elapsed,
        "published": list(session._published),
    }
    if isinstance(session, StreamingSession):
        header["session"] = "streaming"
        header["config"] = _config(algorithm, _STREAMING, path)
        header["state"] = _encode_ingest(session._state, encoder)
    elif isinstance(session, WindowSession):
        header["session"] = "window"
        header["config"] = _config(algorithm, _WINDOWED, path)
        header["state"] = _encode_window(session, encoder)
    else:
        raise CheckpointError(path, f"cannot checkpoint a {type(session).__name__}")
    encoder.element_table()
    manifest, body = _lay_out(encoder.arrays)
    header["arrays"] = manifest
    try:
        return _pack(header, body)
    except (TypeError, ValueError) as error:
        raise CheckpointError(path, f"cannot encode the header ({error})") from error


@functools.lru_cache(maxsize=None)
def _parameters(cls: type) -> Tuple[str, ...]:
    """The constructor parameters of ``cls`` besides its metric.

    Every allowlisted class stores each of them under its own name, so a
    new parameter is saved and restored without an edit here.  Cached:
    reading a signature takes tens of microseconds, which every save and
    load would pay again.
    """
    return tuple(name for name in inspect.signature(cls).parameters if name != "metric")


def _config(algorithm: Any, allowed: Dict[str, type], path: Path) -> Dict[str, Any]:
    """The JSON constructor configuration of an allowlisted algorithm."""
    cls = allowed.get(algorithm.name)
    if type(algorithm) is not cls:
        raise CheckpointError(
            path,
            f"cannot checkpoint a {type(algorithm).__name__}; checkpoints hold only "
            f"{', '.join(sorted(_STREAMING) + sorted(_WINDOWED))}",
        )
    config: Dict[str, Any] = {"metric": _metric_spec(algorithm.metric, path)}
    for name in _parameters(cls):
        value = getattr(algorithm, name)
        if isinstance(value, FairnessConstraint):
            value = [[group, quota] for group, quota in value.quotas.items()]
        elif isinstance(value, tuple):
            value = [float(bound) for bound in value]
        config[name] = value
    return config


def _metric_spec(metric: Metric, path: Path) -> Dict[str, Any]:
    """A named metric as JSON (a counting wrapper keeps its count)."""
    if type(metric) is CountingMetric:
        return dict(_metric_spec(metric.inner, path), calls=metric.calls)
    if type(metric) is MinkowskiMetric:
        return {"name": "minkowski", "p": metric.p}
    name = getattr(metric, "name", None)
    factory = _METRIC_FACTORIES.get(name) if isinstance(name, str) else None
    if factory is None or type(metric) is not type(factory()):
        raise CheckpointError(
            path,
            f"cannot checkpoint the metric {metric!r}: a checkpoint names its metric, "
            f"so it must be one of {', '.join(sorted(_METRIC_FACTORIES))} or minkowski",
        )
    return {"name": name}


def _encode_ingest(state: IngestState, encoder: _Encoder) -> Dict[str, Any]:
    """The header fields and arrays of one streaming engine state."""
    memo = state._memo
    fields: Dict[str, Any] = {
        "calls": state.counting.calls,
        "stats": dataclasses.asdict(state.stats),
        "ladder": None if state.ladder is None else [state.ladder.d_min, state.ladder.d_max],
        "memo": {"stored": list(memo.stored), "reused": memo.reused, "extracted": memo.extracted},
        "pending": None,
    }
    if state.ladder is not None:
        candidates = list(state.blind)
        for level in state.specific or ():
            candidates.extend(level.values())
        encoder.runs("members", [candidate._elements for candidate in candidates])
        entries = sorted(memo.levels.items())
        answers = [answer for _, (_, answer, _) in entries]
        encoder.add("memo_levels", np.array([level for level, _ in entries], dtype=np.int64))
        encoder.add(
            "memo_counts",
            np.array([counts for _, (counts, _, _) in entries], dtype=np.int64).reshape(
                len(entries), -1 if entries else 0
            ),
        )
        encoder.add("memo_evaluations", np.array([e for _, (_, _, e) in entries], dtype=np.int64))
        encoder.add("memo_kinds", np.array([_kind(answer) for answer in answers], dtype=np.int8))
        encoder.add(
            "memo_diversity",
            np.array([np.nan if a is None else a.diversity for a in answers], dtype=np.float64),
        )
        encoder.runs("memo_answers", [[] if a is None else a._elements for a in answers])
    if state._pending_rows:
        pending = list(state._pending)
        chunk = pending[0] if len(pending) == 1 else StreamChunk.join(pending)
        encoder.add("pending_vectors", chunk.vectors)
        encoder.add("pending_codes", chunk.codes)
        if isinstance(chunk.source, np.ndarray):
            fields["pending"] = "uids"
            encoder.add("pending_uids", chunk.source)
        else:
            fields["pending"] = "elements"
            encoder.positions("pending_elements", [chunk.element(i) for i in range(len(chunk))])
    return fields


def _kind(answer: Optional[Solution]) -> int:
    """The memo kind code of one answer."""
    if answer is None:
        return _NO_ANSWER
    return _FAIR_SOLUTION if isinstance(answer, FairSolution) else _SOLUTION


def _encode_window(session: Any, encoder: _Encoder) -> Dict[str, Any]:
    """The header fields and arrays of one windowed session."""
    algorithm = session._algorithm
    fields: Dict[str, Any] = {
        "stats": dataclasses.asdict(session._stats),
        "query_calls": session._query_calls,
        "count": algorithm._count,
    }
    if isinstance(algorithm, SlidingWindowFDM):
        blocks = [(block.start, block.summary) for block in algorithm._live_blocks]
        fields["summary_uids"] = algorithm._summary_uid_count
        encoder.positions("active", algorithm._active_summary)
        encoder.positions("raw", algorithm._buffer)
    else:
        blocks = list(algorithm._summaries)
        fields["current_start"] = algorithm._current_start
        encoder.positions("raw", algorithm._current_block)
    encoder.add("block_starts", np.array([start for start, _ in blocks], dtype=np.int64))
    encoder.runs("blocks", [summary for _, summary in blocks])
    return fields


def _lay_out(arrays: Dict[str, np.ndarray]) -> Tuple[Dict[str, list], bytes]:
    """The manifest and the body of ``arrays``, each array 8-byte aligned."""
    manifest: Dict[str, list] = {}
    pieces: List[bytes] = []
    offset = 0
    for name, array in arrays.items():
        pad = -offset % 8
        if pad:
            pieces.append(bytes(pad))
            offset += pad
        manifest[name] = [array.dtype.str, list(array.shape), offset]
        data = array.tobytes()
        pieces.append(data)
        offset += len(data)
    return manifest, b"".join(pieces)


def _pack(header: Dict[str, Any], body: bytes) -> bytes:
    """Magic, prelude, header and body as one file image."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body, zlib.crc32(head))
    return b"".join((MAGIC, _PRELUDE.pack(len(head), crc), head, body))


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def load(path: PathLike) -> Any:
    """The session saved at ``path`` by :func:`save`.

    Raises
    ------
    CheckpointError
        If ``path`` does not exist, cannot be read, or is anything but an
        intact version-3 checkpoint of an allowlisted algorithm and metric
        (see the module docstring).  The message names the path.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError as error:
        raise CheckpointError(path, "no such file") from error
    except OSError as error:
        raise CheckpointError(path, f"cannot read ({error})") from error
    header, body = _unpack(path, data)
    try:
        arrays = _arrays(path, header["arrays"], body)
        return _decode(path, header, arrays)
    except CheckpointError:
        raise
    except (
        ReproError, ValueError, TypeError, KeyError, IndexError, AttributeError,
        ArithmeticError, RecursionError,
    ) as error:
        raise CheckpointError(path, f"corrupt ({type(error).__name__}: {error})") from error


def _unpack(path: PathLike, data: bytes) -> Tuple[Dict[str, Any], memoryview]:
    """The checked header and the body of one file image."""
    if not data.startswith(MAGIC):
        if _is_pickle(data):
            raise CheckpointError(
                path,
                "is a pickle checkpoint of format version 2 or earlier; pickles are "
                f"never loaded (this release reads data-only version {VERSION}), "
                "so re-create the session from its data",
            )
        raise CheckpointError(path, "not a repro session checkpoint")
    start = len(MAGIC) + _PRELUDE.size
    if len(data) < start:
        raise CheckpointError(path, "truncated (no header)")
    head_size, crc = _PRELUDE.unpack_from(data, len(MAGIC))
    if len(data) < start + head_size:
        raise CheckpointError(path, "truncated (header cut short)")
    view = memoryview(data)
    head, body = view[start:start + head_size], view[start + head_size:]
    if zlib.crc32(body, zlib.crc32(head)) != crc:
        raise CheckpointError(path, "corrupt (checksum mismatch: truncated or altered)")
    try:
        header = json.loads(bytes(head).decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise CheckpointError(path, f"corrupt header ({error})") from error
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise CheckpointError(path, "not a repro session checkpoint")
    if header.get("version") != VERSION:
        raise CheckpointError(
            path, f"version {header.get('version')!r} is not supported (expected {VERSION})"
        )
    return header, body


def _is_pickle(data: bytes) -> bool:
    """Whether ``data`` is a pickle, judged on its opcodes alone (nothing is built).

    Protocols 2-5 open with a ``PROTO`` opcode; older ones must parse as
    opcodes up to a ``STOP`` on the last byte.
    """
    if data[:1] == b"\x80" and data[1:2] in (b"\x02", b"\x03", b"\x04", b"\x05"):
        return True
    import pickletools  # only a refused file gets this far

    last = None
    try:
        for last in pickletools.genops(data):
            pass
    except Exception:  # any parse failure means: not a pickle
        return False
    return last is not None and last[0].name == "STOP" and last[2] == len(data) - 1


def _arrays(path: PathLike, manifest: Any, body: memoryview) -> Dict[str, np.ndarray]:
    """Every array of the manifest, mapped onto the body (read-only views)."""
    if not isinstance(manifest, dict):
        raise CheckpointError(path, "corrupt (no array manifest)")
    arrays: Dict[str, np.ndarray] = {}
    for name, entry in manifest.items():
        dtype_str, shape, offset = entry
        if not isinstance(dtype_str, str) or not _DTYPE.fullmatch(dtype_str):
            raise CheckpointError(
                path, f"array {name!r} has dtype {dtype_str!r}, which a checkpoint never holds"
            )
        dtype = np.dtype(dtype_str)
        if not all(isinstance(n, int) and n >= 0 for n in shape) or not isinstance(offset, int):
            raise CheckpointError(path, f"array {name!r} has a malformed shape or offset")
        count = math.prod(shape)
        if offset < 0 or offset + count * dtype.itemsize > len(body):
            raise CheckpointError(
                path, f"array {name!r} lies outside the {len(body)}-byte body (offset {offset})"
            )
        if count:
            array = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
        else:
            array = np.zeros(0, dtype=dtype)
        arrays[name] = array.reshape(shape)
    return arrays


class _Decoder:
    """Rebuilds elements and element lists from one checkpoint's arrays."""

    def __init__(self, path: PathLike, arrays: Dict[str, np.ndarray]) -> None:
        self.path = path
        self.arrays = arrays
        rows = arrays["rows"]
        uids, groups = arrays["uids"].tolist(), arrays["groups"].tolist()
        if not len(uids) == len(groups) == rows.shape[0]:
            raise CheckpointError(path, "corrupt (element columns disagree in length)")
        #: Payload rows, copied once so no element holds the file image.
        self.rows = np.array(rows)
        labels: List[Optional[str]] = [None] * len(uids)
        if "labels" in arrays:
            labels = [
                label if labelled else None
                for label, labelled in zip(arrays["labels"].tolist(), arrays["labelled"].tolist())
            ]
        self.elements = list(map(Element, uids, self.rows, groups, labels))

    def positions(self, name: str) -> List[int]:
        """A position array as a list, each checked against the element table."""
        positions = self.arrays[name]
        if positions.dtype.kind not in "iu" or positions.ndim != 1:
            raise CheckpointError(self.path, f"corrupt ({name!r} is not a position array)")
        if positions.size and (positions.min() < 0 or positions.max() >= len(self.elements)):
            raise CheckpointError(
                self.path,
                f"array {name!r} points past the {len(self.elements)} stored elements",
            )
        return positions.tolist()

    def take(self, name: str) -> List[Element]:
        """The elements a position array names."""
        return list(map(self.elements.__getitem__, self.positions(name)))

    def runs(self, name: str) -> Tuple[List[int], List[int]]:
        """A run-encoded position array: ``(flat positions, run lengths)``."""
        positions = self.positions(name)
        sizes = self.arrays[f"{name}_sizes"].tolist()
        if any(size < 0 for size in sizes) or sum(sizes) != len(positions):
            raise CheckpointError(self.path, f"corrupt ({name!r} run lengths do not add up)")
        return positions, sizes

    def lists(self, name: str) -> List[List[Element]]:
        """A run-encoded position array as one element list per run."""
        positions, sizes = self.runs(name)
        elements = list(map(self.elements.__getitem__, positions))
        out, start = [], 0
        for size in sizes:
            out.append(elements[start:start + size])
            start += size
        return out


def _decode(path: PathLike, header: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Any:
    """The session a checked header and its arrays describe."""
    from repro.api.session import StreamingSession, WindowSession

    kind, name = header["session"], header["algorithm"]
    allowed = {"streaming": _STREAMING, "window": _WINDOWED}.get(kind)
    if allowed is None:
        raise CheckpointError(path, f"unknown session kind {kind!r}")
    if name not in allowed:
        raise CheckpointError(
            path,
            f"unknown algorithm {name!r}; checkpoints hold only "
            f"{', '.join(sorted(_STREAMING) + sorted(_WINDOWED))}",
        )
    cls = allowed[name]
    config = header["config"]
    metric = _metric(path, config["metric"])
    options = {option: config[option] for option in _parameters(cls)}
    if "constraint" in options:
        options["constraint"] = FairnessConstraint(dict(map(tuple, options["constraint"])))
    if options.get("distance_bounds") is not None:
        options["distance_bounds"] = tuple(options["distance_bounds"])
    algorithm = cls(metric=metric, **options)
    decoder = _Decoder(path, arrays)
    if kind == "streaming":
        session = StreamingSession(algorithm)
        _decode_ingest(session._state, header["state"], decoder)
    else:
        session = WindowSession(algorithm)
        _decode_window(session, header["state"], decoder)
    session._offered = int(header["offered"])
    session._next_uid = int(header["next_uid"])
    session._stream_timer.elapsed = float(header["stream_seconds"])
    rows, distances = header["published"]
    session._published = (int(rows), int(distances))
    return session


def _metric(path: PathLike, spec: Dict[str, Any]) -> Metric:
    """The metric a header names (a counting wrapper when it kept a count)."""
    name = spec["name"]
    if name == "minkowski":
        metric: Metric = MinkowskiMetric(float(spec["p"]))
    elif name in _METRIC_FACTORIES:
        metric = _METRIC_FACTORIES[name]()
    else:
        raise CheckpointError(
            path,
            f"unknown metric {name!r}; checkpoints name one of "
            f"{', '.join(sorted(_METRIC_FACTORIES))} or minkowski",
        )
    if "calls" in spec:
        metric = CountingMetric(metric)
        metric.calls = int(spec["calls"])
    return metric


def _decode_ingest(state: IngestState, fields: Dict[str, Any], decoder: _Decoder) -> None:
    """Put a freshly built engine state where the checkpoint left it."""
    state.counting.calls = int(fields["calls"])
    state.stats = StreamStats(**fields["stats"])
    if fields["ladder"] is not None:
        d_min, d_max = fields["ladder"]
        if state.ladder is None:
            state._activate((float(d_min), float(d_max)))
        elif (state.ladder.d_min, state.ladder.d_max) != (d_min, d_max):
            raise CheckpointError(decoder.path, "corrupt (ladder disagrees with the bounds)")
        _decode_candidates(state, decoder)
        _decode_memo(state, fields["memo"], decoder)
    pending = fields["pending"]
    if pending is not None:
        arrays = decoder.arrays
        vectors = np.array(arrays["pending_vectors"])
        codes = np.array(arrays["pending_codes"], dtype=np.int64)
        if pending == "uids":
            source: Any = np.array(arrays["pending_uids"], dtype=np.int64)
        else:
            source = decoder.take("pending_elements")
        if not len(codes) == len(source) == len(vectors):
            raise CheckpointError(decoder.path, "corrupt (pending columns disagree in length)")
        state._pending = deque([StreamChunk(vectors, codes, source)])
        state._pending_rows = len(codes)


def _decode_candidates(state: IngestState, decoder: _Decoder) -> None:
    """Fill the rebuilt candidates with their members: one gather of their rows."""
    candidates = list(state.blind)
    for level in state.specific or ():
        candidates.extend(level.values())
    positions, sizes = decoder.runs("members")
    if len(sizes) != len(candidates):
        raise CheckpointError(
            decoder.path,
            f"corrupt ({len(sizes)} candidates saved, the ladder makes {len(candidates)})",
        )
    rows = decoder.rows
    if rows.ndim == 2 and rows.dtype.kind == "f":
        gathered = rows[decoder.arrays["members"]]
    else:
        gathered = None
    members, start = list(map(decoder.elements.__getitem__, positions)), 0
    for candidate, size in zip(candidates, sizes):
        if size > candidate.capacity:
            raise CheckpointError(decoder.path, "corrupt (a candidate exceeds its capacity)")
        stop = start + size
        candidate._restore(
            members[start:stop], None if gathered is None or not size else gathered[start:stop]
        )
        start = stop


def _decode_memo(state: IngestState, fields: Dict[str, Any], decoder: _Decoder) -> None:
    """Rebuild the extraction memo: its answers over the restored elements."""
    arrays = decoder.arrays
    memo = ExtractionMemo()
    answers = decoder.lists("memo_answers")
    levels = arrays["memo_levels"].tolist()
    counts = arrays["memo_counts"].tolist()
    evaluations = arrays["memo_evaluations"].tolist()
    kinds = arrays["memo_kinds"].tolist()
    diversities = arrays["memo_diversity"].tolist()
    columns = (levels, counts, evaluations, kinds, diversities, answers)
    if len(set(map(len, columns))) > 1:
        raise CheckpointError(decoder.path, "corrupt (memo columns disagree in length)")
    constraint = state.algorithm.constraint
    for level, key, spent, kind, diversity, elements in zip(
        levels, counts, evaluations, kinds, diversities, answers
    ):
        answer: Optional[Solution] = None
        if kind == _FAIR_SOLUTION:
            answer = FairSolution._measured(elements, state.counting, constraint, diversity)
        elif kind == _SOLUTION:
            answer = Solution._measured(elements, state.counting, diversity)
        elif kind != _NO_ANSWER:
            raise CheckpointError(decoder.path, f"corrupt (unknown memo answer kind {kind})")
        memo.levels[level] = (tuple(key), answer, spent)
    stored, memo.reused, memo.extracted = fields["stored"], fields["reused"], fields["extracted"]
    memo.stored = (int(stored[0]), int(stored[1]))
    state._memo = memo


def _decode_window(session: Any, fields: Dict[str, Any], decoder: _Decoder) -> None:
    """Put a freshly built windowed session where the checkpoint left it."""
    algorithm = session._algorithm
    session._stats = StreamStats(**fields["stats"])
    session._query_calls = int(fields["query_calls"])
    algorithm._count = int(fields["count"])
    starts = decoder.arrays["block_starts"].tolist()
    summaries = decoder.lists("blocks")
    if len(starts) != len(summaries):
        raise CheckpointError(decoder.path, "corrupt (block columns disagree in length)")
    if isinstance(algorithm, SlidingWindowFDM):
        algorithm._live_blocks = deque(
            _Block(start=start, summary=summary) for start, summary in zip(starts, summaries)
        )
        algorithm._active_summary = decoder.take("active")
        algorithm._summary_uid_count = int(fields["summary_uids"])
        algorithm._buffer = decoder.take("raw")
    else:
        algorithm._summaries = deque(zip(starts, summaries))
        algorithm._current_block = decoder.take("raw")
        algorithm._current_start = int(fields["current_start"])
