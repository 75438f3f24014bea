"""Zero-copy shared-memory shard transport for the parallel engine.

Shipping a shard to a process worker used to mean pickling its columns:
cheap compared to per-element pickles, but still one full copy of every
feature row serialised into the task queue, a second copy deserialised
inside the worker, and all of it repeated per run.  This module removes
the copies: the driver publishes the columnar arrays of *all* shards into
one read-only :mod:`multiprocessing.shared_memory` block, and each worker
receives only a tiny :class:`ShardRef` descriptor — block name plus
``(offset, length)`` per column — from which it reconstructs its shard as
zero-copy NumPy views over the mapped block.

:func:`ship_shards` alone picks the payload of a run; there is no knob.
What crosses the pickle boundary per shard:

================  ==========================================  ============
route              pickled payload                             array copies
================  ==========================================  ============
``shm``            :class:`ShardRef` (a few hundred bytes)     0 (views)
``pickle``         :class:`~repro.data.store.ElementStore`     2 (out + in)
in-process         the element list itself (never pickled)     0
================  ==========================================  ============

Fallback matrix (every degradation is logged through the ``repro``
logger, never silent):

* ``multiprocessing.shared_memory`` unavailable on the platform → pickle
  (debug note);
* a shard whose payloads are not columnar (ragged or categorical data,
  precomputed-matrix indices) → pickle, element lists for the non-columnar
  shards (debug note);
* the block allocation or publish itself raises (``OSError`` on exhausted
  ``/dev/shm``, for instance) → pickle, after unwinding any partial block
  (warning).

Lifecycle: the driver owns the block via :class:`StoreBlock` (a context
manager); workers attach with :meth:`ShardRef.attach` and close their
mapping when done.  :class:`StoreBlock` guarantees the segment is
unlinked even on abnormal exits through a :mod:`weakref` finalizer (which
also runs at interpreter shutdown, like ``atexit``), and every close and
unlink is idempotent.
"""

from __future__ import annotations

import logging
import weakref
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.data.store import ElementStore

logger = logging.getLogger("repro")

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shared_memory = None

#: Column dtypes of a published store, in block layout order.
_FEATURE_DTYPE = np.float64
_INT_DTYPE = np.int64


def shm_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` exists on this platform."""
    return _shared_memory is not None


def _dispose_segment(segment) -> None:
    """Close and unlink one segment, tolerating every repeat/ordering error.

    Used directly and as the :class:`StoreBlock` finalizer, so it must be
    safe to call after a manual close/unlink and on half-dead interpreters.
    """
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass


class ShardRef(NamedTuple):
    """Descriptor of one shard inside a published shared-memory block.

    This is the *entire* per-worker payload on the shm transport: the
    block name, the shard geometry, and the byte offsets of its three
    columns.  It pickles in O(1) regardless of the shard size.  Labels
    are reporting-only and rare, so they ride along as a plain list
    instead of earning a fourth column.
    """

    block_name: str
    count: int
    dim: int
    features_offset: int
    groups_offset: int
    uids_offset: int
    labels: Optional[List[Optional[str]]]

    def attach(self) -> "AttachedShard":
        """Map the published block and rebuild this shard as zero-copy views."""
        if _shared_memory is None:  # pragma: no cover - platform-gated
            raise RuntimeError("shared_memory is unavailable on this platform")
        with obs.span(
            "parallel.shm.attach", block=self.block_name, elements=self.count
        ):
            # Attaching re-registers the name with the resource tracker
            # (CPython < 3.13 has no ``track=False``), but worker pools
            # share the driver's tracker process — fork inherits it and
            # spawn ships its fd in the preparation data — so the repeat
            # registration is a set no-op and the driver's one ``unlink``
            # still retires the name exactly once.
            segment = _shared_memory.SharedMemory(name=self.block_name)
            features = np.frombuffer(
                segment.buf,
                dtype=_FEATURE_DTYPE,
                count=self.count * self.dim,
                offset=self.features_offset,
            ).reshape(self.count, self.dim)
            groups = np.frombuffer(
                segment.buf, dtype=_INT_DTYPE, count=self.count,
                offset=self.groups_offset,
            )
            uids = np.frombuffer(
                segment.buf, dtype=_INT_DTYPE, count=self.count,
                offset=self.uids_offset,
            )
            # The block is a broadcast, not a scratch pad: a worker writing
            # through a view would corrupt every sibling's input.
            for column in (features, groups, uids):
                column.flags.writeable = False
            store = ElementStore(features, groups, uids=uids, labels=self.labels)
        return AttachedShard(segment, store)


class AttachedShard:
    """A worker-side mapping of one published shard.

    Holds the :class:`~repro.data.store.ElementStore` whose columns are
    views into the shared block, plus the mapping itself so the worker can
    release it deterministically.  Anything the worker wants to outlive
    :meth:`close` (the summary it returns) must be detached first — see
    :func:`detach_elements`.
    """

    def __init__(self, segment, store: ElementStore) -> None:
        self._segment = segment
        self.store: Optional[ElementStore] = store

    def close(self) -> None:
        """Release the mapping; idempotent, and never raises on live views."""
        segment, self._segment = self._segment, None
        self.store = None
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - defensive; caller kept views
            logger.warning(
                "shared-memory shard still has exported views at close; "
                "the mapping will be released when they are garbage-collected"
            )

    def __enter__(self) -> "AttachedShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class StoreBlock:
    """A published shared-memory block holding the columns of many shards.

    Owns the segment driver-side.  ``close()`` unmaps it locally,
    ``unlink()`` removes the name from the system; both are idempotent,
    and a :mod:`weakref` finalizer guarantees both run at garbage
    collection or interpreter exit even if the owner forgot — the segment
    can never outlive the run that published it.
    """

    def __init__(self, segment, refs: List[ShardRef]) -> None:
        self._segment = segment
        self.refs = refs
        self._closed = False
        self._unlinked = False
        self._finalizer = weakref.finalize(self, _dispose_segment, segment)

    @property
    def name(self) -> str:
        """System-wide name of the underlying segment."""
        return self._segment.name

    @property
    def nbytes(self) -> int:
        """Size of the published block in bytes."""
        return self._segment.size

    def close(self) -> None:
        """Unmap the block from this process; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - defensive
            logger.warning(
                "shared-memory block %s still has exported views at close",
                self._segment.name,
            )

    def unlink(self) -> None:
        """Remove the segment name; safe to call repeatedly or after a race."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._segment.unlink()
        except FileNotFoundError:
            # A worker's resource tracker may have beaten us to it.
            pass

    def dispose(self) -> None:
        """Close and unlink in one idempotent call (the normal teardown)."""
        self.close()
        self.unlink()
        self._finalizer.detach()

    def __enter__(self) -> "StoreBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.dispose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreBlock(name={self.name!r}, shards={len(self.refs)}, bytes={self.nbytes})"


def publish_shards(stores: Sequence[ElementStore]) -> StoreBlock:
    """Publish shard stores into one shared-memory block.

    The block lays the three columns of every shard back to back (all
    column dtypes are 8-byte, so natural alignment is automatic) and
    returns a :class:`StoreBlock` whose ``refs`` — one O(1)-pickling
    :class:`ShardRef` per shard — are the worker payloads.

    Raises whatever the platform raises when the segment cannot be
    created or filled (the driver degrades to pickle on any failure).
    """
    if _shared_memory is None:
        raise RuntimeError("shared_memory is unavailable on this platform")
    offsets: List[Tuple[int, int, int]] = []
    cursor = 0
    for store in stores:
        n, d = len(store), store.dim
        features_offset = cursor
        groups_offset = features_offset + n * d * np.dtype(_FEATURE_DTYPE).itemsize
        uids_offset = groups_offset + n * np.dtype(_INT_DTYPE).itemsize
        cursor = uids_offset + n * np.dtype(_INT_DTYPE).itemsize
        offsets.append((features_offset, groups_offset, uids_offset))
    total = max(cursor, 1)  # zero-size segments are rejected by the OS
    with obs.span("parallel.shm.publish", shards=len(stores), bytes=total):
        segment = _shared_memory.SharedMemory(create=True, size=total)
        try:
            refs: List[ShardRef] = []
            for store, (features_offset, groups_offset, uids_offset) in zip(
                stores, offsets
            ):
                n, d = len(store), store.dim
                np.frombuffer(
                    segment.buf, dtype=_FEATURE_DTYPE, count=n * d,
                    offset=features_offset,
                )[:] = store.features.ravel()
                np.frombuffer(
                    segment.buf, dtype=_INT_DTYPE, count=n, offset=groups_offset
                )[:] = store.groups
                np.frombuffer(
                    segment.buf, dtype=_INT_DTYPE, count=n, offset=uids_offset
                )[:] = store.uids
                refs.append(
                    ShardRef(
                        block_name=segment.name,
                        count=n,
                        dim=d,
                        features_offset=features_offset,
                        groups_offset=groups_offset,
                        uids_offset=uids_offset,
                        labels=store.labels,
                    )
                )
        except BaseException:
            _dispose_segment(segment)
            raise
    return StoreBlock(segment, refs)


def detach_elements(elements: Sequence) -> List:
    """Deep-copy store-view elements so they survive the store's buffer.

    Workers summarising an shm-backed store get back elements whose
    payloads are views into the mapped block; those must not escape the
    worker (the mapping is released before the summary is pickled back).
    Detaching copies exactly the selected rows — the same bytes pickling
    would have copied anyway.
    """
    from repro.data.element import Element

    detached = []
    for element in elements:
        payload = element.vector
        if isinstance(payload, np.ndarray):
            payload = np.array(payload, dtype=payload.dtype, copy=True)
        detached.append(
            Element(
                uid=element.uid, vector=payload, group=element.group,
                label=element.label,
            )
        )
    return detached


def ship_shards(shards: Sequence[Sequence]) -> Tuple[List, Optional[StoreBlock], str]:
    """Pick the shipping payload for every shard; returns ``(payloads, block, used)``.

    Shared memory when it is available and every shard is columnar: one
    published block and a :class:`ShardRef` descriptor per shard.
    Otherwise pickle: columnar shards ship as
    :class:`~repro.data.store.ElementStore` pickles and non-columnar
    shards as plain element lists (see the module's fallback matrix).
    ``used`` names the route taken (``"shm"`` or ``"pickle"``); ``block``
    is the published :class:`StoreBlock` (the caller must ``dispose()``
    it after the map completes) or ``None``.
    """
    stores = [ElementStore.try_from_elements(list(shard)) for shard in shards]
    log, reason = logger.debug, None
    if not shm_available():
        reason = "multiprocessing.shared_memory is unavailable"
    elif any(store is None for store in stores):
        reason = "shard payloads are not columnar"
    else:
        try:
            block = publish_shards(stores)
            return list(block.refs), block, "shm"
        except Exception as error:
            log, reason = logger.warning, f"publish failed: {error}"
    log("shared-memory shard transport degraded to pickle (%s)", reason)
    payloads = [
        store if store is not None else list(shard)
        for store, shard in zip(stores, shards)
    ]
    return payloads, None, "pickle"
