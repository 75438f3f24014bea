"""One-pass data streams over elements.

A :class:`DataStream` is a restartable source of :class:`Element` objects.
"Restartable" means the *experiment harness* can run several algorithms or
repetitions over the same logical dataset; each individual algorithm still
consumes the stream in a single pass and never indexes back into it.

Streams can also be consumed in *batches* (:meth:`DataStream.batches`, or
:func:`iter_batches` for arbitrary element iterables): contiguous chunks of
the same one-pass order, which the batched ingestion path of the streaming
algorithms screens with one vectorized distance computation per guess level
instead of per-element Python loops.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.store import ElementStore
from repro.data.element import Element
from repro.utils.errors import EmptyStreamError, InvalidParameterError
from repro.utils.rng import ensure_rng


def iter_batches(elements: Iterable[Element], size: int) -> Iterator[List[Element]]:
    """Yield consecutive chunks of ``elements`` with at most ``size`` items.

    Parameters
    ----------
    elements:
        Any iterable of elements (a :class:`DataStream`, a generator, ...).
        It is consumed exactly once, in order; concatenating the yielded
        chunks reproduces the original sequence.
    size:
        Maximum chunk length; must be positive (validated eagerly, at the
        call site, not on first iteration).  The final chunk may be
        shorter.  Empty inputs yield no chunks.
    """
    if size <= 0:
        raise InvalidParameterError(f"batch size must be positive, got {size}")
    return _iter_batches(elements, size)


def _iter_batches(elements: Iterable[Element], size: int) -> Iterator[List[Element]]:
    """Generator body of :func:`iter_batches` (arguments already validated)."""
    chunk: List[Element] = []
    for element in elements:
        chunk.append(element)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class DataStream:
    """A finite, restartable stream of elements with optional shuffling.

    Parameters
    ----------
    elements:
        The underlying elements in their canonical order.  Omitted when the
        stream is backed by a columnar ``store`` instead.
    shuffle_seed:
        If not ``None``, iteration yields a pseudo-random permutation of the
        elements determined by this seed — the paper averages every
        experiment over ten random permutations of each dataset.
    name:
        Optional human-readable name used in reports.
    store:
        Optional :class:`~repro.data.store.ElementStore` backing.  A
        store-backed stream iterates zero-copy element views, and the
        streaming algorithms recognise it (via :meth:`store_plan`) to
        ingest store row-ranges directly — same elements, same order, no
        per-element materialisation.  Mutually exclusive with ``elements``.
    """

    def __init__(
        self,
        elements: Optional[Sequence[Element]] = None,
        shuffle_seed: Optional[int] = None,
        name: Optional[str] = None,
        store: Optional[ElementStore] = None,
    ) -> None:
        if (store is None) == (elements is None):
            raise InvalidParameterError(
                "a DataStream takes exactly one of `elements` or `store`"
            )
        self._store = store
        self._elements: Optional[List[Element]] = None
        if store is None:
            self._elements = list(elements)
            if not self._elements:
                raise EmptyStreamError("a DataStream requires at least one element")
        elif not len(store):
            raise EmptyStreamError("a DataStream requires at least one element")
        self.shuffle_seed = shuffle_seed
        self.name = name or "stream"

    @property
    def store(self) -> Optional[ElementStore]:
        """The columnar backing of this stream, or ``None``."""
        return self._store

    def store_plan(self) -> Optional[Tuple[ElementStore, Optional[np.ndarray]]]:
        """``(store, iteration_order)`` for store-backed streams, else ``None``.

        ``iteration_order is None`` means canonical row order; otherwise it
        is the resolved shuffle permutation — exactly the element order
        ``iter(self)`` yields.
        """
        if self._store is None:
            return None
        return self._store, self._order()

    def _order(self) -> Optional[np.ndarray]:
        """The resolved iteration order (``None`` for canonical order)."""
        if self.shuffle_seed is None:
            return None
        rng = ensure_rng(self.shuffle_seed)
        return rng.permutation(len(self))

    def _canonical(self) -> List[Element]:
        """The canonical-order element list (views for store backings)."""
        if self._store is not None:
            return self._store.elements()
        return self._elements

    def __len__(self) -> int:
        if self._store is not None:
            return len(self._store)
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        order = self._order()
        if self._store is not None:
            return self._store.iter_elements(order)
        if order is None:
            return iter(list(self._elements))
        return iter([self._elements[int(i)] for i in order])

    def batches(self, size: int) -> Iterator[List[Element]]:
        """Iterate the stream in consecutive chunks of at most ``size`` elements.

        Parameters
        ----------
        size:
            Maximum chunk length; must be positive.

        The chunking respects the stream's shuffle order: concatenating the
        chunks yields exactly the sequence ``iter(self)`` would produce, so
        batch-mode consumers see the same one-pass element order as
        element-mode consumers.
        """
        return iter_batches(iter(self), size)

    def elements(self) -> List[Element]:
        """The elements in canonical (unshuffled) order, as a new list."""
        return list(self._canonical())

    def permuted(self, seed: Optional[int]) -> "DataStream":
        """A new view of the same elements with a different shuffle seed."""
        if self._store is not None:
            return DataStream(store=self._store, shuffle_seed=seed, name=self.name)
        return DataStream(self._elements, shuffle_seed=seed, name=self.name)

    def take(self, count: int) -> "DataStream":
        """A stream over the first ``count`` elements (canonical order)."""
        if count <= 0:
            raise InvalidParameterError(f"count must be positive, got {count}")
        if self._store is not None:
            return DataStream(
                store=self._store.slice(0, min(count, len(self._store))),
                shuffle_seed=self.shuffle_seed,
                name=self.name,
            )
        return DataStream(self._elements[:count], shuffle_seed=self.shuffle_seed, name=self.name)

    def groups(self) -> List[int]:
        """Sorted distinct group labels appearing in the stream."""
        if self._store is not None:
            return [int(group) for group in np.unique(self._store.groups)]
        return sorted({element.group for element in self._elements})

    def group_sizes(self) -> dict:
        """Mapping from group label to number of elements in that group."""
        if self._store is not None:
            values, counts = np.unique(self._store.groups, return_counts=True)
            return {int(value): int(count) for value, count in zip(values, counts)}
        sizes: dict = {}
        for element in self._elements:
            sizes[element.group] = sizes.get(element.group, 0) + 1
        return sizes

    def filter(self, predicate: Callable[[Element], bool]) -> "DataStream":
        """A stream over the elements satisfying ``predicate``.

        Store-backed streams stay columnar: the surviving rows are gathered
        into a sub-store with one vectorized select per column.
        """
        if self._store is not None:
            kept_rows = [
                row
                for row, element in enumerate(self._store.iter_elements())
                if predicate(element)
            ]
            if not kept_rows:
                raise EmptyStreamError("filter removed every element from the stream")
            return DataStream(
                store=self._store.select(np.asarray(kept_rows, dtype=np.int64)),
                shuffle_seed=self.shuffle_seed,
                name=self.name,
            )
        kept = [element for element in self._elements if predicate(element)]
        if not kept:
            raise EmptyStreamError("filter removed every element from the stream")
        return DataStream(kept, shuffle_seed=self.shuffle_seed, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backing = ", columnar" if self._store is not None else ""
        return (
            f"DataStream(name={self.name!r}, n={len(self)}, "
            f"groups={len(self.groups())}, shuffle_seed={self.shuffle_seed!r}{backing})"
        )


def stream_from_arrays(
    features: np.ndarray,
    groups: Iterable[int],
    name: Optional[str] = None,
    shuffle_seed: Optional[int] = None,
) -> DataStream:
    """Build a :class:`DataStream` from a feature matrix and group labels.

    Parameters
    ----------
    features:
        Array of shape ``(n, d)``; row ``i`` becomes the payload of element
        ``i``.
    groups:
        Iterable of ``n`` integer group labels, converted in one vectorised
        step by :func:`~repro.data.store.group_codes` (which rejects NaN,
        infinite, fractional and non-scalar labels).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise InvalidParameterError(
            f"features must be a 2-D array of shape (n, d), got ndim={features.ndim}"
        )
    store = ElementStore(features, groups)
    return DataStream(store=store, shuffle_seed=shuffle_seed, name=name)
