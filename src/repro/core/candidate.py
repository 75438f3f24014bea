"""Candidate solutions maintained by the streaming algorithms.

A :class:`Candidate` is the greedy set ``S_µ`` of Algorithm 1 for one guess
``µ``: it accepts an element when the candidate is below capacity and the
element is at distance at least ``µ`` from everything already accepted.  By
construction the minimum pairwise distance within a candidate is at least
``µ`` at all times — an invariant the tests verify directly.

Two update paths exist:

* :meth:`Candidate.offer` — the paper's element-at-a-time rule with an
  early-exit distance scan; the reference the tests compare against;
* :meth:`Candidate._resolve_survivors` — the in-chunk step of the
  ingestion engine (:mod:`repro.core.base`): a whole chunk is screened
  against the pre-chunk members of every guess level at once by the union
  screen, and only the survivors (typically few once the candidate fills)
  are resolved here, round by round.  The rounds read their distances off
  the engine's per-chunk table of head rows, which every guess level
  shares, rather than calling the metric.  Elements are only materialised
  for the rows actually accepted.

Both produce the identical accepted set for the same arrival order — an
element rejected against a prefix of the members can never be accepted
later, because members only accumulate.

Accepted member payloads are kept in a preallocated, geometrically grown
row buffer (:attr:`_rows`), so :meth:`member_matrix` is a zero-copy slice
of that buffer instead of a per-call re-stack of the members' vectors.
Non-columnar payloads (categorical sequences, precomputed-matrix indices)
fall back to the original lazily re-stacked matrix.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.metrics.base import Metric, stack_payloads
from repro.data.element import Element


class Candidate:
    """One greedy candidate ``S_µ`` with a distance threshold and a capacity.

    Parameters
    ----------
    mu:
        The distance threshold (a guess of OPT).
    capacity:
        Maximum number of elements the candidate may hold.
    metric:
        Metric used for threshold checks.
    group:
        Optional group restriction; when set, :meth:`offer` ignores elements
        of other groups (used for the group-specific candidates ``S_{µ,i}``).
    """

    __slots__ = ("mu", "capacity", "metric", "group", "_elements", "_matrix", "_rows")

    def __init__(
        self,
        mu: float,
        capacity: int,
        metric: Metric,
        group: Optional[int] = None,
    ) -> None:
        self.mu = float(mu)
        self.capacity = int(capacity)
        self.metric = metric
        self.group = group
        self._elements: List[Element] = []
        #: Lazily re-stacked member matrix — only used for payloads that do
        #: not fit the float64 row buffer (strings, scalar indices).
        self._matrix: Optional[np.ndarray] = None
        #: Preallocated (grown geometrically, capped at ``capacity``)
        #: float64 buffer of member payload rows; ``_rows[:len(self)]`` is
        #: the live member matrix.  ``None`` until the first numeric accept,
        #: and permanently ``None`` for non-columnar payloads.
        self._rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __contains__(self, element: Element) -> bool:
        return element in self._elements

    @property
    def elements(self) -> List[Element]:
        """The accepted elements in insertion order (a copy)."""
        return list(self._elements)

    @property
    def is_full(self) -> bool:
        """Whether the candidate has reached its capacity."""
        return len(self._elements) >= self.capacity

    def member_matrix(self) -> np.ndarray:
        """The members' payloads stacked into one array.

        For numeric vector payloads this is a zero-copy slice of the
        preallocated row buffer; other payload kinds fall back to a lazily
        cached re-stack.
        """
        if self._rows is not None:
            return self._rows[: len(self._elements)]
        if self._matrix is None:
            self._matrix = stack_payloads([element.vector for element in self._elements])
        return self._matrix

    def _append_member(self, element: Element, row: Optional[np.ndarray] = None) -> None:
        """Record an accepted element, maintaining the member-row buffer.

        ``row`` is the element's payload as a float64 row when the caller
        already has it sliced (the chunk path); otherwise the element's
        own vector is used.  The buffer starts at 16 rows and doubles up to
        ``capacity``, so appends are amortised O(d).
        """
        payload = element.vector if row is None else row
        count = len(self._elements)
        if count == 0 and (
            isinstance(payload, np.ndarray)
            and payload.ndim == 1
            and payload.dtype.kind == "f"
        ):
            size = max(1, min(self.capacity, 16))
            self._rows = np.empty((size, payload.shape[0]), dtype=np.float64)
        if self._rows is not None:
            if count >= self._rows.shape[0]:
                grown = np.empty(
                    (min(self.capacity, max(1, 2 * self._rows.shape[0])), self._rows.shape[1]),
                    dtype=np.float64,
                )
                grown[:count] = self._rows[:count]
                self._rows = grown
            self._rows[count] = payload
        else:
            self._matrix = None
        self._elements.append(element)

    def _restore(self, elements: List[Element], rows: Optional[np.ndarray]) -> None:
        """Take ``elements`` as the members, as a checkpoint held them.

        ``rows`` is their float64 payload matrix (it becomes the row
        buffer, grown on the next accept), or ``None`` for payloads that do
        not fit the buffer.
        """
        self._elements = elements
        self._rows = rows
        self._matrix = None

    def _fork(self, metric: Metric) -> "Candidate":
        """A copy that accepts further members without touching this candidate.

        The member list and the row buffer are copied (the elements are
        shared); the copy charges its screens to ``metric``.
        """
        twin = Candidate(self.mu, self.capacity, metric, self.group)
        twin._elements = list(self._elements)
        twin._rows = None if self._rows is None else self._rows.copy()
        return twin

    # ------------------------------------------------------------------
    # Streaming update
    # ------------------------------------------------------------------
    def distance_to(self, element: Element) -> float:
        """``d(x, S_µ)``; infinity when the candidate is empty."""
        if not self._elements:
            return float("inf")
        if self.metric.supports_batch and len(self._elements) > 1:
            return float(self.metric.distances_to(element.vector, self.member_matrix()).min())
        return min(
            self.metric.distance(element.vector, member.vector) for member in self._elements
        )

    def offer(self, element: Element) -> bool:
        """Process one stream element; return ``True`` if it was accepted.

        Implements lines 5–6 (and 7–8 for group-specific candidates) of the
        paper's Algorithms 1–3: accept when below capacity, the element
        matches the group restriction, and ``d(x, S_µ) >= µ``.

        The distance scan short-circuits on the first member closer than
        ``µ`` — the decision is identical to computing the full minimum.
        The ingestion engine takes the same decisions chunk-wise (see
        :meth:`_resolve_survivors`); this rule is the oracle it is tested
        against.
        """
        if self.group is not None and element.group != self.group:
            return False
        if self.is_full:
            return False
        distance = self.metric.distance
        vector = element.vector
        for member in self._elements:
            if distance(vector, member.vector) < self.mu:
                return False
        self._append_member(element)
        return True

    def _resolve_survivors(self, vectors, survivor_indices, materialise, head_distances) -> int:
        """Accept pre-screened chunk survivors, resolving them against each other.

        ``survivor_indices`` (ascending positions into ``vectors``) are the
        chunk elements at distance at least ``µ`` from every *pre-chunk*
        member.  The rule implemented here is round-based: the first alive
        survivor is accepted (nothing accepted this chunk is close to it),
        its distances to the remaining survivors then eliminate every one
        within ``µ`` of it, and the process repeats until capacity or
        exhaustion.

        This accepts exactly the elements the element-at-a-time
        :meth:`offer` loop would: by induction, the alive list holds the
        survivors at distance ``>= µ`` from everything accepted so far, so
        its head is precisely the next element the sequential scan accepts,
        and the ones skipped between two accepted heads are precisely the
        ones the sequential scan rejects.  One round per *accepted* element
        (at most ``capacity`` per chunk) replaces one distance scan per
        surviving element — the schedule changes, the decisions do not.

        ``head_distances(head, alive)`` returns the distances from chunk
        row ``head`` to the chunk rows ``alive``, each equal to what
        ``distances_to(vectors[head], vectors[alive])`` returns.  The
        ingestion engine reads them off a per-chunk table that every guess
        level shares, so the metric is not called here.  The rounds'
        ``len(alive)`` distances are charged through the metric's
        ``charge``, so the count stays that of one kernel call per round.
        """
        room = self.capacity - len(self._elements)
        accepted = charged = 0
        alive = survivor_indices
        while alive.size and accepted < room:
            index = int(alive[0])
            self._append_member(materialise(index), row=vectors[index])
            accepted += 1
            alive = alive[1:]
            if not alive.size or accepted == room:
                break
            charged += alive.size
            alive = alive[head_distances(index, alive) >= self.mu]
        charge = getattr(self.metric, "charge", None)
        if charged and charge is not None:
            charge(charged)
        return accepted

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def diversity(self) -> float:
        """Minimum pairwise distance within the candidate (``inf`` if < 2 items)."""
        if len(self._elements) < 2:
            return float("inf")
        if self.metric.supports_batch:
            matrix = self.metric.pairwise(self.member_matrix())
            return float(matrix[np.triu_indices(len(self._elements), k=1)].min())
        best = float("inf")
        for i in range(len(self._elements)):
            for j in range(i + 1, len(self._elements)):
                d = self.metric.distance(self._elements[i].vector, self._elements[j].vector)
                if d < best:
                    best = d
        return best

    def count_group(self, group: int) -> int:
        """Number of accepted elements belonging to ``group``."""
        return sum(1 for element in self._elements if element.group == group)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scope = "blind" if self.group is None else f"group={self.group}"
        return (
            f"Candidate(mu={self.mu:g}, capacity={self.capacity}, {scope}, "
            f"size={len(self._elements)})"
        )
