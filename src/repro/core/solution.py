"""Solution value objects returned by the algorithms."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.fairness.constraints import FairnessAudit, FairnessConstraint, audit_fairness
from repro.metrics.base import Metric
from repro.metrics.space import diversity_of
from repro.data.element import Element


class Solution:
    """An (unconstrained) diversity maximization solution.

    The diversity value is computed once at construction time with the
    metric that produced the solution, so reports never recompute pairwise
    distances by accident with a different metric.
    """

    def __init__(self, elements: Sequence[Element], metric: Metric) -> None:
        self._elements: List[Element] = list(elements)
        self._metric = metric
        self._diversity = diversity_of(self._elements, metric)

    @classmethod
    def _measured(cls, elements: Sequence[Element], metric: Metric, diversity: float) -> "Solution":
        """A solution whose diversity the caller has already measured.

        Evaluates no distance; a resumed session rebuilds its remembered
        answers this way.
        """
        solution = cls.__new__(cls)
        solution._elements = list(elements)
        solution._metric = metric
        solution._diversity = float(diversity)
        return solution

    @property
    def elements(self) -> List[Element]:
        """The selected elements (a copy, in selection order)."""
        return list(self._elements)

    @property
    def size(self) -> int:
        """Number of selected elements."""
        return len(self._elements)

    @property
    def diversity(self) -> float:
        """``div(S)`` under the metric the algorithm used."""
        return self._diversity

    @property
    def uids(self) -> List[int]:
        """Identifiers of the selected elements (selection order)."""
        return [element.uid for element in self._elements]

    def group_counts(self) -> Dict[int, int]:
        """Number of selected elements per group label."""
        counts: Dict[int, int] = {}
        for element in self._elements:
            counts[element.group] = counts.get(element.group, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(size={self.size}, diversity={self._diversity:.4g})"


class FairSolution(Solution):
    """A solution carrying its fairness audit against the constraint it served."""

    def __init__(
        self,
        elements: Sequence[Element],
        metric: Metric,
        constraint: FairnessConstraint,
    ) -> None:
        super().__init__(elements, metric)
        self._constraint = constraint
        self._audit: Optional[FairnessAudit] = audit_fairness(self._elements, constraint)

    @classmethod
    def _measured(
        cls,
        elements: Sequence[Element],
        metric: Metric,
        constraint: FairnessConstraint,
        diversity: float,
    ) -> "FairSolution":
        """A solution whose diversity the caller has already measured.

        Evaluates no distance: SFDM2 reads ``div(S)`` off the pool distance
        matrix it already holds (and charged) for every guess.  The audit
        runs when first read, so only the guess that wins is audited.
        """
        solution = super()._measured(elements, metric, diversity)
        solution._constraint = constraint
        solution._audit = None
        return solution

    @property
    def constraint(self) -> FairnessConstraint:
        """The fairness constraint this solution was computed for."""
        return self._constraint

    @property
    def audit(self) -> FairnessAudit:
        """The fairness audit (counts, quotas, violation)."""
        if self._audit is None:
            self._audit = audit_fairness(self._elements, self._constraint)
        return self._audit

    @property
    def is_fair(self) -> bool:
        """Whether every group quota is met exactly."""
        return self.audit.is_fair

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FairSolution(size={self.size}, diversity={self.diversity:.4g}, "
            f"fair={self.is_fair})"
        )
