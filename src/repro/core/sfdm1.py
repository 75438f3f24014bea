"""SFDM1 (Algorithm 2): streaming fair diversity maximization for two groups.

Stream phase: for every guess ``µ`` keep one group-blind candidate with
capacity ``k`` and one group-specific candidate per group with capacity
``k_i``, all fed by the Algorithm 1 update rule.  Post-processing: on the
guesses whose candidates are all full, balance the group-blind candidate by
swapping in far elements of the under-filled group and swapping out close
elements of the over-filled group.  The result is ``(1-ε)/4``-approximate
(Theorem 2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core.base import CandidateState, StreamingAlgorithm
from repro.core.candidate import Candidate
from repro.core.guesses import GuessLadder
from repro.core.postprocess import balance_by_swapping
from repro.core.solution import FairSolution
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric
from repro.utils.errors import InvalidParameterError


class SFDM1(StreamingAlgorithm):
    """The paper's ``(1-ε)/4``-approximate streaming algorithm for ``m = 2``.

    Parameters
    ----------
    metric:
        Distance metric of the underlying space.
    constraint:
        Fairness constraint with exactly two groups.
    epsilon:
        Guess-ladder resolution in ``(0, 1)``.
    distance_bounds:
        Optional known ``(d_min, d_max)``; estimated from a stream prefix
        when omitted.
    fallback:
        When ``True`` (default) and no guess admits the paper's exact
        post-processing, a greedy fair selection over all stored elements is
        returned instead of raising.  Set to ``False`` to get the strict
        paper behaviour.
    batch_size:
        Rows per chunk of the ingestion engine (see
        :class:`~repro.core.base.StreamingAlgorithm`); ``None`` means
        :data:`~repro.core.base.DEFAULT_BATCH_SIZE`.  The solution does not
        depend on it.
    """

    name = "SFDM1"

    def __init__(
        self,
        metric: Metric,
        constraint: FairnessConstraint,
        epsilon: float = 0.1,
        distance_bounds: Optional[Tuple[float, float]] = None,
        warmup_size: int = 64,
        fallback: bool = True,
        batch_size: Optional[int] = None,
    ) -> None:
        super().__init__(
            metric,
            epsilon=epsilon,
            distance_bounds=distance_bounds,
            warmup_size=warmup_size,
            batch_size=batch_size,
        )
        if constraint.num_groups != 2:
            raise InvalidParameterError(
                f"SFDM1 supports exactly two groups, got {constraint.num_groups}; use SFDM2"
            )
        self.constraint = constraint
        self.fallback = bool(fallback)

    # ------------------------------------------------------------------
    # Hooks driven by the shared run template and the session API
    # ------------------------------------------------------------------
    def _make_candidates(self, ladder: GuessLadder, metric: Metric) -> CandidateState:
        """One blind candidate (capacity ``k``) and per-group candidates (``k_i``)."""
        k = self.constraint.total_size
        blind: List[Candidate] = []
        specific: List[Dict[int, Candidate]] = []
        for mu in ladder:
            blind.append(Candidate(mu=mu, capacity=k, metric=metric))
            specific.append(
                {
                    group: Candidate(
                        mu=mu,
                        capacity=self.constraint.quota(group),
                        metric=metric,
                        group=group,
                    )
                    for group in self.constraint.groups
                }
            )
        return blind, specific

    def _eligible(self, blind: Candidate, specific: Optional[Dict[int, Candidate]]) -> bool:
        """Whether the blind candidate and every group candidate are full."""
        return len(blind) == self.constraint.total_size and all(
            len(specific[group]) == quota for group, quota in self.constraint.quotas.items()
        )

    def _extract_guess(
        self,
        level: int,
        mu: float,
        blind: Candidate,
        specific: Optional[Dict[int, Candidate]],
        metric: Metric,
    ) -> Optional[FairSolution]:
        """Balance one eligible guess's blind candidate by swapping; ``None`` if unfair."""
        with obs.span("sfdm1.balance", level=level, mu=float(mu)):
            balanced = balance_by_swapping(
                blind=blind.elements,
                group_candidates={
                    group: candidate.elements for group, candidate in specific.items()
                },
                constraint=self.constraint,
                metric=metric,
            )
        solution = FairSolution(balanced, metric, self.constraint)
        return solution if solution.is_fair else None

    def _infeasible_message(self) -> str:
        """Error message when no feasible solution was found."""
        return (
            "SFDM1 could not build a fair solution; the stream may not contain "
            "enough elements of every group"
        )

    def _run_params(self) -> Dict[str, Any]:
        """The parameter mapping recorded in the :class:`RunResult`."""
        return {
            "k": self.constraint.total_size,
            "epsilon": self.epsilon,
            "quotas": self.constraint.quotas,
        }
