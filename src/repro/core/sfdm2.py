"""SFDM2 (Algorithm 3): streaming fair diversity maximization for any ``m``.

Stream phase: for every guess ``µ`` keep one group-blind candidate with
capacity ``k`` and one group-specific candidate per group, each with
capacity ``k`` (not ``k_i`` — the extra elements are what makes the
matroid-intersection augmentation succeed).  Post-processing, per eligible
guess: seed a partial solution from the group-blind candidate (capped at
``k_i`` per group), cluster all stored elements at threshold ``µ/(m+1)``,
and augment the partial solution to a size-``k`` common independent set of
the fairness matroid and the cluster matroid using Algorithm 4 (a greedy,
diversity-aware warm start followed by Cunningham's augmenting paths).  The
result is ``(1-ε)/(3m+2)``-approximate (Theorem 4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core.base import CandidateState, StreamingAlgorithm
from repro.core.candidate import Candidate
from repro.core.guesses import GuessLadder
from repro.core.postprocess import cluster_elements, distance_to_set, greedy_fair_fill
from repro.core.solution import FairSolution
from repro.fairness.constraints import FairnessConstraint
from repro.matroids.cluster import ClusterMatroid
from repro.matroids.intersection import matroid_intersection
from repro.matroids.partition import matroid_from_constraint
from repro.metrics.base import Metric
from repro.data.element import Element


class SFDM2(StreamingAlgorithm):
    """The paper's ``(1-ε)/(3m+2)``-approximate streaming algorithm for any ``m``.

    Parameters
    ----------
    metric:
        Distance metric of the underlying space.
    constraint:
        Fairness constraint over any number ``m >= 2`` of groups (``m = 1``
        also works and degenerates to the unconstrained problem).
    epsilon:
        Guess-ladder resolution in ``(0, 1)``.
    distance_bounds:
        Optional known ``(d_min, d_max)``; estimated from a stream prefix
        when omitted.
    fallback:
        When ``True`` (default) and no guess yields a full fair solution, a
        greedy fair selection over all stored elements is returned instead
        of raising.
    greedy_augmentation:
        When ``True`` (default, the paper's Algorithm 4) the matroid-
        intersection augmentation adds directly-addable elements in
        farthest-first order, which raises the diversity of the final
        solution.  Setting it to ``False`` disables the diversity-aware
        priority (elements are added in arbitrary order) and is provided
        for the ablation study only.
    batch_size:
        Rows per chunk of the ingestion engine (see
        :class:`~repro.core.base.StreamingAlgorithm`); ``None`` means
        :data:`~repro.core.base.DEFAULT_BATCH_SIZE`.  The solution does not
        depend on it.
    """

    name = "SFDM2"

    def __init__(
        self,
        metric: Metric,
        constraint: FairnessConstraint,
        epsilon: float = 0.1,
        distance_bounds: Optional[Tuple[float, float]] = None,
        warmup_size: int = 64,
        fallback: bool = True,
        greedy_augmentation: bool = True,
        batch_size: Optional[int] = None,
    ) -> None:
        super().__init__(
            metric,
            epsilon=epsilon,
            distance_bounds=distance_bounds,
            warmup_size=warmup_size,
            batch_size=batch_size,
        )
        self.constraint = constraint
        self.fallback = bool(fallback)
        self.greedy_augmentation = bool(greedy_augmentation)

    # ------------------------------------------------------------------
    # Hooks driven by the shared run template and the session API
    # ------------------------------------------------------------------
    def _make_candidates(self, ladder: GuessLadder, metric: Metric) -> CandidateState:
        """One blind and one per-group candidate per level, all with capacity ``k``."""
        k = self.constraint.total_size
        blind: List[Candidate] = []
        specific: List[Dict[int, Candidate]] = []
        for mu in ladder:
            blind.append(Candidate(mu=mu, capacity=k, metric=metric))
            specific.append(
                {
                    group: Candidate(mu=mu, capacity=k, metric=metric, group=group)
                    for group in self.constraint.groups
                }
            )
        return blind, specific

    def _extract(
        self,
        ladder: GuessLadder,
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        metric: Metric,
    ) -> Tuple[Optional[FairSolution], Dict[str, float]]:
        """Matroid-intersection post-processing over the eligible guesses."""
        k = self.constraint.total_size
        groups = self.constraint.groups
        m = self.constraint.num_groups
        best: Optional[FairSolution] = None
        eligible_count = 0
        for index in range(len(ladder)):
            if len(blind[index]) != k:
                continue
            if any(
                len(specific[index][group]) < self.constraint.quota(group)
                for group in groups
            ):
                continue
            eligible_count += 1
            with obs.span("sfdm2.guess", level=index, mu=float(ladder[index])):
                solution_elements = self._postprocess_guess(
                    mu=ladder[index],
                    blind=blind[index],
                    specific=specific[index],
                    metric=metric,
                    m=m,
                )
            if solution_elements is None:
                continue
            candidate_solution = FairSolution(solution_elements, metric, self.constraint)
            if not candidate_solution.is_fair:
                continue
            if best is None or candidate_solution.diversity > best.diversity:
                best = candidate_solution

        if best is None and self.fallback:
            pool = self._stored_elements(blind, specific)
            with obs.span("sfdm2.fallback_fill", pool=len(pool)):
                filled = greedy_fair_fill(pool, self.constraint, metric)
            candidate_solution = FairSolution(filled, metric, self.constraint)
            if candidate_solution.is_fair:
                best = candidate_solution
        return best, {"eligible_guesses": eligible_count}

    def _infeasible_message(self) -> str:
        """Error message when no feasible solution was found."""
        return (
            "SFDM2 could not build a fair solution; the stream may not contain "
            "enough elements of every group"
        )

    def _run_params(self) -> Dict[str, Any]:
        """The parameter mapping recorded in the :class:`RunResult`."""
        return {
            "k": self.constraint.total_size,
            "epsilon": self.epsilon,
            "quotas": self.constraint.quotas,
            "m": self.constraint.num_groups,
        }

    # ------------------------------------------------------------------
    def _postprocess_guess(
        self,
        mu: float,
        blind: Candidate,
        specific: Dict[int, Candidate],
        metric: Metric,
        m: int,
    ) -> Optional[List[Element]]:
        """Post-process one eligible guess; return ``k`` elements or ``None``.

        Follows lines 10–18 of Algorithm 3: extract the initial partial
        solution from the group-blind candidate, cluster all stored
        elements at threshold ``µ/(m+1)``, and augment via matroid
        intersection with a diversity-aware greedy warm start.
        """
        # Initial partial solution: at most k_i elements per group from S_µ.
        initial: List[Element] = []
        taken_per_group: Dict[int, int] = {group: 0 for group in self.constraint.groups}
        for element in blind.elements:
            quota = self.constraint.quotas.get(element.group)
            if quota is None:
                continue
            if taken_per_group[element.group] < quota:
                initial.append(element)
                taken_per_group[element.group] += 1

        # S_all: the union of the group-blind and all group-specific candidates.
        pool: Dict[int, Element] = {}
        for element in blind.elements:
            pool.setdefault(element.uid, element)
        for candidate in specific.values():
            for element in candidate:
                pool.setdefault(element.uid, element)
        all_elements = list(pool.values())

        threshold = mu / (m + 1)
        clusters = cluster_elements(all_elements, threshold, metric)

        fairness_matroid = matroid_from_constraint(all_elements, self.constraint)
        cluster_matroid = ClusterMatroid(clusters)

        # The initial partial solution may violate the cluster matroid when
        # the clustering merges two of its elements (possible because the
        # threshold is µ/(m+1) while S_µ only guarantees separation µ ... the
        # guarantee of Lemma 3(ii) actually prevents this, but estimated
        # distance bounds can break the premise, so stay defensive).
        initial_set: Set[Element] = set()
        for element in initial:
            tentative = initial_set | {element}
            if fairness_matroid.is_independent(tentative) and cluster_matroid.is_independent(
                tentative
            ):
                initial_set.add(element)

        def priority(element: Element, current: Set[Element]) -> float:
            return distance_to_set(element, list(current), metric)

        augmented = matroid_intersection(
            fairness_matroid,
            cluster_matroid,
            initial=initial_set,
            priority=priority if self.greedy_augmentation else None,
            target_size=self.constraint.total_size,
        )
        if len(augmented) < self.constraint.total_size:
            return None
        return sorted(augmented, key=lambda element: element.uid)
