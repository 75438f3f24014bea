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

import numpy as np

from repro import obs
from repro.core.base import CandidateState, StreamingAlgorithm
from repro.core.candidate import Candidate
from repro.core.guesses import GuessLadder
from repro.core.postprocess import pool_distances, threshold_clusters
from repro.core.solution import FairSolution
from repro.fairness.constraints import FairnessConstraint
from repro.matroids.intersection import partition_intersection
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

    def _eligible(self, blind: Candidate, specific: Optional[Dict[int, Candidate]]) -> bool:
        """Whether the blind candidate is full and every group candidate holds its quota."""
        return len(blind) == self.constraint.total_size and all(
            len(specific[group]) >= quota for group, quota in self.constraint.quotas.items()
        )

    def _extract_guess(
        self,
        level: int,
        mu: float,
        blind: Candidate,
        specific: Optional[Dict[int, Candidate]],
        metric: Metric,
    ) -> Optional[FairSolution]:
        """Post-process one eligible guess into its ``k`` picks, or ``None``.

        Follows lines 10–18 of Algorithm 3: extract the initial partial
        solution from the group-blind candidate, cluster all stored
        elements at threshold ``µ/(m+1)``, and augment via matroid
        intersection with a diversity-aware greedy warm start.

        One pool distance matrix serves the clustering, the warm start and
        the diversity of the result, and the intersection runs on counters
        (:func:`~repro.matroids.intersection.partition_intersection`).  The
        distance evaluations of the generic route — clustering, a
        distance-to-set priority per addable element and pick, and the
        diversity of the picked set — are charged in full, so the accounting
        is that of the generic matroids, which the tests use as the oracle.
        """
        with obs.span("sfdm2.guess", level=level, mu=float(mu)) as span:
            quotas = self.constraint.quotas
            k = self.constraint.total_size
            m = len(quotas)
            # S_all: the union of the group-blind and all group-specific
            # candidates, walked in the order of the frozenset the generic
            # fairness matroid would hold, so picks and ties are the generic ones.
            pool: Dict[int, Element] = {}
            for element in blind.elements:
                pool.setdefault(element.uid, element)
            for candidate in specific.values():
                for element in candidate:
                    pool.setdefault(element.uid, element)
            ground = list(frozenset(pool.values()))
            position = {element.uid: index for index, element in enumerate(ground)}

            distances = pool_distances(ground, metric)
            clusters = threshold_clusters(distances, mu / (m + 1))
            # Group codes index the quotas; groups outside the constraint share
            # one last code with capacity zero.
            code_of = {group: code for code, group in enumerate(quotas)}
            groups = np.array([code_of.get(element.group, len(quotas)) for element in ground])
            capacities = np.array([*quotas.values(), 0])

            # Initial partial solution: at most k_i elements per group from S_µ.
            # Lemma 3(ii) keeps them in distinct clusters under a true metric; a
            # distance that breaks the triangle inequality can join two of them,
            # so drop any whose cluster is taken.
            initial: List[int] = []
            considered = dict.fromkeys(quotas, 0)
            taken: Set[int] = set()
            for element in blind.elements:
                group = element.group
                if group not in considered or considered[group] >= quotas[group]:
                    continue
                considered[group] += 1
                index = position[element.uid]
                cluster = int(clusters[index])
                if cluster not in taken:
                    taken.add(cluster)
                    initial.append(index)

            result = partition_intersection(
                groups,
                capacities,
                clusters,
                initial=initial,
                distances=distances if self.greedy_augmentation else None,
                target_size=k,
            )
            span.set(
                pool=len(ground),
                clusters=len(set(clusters.tolist())),
                augmenting_paths=result.augmenting_paths,
            )
            picked = sorted(result.selected.tolist(), key=lambda index: ground[index].uid)
            diversity = float("inf")
            evaluations = result.priority_evaluations
            if len(picked) == k and k > 1:
                pairs = distances[np.ix_(picked, picked)][np.triu_indices(k, k=1)]
                diversity = float(pairs.min())
                evaluations += k * k if metric.supports_batch else pairs.size
            charge = getattr(metric, "charge", None)
            if charge is not None:
                charge(evaluations)
            if len(picked) < k:
                return None
            # A size-k set within every quota meets every quota: it is fair.
            return FairSolution._measured(
                [ground[index] for index in picked], metric, self.constraint, diversity
            )

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
