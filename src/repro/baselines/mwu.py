"""MWU + LP-rounding quality oracle for fair max-min diversity maximization.

Every quality number the repository reports is otherwise relative to
*GMM-offline*, a 1/2-approximation — not the optimum.  This module closes
that gap with a multiplicative-weight-update (MWU) solver in the
Arora–Hazan–Kale style, using pure numpy and the farthest-point machinery
the metric layer already provides:

1. **Distance-guess ladder.**  ``2 * div(GMM)`` upper-bounds the fair
   optimum ``OPT_f`` (the paper's Section V convention), so the solver
   walks a guess ``gamma`` down from that ceiling, multiplying by
   ``1 - epsilon`` per step (the *epsilon falloff*) until a feasible
   solution of diversity ``>= gamma`` appears.  The final rung is
   ``gamma = 0``, where the oracle below always succeeds (feasibility of
   the constraint is validated up front), so termination is unconditional.
   After the first success the gap between the accepted rung and the last
   failed one is narrowed by a few geometric bisection probes (a failed
   rung is a search miss, not an infeasibility proof), so the returned
   diversity resolves well below the ``1 - epsilon`` rung spacing.
2. **MWU loop per guess.**  For a fixed ``gamma`` the fractional covering
   LP asks for a point mass ``x`` that fills every group quota using only
   ``gamma``-separated support.  The separation oracle is a *weighted
   threshold greedy*: repeatedly select the highest-weight element whose
   distance to the current selection is at least ``gamma`` and whose group
   quota is still open (exactly the farthest-point recursion of
   :func:`~repro.baselines.gmm.gmm_elements`, with the selection rule
   driven by the weights instead of the distances).  When the oracle
   under-fills a group, the weights of that group's unselected elements
   are boosted and the selected blockers decayed — both multiplicatively —
   so later iterations try selection orders that serve the starved group
   first.  The average of the iterations' indicator vectors is the
   fractional solution ``x``.
3. **Randomized LP rounding.**  If no iteration produced an integrally
   fair candidate (any such candidate has diversity ``>= gamma`` by
   construction and is accepted immediately), the solver rounds ``x``:
   per group, ``k_g`` elements are sampled without replacement with
   probability proportional to their fractional mass, and the rounded set
   is accepted if its realized diversity reaches ``gamma``.  The sampler
   is a seeded :class:`numpy.random.Generator`, so the whole run is
   deterministic for a fixed seed.

The returned diversity is the *true* diversity of the returned set (never
the guess), so downstream ratio reports are exact.  On the small instances
the property suite enumerates, the result matches :func:`exact_fdm` within
the falloff resolution.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.baselines.gmm import gmm_elements
from repro.core.result import RunResult
from repro.core.solution import FairSolution, diversity_of
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric, stack_vectors
from repro.metrics.cached import CountingMetric
from repro.streaming.stats import StreamStats
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timer import Timer
from repro.utils.validation import require_in_open_interval, require_positive_int

#: Relative floor under which the ladder jumps straight to ``gamma = 0``.
_GAMMA_FLOOR = 1e-9

#: Probability floor added before rounding so every group member stays
#: sampleable even when the MWU iterations never selected it.
_MASS_FLOOR = 1e-12

#: Learning rate of the multiplicative updates.
_ETA = 0.5

#: Geometric bisection probes between the accepted rung and the last
#: failed one, sharpening the falloff ladder's resolution.
_REFINEMENTS = 6


class _Pool:
    """Index-addressed view of the candidate pool.

    Normalises the two accepted input shapes — an element sequence and a
    columnar :class:`~repro.data.store.ElementStore` — behind row indices,
    so the MWU loops never branch on the input type.  Elements are
    materialised only for selected rows (zero-copy views for stores).
    """

    def __init__(self, elements: Union[Sequence[Element], ElementStore]) -> None:
        if isinstance(elements, ElementStore):
            self._store: Optional[ElementStore] = elements
            self._list: Optional[List[Element]] = None
            self.groups = np.asarray(elements.groups, dtype=np.int64)
        else:
            self._store = None
            self._list = list(elements)
            self.groups = np.array([e.group for e in self._list], dtype=np.int64)
        self.n = int(self.groups.shape[0])
        self._matrix: Optional[np.ndarray] = None

    def matrix(self) -> np.ndarray:
        """The ``(n, d)`` feature matrix (built lazily, once)."""
        if self._matrix is None:
            if self._store is not None:
                self._matrix = self._store.features
            else:
                self._matrix = stack_vectors(self._list)
        return self._matrix

    def element(self, row: int) -> Element:
        """Materialise row ``row`` as an :class:`Element`."""
        if self._store is not None:
            return self._store.element(row)
        return self._list[row]

    def elements(self, rows: Sequence[int]) -> List[Element]:
        """Materialise the given rows, in order."""
        return [self.element(row) for row in rows]

    def group_sizes(self) -> Dict[int, int]:
        """Number of pool elements per group label."""
        labels, counts = np.unique(self.groups, return_counts=True)
        return {int(g): int(c) for g, c in zip(labels, counts)}


def _oracle(
    counting: Metric,
    pool: _Pool,
    constraint: FairnessConstraint,
    gamma: float,
    weights: np.ndarray,
) -> Tuple[List[int], np.ndarray, Dict[int, int]]:
    """One separation-oracle call: a weighted ``gamma``-separated greedy fill.

    Selects up to ``k`` rows, always the highest-weight eligible one —
    eligible meaning at distance ``>= gamma`` from everything selected so
    far and belonging to a group whose quota is still open.  Weight ties
    break on the largest distance to the current selection (the
    farthest-point rule, which keeps future eligibility wide), then on
    the lowest row index, so the call is deterministic.

    Returns the selected rows (in selection order), their boolean mask,
    and the per-group deficit that remains (all zeros iff the candidate is
    integrally fair, in which case its diversity is ``>= gamma`` by
    construction).
    """
    remaining = {group: constraint.quota(group) for group in constraint.groups}
    nearest = np.full(pool.n, np.inf)
    chosen: List[int] = []
    chosen_mask = np.zeros(pool.n, dtype=bool)
    open_mask = np.isin(pool.groups, [g for g, r in remaining.items() if r > 0])
    k = constraint.total_size
    while len(chosen) < k:
        eligible = open_mask & ~chosen_mask & (nearest >= gamma)
        if not eligible.any():
            break
        heaviest = weights[eligible].max()
        front = eligible & (weights >= heaviest * (1.0 - 1e-12))
        pick = int(np.argmax(np.where(front, nearest, -np.inf)))
        chosen.append(pick)
        chosen_mask[pick] = True
        group = int(pool.groups[pick])
        remaining[group] -= 1
        if remaining[group] == 0:
            open_mask &= pool.groups != group
        if len(chosen) < k:
            matrix = pool.matrix()
            np.minimum(nearest, counting.distances_to(matrix[pick], matrix), out=nearest)
    return chosen, chosen_mask, remaining


def _reweight(
    weights: np.ndarray,
    pool: _Pool,
    chosen_mask: np.ndarray,
    remaining: Dict[int, int],
    constraint: FairnessConstraint,
) -> None:
    """Multiplicative update against the oracle candidate's quota deficits.

    Unselected members of every starved group are boosted proportionally
    to the group's relative deficit; the selected blockers (whose
    ``gamma``-balls crowded the starved groups out) are decayed.  Weights
    are renormalised to a unit maximum so long runs cannot overflow.
    """
    for group, deficit in remaining.items():
        if deficit <= 0:
            continue
        starving = (pool.groups == group) & ~chosen_mask
        weights[starving] *= math.exp(_ETA * deficit / constraint.quota(group))
    weights[chosen_mask] *= math.exp(-_ETA)
    peak = weights.max()
    if peak > 0:
        weights /= peak


def _round_fractional(
    rng: np.random.Generator,
    pool: _Pool,
    constraint: FairnessConstraint,
    mass: np.ndarray,
) -> List[int]:
    """One randomized rounding of the fractional solution ``mass``.

    Per group, samples the quota without replacement with probability
    proportional to the group's fractional mass (plus a tiny floor so
    never-selected elements stay reachable).  The rounded set is fair by
    construction; only its diversity needs checking.
    """
    rows: List[int] = []
    for group in constraint.groups:
        group_rows = np.nonzero(pool.groups == group)[0]
        probabilities = mass[group_rows] + _MASS_FLOOR
        probabilities = probabilities / probabilities.sum()
        picked = rng.choice(
            group_rows, size=constraint.quota(group), replace=False, p=probabilities
        )
        rows.extend(sorted(int(row) for row in picked))
    return rows


def mwu_fair(
    elements: Union[Sequence[Element], ElementStore],
    metric: Metric,
    constraint: FairnessConstraint,
    epsilon: float = 0.1,
    iterations: int = 32,
    rounds: int = 8,
    seed: SeedLike = None,
) -> RunResult:
    """MWU + LP-rounding solver for fair max-min diversity maximization.

    Walks a distance guess down from the ``2 * div(GMM)`` upper bound on
    the fair optimum, running the MWU loop described in the module
    docstring at each rung, and returns the first (hence best) feasible
    solution found.  Deterministic for a fixed ``seed``.

    Parameters
    ----------
    elements:
        The candidate pool — an element sequence or a columnar
        :class:`~repro.data.store.ElementStore`.
    metric:
        Distance metric.
    constraint:
        The fairness constraint (validated feasible against the pool's
        group sizes before any work happens).
    epsilon:
        Falloff factor of the guess ladder, in ``(0, 1)``: each failed
        rung shrinks the guess by ``1 - epsilon``, so the accepted
        solution's diversity is within one ``(1 - epsilon)`` factor of the
        best guess this procedure could certify.
    iterations:
        MWU iterations (oracle calls + weight updates) per rung.
    rounds:
        Randomized-rounding attempts per rung after the MWU iterations.
    seed:
        Seed for the rounding sampler (``None`` draws entropy; pass an
        ``int`` for reproducible runs).
    """
    epsilon = require_in_open_interval(epsilon, 0.0, 1.0, "epsilon")
    iterations = require_positive_int(iterations, "iterations")
    rounds = require_positive_int(rounds, "rounds")
    pool = _Pool(elements)
    constraint.validate_feasible(pool.group_sizes())
    rng = ensure_rng(seed)
    counting = CountingMetric(metric)
    k = constraint.total_size
    timer = Timer()
    with timer.measure():
        rows, steps, attempts = _mwu_ladder(
            counting, pool, constraint, epsilon, iterations, rounds, rng
        )
        selected = pool.elements(rows)
    stats = StreamStats(
        elements_processed=pool.n,
        stream_distance_computations=counting.calls,
        peak_stored_elements=pool.n,
        final_stored_elements=pool.n,
        stream_seconds=timer.elapsed,
    )
    stats.extra["ladder_steps"] = float(steps)
    stats.extra["rounding_attempts"] = float(attempts)
    return RunResult(
        algorithm="MWU",
        solution=FairSolution(selected, counting, constraint),
        stats=stats,
        params={
            "k": k,
            "epsilon": epsilon,
            "iterations": iterations,
            "rounds": rounds,
            "seed": seed if seed is None or isinstance(seed, int) else None,
        },
    )


def _mwu_ladder(
    counting: CountingMetric,
    pool: _Pool,
    constraint: FairnessConstraint,
    epsilon: float,
    iterations: int,
    rounds: int,
    rng: np.random.Generator,
) -> Tuple[List[int], int, int]:
    """Run the falloff ladder; return ``(rows, ladder_steps, roundings)``.

    The ``gamma = 0`` rung accepts any fair fill, so the descent always
    terminates with a feasible solution (feasibility of the constraint
    against the pool was validated by the caller).  The descent is then
    sharpened by up to ``_REFINEMENTS`` geometric bisection probes of the
    gap between the accepted rung and the last failed one — a failed rung
    only means the search missed, so probing inside the gap can recover
    diversity the ``1 - epsilon`` spacing would otherwise forfeit.
    """
    k = constraint.total_size
    gamma = 0.0
    if k >= 2:
        anchors = gmm_elements(pool._store if pool._store is not None else pool._list,
                               counting, k)
        gamma = 2.0 * diversity_of(anchors, counting)
    if not math.isfinite(gamma):
        gamma = 0.0
    floor = gamma * _GAMMA_FLOOR
    step = 0
    roundings = 0
    failed_gamma = 0.0
    while True:
        step += 1
        with obs.span("mwu.round", step=step, gamma=float(gamma)):
            accepted, rows, used = _mwu_at_gamma(
                counting, pool, constraint, gamma, iterations, rounds, rng
            )
            roundings += used
        if accepted:
            break
        failed_gamma = gamma
        gamma *= 1.0 - epsilon
        if gamma <= floor:
            gamma = 0.0
    achieved = diversity_of(pool.elements(rows), counting)
    for _ in range(_REFINEMENTS):
        if not (achieved < failed_gamma and math.isfinite(achieved)):
            break
        probe = math.sqrt(achieved * failed_gamma) if achieved > 0 else failed_gamma / 2.0
        step += 1
        with obs.span("mwu.round", step=step, gamma=float(probe), refining=True):
            accepted, probe_rows, used = _mwu_at_gamma(
                counting, pool, constraint, probe, iterations, rounds, rng
            )
            roundings += used
        if accepted:
            rows = probe_rows
            achieved = diversity_of(pool.elements(rows), counting)
        else:
            failed_gamma = probe
    return rows, step, roundings


def _mwu_at_gamma(
    counting: CountingMetric,
    pool: _Pool,
    constraint: FairnessConstraint,
    gamma: float,
    iterations: int,
    rounds: int,
    rng: np.random.Generator,
) -> Tuple[bool, List[int], int]:
    """One rung of the ladder: MWU iterations, then randomized rounding.

    Returns ``(accepted, rows, roundings_used)``.  An integrally fair
    oracle candidate short-circuits the loop (its diversity is
    ``>= gamma`` by construction); otherwise the fractional average of the
    iterations is rounded up to ``rounds`` times and the first rounded set
    whose realized diversity reaches ``gamma`` is accepted.
    """
    weights = np.ones(pool.n)
    mass = np.zeros(pool.n)
    for iteration in range(iterations):
        with obs.span("mwu.iteration", iteration=iteration, gamma=float(gamma)):
            chosen, chosen_mask, remaining = _oracle(
                counting, pool, constraint, gamma, weights
            )
            if all(deficit == 0 for deficit in remaining.values()):
                return True, chosen, 0
            mass[chosen_mask] += 1.0
            _reweight(weights, pool, chosen_mask, remaining, constraint)
    for attempt in range(rounds):
        rows = _round_fractional(rng, pool, constraint, mass)
        realized = diversity_of(pool.elements(rows), counting)
        if realized >= gamma:
            return True, rows, attempt + 1
    return False, [], rounds
