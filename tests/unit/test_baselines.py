"""Unit tests for the offline baselines (GMM, max-sum, FairSwap, FairFlow, FairGMM, exact)."""

import numpy as np
import pytest

from repro.baselines.exact import exact_dm, exact_fdm
from repro.baselines.fair_flow import fair_flow
from repro.baselines.fair_gmm import fair_gmm
from repro.baselines.fair_swap import fair_swap
from repro.baselines.gmm import gmm, gmm_elements
from repro.baselines.max_sum import max_sum_greedy
from repro.core.solution import diversity_of
from repro.data.store import ElementStore
from repro.fairness.constraints import FairnessConstraint, equal_representation
from repro.metrics.base import CallableMetric
from repro.metrics.vector import EuclideanMetric
from repro.data.element import Element
from repro.utils.errors import InfeasibleConstraintError, InvalidParameterError


def _line_elements(count, group_period=2):
    return [
        Element(uid=i, vector=np.array([float(i), 0.0]), group=i % group_period)
        for i in range(count)
    ]


METRIC = EuclideanMetric()


def _naive_max_sum(elements, k):
    """The max-sum greedy by brute force: its uids and the distances it evaluated.

    Seeds with the first farthest pair, then adds the element with the
    largest sum of distances to the selection, summing anew every round.
    """
    calls = 0

    def distance(i, j):
        nonlocal calls
        calls += 1
        return METRIC.distance(elements[i].vector, elements[j].vector)

    if len(elements) < 2:
        return [element.uid for element in elements[:k]], 0
    pairs = [(i, j) for i in range(len(elements)) for j in range(i + 1, len(elements))]
    seeds = [distance(i, j) for i, j in pairs]
    selected = list(pairs[seeds.index(max(seeds))])
    while len(selected) < min(k, len(elements)):
        gains = {
            i: sum(distance(i, j) for j in selected)
            for i in range(len(elements))
            if i not in selected
        }
        selected.append(max(gains, key=gains.get))
    return [elements[i].uid for i in selected[:k]], calls


class TestGMM:
    def test_selects_k_elements(self):
        assert len(gmm_elements(_line_elements(20), METRIC, 5)) == 5

    def test_line_selection_is_spread_out(self):
        selected = gmm_elements(_line_elements(11), METRIC, 3)
        xs = sorted(e.vector[0] for e in selected)
        assert xs[0] == 0.0
        assert xs[-1] == 10.0

    def test_half_approximation_on_small_instances(self):
        elements = _line_elements(12)
        _, optimum = exact_dm(elements, METRIC, 4)
        achieved = diversity_of(gmm_elements(elements, METRIC, 4), METRIC)
        assert achieved >= optimum / 2 - 1e-9

    def test_k_larger_than_pool(self):
        assert len(gmm_elements(_line_elements(3), METRIC, 10)) == 3

    def test_group_restriction(self):
        selected = gmm_elements(_line_elements(10), METRIC, 3, restrict_group=1)
        assert all(e.group == 1 for e in selected)

    def test_invalid_start_index(self):
        with pytest.raises(InvalidParameterError):
            gmm_elements(_line_elements(5), METRIC, 2, start_index=9)

    def test_empty_pool(self):
        assert gmm_elements([], METRIC, 3) == []

    def test_run_result_accounting(self):
        result = gmm(_line_elements(10), METRIC, 3)
        assert result.algorithm == "GMM"
        assert result.solution.size == 3
        assert result.stats.peak_stored_elements == 10
        assert result.stats.stream_distance_computations > 0


class TestMaxSumGreedy:
    def test_selects_k_elements(self):
        result = max_sum_greedy(_line_elements(10), METRIC, 4)
        assert result.solution.size == 4

    def test_seeds_with_farthest_pair(self):
        result = max_sum_greedy(_line_elements(10), METRIC, 2)
        xs = sorted(e.vector[0] for e in result.solution.elements)
        assert xs == [0.0, 9.0]

    def test_max_sum_can_cluster_selection(self):
        """Max-sum tends to pick extreme points; its max-min diversity is
        no better than GMM's on a line (Figure 1's qualitative point)."""
        elements = _line_elements(21)
        sum_result = max_sum_greedy(elements, METRIC, 6)
        min_result = gmm(elements, METRIC, 6)
        assert sum_result.solution.diversity <= min_result.solution.diversity + 1e-9

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (7, 1), (25, 6), (31, 12)])
    def test_batched_path_matches_scalar_path(self, n, k):
        """The matrix-driven greedy selects what the element-at-a-time one does.

        The reference is :func:`_naive_max_sum`, which evaluates every
        distance it reads; selections and distance accounting must be
        identical, including the ``k=1`` and single-element edges, with and
        without the metric's NumPy kernels.
        """
        rng = np.random.default_rng(100 * n + k)
        elements = [
            Element(uid=i, vector=rng.normal(size=3), group=i % 2) for i in range(n)
        ]
        uids, calls = _naive_max_sum(elements, k)
        for metric in (METRIC, CallableMetric(METRIC.distance, name="scalar-euclidean")):
            result = max_sum_greedy(elements, metric, k)
            assert result.solution.uids == uids
            assert result.stats.stream_distance_computations == calls

    def test_single_element_pool(self):
        result = max_sum_greedy(_line_elements(1), METRIC, 4)
        assert result.solution.uids == [0]
        assert result.stats.stream_distance_computations == 0

    def test_k_one_selects_farthest_pair_member(self):
        """k=1 keeps the first element of the farthest pair, as before."""
        result = max_sum_greedy(_line_elements(6), METRIC, 1)
        assert result.solution.uids == [0]
        assert result.stats.stream_distance_computations == 15


class TestFairSwap:
    def test_fair_solution_two_groups(self):
        elements = _line_elements(20)
        constraint = equal_representation(6, [0, 1])
        result = fair_swap(elements, METRIC, constraint)
        assert result.solution.is_fair
        assert result.solution.size == 6

    def test_rejects_more_than_two_groups(self):
        constraint = FairnessConstraint({0: 1, 1: 1, 2: 1})
        with pytest.raises(InvalidParameterError):
            fair_swap(_line_elements(9, group_period=3), METRIC, constraint)

    def test_rejects_infeasible_quota(self):
        constraint = FairnessConstraint({0: 5, 1: 5})
        with pytest.raises(InfeasibleConstraintError):
            fair_swap(_line_elements(6), METRIC, constraint)

    def test_quarter_approximation_on_small_instances(self):
        elements = _line_elements(14)
        constraint = equal_representation(4, [0, 1])
        _, optimum = exact_fdm(elements, METRIC, constraint)
        result = fair_swap(elements, METRIC, constraint)
        assert result.diversity >= optimum / 4 - 1e-9


class TestFairFlow:
    def test_fair_solution_many_groups(self):
        elements = _line_elements(30, group_period=5)
        constraint = equal_representation(10, list(range(5)))
        result = fair_flow(elements, METRIC, constraint)
        assert result.solution.is_fair
        assert result.solution.size == 10

    def test_two_group_case(self):
        elements = _line_elements(20)
        constraint = equal_representation(6, [0, 1])
        result = fair_flow(elements, METRIC, constraint)
        assert result.solution.is_fair

    def test_rejects_infeasible_quota(self):
        constraint = FairnessConstraint({0: 10, 1: 10})
        with pytest.raises(InfeasibleConstraintError):
            fair_flow(_line_elements(10), METRIC, constraint)

    def test_flow_value_recorded(self):
        elements = _line_elements(20)
        constraint = equal_representation(4, [0, 1])
        result = fair_flow(elements, METRIC, constraint)
        assert "flow_value" in result.stats.extra


class TestFairGMM:
    def test_fair_and_high_quality_on_small_instance(self):
        elements = _line_elements(14)
        constraint = equal_representation(4, [0, 1])
        result = fair_gmm(elements, METRIC, constraint)
        assert result.solution.is_fair
        _, optimum = exact_fdm(elements, METRIC, constraint)
        assert result.diversity >= optimum / 5 - 1e-9

    def test_combination_cap_enforced(self):
        elements = _line_elements(60, group_period=3)
        constraint = equal_representation(30, [0, 1, 2])
        with pytest.raises(InvalidParameterError):
            fair_gmm(elements, METRIC, constraint, max_combinations=10)

    def test_rejects_infeasible_quota(self):
        constraint = FairnessConstraint({0: 6, 1: 6})
        with pytest.raises(InfeasibleConstraintError):
            fair_gmm(_line_elements(8), METRIC, constraint)


class TestExactSolvers:
    def test_exact_dm_on_line(self):
        elements = _line_elements(5)
        subset, optimum = exact_dm(elements, METRIC, 3)
        assert optimum == pytest.approx(2.0)
        assert len(subset) == 3

    def test_exact_dm_limits(self):
        with pytest.raises(InvalidParameterError):
            exact_dm(_line_elements(30), METRIC, 3)
        with pytest.raises(InvalidParameterError):
            exact_dm(_line_elements(3), METRIC, 5)

    def test_exact_fdm_respects_fairness(self):
        elements = _line_elements(8)
        constraint = equal_representation(4, [0, 1])
        subset, optimum = exact_fdm(elements, METRIC, constraint)
        assert constraint.is_fair(subset)
        assert optimum <= exact_dm(elements, METRIC, 4)[1] + 1e-12

    def test_exact_fdm_infeasible(self):
        constraint = FairnessConstraint({0: 4, 1: 4})
        with pytest.raises(InfeasibleConstraintError):
            exact_fdm(_line_elements(6), METRIC, constraint)

    def test_exact_dm_tie_break_is_order_independent(self):
        """Among equally diverse optima the smallest uid tuple wins,
        whatever order the elements arrive in."""
        # Four corners of a square: the two diagonal pairs tie at 2*sqrt(2);
        # {0, 2} is the lexicographically smaller of the tied optima.
        corners = [
            Element(uid=0, vector=np.array([0.0, 0.0]), group=0),
            Element(uid=1, vector=np.array([2.0, 0.0]), group=1),
            Element(uid=2, vector=np.array([2.0, 2.0]), group=0),
            Element(uid=3, vector=np.array([0.0, 2.0]), group=1),
        ]
        rng = np.random.default_rng(5)
        for _ in range(6):
            shuffled = list(corners)
            rng.shuffle(shuffled)
            subset, optimum = exact_dm(shuffled, METRIC, 2)
            assert optimum == pytest.approx(2.0 * np.sqrt(2.0))
            assert sorted(e.uid for e in subset) == [0, 2]

    def test_exact_fdm_tie_break_is_order_independent(self):
        corners = [
            Element(uid=0, vector=np.array([0.0, 0.0]), group=0),
            Element(uid=1, vector=np.array([2.0, 0.0]), group=1),
            Element(uid=2, vector=np.array([2.0, 2.0]), group=0),
            Element(uid=3, vector=np.array([0.0, 2.0]), group=1),
        ]
        constraint = FairnessConstraint({0: 1, 1: 1})
        rng = np.random.default_rng(9)
        for _ in range(6):
            shuffled = list(corners)
            rng.shuffle(shuffled)
            subset, optimum = exact_fdm(shuffled, METRIC, constraint)
            assert optimum == pytest.approx(2.0)
            assert sorted(e.uid for e in subset) == [0, 1]

    def test_exact_solvers_accept_element_stores(self):
        elements = _line_elements(8)
        store = ElementStore.from_elements(elements)
        constraint = equal_representation(4, [0, 1])
        assert exact_dm(store, METRIC, 3) == exact_dm(elements, METRIC, 3)
        assert exact_fdm(store, METRIC, constraint) == exact_fdm(
            elements, METRIC, constraint
        )
