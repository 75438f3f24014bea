"""Integration tests for the ``repro.solve`` façade and its data resolution."""

import numpy as np
import pytest

import repro
from repro.api.registry import algorithm_names, get_algorithm, query
from repro.data.element import Element
from repro.evaluation.harness import ExperimentConfig, algorithm_spec, run_algorithm
from repro.utils.errors import InfeasibleConstraintError, InvalidParameterError


@pytest.fixture(scope="module")
def dataset():
    return repro.synthetic_blobs(n=240, m=2, seed=5)


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(11)
    return rng.normal(size=(180, 3)), rng.integers(0, 3, size=180)


class TestDataShapes:
    def test_dataset_spec(self, dataset):
        result = repro.solve(dataset, k=6, algorithm="SFDM2", seed=1)
        assert result.succeeded and result.solution.is_fair

    def test_arrays_with_groups(self, arrays):
        features, groups = arrays
        result = repro.solve(features, k=6, groups=groups, algorithm="SFDM2")
        assert result.succeeded
        assert result.solution.is_fair

    def test_element_store(self, arrays):
        features, groups = arrays
        store = repro.ElementStore(features, np.asarray(groups, dtype=np.int64))
        result = repro.solve(store, k=6, algorithm="FairFlow")
        assert result.succeeded

    def test_data_stream(self, arrays):
        features, groups = arrays
        stream = repro.stream_from_arrays(features, groups, shuffle_seed=3)
        result = repro.solve(stream, k=6, algorithm="SFDM2")
        assert result.succeeded

    def test_element_sequence(self):
        elements = [
            Element(uid=i, vector=np.array([float(i), float(i % 7)]), group=i % 2)
            for i in range(60)
        ]
        result = repro.solve(elements, k=4, algorithm="SFDM1")
        assert result.succeeded

    def test_array_without_groups_is_unconstrained(self, arrays):
        features, _ = arrays
        result = repro.solve(features, k=5)
        assert result.algorithm == "StreamingDM"

    def test_rejects_unknown_shapes(self):
        with pytest.raises(InvalidParameterError, match="accepts"):
            repro.solve(object(), k=4)

    def test_rejects_missing_data(self):
        with pytest.raises(InvalidParameterError, match="needs data"):
            repro.solve(k=4)


class TestAutoSelection:
    def test_two_groups_pick_sfdm1(self, dataset):
        result = repro.solve(dataset, k=6, seed=1)
        assert result.algorithm == "SFDM1"

    def test_many_groups_pick_sfdm2(self):
        dataset = repro.synthetic_blobs(n=240, m=4, seed=6)
        result = repro.solve(dataset, k=8, seed=1)
        assert result.algorithm == "SFDM2"

    def test_explicit_constraint_drives_auto(self, arrays):
        features, groups = arrays
        constraint = repro.equal_representation(6, [0, 1, 2])
        result = repro.solve(features, groups=groups, constraint=constraint)
        assert result.algorithm == "SFDM2"


class TestConfiguration:
    def test_solve_spec_object(self, dataset):
        spec = repro.SolveSpec(data=dataset, k=6, algorithm="SFDM2", seed=2)
        result = repro.solve(spec)
        assert result.succeeded

    def test_spec_plus_kwargs_rejected(self, dataset):
        with pytest.raises(InvalidParameterError, match="not both"):
            repro.solve(repro.SolveSpec(data=dataset, k=6), k=8)

    def test_metric_by_name(self, arrays):
        features, groups = arrays
        result = repro.solve(
            features, k=6, groups=groups, algorithm="SFDM2", metric="manhattan"
        )
        assert result.succeeded

    def test_unknown_metric_rejected(self, arrays):
        features, groups = arrays
        with pytest.raises(InvalidParameterError, match="unknown metric"):
            repro.solve(features, k=6, groups=groups, metric="warp")

    def test_proportional_fairness(self, dataset):
        result = repro.solve(dataset, k=8, fairness="proportional", seed=1)
        assert result.succeeded

    def test_bad_fairness_rejected(self, dataset):
        with pytest.raises(InvalidParameterError, match="fairness"):
            repro.solve(dataset, k=6, fairness="strict")

    def test_missing_k_rejected(self, dataset):
        with pytest.raises(InvalidParameterError, match="needs k"):
            repro.solve(dataset, algorithm="SFDM2")

    def test_conflicting_k_and_constraint_rejected(self, dataset):
        constraint = repro.equal_representation(6, [0, 1])
        with pytest.raises(InvalidParameterError, match="conflicts"):
            repro.solve(dataset, k=8, constraint=constraint)

    @pytest.mark.parametrize(
        "option", [{"shards": 4}, {"index": "kd"}], ids=["shards", "index"]
    )
    def test_unknown_option_rejected_eagerly(self, dataset, option):
        with pytest.raises(InvalidParameterError, match="does not accept"):
            repro.solve(dataset, k=6, algorithm="SFDM2", **option)

    def test_unknown_algorithm_rejected(self, dataset):
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            repro.solve(dataset, k=6, algorithm="Magic")

    def test_group_limit_enforced(self):
        dataset = repro.synthetic_blobs(n=240, m=4, seed=6)
        with pytest.raises(InvalidParameterError, match="m=4"):
            repro.solve(dataset, k=8, algorithm="SFDM1")


class TestGroupLabels:
    """Array labels are validated once, where the array enters."""

    @pytest.mark.parametrize(
        "convert",
        [
            lambda g: g.astype(float),
            lambda g: g.astype(str),
            lambda g: [int(label) for label in g],
        ],
        ids=["integral-float", "numeric-string", "python-int"],
    )
    def test_convertible_labels_give_the_integer_answer(self, arrays, convert):
        features, groups = arrays
        expected = repro.solve(features, k=6, groups=groups, algorithm="SFDM2")
        result = repro.solve(features, k=6, groups=convert(groups), algorithm="SFDM2")
        assert result.solution.uids == expected.solution.uids
        assert result.diversity == expected.diversity

    def test_boolean_labels_are_groups_zero_and_one(self, arrays):
        features, groups = arrays
        result = repro.solve(features, k=6, groups=groups > 0, algorithm="SFDM1")
        assert result.solution.is_fair

    @pytest.mark.parametrize(
        "bad, shown",
        [(1.7, "1.7"), (float("nan"), "nan"), (float("inf"), "inf"), ([1, 2], r"\[1, 2\]")],
        ids=["fractional", "nan", "inf", "nested"],
    )
    def test_bad_label_is_rejected_naming_its_row(self, arrays, bad, shown):
        features, groups = arrays
        labels = [int(label) for label in groups]
        labels[17] = bad
        with pytest.raises(InvalidParameterError, match=rf"row 17 has {shown}"):
            repro.solve(features, k=6, groups=labels, algorithm="SFDM2")

    def test_label_count_must_match_the_rows(self, arrays):
        features, groups = arrays
        with pytest.raises(InvalidParameterError, match="group labels"):
            repro.solve(features, k=6, groups=groups[:-1], algorithm="SFDM2")

    def test_element_store_rejects_bad_labels(self, arrays):
        features, groups = arrays
        labels = groups.astype(float)
        labels[3] = np.nan
        with pytest.raises(InvalidParameterError, match="row 3 has nan"):
            repro.ElementStore(features, labels)


def _options(name):
    """The extra options a registered algorithm needs on the test data."""
    return {"window": 200} if get_algorithm(name).capabilities.kind == "window" else {}


@pytest.fixture(scope="module")
def three_groups():
    """300 rows in groups 0, 1 and 2; two-group constraints leave group 2 out."""
    rng = np.random.default_rng(1)
    return rng.normal(size=(300, 2)), rng.integers(0, 3, 300)


#: Quotas no data with groups 0-2 can meet: group 5 never occurs.
MISSING_GROUP = {0: 3, 5: 3}

CONSTRAINED = [entry.name for entry in query(constrained=True)]


class TestOneResolver:
    """``solve``, ``open_session`` and the harness resolve a problem in one place."""

    @pytest.mark.parametrize("name", algorithm_names())
    def test_harness_cell_equals_solve(self, name):
        dataset = repro.synthetic_blobs(n=600, m=2, seed=11)
        constraint = repro.equal_representation(6, list(dataset.group_sizes()))
        cell = algorithm_spec(name, **_options(name)).runner(dataset, constraint, 0.1, 3)
        direct = repro.solve(
            dataset, constraint=constraint, algorithm=name, seed=3, **_options(name)
        )
        assert cell.solution.uids == direct.solution.uids
        assert float(cell.solution.diversity).hex() == float(direct.solution.diversity).hex()
        assert (
            cell.stats.stream_distance_computations
            == direct.stats.stream_distance_computations
        )
        assert (
            cell.stats.postprocess_distance_computations
            == direct.stats.postprocess_distance_computations
        )

    def test_fair_swap_ignores_groups_outside_the_constraint(self, three_groups):
        features, groups = three_groups
        constraint = repro.FairnessConstraint({0: 1, 1: 5})
        result = repro.solve(
            features, groups=groups, constraint=constraint, algorithm="FairSwap"
        )
        assert result.solution.is_fair
        assert sorted(element.group for element in result.solution.elements) == [
            0, 1, 1, 1, 1, 1,
        ]

    @pytest.mark.parametrize("name", CONSTRAINED)
    def test_missing_group_raises_for_every_constrained_algorithm(
        self, three_groups, name
    ):
        features, groups = three_groups
        constraint = repro.FairnessConstraint(MISSING_GROUP)
        with pytest.raises(InfeasibleConstraintError, match="group 5"):
            repro.solve(
                features, groups=groups, constraint=constraint, algorithm=name,
                **_options(name),
            )
        if get_algorithm(name).capabilities.sessions:
            with pytest.raises(InfeasibleConstraintError, match="group 5"):
                repro.open_session(
                    data=features, groups=groups, constraint=constraint,
                    algorithm=name, **_options(name),
                )

    def test_group_limit_is_checked_before_feasibility(self, three_groups):
        features, groups = three_groups
        constraint = repro.FairnessConstraint({0: 1, 1: 1, 5: 1})
        with pytest.raises(InvalidParameterError, match="does not support m=3"):
            repro.solve(features, groups=groups, constraint=constraint, algorithm="SFDM1")

    def test_infeasible_harness_cells_count_as_failures(self):
        dataset = repro.synthetic_blobs(n=200, m=2, seed=4)
        config = ExperimentConfig(
            dataset=dataset, k=6, repetitions=2,
            constraint=repro.FairnessConstraint(MISSING_GROUP),
        )
        record = run_algorithm(algorithm_spec("SFDM2"), config)
        assert record.failures == 2
