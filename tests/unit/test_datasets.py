"""Unit tests for the dataset generators, surrogates, and registry."""

import numpy as np
import pytest

from repro.data.element import Element
from repro.datasets.registry import DATASETS, dataset_names, load_dataset
from repro.datasets.spec import DatasetSpec
from repro.datasets.surrogates import (
    adult_surrogate,
    celeba_surrogate,
    census_surrogate,
    lyrics_surrogate,
)
from repro.datasets.synthetic import synthetic_blobs, uniform_points
from repro.metrics.vector import AngularMetric, EuclideanMetric, ManhattanMetric, hamming
from repro.utils.errors import InvalidParameterError


class TestSyntheticBlobs:
    def test_size_and_groups(self):
        dataset = synthetic_blobs(n=200, m=3, seed=0)
        assert dataset.size == 200
        assert dataset.num_groups == 3

    def test_reproducible_with_seed(self):
        a = synthetic_blobs(n=50, m=2, seed=1)
        b = synthetic_blobs(n=50, m=2, seed=1)
        assert np.allclose(a.elements[10].vector, b.elements[10].vector)

    def test_different_seeds_differ(self):
        a = synthetic_blobs(n=50, m=2, seed=1)
        b = synthetic_blobs(n=50, m=2, seed=2)
        assert not np.allclose(a.elements[10].vector, b.elements[10].vector)

    def test_metric_is_euclidean(self):
        assert isinstance(synthetic_blobs(n=10, seed=0).metric, EuclideanMetric)

    def test_dimensions_parameter(self):
        dataset = synthetic_blobs(n=20, dimensions=5, seed=0)
        assert dataset.elements[0].vector.shape == (5,)

    def test_rejects_non_positive_n(self):
        with pytest.raises(InvalidParameterError):
            synthetic_blobs(n=0)

    def test_stream_and_space_views(self):
        dataset = synthetic_blobs(n=30, m=2, seed=0)
        assert len(dataset.stream(seed=1)) == 30
        assert len(dataset.space()) == 30

    def test_group_sizes_sum_to_n(self):
        dataset = synthetic_blobs(n=100, m=4, seed=0)
        assert sum(dataset.group_sizes().values()) == 100


class TestUniformPoints:
    def test_points_in_box(self):
        dataset = uniform_points(n=50, low=0.0, high=1.0, seed=3)
        for element in dataset.elements:
            assert np.all(element.vector >= 0.0)
            assert np.all(element.vector <= 1.0)

    def test_single_group_by_default(self):
        assert uniform_points(n=10, seed=0).num_groups == 1


class TestAdultSurrogate:
    def test_sex_grouping(self):
        dataset = adult_surrogate(n=500, group_by="sex", seed=0)
        assert dataset.num_groups == 2
        assert isinstance(dataset.metric, EuclideanMetric)

    def test_race_grouping_has_five_groups(self):
        dataset = adult_surrogate(n=2000, group_by="race", seed=0)
        assert dataset.num_groups == 5

    def test_sex_race_grouping(self):
        dataset = adult_surrogate(n=3000, group_by="sex+race", seed=0)
        assert dataset.num_groups <= 10
        assert dataset.num_groups >= 6

    def test_sex_skew_matches_paper(self):
        dataset = adult_surrogate(n=5000, group_by="sex", seed=1)
        sizes = dataset.group_sizes()
        male_fraction = sizes[0] / dataset.size
        assert 0.6 < male_fraction < 0.75

    def test_features_standardized(self):
        dataset = adult_surrogate(n=2000, group_by="sex", seed=0)
        features = np.array([e.vector for e in dataset.elements])
        assert np.allclose(features.mean(axis=0), 0.0, atol=0.1)
        assert np.allclose(features.std(axis=0), 1.0, atol=0.1)

    def test_six_features(self):
        dataset = adult_surrogate(n=100, seed=0)
        assert dataset.elements[0].vector.shape == (6,)

    def test_invalid_group_by(self):
        with pytest.raises(InvalidParameterError):
            adult_surrogate(n=100, group_by="income")


class TestCelebaSurrogate:
    def test_binary_features_of_dimension_41(self):
        dataset = celeba_surrogate(n=300, seed=0)
        vector = dataset.elements[0].vector
        assert vector.shape == (41,)
        assert set(np.unique(vector)).issubset({0.0, 1.0})

    def test_metric_is_manhattan(self):
        assert isinstance(celeba_surrogate(n=50, seed=0).metric, ManhattanMetric)

    def test_joint_grouping_has_four_groups(self):
        assert celeba_surrogate(n=2000, group_by="sex+age", seed=0).num_groups == 4

    def test_invalid_group_by(self):
        with pytest.raises(InvalidParameterError):
            celeba_surrogate(n=50, group_by="hair")


class TestCensusSurrogate:
    def test_dimension_and_metric(self):
        dataset = census_surrogate(n=300, seed=0)
        assert dataset.elements[0].vector.shape == (25,)
        assert isinstance(dataset.metric, ManhattanMetric)

    def test_age_grouping_has_seven_groups(self):
        assert census_surrogate(n=3000, group_by="age", seed=0).num_groups == 7

    def test_joint_grouping_has_fourteen_groups(self):
        assert census_surrogate(n=10_000, group_by="sex+age", seed=0).num_groups == 14

    def test_invalid_group_by(self):
        with pytest.raises(InvalidParameterError):
            census_surrogate(n=50, group_by="height")


class TestLyricsSurrogate:
    def test_topic_vectors_on_simplex(self):
        dataset = lyrics_surrogate(n=200, seed=0)
        vector = dataset.elements[0].vector
        assert vector.shape == (50,)
        assert np.all(vector >= 0)
        assert np.isclose(vector.sum(), 1.0)

    def test_metric_is_angular(self):
        assert isinstance(lyrics_surrogate(n=50, seed=0).metric, AngularMetric)

    def test_fifteen_genres(self):
        assert lyrics_surrogate(n=5000, seed=0).num_groups == 15

    def test_long_tailed_distribution(self):
        dataset = lyrics_surrogate(n=5000, seed=0)
        sizes = sorted(dataset.group_sizes().values(), reverse=True)
        assert sizes[0] > 3 * sizes[-1]


class TestRegistry:
    def test_all_names_loadable_at_small_n(self):
        for name in dataset_names():
            dataset = load_dataset(name, n=100, seed=0)
            assert dataset.size == 100

    def test_table2_settings_present(self):
        expected = {
            "adult-sex", "adult-race", "adult-sex+race",
            "celeba-sex", "celeba-age", "celeba-sex+age",
            "census-sex", "census-age", "census-sex+age",
            "lyrics-genre",
        }
        assert expected.issubset(set(dataset_names()))

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidParameterError):
            load_dataset("imagenet")

    def test_default_n_used_when_not_overridden(self):
        dataset = load_dataset("adult-sex", seed=0)
        assert dataset.size == 5_000

    def test_registry_is_consistent_with_names(self):
        assert set(DATASETS.keys()) == set(dataset_names())


class TestDatasetSpecGroups:
    """Group sizes of numeric and categorical datasets, in first-appearance order."""

    LABELS = [2, 0, 2, 1, 0, 2]

    @pytest.mark.parametrize(
        "payload",
        [lambda i: [float(i), 0.0], lambda i: "abc"[i % 3] * 2],
        ids=["numeric", "categorical"],
    )
    def test_sizes_keep_first_appearance_order(self, payload):
        elements = [
            Element(uid=i, vector=payload(i), group=group)
            for i, group in enumerate(self.LABELS)
        ]
        dataset = DatasetSpec(name="groups", elements=elements, metric=hamming())
        assert list(dataset.group_sizes().items()) == [(2, 3), (0, 2), (1, 1)]
        assert dataset.num_groups == 3
