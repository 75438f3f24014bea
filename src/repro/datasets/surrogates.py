"""Synthetic surrogates for the four real-world datasets used in the paper.

The original datasets cannot be downloaded in this offline environment, so
each surrogate reproduces the characteristics the algorithms actually see:

* the number of points ``n`` (scaled down by default so laptop runs finish
  quickly; pass a larger ``n`` to approach the paper's sizes),
* the feature dimensionality and value distribution style,
* the distance metric,
* the number of sensitive groups and their size skew.

Group-assignment skews follow the figures reported in the paper (Adult: 67%
male, 87% White; CelebA: roughly balanced sex and a 78/22 young/not-young
split; Census: roughly balanced sex, seven age buckets; Lyrics: a
long-tailed genre distribution over 15 genres).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.store import ElementStore
from repro.datasets.spec import DatasetSpec
from repro.metrics.vector import AngularMetric, EuclideanMetric, ManhattanMetric
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive_int


def _sample_group_labels(
    rng: np.random.Generator, n: int, probabilities: Sequence[float]
) -> np.ndarray:
    """Sample ``n`` group labels from a categorical distribution."""
    probabilities = np.asarray(probabilities, dtype=float)
    probabilities = probabilities / probabilities.sum()
    return rng.choice(len(probabilities), size=n, p=probabilities)


def _combine_groups(primary: np.ndarray, secondary: np.ndarray, secondary_count: int) -> np.ndarray:
    """Cross two group labelings into a joint labeling (paper's sex+race etc.)."""
    return primary * secondary_count + secondary


_ADULT_SEX_PROBS = [0.67, 0.33]  # male / female
_ADULT_RACE_PROBS = [0.855, 0.096, 0.031, 0.010, 0.008]  # White, Black, API, AIE, Other

_CELEBA_SEX_PROBS = [0.584, 0.416]  # female / male
_CELEBA_AGE_PROBS = [0.773, 0.227]  # young / not young

_CENSUS_SEX_PROBS = [0.512, 0.488]
_CENSUS_AGE_PROBS = [0.13, 0.15, 0.16, 0.15, 0.13, 0.14, 0.14]  # seven age buckets

_LYRICS_GENRE_PROBS = [
    0.22, 0.15, 0.12, 0.10, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.01, 0.01,
]


def _gaussian_mixture_features(
    rng: np.random.Generator,
    n: int,
    dimensions: int,
    num_components: int,
    spread: float,
    standardize: bool,
) -> np.ndarray:
    """Draw features from a random Gaussian mixture, optionally z-scored."""
    centers = rng.uniform(-spread, spread, size=(num_components, dimensions))
    scales = rng.uniform(0.5, 1.5, size=num_components)
    assignments = rng.integers(0, num_components, size=n)
    features = centers[assignments] + rng.normal(
        0.0, 1.0, size=(n, dimensions)
    ) * scales[assignments][:, None]
    if standardize:
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0] = 1.0
        features = (features - mean) / std
    return features


def adult_surrogate(
    n: int = 5_000,
    group_by: str = "sex",
    seed: Optional[int] = None,
) -> DatasetSpec:
    """Surrogate for the Adult census-income dataset.

    The paper uses 48 842 records with 6 z-scored numeric attributes under
    the Euclidean metric, grouped by sex (m=2), race (m=5), or both (m=10).

    Parameters
    ----------
    n:
        Number of records to generate (default 5 000; pass 48 842 for a
        paper-scale run).
    group_by:
        ``"sex"``, ``"race"``, or ``"sex+race"``.
    """
    n = require_positive_int(n, "n")
    rng = ensure_rng(seed)
    features = _gaussian_mixture_features(
        rng, n, dimensions=6, num_components=8, spread=2.0, standardize=True
    )
    sex = _sample_group_labels(rng, n, _ADULT_SEX_PROBS)
    race = _sample_group_labels(rng, n, _ADULT_RACE_PROBS)
    if group_by == "sex":
        groups = sex
        names = {0: "male", 1: "female"}
    elif group_by == "race":
        groups = race
        names = {0: "white", 1: "black", 2: "asian-pac", 3: "amer-indian", 4: "other"}
    elif group_by == "sex+race":
        groups = _combine_groups(sex, race, len(_ADULT_RACE_PROBS))
        names = {}
    else:
        raise InvalidParameterError(
            f"group_by must be 'sex', 'race', or 'sex+race', got {group_by!r}"
        )
    return DatasetSpec.from_store(
        name=f"adult-{group_by}",
        store=ElementStore(features, groups),
        metric=EuclideanMetric(),
        group_names=names,
        notes=(
            "Surrogate for UCI Adult: Gaussian-mixture features in R^6 (z-scored), "
            "Euclidean metric, group skew matching the real dataset "
            "(67% male, 85.5% White)."
        ),
    )


def celeba_surrogate(
    n: int = 5_000,
    group_by: str = "sex",
    seed: Optional[int] = None,
) -> DatasetSpec:
    """Surrogate for the CelebA face-attribute dataset.

    The paper uses 202 599 images described by 41 binary class labels under
    the Manhattan metric, grouped by sex (m=2), age (m=2), or both (m=4).
    The surrogate draws correlated Bernoulli attribute vectors: a latent
    2-D style vector tilts each attribute's probability so attributes are
    not independent (which keeps the distance distribution realistic).
    """
    n = require_positive_int(n, "n")
    rng = ensure_rng(seed)
    num_attributes = 41
    latent = rng.normal(0.0, 1.0, size=(n, 2))
    loadings = rng.normal(0.0, 1.0, size=(2, num_attributes))
    base_logit = rng.normal(-0.5, 1.0, size=num_attributes)
    logits = latent @ loadings + base_logit
    probabilities = 1.0 / (1.0 + np.exp(-logits))
    features = (rng.uniform(size=(n, num_attributes)) < probabilities).astype(float)
    sex = _sample_group_labels(rng, n, _CELEBA_SEX_PROBS)
    age = _sample_group_labels(rng, n, _CELEBA_AGE_PROBS)
    if group_by == "sex":
        groups = sex
        names = {0: "female", 1: "male"}
    elif group_by == "age":
        groups = age
        names = {0: "young", 1: "not-young"}
    elif group_by == "sex+age":
        groups = _combine_groups(sex, age, len(_CELEBA_AGE_PROBS))
        names = {0: "female/young", 1: "female/not-young", 2: "male/young", 3: "male/not-young"}
    else:
        raise InvalidParameterError(
            f"group_by must be 'sex', 'age', or 'sex+age', got {group_by!r}"
        )
    return DatasetSpec.from_store(
        name=f"celeba-{group_by}",
        store=ElementStore(features, groups),
        metric=ManhattanMetric(),
        group_names=names,
        notes=(
            "Surrogate for CelebA: 41 correlated binary attributes, Manhattan metric, "
            "sex and age skew matching the real label distribution."
        ),
    )


def census_surrogate(
    n: int = 10_000,
    group_by: str = "sex",
    seed: Optional[int] = None,
) -> DatasetSpec:
    """Surrogate for the 1990 US Census dataset.

    The paper uses 2 426 116 records with 25 normalized numeric attributes
    under the Manhattan metric, grouped by sex (m=2), age (m=7), or both
    (m=14).  The default ``n`` is scaled down to 10 000 so the offline
    baselines remain runnable; the streaming algorithms are insensitive to
    ``n`` by design.
    """
    n = require_positive_int(n, "n")
    rng = ensure_rng(seed)
    features = _gaussian_mixture_features(
        rng, n, dimensions=25, num_components=12, spread=1.5, standardize=True
    )
    sex = _sample_group_labels(rng, n, _CENSUS_SEX_PROBS)
    age = _sample_group_labels(rng, n, _CENSUS_AGE_PROBS)
    if group_by == "sex":
        groups = sex
        names = {0: "male", 1: "female"}
    elif group_by == "age":
        groups = age
        names = {i: f"age-bucket-{i}" for i in range(len(_CENSUS_AGE_PROBS))}
    elif group_by == "sex+age":
        groups = _combine_groups(sex, age, len(_CENSUS_AGE_PROBS))
        names = {}
    else:
        raise InvalidParameterError(
            f"group_by must be 'sex', 'age', or 'sex+age', got {group_by!r}"
        )
    return DatasetSpec.from_store(
        name=f"census-{group_by}",
        store=ElementStore(features, groups),
        metric=ManhattanMetric(),
        group_names=names,
        notes=(
            "Surrogate for US Census 1990: Gaussian-mixture features in R^25 "
            "(normalized), Manhattan metric, sex/age group structure (m=2/7/14)."
        ),
    )


def lyrics_surrogate(
    n: int = 5_000,
    num_topics: int = 50,
    num_genres: int = 15,
    seed: Optional[int] = None,
) -> DatasetSpec:
    """Surrogate for the musiXmatch Lyrics dataset.

    The paper represents each of 122 448 songs by a 50-dimensional LDA topic
    distribution under the angular metric, with 15 genre groups.  The
    surrogate draws topic vectors from genre-specific Dirichlet
    distributions (each genre concentrates on a few topics), which matches
    both the simplex geometry and the fact that genres occupy different
    regions of topic space.
    """
    n = require_positive_int(n, "n")
    num_topics = require_positive_int(num_topics, "num_topics")
    num_genres = require_positive_int(num_genres, "num_genres")
    rng = ensure_rng(seed)
    genre_probs = np.asarray(_LYRICS_GENRE_PROBS[:num_genres], dtype=float)
    if len(genre_probs) < num_genres:
        extra = np.full(num_genres - len(genre_probs), genre_probs.min())
        genre_probs = np.concatenate([genre_probs, extra])
    genres = _sample_group_labels(rng, n, genre_probs)
    # Each genre gets its own sparse Dirichlet concentration vector.
    concentrations = np.full((num_genres, num_topics), 0.05)
    for genre in range(num_genres):
        favourite_topics = rng.choice(num_topics, size=5, replace=False)
        concentrations[genre, favourite_topics] = 2.0
    features = np.empty((n, num_topics))
    for genre in range(num_genres):
        mask = genres == genre
        count = int(mask.sum())
        if count:
            features[mask] = rng.dirichlet(concentrations[genre], size=count)
    return DatasetSpec.from_store(
        name="lyrics-genre",
        store=ElementStore(features, genres),
        metric=AngularMetric(),
        group_names={i: f"genre-{i}" for i in range(num_genres)},
        notes=(
            "Surrogate for musiXmatch lyrics: genre-specific Dirichlet topic vectors "
            "on the 50-simplex, angular metric, long-tailed 15-genre distribution."
        ),
    )
