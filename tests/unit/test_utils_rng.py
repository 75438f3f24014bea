"""Unit tests for the RNG helpers."""

import numpy as np

from repro.utils.rng import derive_seed, ensure_rng


class TestEnsureRng:
    def test_from_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_from_int_is_reproducible(self):
        a = ensure_rng(123).integers(0, 1000, size=5)
        b = ensure_rng(123).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 10_000, size=10)
        b = ensure_rng(2).integers(0, 10_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_seed_sequence_accepted(self):
        rng = ensure_rng(np.random.SeedSequence(7))
        assert isinstance(rng, np.random.Generator)


class TestDeriveSeed:
    def test_none_stays_none(self):
        assert derive_seed(None, 5) is None

    def test_deterministic(self):
        assert derive_seed(10, 3) == derive_seed(10, 3)

    def test_salt_changes_value(self):
        assert derive_seed(10, 1) != derive_seed(10, 2)
