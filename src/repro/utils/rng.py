"""Random-number-generator plumbing.

All stochastic code in the library accepts a ``seed`` argument that may be
``None``, an integer, or an existing :class:`numpy.random.Generator`.  The
helpers here normalise those three cases so the rest of the code base never
calls ``numpy.random.default_rng`` directly with ad-hoc conventions.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for entropy-based seeding, an ``int`` for reproducible
        seeding, an existing ``Generator`` (returned unchanged), or a
        ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def derive_seed(seed: Optional[int], salt: int) -> Optional[int]:
    """Combine ``seed`` with ``salt`` deterministically; keep ``None`` as ``None``."""
    if seed is None:
        return None
    return (int(seed) * 1_000_003 + int(salt)) % (2**63 - 1)
