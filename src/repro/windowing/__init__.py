"""Sliding-window fair diversity algorithms.

The paper names the sliding-window model as its primary future-work
direction: maintain a fair, diverse subset over only the most recent ``w``
elements of an unbounded stream.  This package holds two algorithms for
that model: the incremental :class:`SlidingWindowFDM` (suffix checkpoints
of composable per-group GMM coresets, exact element-level eviction) and
the block-summary baseline :class:`CheckpointedWindowFDM` it is
benchmarked against.

Both algorithms are registered in the algorithm registry (as
``"SlidingWindowFDM"`` and ``"WindowFDM"``), so ``repro.solve(...,
algorithm="sliding_window", window=w)``, ``repro.open_session(...,
window=w)``, the experiment harness, and the CLI ``--window``/``--blocks``
flags all reach them by name.
"""

from repro.windowing.checkpointed import CheckpointedWindowFDM
from repro.windowing.sliding import APPROXIMATION_FACTOR, SlidingWindowFDM

__all__ = [
    "APPROXIMATION_FACTOR",
    "CheckpointedWindowFDM",
    "SlidingWindowFDM",
]
