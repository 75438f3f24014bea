"""Algorithm 1: streaming unconstrained max-min diversity maximization.

This is the streaming algorithm of Borassi et al. (PODS 2019) restated as
Algorithm 1 in the paper, with the approximation ratio for max-min
dispersion improved from ``(1-ε)/5`` to ``(1-ε)/2`` by Theorem 1.  It is the
building block both SFDM algorithms use during their stream phase.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.base import CandidateState, StreamingAlgorithm
from repro.core.candidate import Candidate
from repro.core.guesses import GuessLadder
from repro.core.solution import Solution
from repro.metrics.base import Metric
from repro.utils.validation import require_positive_int


class StreamingDiversityMaximization(StreamingAlgorithm):
    """Streaming ``(1-ε)/2``-approximation for unconstrained max-min DM.

    Parameters
    ----------
    metric:
        Distance metric.
    k:
        Solution size.
    epsilon:
        Guess-ladder resolution in ``(0, 1)``.
    distance_bounds:
        Optional known ``(d_min, d_max)``; estimated from a stream prefix
        when omitted.
    batch_size:
        Rows per chunk of the ingestion engine (see
        :class:`~repro.core.base.StreamingAlgorithm`); ``None`` means
        :data:`~repro.core.base.DEFAULT_BATCH_SIZE`.  The solution does not
        depend on it.
    """

    name = "StreamingDM"

    def __init__(
        self,
        metric: Metric,
        k: int,
        epsilon: float = 0.1,
        distance_bounds: Optional[Tuple[float, float]] = None,
        warmup_size: int = 64,
        batch_size: Optional[int] = None,
    ) -> None:
        super().__init__(
            metric,
            epsilon=epsilon,
            distance_bounds=distance_bounds,
            warmup_size=warmup_size,
            batch_size=batch_size,
        )
        self.k = require_positive_int(k, "k")

    # ------------------------------------------------------------------
    # Hooks driven by the shared run template and the session API
    # ------------------------------------------------------------------
    def _make_candidates(self, ladder: GuessLadder, metric: Metric) -> CandidateState:
        """One group-blind candidate with capacity ``k`` per guess level."""
        return [Candidate(mu=mu, capacity=self.k, metric=metric) for mu in ladder], None

    def _eligible(self, blind: Candidate, specific: Optional[Dict[int, Candidate]]) -> bool:
        """Whether the candidate reached size ``k``."""
        return len(blind) == self.k

    def _extract_guess(
        self,
        level: int,
        mu: float,
        blind: Candidate,
        specific: Optional[Dict[int, Candidate]],
        metric: Metric,
    ) -> Optional[Solution]:
        """The full candidate itself."""
        return Solution(blind.elements, metric)

    def _infeasible_message(self) -> str:
        """Error message when no candidate reached size ``k``."""
        return (
            f"no guess produced a candidate of size k={self.k}; "
            f"the stream may contain fewer than k distinct points"
        )

    def _run_params(self) -> Dict[str, Any]:
        """The parameter mapping recorded in the :class:`RunResult`."""
        return {"k": self.k, "epsilon": self.epsilon}
