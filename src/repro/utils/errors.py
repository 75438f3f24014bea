"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch a single base class at an
application boundary while still being able to distinguish specific
failure modes programmatically.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidParameterError(ReproError, ValueError):
    """A caller supplied a parameter outside the documented domain.

    Raised, for example, when ``epsilon`` is not in the open interval
    ``(0, 1)`` or when a solution size ``k`` is not a positive integer.
    """


class InfeasibleConstraintError(ReproError, ValueError):
    """A fairness constraint cannot be satisfied by the given dataset.

    Raised when a group quota exceeds the number of elements available in
    that group, or when the quotas reference groups that never occur in
    the stream.
    """


class EmptyStreamError(ReproError, ValueError):
    """An algorithm was asked to run on a stream that produced no elements."""


class CheckpointError(InvalidParameterError):
    """A session checkpoint could not be written or restored.

    Raised by :meth:`repro.api.session.SessionBase.checkpoint` when a
    session cannot be written as data (an unnamed metric, a non-numeric
    payload, an unwritable directory), and by :func:`repro.resume`
    whenever the checkpoint file is missing, unreadable, truncated,
    altered, a pickle of format version 2 or earlier (refused unread), or
    not a session checkpoint at all.  The offending path is always part of
    the message (and available as :attr:`path`), so a serving layer
    juggling thousands of checkpoint files can report exactly which one
    went bad.

    Subclasses :class:`InvalidParameterError` so existing callers that
    caught the previous error type keep working.
    """

    def __init__(self, path, reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(f"checkpoint {self.path}: {reason}")


class NoFeasibleSolutionError(ReproError, RuntimeError):
    """The algorithm terminated without finding any feasible fair solution.

    This can happen for adversarial inputs where no guess ``mu`` yields a
    candidate that can be balanced or augmented into a fair set.  Callers
    typically handle this by re-running with a smaller ``epsilon`` or by
    falling back to an offline baseline.
    """
