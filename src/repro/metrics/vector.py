"""Concrete metrics over numeric feature vectors.

These cover the three metrics used in the paper's experiments (Euclidean on
Adult and the synthetic blobs, Manhattan on CelebA and Census, angular on
Lyrics) plus a few extra standard metrics that are useful for downstream
users (Chebyshev, general Minkowski, Hamming, cosine distance).

Every metric here overrides the batch kernels ``distances_to(point, X)``
and ``pairwise(X, Y)`` with NumPy broadcasting; the kernels agree with
the scalar ``distance`` to floating-point round-off (the property tests
pin this to ``1e-9``).
Pairwise kernels that materialise an ``(n, m, d)`` difference tensor are
chunked along the first axis so memory stays bounded for large stacks.

The ingestion engine screens chunks through the metrics' private radius
screen (:meth:`~repro.metrics.base.Metric._radius_screen`).  Every metric
here but one screens on its exact ``pairwise`` matrix.  The Euclidean
metric reads squared distances off one BLAS product of rows centred on
the union's mean and hands only the rows within a rounding band of a
level's ``µ²`` to its exact ``pairwise`` kernel, so its decisions equal
the exact kernel's while the public kernels stay as they are.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.base import Metric, _level_minima
from repro.utils.errors import InvalidParameterError

#: Float budget for the temporary ``(chunk, m, d)`` tensors built by the
#: broadcast pairwise kernels (~32 MB of float64 per chunk).
_CHUNK_BUDGET = 4_000_000

#: Machine epsilon and the smallest subnormal of float64, the two scales of
#: the Euclidean radius screen's rounding band.
_EPSILON = float(np.finfo(float).eps)
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def _as_array(x: Any) -> np.ndarray:
    """Coerce a payload to a 1-D float array without copying when possible."""
    return np.asarray(x, dtype=float)


def _as_point(x: Any) -> np.ndarray:
    """Coerce a single payload to a flat 1-D float array for broadcasting."""
    return np.asarray(x, dtype=float).ravel()


def _as_batch(X: Any) -> np.ndarray:
    """Coerce a stack of payloads to a 2-D float array of shape ``(n, d)``.

    A 1-D input is interpreted as ``n`` scalar payloads (``d = 1``), which
    keeps the batch kernels consistent with the scalar path's acceptance of
    plain numbers as payloads.
    """
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    return arr


def _row_chunks(A: np.ndarray, cols: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, rows)`` slices of ``A`` sized to the chunk budget."""
    per_row = max(1, cols * A.shape[1])
    step = max(1, _CHUNK_BUDGET // per_row)
    for start in range(0, A.shape[0], step):
        yield start, A[start : start + step]


class EuclideanMetric(Metric):
    """The Euclidean (L2) distance ``sqrt(sum_i (x_i - y_i)^2)``."""

    name = "euclidean"

    def distance(self, x: Any, y: Any) -> float:
        """Scalar Euclidean distance between payloads ``x`` and ``y``."""
        diff = _as_array(x) - _as_array(y)
        return float(math.sqrt(float(np.dot(diff, diff))))

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Euclidean distances from ``point`` to every row of the stack ``X``."""
        diff = _as_batch(X) - _as_point(point)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Euclidean distance matrix between the stacks ``X`` and ``Y`` (or ``X, X``)."""
        A = _as_batch(X)
        B = A if Y is None else _as_batch(Y)
        out = np.empty((A.shape[0], B.shape[0]), dtype=float)
        for start, rows in _row_chunks(A, B.shape[0]):
            diff = rows[:, None, :] - B[None, :, :]
            out[start : start + rows.shape[0]] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        return out

    def _screen_union(self, union: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The union's mean, its centred rows scaled by −2, and the centred rows' squared norms."""
        rows = _as_batch(union)
        # Non-finite rows make non-finite norms, which send every chunk to
        # the exact matrix; the arithmetic on them needs no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            centre = rows.mean(axis=0)
            centred = rows - centre
            return centre, -2.0 * centred, np.einsum("ij,ij->i", centred, centred)

    def _radius_screen(
        self,
        X: Any,
        union: Any,
        prepared: Tuple[np.ndarray, np.ndarray, np.ndarray],
        columns: Sequence[np.ndarray],
        mus: np.ndarray,
    ) -> Tuple[np.ndarray, int, bool]:
        """The radius screen on one matrix product, exact inside a rounding band.

        Chunk and union rows are centred on the union's mean, and every
        squared distance is read as ``‖x‖² + ‖y‖² − 2x·y`` off one BLAS
        product.  A level compares its rows' minimum with ``µ²``: a row at
        least ``slack`` above it survives, a row more than ``slack`` below
        it is rejected, and only rows in ``[µ² − slack, µ² + slack)`` go to
        the exact :meth:`pairwise` kernel, which then decides them.

        The slack is ``(8d + 40)(εM + η)``, with ``d`` the dimension, ``ε``
        machine epsilon, ``η`` the smallest subnormal and ``M`` the largest
        squared norm of a centred chunk or union row.  Outside the band the product route
        therefore decides as the exact kernel does.  With ``u = ε/2`` and
        every exact squared distance ``s ≤ 4M`` (up to ``O(u)``), the
        first-order errors are:

        * centring rounds each coordinate once, which moves ``√s`` by at
          most ``2u√M`` and ``s`` by at most ``8uM``;
        * the dot products of ``d`` terms and the two additions err by at
          most ``d·u(‖x‖ + ‖y‖)² + 2u·4M ≤ (4d + 8)uM``;
        * the exact kernel's sum of ``d`` rounded squares errs by at most
          ``(d + 2)u·s ≤ (4d + 8)uM``;
        * where a decision can differ, ``µ² ≤ 4M + slack``, so rounding
          ``µ²``, the band edges and the exact kernel's square root cost at
          most ``5u·4M``.

        They sum to ``(8d + 36)uM = (4d + 18)εM``; the slack doubles that,
        which covers the second-order terms, and ``η`` covers subnormal
        results.  A chunk where ``4M`` is not finite (NaN or infinite
        features, or rows whose squared norms overflow) takes the exact
        matrix in full.
        """
        centre, scaled_union, union_norms = prepared
        batch = _as_batch(X)
        with np.errstate(over="ignore", invalid="ignore"):
            centred = batch - centre
            norms = np.einsum("ij,ij->i", centred, centred)
        largest = float(np.maximum(norms.max(), union_norms.max()))
        if not math.isfinite(4.0 * largest):
            return super()._radius_screen(X, union, prepared, columns, mus)
        slack = (8 * centred.shape[1] + 40) * (_EPSILON * largest + _SUBNORMAL)
        by_member = scaled_union @ centred.T
        by_member += union_norms[:, None]
        by_member += norms
        minima = _level_minima(by_member, columns)
        thresholds = (mus * mus)[:, None]
        survives = minima >= thresholds + slack
        band = minima >= thresholds - slack
        band ^= survives
        if not band.any():
            return survives, 0, False
        band_levels, band_rows = np.nonzero(band)
        recheck = np.unique(band_rows)
        exact = np.ascontiguousarray(self.pairwise(batch[recheck], union).T)
        decided = _level_minima(exact, columns) >= mus[:, None]
        survives[band_levels, band_rows] = decided[band_levels, np.searchsorted(recheck, band_rows)]
        return survives, int(recheck.shape[0]), False


class ManhattanMetric(Metric):
    """The Manhattan (L1) distance ``sum_i |x_i - y_i|``."""

    name = "manhattan"

    def distance(self, x: Any, y: Any) -> float:
        """Scalar Manhattan distance between payloads ``x`` and ``y``."""
        return float(np.abs(_as_array(x) - _as_array(y)).sum())

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Manhattan distances from ``point`` to every row of the stack ``X``."""
        return np.abs(_as_batch(X) - _as_point(point)).sum(axis=1)

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Manhattan distance matrix between the stacks ``X`` and ``Y`` (or ``X, X``)."""
        A = _as_batch(X)
        B = A if Y is None else _as_batch(Y)
        out = np.empty((A.shape[0], B.shape[0]), dtype=float)
        for start, rows in _row_chunks(A, B.shape[0]):
            out[start : start + rows.shape[0]] = np.abs(
                rows[:, None, :] - B[None, :, :]
            ).sum(axis=-1)
        return out


class ChebyshevMetric(Metric):
    """The Chebyshev (L-infinity) distance ``max_i |x_i - y_i|``."""

    name = "chebyshev"

    def distance(self, x: Any, y: Any) -> float:
        """Scalar Chebyshev distance between payloads ``x`` and ``y``."""
        return float(np.abs(_as_array(x) - _as_array(y)).max())

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Chebyshev distances from ``point`` to every row of the stack ``X``."""
        return np.abs(_as_batch(X) - _as_point(point)).max(axis=1)

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Chebyshev distance matrix between the stacks ``X`` and ``Y`` (or ``X, X``)."""
        A = _as_batch(X)
        B = A if Y is None else _as_batch(Y)
        out = np.empty((A.shape[0], B.shape[0]), dtype=float)
        for start, rows in _row_chunks(A, B.shape[0]):
            out[start : start + rows.shape[0]] = np.abs(
                rows[:, None, :] - B[None, :, :]
            ).max(axis=-1)
        return out


class MinkowskiMetric(Metric):
    """The Minkowski (Lp) distance for a caller-chosen order ``p >= 1``.

    ``p = 1`` and ``p = 2`` reduce to the Manhattan and Euclidean metrics;
    those dedicated classes are faster and should be preferred.
    """

    def __init__(self, p: float) -> None:
        if not (p >= 1):
            raise InvalidParameterError(f"Minkowski order p must be >= 1, got {p}")
        self.p = float(p)
        self.name = f"minkowski(p={self.p:g})"

    def distance(self, x: Any, y: Any) -> float:
        """Scalar Minkowski distance of order ``p`` between ``x`` and ``y``."""
        diff = np.abs(_as_array(x) - _as_array(y))
        return float(np.power(np.power(diff, self.p).sum(), 1.0 / self.p))

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Minkowski distances from ``point`` to every row of the stack ``X``."""
        diff = np.abs(_as_batch(X) - _as_point(point))
        return np.power(np.power(diff, self.p).sum(axis=1), 1.0 / self.p)

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Minkowski distance matrix between the stacks ``X`` and ``Y`` (or ``X, X``)."""
        A = _as_batch(X)
        B = A if Y is None else _as_batch(Y)
        out = np.empty((A.shape[0], B.shape[0]), dtype=float)
        for start, rows in _row_chunks(A, B.shape[0]):
            diff = np.abs(rows[:, None, :] - B[None, :, :])
            out[start : start + rows.shape[0]] = np.power(
                np.power(diff, self.p).sum(axis=-1), 1.0 / self.p
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MinkowskiMetric(p={self.p!r})"


class AngularMetric(Metric):
    """The angular distance ``arccos(cos_similarity(x, y))`` in radians.

    This is the metric used for the Lyrics topic vectors in the paper; it is
    a true metric (unlike raw cosine *similarity*), bounded by ``pi`` in
    general and by ``pi / 2`` for non-negative vectors such as topic
    distributions.

    The angle is evaluated with Kahan's chord formula
    ``2 * atan2(|x^ - y^|, |x^ + y^|)`` over the normalized vectors rather
    than ``arccos`` of the cosine: ``arccos`` amplifies a one-ulp rounding
    error to ~1e-8 for near-parallel vectors, while the chord formula is
    well-conditioned over the whole range — which is what lets the scalar
    path and the batch kernels agree to 1e-9 on every input.
    """

    name = "angular"

    def distance(self, x: Any, y: Any) -> float:
        """Scalar angular distance (radians) between payloads ``x`` and ``y``."""
        ax, ay = _as_array(x), _as_array(y)
        norm_x = float(np.linalg.norm(ax))
        norm_y = float(np.linalg.norm(ay))
        if norm_x == 0.0 or norm_y == 0.0:
            # The angle is undefined for the zero vector; by convention two
            # zero vectors coincide and a zero vs. non-zero pair is maximally
            # separated.  This keeps the identity of indiscernibles intact.
            return 0.0 if norm_x == norm_y else math.pi / 2.0
        ux, uy = ax / norm_x, ay / norm_y
        chord = float(np.linalg.norm(ux - uy))
        anti_chord = float(np.linalg.norm(ux + uy))
        return float(2.0 * math.atan2(chord, anti_chord))

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Angular distances from ``point`` to every row of the stack ``X``."""
        A = _as_batch(X)
        p = _as_point(point)
        norms = np.linalg.norm(A, axis=1)
        pnorm = float(np.linalg.norm(p))
        if pnorm == 0.0:
            return np.where(norms == 0.0, 0.0, math.pi / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            U = A / norms[:, None]
        up = p / pnorm
        diff = U - up
        plus = U + up
        chord = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        anti_chord = np.sqrt(np.einsum("ij,ij->i", plus, plus))
        result = 2.0 * np.arctan2(chord, anti_chord)
        result[norms == 0.0] = math.pi / 2.0
        return result

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Angular distance matrix between the stacks ``X`` and ``Y`` (or ``X, X``)."""
        A = _as_batch(X)
        B = A if Y is None else _as_batch(Y)
        norms_a = np.linalg.norm(A, axis=1)
        norms_b = np.linalg.norm(B, axis=1)
        zero_a = norms_a == 0.0
        zero_b = norms_b == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            U = A / norms_a[:, None]
            V = B / norms_b[:, None]
        # A zero norm (exact, or underflowed from a tiny row) normalises to
        # inf/nan; zero those rows so the loop never computes inf - inf.
        # Their entries are overwritten by the convention below anyway.
        U[zero_a] = 0.0
        V[zero_b] = 0.0
        out = np.empty((A.shape[0], B.shape[0]), dtype=float)
        for start, rows in _row_chunks(U, B.shape[0]):
            diff = rows[:, None, :] - V[None, :, :]
            plus = rows[:, None, :] + V[None, :, :]
            chord = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            anti_chord = np.sqrt(np.einsum("ijk,ijk->ij", plus, plus))
            out[start : start + rows.shape[0]] = 2.0 * np.arctan2(chord, anti_chord)
        if zero_a.any() or zero_b.any():
            either_zero = zero_a[:, None] | zero_b[None, :]
            both_zero = zero_a[:, None] & zero_b[None, :]
            out = np.where(either_zero, math.pi / 2.0, out)
            out = np.where(both_zero, 0.0, out)
        return out


class CosineDistanceMetric(Metric):
    """Cosine distance ``1 - cos_similarity(x, y)``.

    Included for completeness; note that cosine distance violates the
    triangle inequality in general, so the approximation guarantees of the
    algorithms formally require :class:`AngularMetric` instead.  It is still
    useful in practice and the algorithms run unchanged.
    """

    name = "cosine"

    def distance(self, x: Any, y: Any) -> float:
        """Scalar cosine distance between payloads ``x`` and ``y``."""
        ax, ay = _as_array(x), _as_array(y)
        norm_x = float(np.linalg.norm(ax))
        norm_y = float(np.linalg.norm(ay))
        if norm_x == 0.0 or norm_y == 0.0:
            return 0.0 if norm_x == norm_y else 1.0
        cosine = float(np.dot(ax, ay)) / (norm_x * norm_y)
        cosine = min(1.0, max(-1.0, cosine))
        return float(1.0 - cosine)

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Cosine distances from ``point`` to every row of the stack ``X``."""
        A = _as_batch(X)
        p = _as_point(point)
        norms = np.linalg.norm(A, axis=1)
        pnorm = float(np.linalg.norm(p))
        if pnorm == 0.0:
            return np.where(norms == 0.0, 0.0, 1.0)
        # einsum rather than BLAS ``A @ p``: a BLAS product's entry for one
        # row can depend on the rows around it, and the engine's in-chunk
        # resolve needs every entry to depend on its own row only.
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = np.einsum("ij,j->i", A, p) / (norms * pnorm)
        result = 1.0 - np.clip(cosine, -1.0, 1.0)
        result[norms == 0.0] = 1.0
        return result

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Cosine distance matrix between the stacks ``X`` and ``Y`` (or ``X, X``)."""
        A = _as_batch(X)
        B = A if Y is None else _as_batch(Y)
        norms_a = np.linalg.norm(A, axis=1)
        norms_b = np.linalg.norm(B, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = (A @ B.T) / np.outer(norms_a, norms_b)
        result = 1.0 - np.clip(cosine, -1.0, 1.0)
        zero_a = norms_a == 0.0
        zero_b = norms_b == 0.0
        if zero_a.any() or zero_b.any():
            either_zero = zero_a[:, None] | zero_b[None, :]
            both_zero = zero_a[:, None] & zero_b[None, :]
            result = np.where(either_zero, 1.0, result)
            result = np.where(both_zero, 0.0, result)
        if Y is None:
            np.fill_diagonal(result, 0.0)
        return result


class HammingMetric(Metric):
    """The Hamming distance: number of coordinates in which two vectors differ.

    For binary attribute vectors (e.g. the CelebA labels) the Hamming and
    Manhattan distances coincide; this class also works for categorical
    (non-numeric) sequences.
    """

    name = "hamming"

    @staticmethod
    def _raw_batch(X: Any) -> np.ndarray:
        """Stack payloads without numeric coercion (categorical data allowed)."""
        arr = np.asarray(X)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        return arr

    def distance(self, x: Any, y: Any) -> float:
        """Scalar Hamming distance (count of differing coordinates)."""
        ax, ay = np.asarray(x), np.asarray(y)
        if ax.shape != ay.shape:
            raise InvalidParameterError(
                f"Hamming distance requires equal-length vectors, got {ax.shape} and {ay.shape}"
            )
        return float(np.count_nonzero(ax != ay))

    def distances_to(self, point: Any, X: Any) -> np.ndarray:
        """Hamming distances from ``point`` to every row of the stack ``X``."""
        A = self._raw_batch(X)
        p = np.asarray(point).ravel()
        if A.shape[1] != p.shape[0]:
            raise InvalidParameterError(
                f"Hamming distance requires equal-length vectors, got ({A.shape[1]},) "
                f"and {p.shape}"
            )
        return (A != p).sum(axis=1).astype(float)

    def pairwise(self, X: Any, Y: Optional[Any] = None) -> np.ndarray:
        """Hamming distance matrix between the stacks ``X`` and ``Y`` (or ``X, X``)."""
        A = self._raw_batch(X)
        B = A if Y is None else self._raw_batch(Y)
        if A.shape[1] != B.shape[1]:
            raise InvalidParameterError(
                f"Hamming distance requires equal-length vectors, got ({A.shape[1]},) "
                f"and ({B.shape[1]},)"
            )
        out = np.empty((A.shape[0], B.shape[0]), dtype=float)
        for start, rows in _row_chunks(A, B.shape[0]):
            out[start : start + rows.shape[0]] = (
                rows[:, None, :] != B[None, :, :]
            ).sum(axis=-1)
        return out


def euclidean() -> EuclideanMetric:
    """Factory for :class:`EuclideanMetric` (keeps call sites short)."""
    return EuclideanMetric()


def manhattan() -> ManhattanMetric:
    """Factory for :class:`ManhattanMetric`."""
    return ManhattanMetric()


def chebyshev() -> ChebyshevMetric:
    """Factory for :class:`ChebyshevMetric`."""
    return ChebyshevMetric()


def minkowski(p: float) -> MinkowskiMetric:
    """Factory for :class:`MinkowskiMetric` of order ``p``."""
    return MinkowskiMetric(p)


def angular() -> AngularMetric:
    """Factory for :class:`AngularMetric`."""
    return AngularMetric()


def cosine() -> CosineDistanceMetric:
    """Factory for :class:`CosineDistanceMetric`."""
    return CosineDistanceMetric()


def hamming() -> HammingMetric:
    """Factory for :class:`HammingMetric`."""
    return HammingMetric()
