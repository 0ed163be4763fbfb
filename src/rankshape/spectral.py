"""Eigen-spectrum machinery for hidden-state trajectories.

A trajectory is a (T, d) matrix whose rows are per-step hidden states.
Everything downstream (effective rank, windowed profiles, probe geometry)
derives from the eigenvalues of the trajectory's centered covariance, so
this module owns that decomposition and the cleanup rules applied to it.

The decomposition runs on whichever of the d x d covariance or the T x T
Gram matrix of centered rows is smaller, keeping the cost at
O(min(T, d)^3). Both share the same nonzero eigenvalues, and the reported
spectrum always has min(T, d) entries regardless of path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InputError, ZeroVarianceError

# Eigenvalues below this fraction of the largest are eigensolver noise and
# are reported as exact zeros.
EIGENVALUE_FLOOR = 1e-12

DEFAULT_ENERGY_THRESHOLD = 0.9


def _real_array(values, what: str) -> np.ndarray:
    """values as a float64 array. Complex numbers are refused, not cast to
    their real parts, and so are ragged rows and cells that are not numbers."""
    try:
        A = np.asarray(values)
        if np.iscomplexobj(A):
            raise InputError(f"{what} must be real, got complex numbers")
        return A.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a numeric matrix: {exc}") from None


def validate_trajectory(values) -> np.ndarray:
    """Coerce to a float64 (T, d) matrix, rejecting non-finite entries.

    This is the boundary check of the public functions that take a
    trajectory from a library caller. A matrix read from a file is checked
    by the reader instead (io._read_stored), and the CLI does not check it
    again; the cores behind both (_centered_eigh, windows._window_eranks)
    trust their input.
    """
    H = _real_array(values, "trajectory")
    if H.ndim != 2:
        raise InputError(f"trajectory must be 2-D, got shape {H.shape}")
    if H.shape[0] < 1 or H.shape[1] < 1:
        raise InputError(f"trajectory must have at least one row and column, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InputError("trajectory contains non-finite values")
    return H


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues of a trajectory's centered covariance."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("eigenvalues must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(vals)):
            raise InputError("eigenvalues must be finite")
        if np.any(vals < 0.0):
            raise InputError("eigenvalues must be nonnegative")
        if np.any(np.diff(vals) > 0.0):
            raise InputError("eigenvalues must be sorted nonincreasing")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def total_mass(self) -> float:
        return float(self.eigenvalues.sum())

    @property
    def probs(self) -> np.ndarray:
        """Eigenvalues normalized to a distribution; needs positive mass."""
        total = self.total_mass
        if total <= 0.0:
            raise DegenerateSpectrumError("degenerate spectrum: total eigenvalue mass is zero")
        return self.eigenvalues / total

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.eigenvalues))


def _cleanup(vals: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and zero out near-noise eigenvalues.

    ``vals`` holds descending rows (..., m); each row is floored against its
    own largest value.
    """
    vals = np.clip(vals, 0.0, None)
    vals[vals < EIGENVALUE_FLOOR * vals[..., :1]] = 0.0
    return vals


def _centered_eigh(H: np.ndarray, method: str = "auto", vectors: bool = False):
    """Centre each (T, d) trajectory of H, a (..., T, d) float32 or float64
    stack, and eigendecompose its "covariance", "gram" or smaller ("auto")
    matrix.

    H is not validated here: it comes from validate_trajectory, from the
    CLI's reader (io._read_stored, which checks it) or from the simulator,
    which builds finite states. It is widened once into a float64 copy that
    is centred in place; the widening is exact, so float32 input gives the
    spectrum of its float64 image. Returns (centered, mean, vals, vecs):
    per trajectory, the min(T, d) cleaned eigenvalues, descending, and their
    eigenvectors as columns. Without ``vectors``, centered and vecs are
    None, so the copy is freed before the eigensolve.
    """
    if method not in ("auto", "gram", "covariance"):
        raise InputError(f"unknown spectrum method {method!r}")
    centered = H.astype(np.float64)
    # Drop this frame's reference: a payload passed as a temporary (the CLI
    # passes the reader's result) is then freed before the product.
    del H
    mean = centered.mean(axis=-2)
    centered -= mean[..., None, :]
    T, d = centered.shape[-2:]
    if method == "auto":
        method = "gram" if T < d else "covariance"
    centered_t = np.swapaxes(centered, -1, -2)
    M = centered @ centered_t if method == "gram" else centered_t @ centered
    M /= T
    del centered_t
    if not vectors:
        centered = None
    return (centered, mean) + _top_eigen(M, min(T, d), vectors)


def _top_eigen(M: np.ndarray, m: int, vectors: bool = False):
    """The m largest eigenvalues of each symmetric matrix in the (..., n, n)
    stack M, descending and cleaned, with their eigenvectors as columns
    (None without ``vectors``)."""
    if vectors:
        vals, vecs = np.linalg.eigh(M)
        vecs = vecs[..., ::-1][..., :m]
    else:
        vals, vecs = np.linalg.eigvalsh(M), None
    return _cleanup(vals[..., ::-1][..., :m]), vecs


def covariance_spectrum(H, method: str = "auto") -> Spectrum:
    """Eigenvalues of the covariance (1/T)(H - mean)^T (H - mean).

    ``method`` picks the decomposition path: "covariance", "gram" or "auto"
    (see _centered_eigh). A trajectory with a single row has zero centered
    variance and yields the zero spectrum.
    """
    return Spectrum(_centered_eigh(validate_trajectory(H), method)[2])


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) -sum p ln p of each row of the (..., m)
    distributions p; zero entries contribute nothing (the p ln p -> 0 limit)."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def spectral_entropy(spectrum: Spectrum) -> float:
    """Shannon entropy (nats) of the normalized eigenvalue distribution.

    Zero eigenvalues contribute nothing (the p ln p -> 0 limit), so the
    value lies in [0, ln(#nonzero)].
    """
    return float(entropy_rows(spectrum.probs))


def effective_rank(spectrum: Spectrum) -> float:
    """exp of the spectral entropy: a continuous dimensionality in [1, rank]."""
    return float(np.exp(spectral_entropy(spectrum)))


def _erank_rows(vals: np.ndarray) -> np.ndarray:
    """Effective rank of each row of cleaned eigenvalues (..., m), with the
    floor 1.0 for a zero-mass (fully collapsed) row."""
    total = vals.sum(axis=-1, keepdims=True)
    p = vals / np.where(total > 0.0, total, 1.0)
    return np.where(total[..., 0] > 0.0, np.exp(entropy_rows(p)), 1.0)


def erank_or_floor(spectrum: Spectrum) -> float:
    """Effective rank, or the floor 1.0 for a zero-mass (fully collapsed) spectrum."""
    return float(_erank_rows(spectrum.eigenvalues))


def erank_stack(H: np.ndarray) -> np.ndarray:
    """erank_or_floor of the covariance spectrum of each trajectory in a
    (..., T, d) float32 or float64 stack, from one stacked eigensolve.

    The stack is trusted to be finite: the simulator builds it, and the
    windows that _window_eranks passes come from a trajectory checked by
    validate_trajectory or by the reader.
    """
    return _erank_rows(_centered_eigh(H)[2])


@dataclass(frozen=True)
class ManifoldBasis:
    """Orthonormal principal directions of a local state cloud."""

    mean: np.ndarray
    directions: np.ndarray  # (d, k), orthonormal columns
    captured_energy: float

    @property
    def k(self) -> int:
        return int(self.directions.shape[1])

    @property
    def dim(self) -> int:
        return int(self.directions.shape[0])

    def project_out(self, vec) -> np.ndarray:
        """Component of (vec - mean) orthogonal to the spanned subspace, for
        one d-vector or for each row of a (..., d) array."""
        v = np.asarray(vec, dtype=np.float64) - self.mean
        return v - (v @ self.directions) @ self.directions.T


def _count_for_energy(vals: np.ndarray, total: float, threshold: float) -> int:
    frac = np.cumsum(vals) / total
    # Tolerance keeps threshold=1.0 from overshooting past the last nonzero
    # eigenvalue on rounding.
    k = int(np.searchsorted(frac, threshold - 1e-12)) + 1
    return min(k, int(np.count_nonzero(vals)))


def principal_subspace(H, energy_threshold: float = DEFAULT_ENERGY_THRESHOLD) -> ManifoldBasis:
    """Smallest leading eigen-basis capturing the requested energy fraction.

    Energy is cumulative eigenvalue mass over total mass. The returned
    directions are orthonormal columns; on the Gram path (T < d) they are
    recovered as centered^T u / sqrt(T lambda).
    """
    if not 0.0 < energy_threshold <= 1.0:
        raise InputError(f"energy_threshold must be in (0, 1], got {energy_threshold}")
    centered, mean, vals, vecs = _centered_eigh(validate_trajectory(H), vectors=True)
    T, d = centered.shape
    if T < 2:
        raise InputError("principal subspace needs at least 2 rows")
    total = float(vals.sum())
    if total <= 0.0:
        raise ZeroVarianceError("zero-variance trajectory: all rows identical")
    k = _count_for_energy(vals, total, energy_threshold)
    if T < d:
        directions = centered.T @ vecs[:, :k] / np.sqrt(T * vals[:k])
    else:
        directions = vecs[:, :k]
    captured = float(vals[:k].sum() / total)
    return ManifoldBasis(mean=mean, directions=directions, captured_energy=captured)
