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

import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InputError, ZeroVarianceError

# Eigenvalues below this fraction of the largest are eigensolver noise and
# are reported as exact zeros.
EIGENVALUE_FLOOR = 1e-12

DEFAULT_ENERGY_THRESHOLD = 0.9

# _all_finite checks an array this many values (64 KiB of mask) at a time,
# so checking a payload read from a file does not add a mask of its size.
FINITE_CHUNK = 2**16

# _centered_eigh widens and centres a stack this many floats (8 MiB) at a
# time, and forms each product it adds into M at most as many floats at a
# time, so scoring a payload read from a file adds no float64 copy of its
# size. Much smaller chunks add passes over M and shrink BLAS's inner
# dimension. windows._window_eranks caps a block of windows so that its
# stacked w x w Grams hold at most this many floats per trajectory.
GRAM_FLOATS = 2**20


def _all_finite(A: np.ndarray) -> bool:
    """np.isfinite(A).all() for an array of one or more axes, checked in
    chunks of whole rows of its first axis, at most FINITE_CHUNK values
    each (one row when a row holds more)."""
    step = max(1, FINITE_CHUNK // max(1, A[:1].size))
    return all(np.isfinite(A[i:i + step]).all() for i in range(0, len(A), step))


def _real_floats(values, what: str, kind: str) -> np.ndarray:
    """values as a float64 array of real numbers: complex numbers, strings,
    bools (as the scalar rule refuses them), ragged rows and ints past the
    float range are an InputError, naming ``what`` a numeric ``kind``."""
    try:
        A = np.asarray(values)
        if np.iscomplexobj(A):
            raise InputError(f"{what} must be real, got complex numbers")
        if A.dtype.kind not in "iufO":
            raise TypeError(f"got {A.dtype} entries")
        return A.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a numeric {kind}: {exc}") from None


def _finite_array(values, what: str, ndim: int, least: int = 1, short=InputError) -> np.ndarray:
    """The one array check of the library's public entry points: values as
    a float64 array of ndim axes, each at least ``least`` long (else
    ``short`` is raised), with finite real entries. Anything else, such as
    complex numbers, strings, ragged rows or NaN, is an InputError."""
    A = _real_floats(values, what, "vector" if ndim == 1 else "matrix")
    if A.ndim != ndim:
        raise InputError(f"{what} must be {ndim}-D, got shape {A.shape}")
    if min(A.shape) < least:
        raise short(f"{what} must have {least} or more entries on each axis, got shape {A.shape}")
    if not _all_finite(A):
        raise InputError(f"{what} must be finite")
    return A


def _finite_stack(values, what: str) -> np.ndarray:
    """_finite_array for a (..., T, d) stack of trajectories: two or more
    axes, T and d at least 1, finite real entries, else an InputError. The
    leading axes may be empty: an empty stack scores empty."""
    A = _real_floats(values, what, "stack")
    if A.ndim < 2 or min(A.shape[-2:]) < 1:
        raise InputError(f"{what} must be a (..., T, d) stack with T, d >= 1, got shape {A.shape}")
    if not _all_finite(A):
        raise InputError(f"{what} must be finite")
    return A


def _verdicts(values, n: int) -> np.ndarray:
    """The one check of a verdict array: values as a bool vector of n
    verdicts, each passing _check_verdict. Anything else, such as a bare
    value or a vector of another length, is an InputError."""
    try:
        V = np.asarray(values)
    except ValueError as exc:  # numpy refuses ragged rows
        raise InputError(f"verdicts must be a vector of {n} bools or 0/1: {exc}") from None
    if V.shape != (n,):
        raise InputError(f"verdicts must be a vector of {n} bools or 0/1, "
                         f"got {V.dtype} entries of shape {V.shape}")
    return np.array([_check_verdict(v, "each of the verdicts") for v in V.tolist()], dtype=bool)


# Integer arguments that reach numpy or range are bounded by this (int64's
# largest value); seeds are not, since numpy hashes any non-negative integer.
INT64_MAX = 2**63 - 1

_ORDER = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _within(number, what: str, error, low=None, above=None, high=None, below=None):
    """number if low <= number, above < number, number <= high and number <
    below hold for each bound given; else ``error``, naming the bounds."""
    bounds = [(op, bound) for op, bound in zip(_ORDER, (low, above, high, below))
              if bound is not None]
    if not all(_ORDER[op](number, bound) for op, bound in bounds):
        rule = " and ".join(f"{op} {bound}" for op, bound in bounds)
        raise error(f"{what} must be {rule}, got {number}")
    return number


def _check_int(value, what: str, low=None, high=None, error=InputError) -> int:
    """The one integer rule: value as an int. A count or size must be a Python
    or numpy integer, not a bool (else InputError), in [low, high] for each
    bound given (else ``error``)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return _within(int(value), what, error, low=low, high=high)


def _check_verdict(value, what: str) -> bool:
    """The one verdict rule: value as a bool. A verdict is a Python or numpy
    bool, or an integer 0 or 1; anything else, such as 1.0, "true" or None,
    is an InputError."""
    if isinstance(value, (np.bool_, numbers.Integral)) and value in (0, 1):
        return bool(value)
    raise InputError(f"{what} must be a bool or 0/1, got {value!r}")


def _check_real(value, what: str, low=None, high=None, above=None, below=None,
                error=InputError) -> float:
    """The one real-number rule: value as a float. It must be a real number,
    ints included but not a bool or a string, and finite (else InputError),
    and meet each bound given, low <= value <= high and above < value <
    below (else ``error``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise InputError(f"{what} must be finite, got a value past the float range") from None
    if not math.isfinite(number):
        raise InputError(f"{what} must be finite, got {number}")
    return _within(number, what, error, low=low, above=above, high=high, below=below)


def _check_sequence(values, what: str, error=InputError):
    """The one sequence rule: values as given, if they can be iterated. A
    bare scalar where a sequence belongs, such as 3, 2.5, None or a 0-d
    array, is ``error``."""
    if not isinstance(values, Iterable) or getattr(values, "ndim", None) == 0:
        raise error(f"{what} must be a sequence, got {values!r}")
    return values


def validate_trajectory(values) -> np.ndarray:
    """Coerce to a float64 (T, d) matrix, rejecting non-finite entries.

    This is the boundary check of the public functions that take a
    trajectory from a library caller. A matrix read from a file is checked
    by the reader instead (io._read_stored), and the CLI does not check it
    again; the cores behind both (_centered_eigh, windows._window_eranks)
    trust their input.
    """
    return _finite_array(values, "trajectory", 2)


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues of a trajectory's centered covariance."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = _finite_array(self.eigenvalues, "eigenvalues", 1)
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
    stack, and eigendecompose its "covariance" Y^T Y / T, its "gram" Y Y^T
    / T or the smaller of the two ("auto"), M, where Y is its centred rows.
    Returns (mean, vals, vecs): per trajectory, the mean row, the min(T, d)
    cleaned eigenvalues, descending, and their eigenvectors as columns
    (None without ``vectors``).

    H is not validated here: it comes from validate_trajectory, from the
    CLI's reader (io._read_stored, which checks it) or from the simulator,
    which builds finite states. The mean is summed in float64 from the
    stored rows. H is then widened and centred a chunk of features at a
    time, columns for the Gram and rows for the covariance: each chunk is
    one subtraction into a fresh float64 array of at most GRAM_FLOATS
    values (one feature when that holds more), dropped before the next.
    A stack of at most GRAM_FLOATS values, or any stack with ``vectors``,
    is one chunk, and M is its whole product in one matmul, formed after
    this frame drops H, which the CLI passes as a temporary. Otherwise M
    starts at zero and each chunk adds its product into M's lower
    triangle, all that eigvalsh reads, a block of M's rows at a time, each
    block's product at most GRAM_FLOATS floats (one row of M when that
    holds more); H is dropped once its last chunk is widened. The widening
    is exact, so float32 input gives the spectrum of its float64 image.
    """
    if method not in ("auto", "gram", "covariance"):
        raise InputError(f"unknown spectrum method {method!r}")
    T, d = H.shape[-2:]
    gram = T < d if method == "auto" else method == "gram"
    n, features = (T, d) if gram else (d, T)
    lead = H.shape[:-2]
    stack = math.prod(lead)
    with np.errstate(over="ignore", invalid="ignore"):  # _top_eigen refuses an overflow
        mean = np.add.reduce(H, axis=-2, dtype=np.float64)
        mean /= T
        step = features if vectors else max(1, GRAM_FLOATS // max(1, stack * n))
        if step < features:
            M = np.zeros(lead + (n, n))
        for c0 in range(0, features, step):
            X = (H[..., c0:c0 + step] - mean[..., None, c0:c0 + step] if gram
                 else (H[..., c0:c0 + step, :] - mean[..., None, :]).swapaxes(-1, -2))
            if c0 + step >= features:
                del H
            if step >= features:  # made once the payload is freed, as one syrk
                M = X @ X.swapaxes(-1, -2)
            else:  # M's lower triangle, a block of its rows at a time
                for r0 in range(0, n, step):
                    rows = slice(r0, r0 + step)  # the diagonal block runs as syrk
                    M[..., rows, :r0] += X[..., rows, :] @ X[..., :r0, :].swapaxes(-1, -2)
                    M[..., rows, rows] += X[..., rows, :] @ X[..., rows, :].swapaxes(-1, -2)
            del X
        M /= T
    return (mean,) + _top_eigen(M, min(T, d), vectors)


_TOO_LARGE = "trajectory values too large to score: their centred products overflow the float range"


def _top_eigen(M: np.ndarray, m: int, vectors: bool = False):
    """The m largest eigenvalues of each symmetric matrix in the (..., n, n)
    stack M, descending and cleaned, with their eigenvectors as columns
    (None without ``vectors``). A stack holding a value that is not finite,
    from products that overflowed the float range, is an InputError: the
    eigensolver would fail on it, or return eigenvalues that are not its."""
    if not _all_finite(M):
        raise InputError(_TOO_LARGE)
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
    return Spectrum(_centered_eigh(validate_trajectory(H), method)[1])


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


def erank_stack(H) -> np.ndarray:
    """erank_or_floor of the covariance spectrum of each trajectory in a
    (..., T, d) stack, from one stacked eigensolve. The stack must hold
    finite real numbers (_finite_stack)."""
    return _erank_stack(_finite_stack(H, "stack"))


def _erank_stack(H: np.ndarray) -> np.ndarray:
    """erank_stack of a (..., T, d) float32 or float64 stack trusted to be
    finite: the simulator builds it, and the windows that _own_eranks passes
    come from a trajectory checked by validate_trajectory or by the reader."""
    return _erank_rows(_centered_eigh(H)[1])


@dataclass(frozen=True)
class ManifoldBasis:
    """Orthonormal principal directions of a local state cloud."""

    mean: np.ndarray
    directions: np.ndarray  # (d, k), orthonormal columns

    @property
    def k(self) -> int:
        return int(self.directions.shape[1])

    @property
    def dim(self) -> int:
        return int(self.directions.shape[0])


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
    recovered from the centred rows as (H - mean)^T u / sqrt(T lambda).
    """
    energy_threshold = _check_real(energy_threshold, "energy_threshold", above=0, high=1)
    H = validate_trajectory(H)
    mean, vals, vecs = _centered_eigh(H, vectors=True)
    T, d = H.shape
    if T < 2:
        raise InputError("principal subspace needs at least 2 rows")
    total = float(vals.sum())
    if total <= 0.0:
        raise ZeroVarianceError("zero-variance trajectory: all rows identical")
    k = _count_for_energy(vals, total, energy_threshold)
    if T < d:
        with np.errstate(over="ignore"):
            norms = np.sqrt(T * vals[:k])  # the centred rows' norms along each direction
        if not _all_finite(norms):
            raise InputError(_TOO_LARGE)
        directions = (H - mean).T @ vecs[:, :k] / norms
    else:
        directions = vecs[:, :k]
    return ManifoldBasis(mean=mean, directions=directions)
