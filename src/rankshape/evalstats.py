"""Evaluation statistics: exact pass@k curves and the logistic fit
separating trajectory rank from predictive entropy as predictors of
correctness.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DegenerateLabelsError,
    FileFormatError,
    InputError,
    RangeError,
    SeparableDataError,
)
from .io import _records, text_lines
from .spectral import (FINITE_CHUNK, INT64_MAX, _check_int, _check_real, _check_sequence,
                       _check_verdict)

DECOUPLING_CSV_HEADER = ("eff_rank", "entropy", "correct")

# Coefficient norm at which the fit is declared divergent: logits this far
# out move predictions by < 1e-13, so growth past it is pure divergence.
COEF_BOUND = 30.0
# z-scored features with 1 - |correlation| below this are collinear to
# rounding: exactly collinear data leaves at most a few ulps.
COLLINEAR_TOL = 1e-12
# A divergence that raises the predictor's variance by less than this share
# of the features' squared coefficient norm runs along the near-null
# direction of nearly collinear features (the share is at least
# 1 - |correlation|). Fair-coin labels on nearly collinear features give
# shares below 1e-3; separable labels give shares near 1.
NEAR_NULL_SHARE = 0.01
_COLLINEAR = ("collinear features eff_rank and entropy: one is an affine function of "
              "the other, so their effects cannot be separated")
GRADIENT_TOL = 1e-8
# A fit converges when, with the gradient below GRADIENT_TOL, the Newton
# step it would take next is also below this.
STEP_TOL = 1e-6
MAX_NEWTON_ITER = 100


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased pass@k for one problem: 1 - C(n-c, k) / C(n, k).

    The one-problem case of pass_curve: PassCounts checks n and c, and
    pass_curve checks k.
    """
    return pass_curve(PassCounts(n=n, counts=(c,)), [k])[k]


def _check_n(n) -> int:
    """The sample-count rule of PassCounts: n as an int in [1, INT64_MAX]."""
    return _check_int(n, "n", 1, INT64_MAX, error=RangeError)


def _check_count(count, n: int) -> int:
    """The correct-count rule of PassCounts: count as an int in [0, n]."""
    return _check_int(count, "count", 0, n, error=RangeError)


@dataclass(frozen=True)
class PassCounts:
    """Per-problem correct counts out of n samples each."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        n = _check_n(self.n)
        counts = tuple(_check_count(c, n) for c in _check_sequence(self.counts, "counts"))
        if not counts:
            raise InputError("need at least one problem")
        object.__setattr__(self, "counts", counts)

    @property
    def problems(self) -> int:
        return len(self.counts)


def pass_curve(pc: PassCounts, ks) -> dict[int, float]:
    """Mean unbiased pass@k over problems for each requested k.

    Each problem's 1 - C(n-c, k) / C(n, k) is evaluated as a running product
    of (n-c-i)/(n-i), for all problems at once, so no binomial coefficient is
    ever materialized. A problem with fewer than k incorrect samples meets a
    zero factor and scores exactly 1.0. Every k is checked first; then one
    product runs up to the largest k, at most FINITE_CHUNK floats of factors
    at a time, and each k's curve value is read off it.
    """
    ks = [_check_int(k, "k", 1, pc.n, error=RangeError) for k in _check_sequence(ks, "ks")]
    wrong = pc.n - np.array(pc.counts)[:, None]
    todo = sorted(set(ks), reverse=True)
    curve = {}
    top = max(ks, default=0)
    step = max(1, FINITE_CHUNK // pc.problems - 1)
    # Column j of a chunk starting at factor i0 is the product of its
    # problem's first i0 + j factors; column 0 carries the previous chunk's.
    product = np.ones((pc.problems, min(step, top) + 1))
    for i0 in range(0, top, step):
        i = np.arange(i0, min(i0 + step, top))
        chunk = product[:, :len(i) + 1]
        np.divide(wrong - i, pc.n - i, out=chunk[:, 1:])
        np.multiply.accumulate(chunk, axis=1, out=chunk)
        while todo and todo[-1] <= i0 + len(i):
            k = todo.pop()
            curve[k] = float(np.mean(1.0 - chunk[:, k - i0]))
        product[:, 0] = chunk[:, -1]
    return {k: curve[k] for k in ks}


@dataclass(frozen=True)
class DecouplingSample:
    """One rollout's effective rank, mean token entropy, and verdict."""

    eff_rank: float
    entropy: float
    correct: bool

    def __post_init__(self):
        _check_real(self.eff_rank, "eff_rank", low=1)
        _check_real(self.entropy, "entropy", low=0)
        object.__setattr__(self, "correct", _check_verdict(self.correct, "correct"))


@dataclass(frozen=True)
class LogitFit:
    """Wald summary of the two-predictor logistic regression. ``converged``
    is always true, since a fit that does not converge is refused; the
    field stays so that the JSON record keeps its keys."""

    beta0: float
    beta_r: float
    beta_e: float
    std_errors: tuple[float, float, float]
    p_values: tuple[float, float, float]
    converged: bool
    iterations: int


def fit_decoupling_logit(samples) -> LogitFit:
    """Logistic regression of correctness on z-scored (eff_rank, entropy).

    Newton/IRLS steps run until the log-likelihood gradient norm drops
    below GRADIENT_TOL and the next step below STEP_TOL. Standard errors
    come from the inverse observed information at the optimum; p-values are
    two-sided normal. Raises on single-class labels, on collinear features,
    and when no maximum-likelihood estimate exists, that is on coefficient
    divergence or on no convergence in MAX_NEWTON_ITER steps (quasi-complete
    separation): SeparableDataError unless the coefficients run off along
    the near-null direction of nearly collinear features without
    classifying every sample, which is DegenerateDataError.
    """
    samples = list(_check_sequence(samples, "samples"))
    if len(samples) < 20:
        raise InputError(f"need at least 20 samples, got {len(samples)}")
    y = np.array([1.0 if s.correct else 0.0 for s in samples])
    if y.min() == y.max():
        raise DegenerateLabelsError("degenerate labels: only one class present")
    raw = np.array([[s.eff_rank, s.entropy] for s in samples])
    spread = raw.std(axis=0)
    if np.any(spread <= 0.0):
        which = "eff_rank" if spread[0] <= 0.0 else "entropy"
        raise InputError(f"constant feature {which}: cannot standardize")
    X = np.column_stack([np.ones(len(samples)), (raw - raw.mean(axis=0)) / spread])
    if 1.0 - abs(np.mean(X[:, 1] * X[:, 2])) < COLLINEAR_TOL:
        raise DegenerateDataError(_COLLINEAR)

    beta = np.zeros(3)
    try:
        for iterations in range(1, MAX_NEWTON_ITER + 1):
            p = _sigmoid(X @ beta)
            grad = X.T @ (y - p)
            w = np.maximum(p * (1.0 - p), 1e-12)
            hessian = X.T @ (X * w[:, None])
            step = np.linalg.solve(hessian, grad)
            # A small gradient alone is not an optimum: under quasi-complete
            # separation the saturated rows stop contributing to it while the
            # coefficients still drift. The converged step is not applied.
            if np.linalg.norm(grad) < GRADIENT_TOL and np.linalg.norm(step) < STEP_TOL:
                break
            beta = beta + step
            if np.linalg.norm(beta) > COEF_BOUND:
                if (np.var(X @ beta) < NEAR_NULL_SHARE * (beta[1:] @ beta[1:])
                        and not np.array_equal(X @ beta > 0.0, y == 1.0)):
                    raise DegenerateDataError(
                        "nearly collinear features eff_rank and entropy: the coefficients "
                        "diverged in a direction the features barely vary along, so their "
                        "effects cannot be separated")
                raise SeparableDataError(
                    "separable data: coefficients diverged, Wald inference is meaningless")
        else:
            raise SeparableDataError(
                f"separable data: no convergence in {MAX_NEWTON_ITER} Newton steps, so the "
                "maximum-likelihood estimate does not exist (quasi-complete separation); "
                "Wald inference is meaningless")
        variances = np.diag(np.linalg.inv(hessian))
    except np.linalg.LinAlgError:
        variances = np.full(3, np.nan)
    # Collinear features make the information matrix singular: the solve or
    # the inverse fails, or rounding leaves a variance that is not positive.
    if not np.all(variances > 0.0):
        raise DegenerateDataError(_COLLINEAR)
    se = np.sqrt(variances)
    return LogitFit(
        beta0=float(beta[0]),
        beta_r=float(beta[1]),
        beta_e=float(beta[2]),
        std_errors=tuple(float(x) for x in se),
        p_values=tuple(math.erfc(abs(z) * math.sqrt(0.5)) for z in beta / se),
        converged=True,
        iterations=iterations,
    )


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def load_decoupling_csv(path) -> list[DecouplingSample]:
    """Read ``eff_rank,entropy,correct`` rows; correct must be 0 or 1, as
    DecouplingSample checks. The header is checked first; each later line is
    one CSV row, named "row <n>" by the one line-error rule (io._records)."""
    lines = text_lines(path)
    first = next(lines, None)
    if first is None:
        raise FileFormatError("bad_header", "empty samples file")
    header = _csv_row(first, "bad_header")
    if tuple(h.strip() for h in header) != DECOUPLING_CSV_HEADER:
        raise FileFormatError("bad_header", f"expected header {','.join(DECOUPLING_CSV_HEADER)}, "
                                            f"got {','.join(header)}")
    return list(_records(lines, _sample, where="row", first=2))


def _sample(line: str) -> DecouplingSample:
    """One samples-file row: three fields that DecouplingSample accepts."""
    row = _csv_row(line, "bad_value")
    if len(row) != 3:
        raise FileFormatError("dimension_mismatch", f"has {len(row)} fields, expected 3")
    try:
        return DecouplingSample(float(row[0]), float(row[1]), int(row[2]))
    except (ValueError, InputError) as exc:
        raise FileFormatError("bad_value", str(exc)) from None


def _csv_row(line: str, code: str) -> list[str]:
    """The fields of one CSV line; a field past the csv module's size limit
    is a FileFormatError with ``code``."""
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise FileFormatError(code, str(exc)) from None
