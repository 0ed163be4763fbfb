"""Sliding-window effective-rank profiles and their [0, 1] normalization.

The windowed minimum is the collapse-sensitive statistic: a trajectory that
passes through even one low-rank stretch scores low no matter how diverse
the rest of it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NormalizationError, TrajectoryTooShortError
# covariance_spectrum is not called here, but perfbench/spans.py traces it
# under rankshape.windows, so the name must keep resolving in this module.
from .spectral import (  # noqa: F401
    _check_int,
    _erank_rows,
    _top_eigen,
    covariance_spectrum,
    erank_stack,
    validate_trajectory,
)

DEFAULT_WIDTH = 64
DEFAULT_STRIDE = 16

# Largest ratio of a window's energy about its block's mean to its energy
# about its own mean that the shared block Gram may score (_window_eranks).
# Its rounding error grows with the ratio: on a 512 x 256 drift-plus-noise
# trajectory it was 2e-13 at a ratio of 100 and 3e-12 at 3e4.
BLOCK_SHIFT_RATIO = 16.0


@dataclass(frozen=True)
class WindowRankProfile:
    """Per-window effective ranks plus the normalization ceiling r_max."""

    window_width: int
    stride: int
    starts: tuple[int, ...]
    per_window_erank: tuple[float, ...]
    r_max: int

    @property
    def min_erank(self) -> float:
        return min(self.per_window_erank)


def window_starts(T: int, width: int, stride: int) -> list[int]:
    """Start offsets of the windows [i, i + width) covering T steps.

    Strided starts, plus a final window flushed to the trajectory end when
    the grid does not land on it. A trajectory no longer than the width is
    a single window. The arguments are integers under _check_windows' rule.
    """
    for what, value in (("T", T), ("window width", width), ("stride", stride)):
        _check_int(value, what)
    _check_windows(T, width, stride)
    return _starts(T, width, stride)


def _starts(T: int, width: int, stride: int) -> list[int]:
    """window_starts of arguments already checked."""
    if T <= width:
        return [0]
    starts = list(range(0, T - width + 1, stride))
    if starts[-1] != T - width:
        starts.append(T - width)
    return starts


def _normalize(min_erank, r_max: int):
    if r_max < 2:
        raise NormalizationError("normalization degenerate: r_max < 2")
    return np.clip((min_erank - 1.0) / (r_max - 1.0), 0.0, 1.0)


def _check_windows(T: int, width: int, stride: int) -> None:
    """The window arguments' rule, for trajectories of T steps."""
    if T < 2:
        raise TrajectoryTooShortError("trajectory too short: need at least 2 steps")
    if width < 2:
        raise InputError(f"window width must be >= 2, got {width}")
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")


def _score_windows(H: np.ndarray, width: int, stride: int):
    """Check the window arguments against a (..., T, d) trajectory stack and
    score its windows: returns (starts, eranks with shape (..., windows),
    r_max, the normalization ceiling of the width in d dimensions)."""
    T, d = H.shape[-2:]
    _check_windows(T, width, stride)
    starts = _starts(T, width, stride)
    return starts, _window_eranks(H, np.asarray(starts), min(width, T)), int(min(width, d))


def windowed_min_effrank(H, width: int = DEFAULT_WIDTH, stride: int = DEFAULT_STRIDE) -> WindowRankProfile:
    """Effective rank of every window of the trajectory.

    A zero-variance window is maximal collapse and contributes the floor
    value 1.0 rather than raising.
    """
    return _profile(validate_trajectory(H), width, stride)


def _profile(H: np.ndarray, width: int, stride: int) -> WindowRankProfile:
    """windowed_min_effrank of a (T, d) float32 or float64 matrix that is
    already known to be finite, such as io._read_stored returns."""
    starts, eranks, r_max = _score_windows(H, width, stride)
    return WindowRankProfile(
        window_width=width,
        stride=stride,
        starts=tuple(starts),
        per_window_erank=tuple(eranks.tolist()),
        r_max=r_max,
    )


def _window_eranks(H: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """erank_or_floor(covariance_spectrum(H[..., s:s + w, :])) for each start
    s and each trajectory of the (..., T, d) stack H.

    The starts go in blocks that span w offsets, so a block's rows
    H[..., b0:last + w, :] number fewer than 2w and its windows are scored
    together. When w < d, one Gram product of the block's rows, shifted by
    their own mean, holds every window's Gram; each w x w slice is
    double-centred (J G J / w) and the block's slices share one stacked
    eigensolve. The product rounds at the scale of the shifted rows, so a
    block with any window whose shifted energy exceeds its centred energy
    by more than BLOCK_SHIFT_RATIO (a quiet stretch beside busy rows, or a
    constant window) is scored from each window's own centred rows instead,
    through erank_stack, as every block is when w >= d.

    H may be float32 (a trajectory as stored in HSTB) or float64. Each
    block's rows are widened to float64 before they are centred; the cast
    is exact, so a float32 trajectory scores as its float64 image does, and
    a float64 stack is sliced without a copy. H is trusted to be finite:
    the public entry points take it from validate_trajectory or from the
    reader, and the simulator builds its own states.
    """
    eranks = np.empty(H.shape[:-2] + (len(starts),))
    offsets = np.arange(w)
    i = 0
    while i < len(starts):
        j = int(np.searchsorted(starts, starts[i] + w))
        b0, block = starts[i], starts[i:j] - starts[i]
        rows = block[:, None] + offsets
        B = H[..., b0:b0 + block[-1] + w, :].astype(np.float64, copy=False)
        own_rows = w >= H.shape[-1]
        if not own_rows:
            Y = B - B.mean(axis=-2, keepdims=True)
            G = (Y @ np.swapaxes(Y, -1, -2))[..., rows[:, :, None], rows[:, None, :]]
            shifted = np.trace(G, axis1=-2, axis2=-1)
            G -= G.mean(axis=-1, keepdims=True)
            G -= G.mean(axis=-2, keepdims=True)
            own_rows = np.any(shifted > BLOCK_SHIFT_RATIO * np.trace(G, axis1=-2, axis2=-1))
        if own_rows:
            eranks[..., i:j] = erank_stack(B[..., rows, :])
        else:
            eranks[..., i:j] = _erank_rows(_top_eigen(G / w, w)[0])
        i = j
    return eranks


def stacked_min_effrank(states: np.ndarray, width: int = DEFAULT_WIDTH,
                        stride: int = DEFAULT_STRIDE) -> tuple[np.ndarray, np.ndarray]:
    """min_erank and norm_rank of each trajectory in a (..., T, d) stack.

    The same windows, scorer, zero-variance floor and normalization as
    windowed_min_effrank followed by norm_rank, over the whole stack at
    once. The states are trusted to be finite float64, as the simulator
    builds them.
    """
    _, eranks, r_max = _score_windows(states, width, stride)
    min_erank = eranks.min(axis=-1)
    return min_erank, _normalize(min_erank, r_max)


def norm_rank(profile: WindowRankProfile) -> float:
    """Affine map of min_erank from [1, r_max] onto [0, 1], clamped."""
    return float(_normalize(profile.min_erank, profile.r_max))
