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
    a single window.
    """
    if T <= width:
        return [0]
    starts = list(range(0, T - width + 1, stride))
    if starts[-1] != T - width:
        starts.append(T - width)
    return starts


def _check_window(T: int, width: int, stride: int) -> None:
    if T < 2:
        raise TrajectoryTooShortError("trajectory too short: need at least 2 steps")
    if width < 2:
        raise InputError(f"window width must be >= 2, got {width}")
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")


def _r_max(width: int, d: int) -> int:
    """The normalization ceiling of a window width in d dimensions."""
    return int(min(width, d))


def _normalize(min_erank, r_max: int):
    if r_max < 2:
        raise NormalizationError("normalization degenerate: r_max < 2")
    return np.clip((min_erank - 1.0) / (r_max - 1.0), 0.0, 1.0)


def windowed_min_effrank(H, width: int = DEFAULT_WIDTH, stride: int = DEFAULT_STRIDE) -> WindowRankProfile:
    """Effective rank of every window of the trajectory.

    A zero-variance window is maximal collapse and contributes the floor
    value 1.0 rather than raising.
    """
    H = validate_trajectory(H)
    T, d = H.shape
    _check_window(T, width, stride)
    starts = window_starts(T, width, stride)
    return WindowRankProfile(
        window_width=width,
        stride=stride,
        starts=tuple(starts),
        per_window_erank=tuple(_window_eranks(H, np.asarray(starts), min(width, T)).tolist()),
        r_max=_r_max(width, d),
    )


def _window_eranks(H: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """erank_or_floor(covariance_spectrum(H[s:s + w])) for each start s.

    The starts go in blocks that span w offsets, so a block's rows
    H[b0:last + w] number fewer than 2w and its windows are scored
    together. When w < d, one Gram product of the block's rows, shifted by
    their own mean, holds every window's Gram; each w x w slice is
    double-centred (J G J / w) and the block's slices share one stacked
    eigensolve. The product rounds at the scale of the shifted rows, so a
    window whose shifted energy exceeds its centred energy by more than
    BLOCK_SHIFT_RATIO (a quiet stretch beside busy rows, or a constant
    window) is scored from its own centred rows instead, through
    erank_stack, as every window is when w >= d.
    """
    d = H.shape[1]
    eranks = np.empty(len(starts))
    offsets = np.arange(w)
    i = 0
    while i < len(starts):
        j = int(np.searchsorted(starts, starts[i] + w))
        b0, block = starts[i], starts[i:j] - starts[i]
        rows = block[:, None] + offsets
        own = np.ones(len(block), dtype=bool)
        if w < d:
            Y = H[b0:b0 + block[-1] + w]
            Y = Y - Y.mean(axis=0)
            G = (Y @ Y.T)[rows[:, :, None], rows[:, None, :]]
            shifted = np.trace(G, axis1=-2, axis2=-1)
            G -= G.mean(axis=-1, keepdims=True)
            G -= G.mean(axis=-2, keepdims=True)
            own = shifted > BLOCK_SHIFT_RATIO * np.trace(G, axis1=-2, axis2=-1)
            eranks[i:j] = _erank_rows(_top_eigen(G / w, w)[0])
        if own.any():
            eranks[i + np.flatnonzero(own)] = erank_stack(H[b0 + rows[own]])
        i = j
    return eranks


def stacked_min_effrank(states: np.ndarray, width: int = DEFAULT_WIDTH,
                        stride: int = DEFAULT_STRIDE) -> tuple[np.ndarray, np.ndarray]:
    """min_erank and norm_rank of each trajectory in a (..., T, d) stack.

    The same windows, zero-variance floor and normalization as
    windowed_min_effrank followed by norm_rank, but every window of the
    stack is scored by one stacked eigensolve (erank_stack). The states are
    trusted to be finite float64, as the simulator builds them.
    """
    T, d = states.shape[-2:]
    _check_window(T, width, stride)
    starts = np.asarray(window_starts(T, width, stride))
    rows = starts[:, None] + np.arange(min(width, T))
    min_erank = erank_stack(states[..., rows, :]).min(axis=-1)
    return min_erank, _normalize(min_erank, _r_max(width, d))


def norm_rank(profile: WindowRankProfile) -> float:
    """Affine map of min_erank from [1, r_max] onto [0, 1], clamped."""
    return float(_normalize(profile.min_erank, profile.r_max))
