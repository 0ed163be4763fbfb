"""Sliding-window effective-rank profiles and their [0, 1] normalization.

The windowed minimum is the collapse-sensitive statistic: a trajectory that
passes through even one low-rank stretch scores low no matter how diverse
the rest of it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NormalizationError, TrajectoryTooShortError
from .spectral import covariance_spectrum, erank_or_floor, validate_trajectory

DEFAULT_WIDTH = 64
DEFAULT_STRIDE = 16


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


def windowed_min_effrank(H, width: int = DEFAULT_WIDTH, stride: int = DEFAULT_STRIDE) -> WindowRankProfile:
    """Effective rank of every window of the trajectory.

    A zero-variance window is maximal collapse and contributes the floor
    value 1.0 rather than raising.
    """
    H = validate_trajectory(H)
    T, d = H.shape
    if T < 2:
        raise TrajectoryTooShortError("trajectory too short: need at least 2 steps")
    if width < 2:
        raise InputError(f"window width must be >= 2, got {width}")
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")
    starts = window_starts(T, width, stride)
    eranks = [erank_or_floor(covariance_spectrum(H[start:start + width])) for start in starts]
    return WindowRankProfile(
        window_width=width,
        stride=stride,
        starts=tuple(starts),
        per_window_erank=tuple(eranks),
        r_max=int(min(width, d)),
    )


def norm_rank(profile: WindowRankProfile) -> float:
    """Affine map of min_erank from [1, r_max] onto [0, 1], clamped."""
    if profile.r_max < 2:
        raise NormalizationError("normalization degenerate: r_max < 2")
    value = (profile.min_erank - 1.0) / (profile.r_max - 1.0)
    return float(np.clip(value, 0.0, 1.0))
