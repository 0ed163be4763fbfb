"""Sliding-window effective-rank profiles and their [0, 1] normalization.

The windowed minimum is the collapse-sensitive statistic: a trajectory that
passes through even one low-rank stretch scores low no matter how diverse
the rest of it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NormalizationError, TrajectoryTooShortError
from .spectral import covariance_spectrum, erank_or_floor, erank_stack, validate_trajectory

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
    eranks = [erank_or_floor(covariance_spectrum(H[start:start + width])) for start in starts]
    return WindowRankProfile(
        window_width=width,
        stride=stride,
        starts=tuple(starts),
        per_window_erank=tuple(eranks),
        r_max=_r_max(width, d),
    )


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
