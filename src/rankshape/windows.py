"""Sliding-window effective-rank profiles and their [0, 1] normalization.

The windowed minimum is the collapse-sensitive statistic: a trajectory that
passes through even one low-rank stretch scores low no matter how diverse
the rest of it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, TrajectoryTooShortError
# covariance_spectrum is not called here, but perfbench/spans.py traces it
# under rankshape.windows, so the name must keep resolving in this module.
from .spectral import (  # noqa: F401
    GRAM_FLOATS,
    INT64_MAX,
    _check_int,
    _check_memory,
    _erank_rows,
    _erank_stack,
    _finite_stack,
    _top_eigen,
    covariance_spectrum,
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
    a single window. This is the one window rule: T, width and stride are
    integers, T fits int64, width >= 2, stride >= 1 and T >= 2. Starts
    whose count the host's memory cannot hold (spectral._check_memory) are
    an InputError, before the list is built.
    """
    T = _check_int(T, "T", high=INT64_MAX)
    width = _check_int(width, "window width", low=2)
    stride = _check_int(stride, "stride", low=1)
    if T < 2:
        raise TrajectoryTooShortError("trajectory too short: need at least 2 steps")
    if T <= width:
        return [0]
    grid = range(0, T - width + 1, stride)
    flush = [T - width] if grid[-1] != T - width else []
    count = len(grid) + len(flush)
    # Each start costs five 8-byte words: a list pointer and an int object.
    _check_memory(5 * count, f"{count} windows need", "for their starts")
    return [*grid, *flush]


def _window_plan(T: int, d: int, width: int, stride: int):
    """Check the window arguments for (T, d) trajectories and plan their
    windows: returns (starts, w, r_max), the window starts, the rows of each
    window and the normalization ceiling of the width in d dimensions."""
    return window_starts(T, width, stride), min(width, T), int(min(width, d))


def windowed_min_effrank(H, width: int = DEFAULT_WIDTH, stride: int = DEFAULT_STRIDE) -> WindowRankProfile:
    """Effective rank of every window of the trajectory.

    A zero-variance window is maximal collapse and contributes the floor
    value 1.0 rather than raising.
    """
    return _profile(validate_trajectory(H), width, stride)


def _profile(H: np.ndarray, width: int, stride: int) -> WindowRankProfile:
    """windowed_min_effrank of a (T, d) float32 or float64 matrix that is
    already known to be finite, such as io._read_stored returns."""
    starts, w, r_max = _window_plan(*H.shape, width, stride)
    return WindowRankProfile(
        window_width=width,
        stride=stride,
        starts=tuple(starts),
        per_window_erank=tuple(_window_eranks(H, np.asarray(starts), w).tolist()),
        r_max=r_max,
    )


def _window_eranks(H: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """erank_or_floor(covariance_spectrum(H[..., s:s + w, :])) for each start
    s and each trajectory of the (..., T, d) stack H. A trajectory's scores
    do not depend on the rest of the stack: each is bit for bit its score
    alone.

    Each window is scored from its own centred rows (_own_eranks) when
    there is one, such as a whole trajectory, or when w >= d: one view at a
    time, by the eigen core, whose chunked builder holds no float64 copy of
    it, so a lone window scores bit for bit as covariance_spectrum does.
    Two or more windows with w < d go in blocks that span fewer than w
    offsets and hold at most GRAM_FLOATS // w^2 starts (at least one), so a
    block's rows H[..., b0:last + w, :] number fewer than 2w, its stacked
    w x w Grams hold at most GRAM_FLOATS floats per trajectory at any
    stride, and its windows are scored together: one Gram product of the
    block's rows, shifted by their own mean, holds every window's Gram;
    each w x w slice is double-centred (J G J / w) and the block's slices
    share one stacked eigensolve. The product rounds at the scale of the
    shifted rows, so a trajectory with any window of the block whose
    shifted energy exceeds its centred energy by more than
    BLOCK_SHIFT_RATIO (a quiet stretch beside busy rows, or a constant
    window) has that block scored from its windows' own rows instead: the
    block's rows of those trajectories are copied once, and _own_eranks
    scores each window on a view of that copy.

    H may be float32 (a trajectory as stored in HSTB) or float64. A
    block's mean is summed in float64 from its stored rows, and its rows
    minus that mean are one subtraction into a fresh float64 array,
    dropped once the block's Gram is formed; the widening is exact, so a
    float32 trajectory scores as its float64 image does, and no block is
    copied before it is shifted. The block cap does not depend on the
    stack, so each trajectory's blocks are the ones it has alone. H is
    trusted to be finite: the public entry points take it from
    validate_trajectory, _finite_stack or the reader, and the simulator
    builds its own states.
    """
    if len(starts) == 1 or w >= H.shape[-1]:
        return _own_eranks(H, starts, w)
    eranks = np.empty(H.shape[:-2] + (len(starts),))
    most = max(1, GRAM_FLOATS // (w * w))  # windows a block's stacked Grams may hold
    with np.errstate(over="ignore", invalid="ignore"):  # _top_eigen refuses an overflow
        i = 0
        while i < len(starts):
            j = min(int(np.searchsorted(starts, starts[i] + w)), i + most)
            b0, block = starts[i], starts[i:j] - starts[i]
            rows = block[:, None] + np.arange(w)
            n = block[-1] + w
            Hb = H[..., b0:b0 + n, :]
            Y = Hb - np.add.reduce(Hb, axis=-2, dtype=np.float64, keepdims=True) / n
            # C order, so each slice's means sum in the order of a lone trajectory's.
            G = np.ascontiguousarray((Y @ np.swapaxes(Y, -1, -2))[..., rows[:, :, None],
                                                                     rows[:, None, :]])
            del Y
            shifted = np.trace(G, axis1=-2, axis2=-1)
            G -= G.mean(axis=-1, keepdims=True)
            G -= G.mean(axis=-2, keepdims=True)
            own = np.any(shifted > BLOCK_SHIFT_RATIO * np.trace(G, axis1=-2, axis2=-1), axis=-1)
            scored = eranks[..., i:j]
            if not own.all():
                scored[~own] = _erank_rows(_top_eigen(G[~own] / w, w)[0])
            if own.any():
                scored[own] = _own_eranks(Hb[own], block, w)
            i = j
    return eranks


def _own_eranks(H: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """_window_eranks of the (..., T, d) stack H with each window scored from
    its own centred rows: one _erank_stack call per start, on the view
    H[..., s:s + w, :], so no window is copied out of the stack; the eigen
    core widens and centres it a chunk at a time."""
    return np.stack([_erank_stack(H[..., s:s + w, :]) for s in starts], axis=-1)


def stacked_min_effrank(states: np.ndarray, width: int = DEFAULT_WIDTH,
                        stride: int = DEFAULT_STRIDE) -> tuple[np.ndarray, np.ndarray]:
    """min_erank and norm_rank of each trajectory in a (..., T, d) stack.

    The same windows, scorer, zero-variance floor and normalization as
    windowed_min_effrank followed by norm_rank, over the whole stack at
    once. The states must hold finite real numbers (_finite_stack).
    """
    states = _finite_stack(states, "states")
    starts, w, r_max = _window_plan(*states.shape[-2:], width, stride)
    return _min_norm(_window_eranks(states, np.asarray(starts), w), r_max)


def _min_norm(eranks: np.ndarray, r_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Each trajectory's min_erank over its (..., windows) eranks, and its
    norm_rank: min_erank mapped affinely from [1, r_max] onto [0, 1],
    clamped."""
    if r_max < 2:
        raise NormalizationError("normalization degenerate: r_max < 2")
    min_erank = eranks.min(axis=-1)
    return min_erank, np.clip((min_erank - 1.0) / (r_max - 1.0), 0.0, 1.0)


def norm_rank(profile: WindowRankProfile) -> float:
    """Affine map of min_erank from [1, r_max] onto [0, 1], clamped."""
    return float(_min_norm(np.asarray(profile.per_window_erank), profile.r_max)[1])
