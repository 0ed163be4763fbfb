"""Correctness-gated rank rewards and group-relative advantages: the
reward and advantage half of the GRPO group step (sim.train runs it).

The reward never pays for rank alone: an incorrect rollout scores exactly
zero whatever its geometry, and a correct one earns 1 plus a bounded rank
bonus. Advantages are standardized within each group of rollouts for the
same query, so only relative quality matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupSizeError, InputError
from .spectral import _finite_array

DEFAULT_ALPHA = 0.5
# Reward spreads below this carry no ranking signal; advantages are zeroed
# instead of dividing by noise.
STD_FLOOR = 1e-6


@dataclass(frozen=True)
class RolloutOutcome:
    """Verifier verdict plus the rank score of one rollout."""

    correct: bool
    norm_rank: float

    def __post_init__(self):
        if not np.isfinite(self.norm_rank) or not 0.0 <= self.norm_rank <= 1.0:
            raise InputError(f"norm_rank must be in [0, 1], got {self.norm_rank}")


def check_alpha(alpha: float) -> None:
    """The rank-bonus weight must be finite and >= 0."""
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise InputError(f"alpha must be finite and >= 0, got {alpha}")


def gated_rewards(correct, norm_rank, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Correctness gate times (1 + alpha * norm_rank), elementwise over arrays
    of verdicts and rank scores; incorrect is exactly 0.0."""
    check_alpha(alpha)
    return np.where(correct, 1.0 + alpha * np.asarray(norm_rank, dtype=np.float64), 0.0)


def total_reward(outcome: RolloutOutcome, alpha: float = DEFAULT_ALPHA) -> float:
    """The gated reward of one outcome (see gated_rewards)."""
    return float(gated_rewards(outcome.correct, outcome.norm_rank, alpha))


def group_advantages(rewards) -> np.ndarray:
    """Standardize rewards within one group: (R - mean) / population std.

    Returns all zeros when the spread is below STD_FLOOR (all rollouts
    equally good; nothing to rank). A group with a reward past 2**500 is
    first scaled by 2**-600, so that its squares stay finite; scaling by a
    power of two is exact, so the standardized values do not change.
    """
    r = _finite_array(rewards, "rewards", 1, least=2, short=GroupSizeError)
    floor = STD_FLOOR
    if np.abs(r).max() > 2.0**500:
        r, floor = r * 2.0**-600, floor * 2.0**-600
    # The same operations as r.std() and r.mean(), with one mean.
    dev = r - r.sum() / r.size
    std = np.sqrt((dev * dev).sum() / r.size)
    if std < floor:
        return np.zeros_like(r)
    return dev / std
