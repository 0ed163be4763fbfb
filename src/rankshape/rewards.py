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

from .errors import GroupSizeError
from .spectral import _check_real, _finite_array, _verdicts

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
        object.__setattr__(self, "norm_rank", _check_real(self.norm_rank, "norm_rank", 0, 1))


def check_alpha(alpha: float) -> float:
    """The rank-bonus weight: a finite number >= 0, returned as a float."""
    return _check_real(alpha, "alpha", low=0)


def gated_rewards(correct, norm_rank, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Correctness gate times (1 + alpha * norm_rank), elementwise over arrays
    of verdicts and rank scores; incorrect is exactly 0.0. The rank scores
    are a vector of numbers in [0, 1], as RolloutOutcome's is one, and the
    verdicts a vector as long of bools or integers 0 and 1."""
    alpha = check_alpha(alpha)
    norm_rank = _finite_array(norm_rank, "norm_rank", 1)
    for bound in (norm_rank.min(), norm_rank.max()):
        _check_real(bound, "norm_rank", 0, 1)
    return _gated(_verdicts(correct, norm_rank.size), norm_rank, alpha)


def _gated(correct, norm_rank: np.ndarray, alpha: float) -> np.ndarray:
    """gated_rewards of a float64 norm_rank array and an alpha already checked."""
    return np.where(correct, 1.0 + alpha * norm_rank, 0.0)


def total_reward(outcome: RolloutOutcome, alpha: float = DEFAULT_ALPHA) -> float:
    """The gated reward of one outcome: gated_rewards of a group of one."""
    return float(gated_rewards([outcome.correct], [outcome.norm_rank], alpha)[0])


def group_advantages(rewards) -> np.ndarray:
    """Standardize rewards within one group: (R - mean) / population std.

    Returns all zeros when the spread is below STD_FLOOR (all rollouts
    equally good; nothing to rank). A group with a reward past 2**500 is
    first scaled by 2**-600, so that its squares stay finite; scaling by a
    power of two is exact, so the standardized values do not change.
    """
    return _advantages(_finite_array(rewards, "rewards", 1, least=2, short=GroupSizeError))


def _advantages(r: np.ndarray) -> np.ndarray:
    """group_advantages of a float64 vector already known to be finite and at
    least 2 long, such as sim.train's rewards."""
    floor = STD_FLOOR
    if np.abs(r).max() > 2.0**500:
        r, floor = r * 2.0**-600, floor * 2.0**-600
    # The same operations as r.std() and r.mean(), with one mean.
    dev = r - r.sum() / r.size
    std = np.sqrt((dev * dev).sum() / r.size)
    if std < floor:
        return np.zeros_like(r)
    return dev / std
