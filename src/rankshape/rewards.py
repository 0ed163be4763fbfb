"""Correctness-gated rank rewards, group-relative advantages, and the
group-normalized policy-gradient objective.

The reward never pays for rank alone: an incorrect rollout scores exactly
zero whatever its geometry, and a correct one earns 1 plus a bounded rank
bonus. Advantages are standardized within each group of rollouts for the
same query, so only relative quality matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupSizeError, InputError

DEFAULT_ALPHA = 0.5
DEFAULT_GROUP_SIZE = 8
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
    equally good; nothing to rank).
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise GroupSizeError("group too small: need at least 2 rewards")
    if not np.all(np.isfinite(r)):
        raise InputError("rewards contain non-finite values")
    std = float(r.std())
    if std < STD_FLOOR:
        return np.zeros_like(r)
    return (r - r.mean()) / std


def grpo_objective(advantages, log_probs) -> float:
    """Negative advantage-weighted mean log-probability over a group.

    Advantages enter as fixed weights (they are not differentiated);
    minimizing the value moves probability toward positive-advantage
    rollouts. There is no KL term and no ratio clipping.
    """
    a = np.asarray(advantages, dtype=np.float64)
    lp = np.asarray(log_probs, dtype=np.float64)
    if a.ndim != 1 or a.shape != lp.shape:
        raise InputError("advantages and log_probs must be 1-D and equal length")
    if a.size == 0:
        raise InputError("empty group")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(lp))):
        raise InputError("advantages and log_probs must be finite")
    return float(-(a * lp).mean())


@dataclass(frozen=True)
class GroupSample:
    """One query's rollouts with their rewards and standardized advantages."""

    query_id: str
    outcomes: tuple[RolloutOutcome, ...]
    rewards: tuple[float, ...]
    advantages: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.outcomes)


def score_group(query_id, outcomes, alpha: float = DEFAULT_ALPHA) -> GroupSample:
    """Apply the rank-aware reward and group standardization to one group."""
    outcomes = tuple(outcomes)
    rewards = gated_rewards([o.correct for o in outcomes], [o.norm_rank for o in outcomes], alpha)
    advantages = group_advantages(rewards)
    return GroupSample(
        query_id=str(query_id),
        outcomes=outcomes,
        rewards=tuple(float(r) for r in rewards),
        advantages=tuple(float(a) for a in advantages),
    )
