import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    GroupSizeError,
    InputError,
    RolloutOutcome,
    group_advantages,
    grpo_objective,
    score_group,
    total_reward,
)


class TestRolloutOutcome:
    def test_norm_rank_out_of_range_rejected(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(InputError):
                RolloutOutcome(correct=True, norm_rank=bad)


class TestTotalReward:
    def test_incorrect_scores_exactly_zero(self):
        assert total_reward(RolloutOutcome(False, 0.9), alpha=0.5) == 0.0

    def test_correct_full_rank(self):
        assert total_reward(RolloutOutcome(True, 1.0), alpha=0.5) == 1.5

    def test_correct_half_rank(self):
        assert total_reward(RolloutOutcome(True, 0.5), alpha=0.5) == 1.25

    def test_alpha_zero_is_binary(self):
        for nr in (0.0, 0.3, 1.0):
            assert total_reward(RolloutOutcome(True, nr), alpha=0.0) == 1.0
            assert total_reward(RolloutOutcome(False, nr), alpha=0.0) == 0.0

    def test_monotone_in_norm_rank_when_correct(self):
        grid = np.linspace(0.0, 1.0, 11)
        values = [total_reward(RolloutOutcome(True, nr), alpha=0.7) for nr in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_incorrect_never_beats_correct(self):
        worst_correct = total_reward(RolloutOutcome(True, 0.0), alpha=2.0)
        best_incorrect = total_reward(RolloutOutcome(False, 1.0), alpha=2.0)
        assert best_incorrect < worst_correct

    def test_negative_alpha_rejected(self):
        for alpha in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InputError, match="alpha"):
                total_reward(RolloutOutcome(True, 0.5), alpha=alpha)


class TestGroupAdvantages:
    def test_two_point_group(self):
        npt.assert_allclose(group_advantages([1.0, 0.0]), [1.0, -1.0], atol=1e-12)

    def test_three_point_group(self):
        # mean 5/6, population std sqrt(7/18)
        adv = group_advantages([1.5, 1.0, 0.0])
        npt.assert_allclose(adv, [1.0690449676496976, 0.2672612419124244,
                                  -1.3363062095621219], atol=1e-9)

    def test_identical_rewards_zero_out(self):
        npt.assert_allclose(group_advantages([1.0, 1.0, 1.0, 1.0]), 0.0)

    def test_spread_below_floor_zeroes_out(self):
        adv = group_advantages([1.0, 1.0 + 1e-8])
        npt.assert_allclose(adv, 0.0)

    def test_mean_zero_unit_std(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rewards = rng.uniform(0.0, 2.0, size=8)
            adv = group_advantages(rewards)
            if np.any(adv != 0.0):
                assert abs(adv.mean()) < 1e-9
                assert abs(adv.std() - 1.0) < 1e-9

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        rewards = rng.uniform(0.0, 1.5, size=8)
        base = group_advantages(rewards)
        npt.assert_allclose(group_advantages(rewards + 7.0), base, atol=1e-9)
        npt.assert_allclose(group_advantages(rewards * 3.0), base, atol=1e-9)

    def test_order_preserved(self):
        rewards = np.array([0.2, 1.7, 0.9, 1.1])
        adv = group_advantages(rewards)
        assert list(np.argsort(adv)) == list(np.argsort(rewards))

    def test_too_small_group_rejected(self):
        with pytest.raises(GroupSizeError):
            group_advantages([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            group_advantages([1.0, np.inf])


class TestGrpoObjective:
    def test_worked_example(self):
        # -(1/2) * ((+1)(-2) + (-1)(-3)) = -(1/2) * 1 = -0.5
        assert abs(grpo_objective([1.0, -1.0], [-2.0, -3.0]) + 0.5) < 1e-12

    def test_zero_advantages_zero_objective(self):
        assert grpo_objective([0.0, 0.0], [-5.0, -1.0]) == 0.0

    def test_constant_shift_invariance_with_centered_advantages(self):
        rng = np.random.default_rng(2)
        adv = group_advantages(rng.uniform(0, 2, size=8))
        lp = rng.uniform(-10, -1, size=8)
        base = grpo_objective(adv, lp)
        shifted = grpo_objective(adv, lp + 3.7)
        assert abs(base - shifted) < 1e-9

    def test_improving_positive_advantage_rollout_lowers_objective(self):
        adv = np.array([1.0, -1.0])
        lp = np.array([-2.0, -3.0])
        better = lp + np.array([0.5, 0.0])
        assert grpo_objective(adv, better) < grpo_objective(adv, lp)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            grpo_objective([1.0, -1.0], [-2.0])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            grpo_objective([], [])


class TestScoreGroup:
    def test_wires_rewards_and_advantages(self):
        outcomes = [RolloutOutcome(True, 1.0), RolloutOutcome(True, 0.5),
                    RolloutOutcome(False, 0.9)]
        group = score_group("q0", outcomes, alpha=0.5)
        assert group.query_id == "q0"
        assert group.size == 3
        npt.assert_allclose(group.rewards, [1.5, 1.25, 0.0])
        npt.assert_allclose(group.advantages,
                            group_advantages(np.array(group.rewards)), atol=1e-12)

    def test_all_incorrect_gives_zero_advantages(self):
        outcomes = [RolloutOutcome(False, 0.2)] * 4
        group = score_group("q1", outcomes)
        npt.assert_allclose(group.advantages, 0.0)

    def test_single_outcome_rejected(self):
        with pytest.raises(GroupSizeError):
            score_group("q2", [RolloutOutcome(True, 0.5)])
