import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    GroupSizeError,
    InputError,
    RolloutOutcome,
    gated_rewards,
    group_advantages,
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


class TestGatedRewards:
    """The array path that train runs, one group of verdicts at a time."""

    def test_worked_example(self):
        rewards = gated_rewards([True, True, False], [1.0, 0.5, 0.9], 0.5)
        npt.assert_array_equal(rewards, [1.5, 1.25, 0.0])

    def test_all_incorrect_gives_zero_advantages(self):
        rewards = gated_rewards([False] * 4, [0.2] * 4)
        npt.assert_array_equal(rewards, 0.0)
        npt.assert_array_equal(group_advantages(rewards), 0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InputError, match="alpha"):
            gated_rewards([True, False], [0.5, 0.5], -0.1)

    def test_int_alpha_past_the_float_range_rejected(self):
        with pytest.raises(InputError) as info:
            gated_rewards([True], [0.5], alpha=10**400)
        assert str(info.value) == "alpha must be finite, got a value past the float range"

    @pytest.mark.parametrize("norm_rank, match", [
        (["abc"], "norm_rank must be a numeric vector"),
        (["0.5"], "norm_rank must be a numeric vector"),
        ([7.0], "norm_rank must be >= 0 and <= 1, got 7.0"),
        ([-0.5], "norm_rank must be >= 0 and <= 1, got -0.5"),
        ([float("nan")], "norm_rank must be finite"),
        (0.5, "norm_rank must be 1-D"),
    ], ids=["text", "numeric-text", "above-one", "negative", "nan", "scalar"])
    def test_rank_scores_are_checked(self, norm_rank, match):
        with pytest.raises(InputError, match=match):
            gated_rewards([True], norm_rank)

    @pytest.mark.parametrize("correct", [
        ["abc"], [float("nan")], [1.0], [2], [None], 3.0, True, [True, False, True],
        np.ones((1, 1, 1), dtype=bool), [[1], [1, 0]],
    ], ids=["text", "nan", "float", "two", "none", "bare-float", "bare-bool", "longer",
            "three-d", "ragged"])
    def test_verdicts_are_checked(self, correct):
        with pytest.raises(InputError, match="verdicts must be"):
            gated_rewards(correct, [0.5])

    def test_verdicts_may_be_bools_or_zero_one_integers(self):
        expected = [1.25, 0.0, 1.25]
        for correct in ([True, False, True], [1, 0, 1], np.array([1, 0, 1], dtype=np.uint8)):
            npt.assert_array_equal(gated_rewards(correct, [0.5] * 3), expected)

    def test_total_reward_is_a_group_of_one(self):
        for correct, nr in ((True, 0.3), (False, 0.7), (True, 1.0)):
            assert (total_reward(RolloutOutcome(correct, nr), 0.5)
                    == gated_rewards([correct], [nr], 0.5)[0])


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

    @pytest.mark.parametrize("rewards, expected", [
        ([1.7e308, 1.7e308], [0.0, 0.0]),
        ([1e200, -1e200], [1.0, -1.0]),
        ([1.7e308, -1.7e308, 0.0], [np.sqrt(1.5), -np.sqrt(1.5), 0.0]),
        ([2.0**600, 2.0**600 + 2.0**560], [-1.0, 1.0]),  # a spread far above STD_FLOOR
    ], ids=["equal-near-max", "opposite", "max-spread", "narrow-spread"])
    def test_huge_rewards_standardize_without_overflow(self, rewards, expected):
        npt.assert_allclose(group_advantages(rewards), expected, rtol=1e-15, atol=0.0)

    def test_power_of_two_scaling_keeps_every_bit(self):
        # Past 2**500 a group is scaled back by an exact power of two.
        rewards = np.random.default_rng(2).uniform(0.0, 1.5, size=(20, 8))
        for row in rewards:
            for scale in (2.0**499, 2.0**600, 2.0**1000):
                assert np.array_equal(group_advantages(row * scale), group_advantages(row))

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
