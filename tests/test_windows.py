import tracemalloc

import numpy as np
import pytest

from rankshape import (
    InputError,
    NormalizationError,
    TrajectoryTooShortError,
    WindowRankProfile,
    biased_init,
    build_env,
    covariance_spectrum,
    effective_rank,
    erank_or_floor,
    erank_stack,
    norm_rank,
    sample_group,
    stacked_min_effrank,
    window_starts,
    windowed_min_effrank,
)
from rankshape import windows
from rankshape.windows import GRAM_FLOATS, OWN_ROWS_FLOATS, _window_eranks


def profile_with(min_erank, r_max):
    return WindowRankProfile(window_width=8, stride=4, starts=(0,),
                             per_window_erank=(min_erank,), r_max=r_max)


class TestWindowStarts:
    def test_short_trajectory_single_window(self):
        assert window_starts(10, 64, 16) == [0]
        assert window_starts(64, 64, 16) == [0]

    def test_aligned_grid(self):
        assert window_starts(96, 64, 16) == [0, 16, 32]

    def test_final_window_flushed_to_end(self):
        assert window_starts(100, 64, 16) == [0, 16, 32, 36]

    def test_stride_one_covers_everything(self):
        starts = window_starts(20, 8, 1)
        assert starts == list(range(13))

    @pytest.mark.parametrize("args, error, match", [
        ((10, 3, 0), InputError, "stride must be >= 1"),
        ((10, 0, 1), InputError, "window width must be >= 2"),
        ((10, 1, 1), InputError, "window width must be >= 2"),
        ((10, 3.0, 1), InputError, "window width must be an integer"),
        ((10, 3, 1.5), InputError, "stride must be an integer"),
        ((10.0, 3, 1), InputError, "T must be an integer"),
        ((1, 3, 1), TrajectoryTooShortError, "too short"),
    ], ids=["stride-0", "width-0", "width-1", "width-float", "stride-float", "T-float", "T-1"])
    def test_arguments_are_checked(self, args, error, match):
        with pytest.raises(error, match=match) as info:
            window_starts(*args)
        assert info.value.code == error.code


# (label, T, d, width, stride): layouts whose windows must each score as
# erank_or_floor(covariance_spectrum(window)) does.
ORACLE_CASES = [
    ("llm_like", 512, 256, 64, 16),
    ("flushed_last_window", 300, 128, 50, 7),
    ("shorter_than_width", 40, 100, 64, 16),
    ("stride_above_width", 200, 96, 20, 30),
    ("covariance_blocks", 300, 16, 32, 3),
    ("quiet_stretch", 512, 256, 64, 16),
]


def _oracle_trajectory(label, T, d):
    rng = np.random.default_rng(len(label))
    H = rng.normal(size=(T, d))
    if label in ("llm_like", "quiet_stretch"):
        # Hidden-state-like: a few massive coordinates and a low-rank drift.
        H[:, :4] += rng.choice([-300.0, 300.0], size=4)
        H += np.cumsum(rng.normal(size=(T, 4)), axis=0) @ rng.normal(size=(4, d))
    if label == "llm_like":
        H = H.astype(np.float32).astype(np.float64)
    if label == "quiet_stretch":
        # Near-collapse: three widths that barely move, between busy rows.
        H[200:392] = H[200] + 1e-5 * rng.normal(size=(192, d))
    return H


class TestWindowedMinEffrank:
    def test_single_window_matches_full_erank(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(32, 8))
        profile = windowed_min_effrank(H, width=64, stride=16)
        assert profile.starts == (0,)
        full = effective_rank(covariance_spectrum(H))
        assert abs(profile.min_erank - full) < 1e-12

    def test_low_rank_stretch_drives_minimum(self):
        rng = np.random.default_rng(1)
        head = np.outer(np.linspace(1.0, 4.0, 64), np.eye(8)[0])
        tail = rng.normal(size=(128, 8))
        profile = windowed_min_effrank(np.vstack([head, tail]), width=64, stride=16)
        assert profile.starts[0] == 0
        assert abs(profile.per_window_erank[0] - 1.0) < 1e-9
        assert profile.min_erank < 1.0 + 1e-9
        assert max(profile.per_window_erank) > 5.0

    def test_constant_windows_score_one(self):
        profile = windowed_min_effrank(np.ones((128, 4)), width=64, stride=16)
        assert all(v == 1.0 for v in profile.per_window_erank)

    def test_min_is_elementwise_minimum(self):
        rng = np.random.default_rng(2)
        profile = windowed_min_effrank(rng.normal(size=(200, 6)), width=64, stride=16)
        assert profile.min_erank == min(profile.per_window_erank)

    def test_r_max_rule(self):
        rng = np.random.default_rng(3)
        assert windowed_min_effrank(rng.normal(size=(100, 4)), width=64).r_max == 4
        assert windowed_min_effrank(rng.normal(size=(100, 80)), width=64).r_max == 64

    def test_extension_never_raises_minimum_on_aligned_windows(self):
        rng = np.random.default_rng(4)
        H = rng.normal(size=(128, 5))
        prefix = windowed_min_effrank(H[:96], width=64, stride=16)
        extended = windowed_min_effrank(H, width=64, stride=16)
        assert set(prefix.starts) <= set(extended.starts)
        assert extended.min_erank <= prefix.min_erank + 1e-12

    @pytest.mark.parametrize("label, T, d, width, stride", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    def test_each_window_matches_covariance_spectrum(self, label, T, d, width, stride):
        H = _oracle_trajectory(label, T, d)
        profile = windowed_min_effrank(H, width, stride)
        assert profile.starts == tuple(window_starts(T, width, stride))
        for start, erank in zip(profile.starts, profile.per_window_erank):
            expected = erank_or_floor(covariance_spectrum(H[start:start + width]))
            assert abs(erank - expected) <= 1e-12

    def test_constant_window_among_moving_rows_scores_one(self):
        # Non-dyadic values: the block's mean does not reproduce them
        # exactly, so only an exact test for equal rows gives 1.0.
        H = np.random.default_rng(7).normal(size=(200, 96))
        H[40:120] = H[40]
        profile = windowed_min_effrank(H, width=30, stride=8)
        inside = [e for s, e in zip(profile.starts, profile.per_window_erank)
                  if 40 <= s and s + 30 <= 120]
        assert len(inside) == 7
        assert all(e == 1.0 for e in inside)
        assert profile.per_window_erank[0] > 1.0

    def test_too_short_rejected(self):
        with pytest.raises(TrajectoryTooShortError):
            windowed_min_effrank([[1.0, 2.0]])

    def test_bad_width_and_stride_rejected(self):
        H = np.random.default_rng(5).normal(size=(10, 3))
        with pytest.raises(InputError):
            windowed_min_effrank(H, width=1)
        with pytest.raises(InputError):
            windowed_min_effrank(H, stride=0)


class TestNormRank:
    def test_floor_is_zero(self):
        assert norm_rank(profile_with(1.0, 5)) == 0.0

    def test_ceiling_is_one(self):
        assert norm_rank(profile_with(5.0, 5)) == 1.0

    def test_midpoint(self):
        assert abs(norm_rank(profile_with(3.0, 5)) - 0.5) < 1e-12

    def test_clamped_above(self):
        assert norm_rank(profile_with(6.0, 5)) == 1.0

    def test_monotone_in_min_erank(self):
        values = [norm_rank(profile_with(m, 9)) for m in np.linspace(1.0, 9.0, 17)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_r_max_below_two_rejected(self):
        with pytest.raises(NormalizationError):
            norm_rank(profile_with(1.0, 1))

    def test_on_real_profile(self):
        rng = np.random.default_rng(6)
        profile = windowed_min_effrank(rng.normal(size=(100, 8)), width=32, stride=8)
        value = norm_rank(profile)
        assert 0.0 <= value <= 1.0


def _zero_variance_stack(rng):
    """Three 20 x 5 trajectories; the second is constant over steps 4..13."""
    states = rng.normal(size=(3, 20, 5))
    states[1, 4:14] = states[1, 4]
    return states


# (label, T, d, width, stride): the window layouts the stacked path must score
# exactly as windowed_min_effrank does.
STACK_CASES = [
    ("single_window", 10, 6, 64, 16),
    ("strided_flushed", 20, 5, 8, 5),
    ("gram_path", 12, 16, 6, 3),
    ("zero_variance", 20, 5, 10, 2),
    ("quiet_element", 40, 24, 8, 2),
]


def _quiet_element_stack(rng):
    """Three 40 x 24 trajectories; the second holds still over steps 12..31
    but for noise of 1e-6 in two coordinates, so only its windows there
    trip the block guard of the Gram path (w < d)."""
    states = rng.normal(size=(3, 40, 24))
    states[1, 12:32] = states[1, 12]
    states[1, 12:32, :2] += 1e-6 * rng.normal(size=(20, 2))
    return states


class TestStackedMinEffrank:
    @pytest.fixture(params=STACK_CASES, ids=[case[0] for case in STACK_CASES])
    def case(self, request):
        label, T, d, width, stride = request.param
        rng = np.random.default_rng(len(label))
        if label == "zero_variance":
            return _zero_variance_stack(rng), width, stride
        if label == "quiet_element":
            return _quiet_element_stack(rng), width, stride
        return rng.normal(size=(3, T, d)), width, stride

    def test_each_window_matches_covariance_spectrum(self, case):
        states, width, stride = case
        T = states.shape[1]
        starts = window_starts(T, width, stride)
        rows = np.asarray(starts)[:, None] + np.arange(min(width, T))
        stacked = erank_stack(states[:, rows])
        assert stacked.shape == (3, len(starts))
        for g, H in enumerate(states):
            for w, start in enumerate(starts):
                expected = erank_or_floor(covariance_spectrum(H[start:start + width]))
                assert abs(stacked[g, w] - expected) <= 1e-12

    def test_matches_windowed_min_effrank_and_norm_rank(self, case):
        states, width, stride = case
        min_erank, ranks = stacked_min_effrank(states, width, stride)
        for g, H in enumerate(states):
            profile = windowed_min_effrank(H, width, stride)
            assert abs(min_erank[g] - profile.min_erank) <= 1e-12
            assert abs(ranks[g] - norm_rank(profile)) <= 1e-12
            oracle = min(erank_or_floor(covariance_spectrum(H[start:start + width]))
                         for start in profile.starts)
            assert abs(min_erank[g] - oracle) <= 1e-12

    def test_layouts(self):
        assert window_starts(10, 64, 16) == [0]
        assert window_starts(20, 8, 5) == [0, 5, 10, 12]
        assert window_starts(12, 6, 3) == [0, 3, 6]

    def test_zero_variance_window_scores_one(self):
        states = _zero_variance_stack(np.random.default_rng(0))
        rows = np.arange(4, 14)
        assert erank_stack(states[:, rows])[1] == 1.0
        min_erank, ranks = stacked_min_effrank(states, 10, 2)
        assert min_erank[1] == 1.0 and ranks[1] == 0.0
        assert min_erank[0] > 1.0

    @pytest.mark.parametrize("env_seed", [0, 1])
    @pytest.mark.parametrize("width, stride", [(8, 3), (12, 4), (32, 16)])
    def test_rollout_groups_score_as_each_rollout_alone(self, env_seed, width, stride):
        # Bit for bit, in the simulator's own groups, on both sides of w = d.
        env = build_env(env_seed)
        _, states, _ = sample_group(biased_init(env), env, [[env_seed, i] for i in range(8)])
        min_erank, ranks = stacked_min_effrank(states, width, stride)
        for g, H in enumerate(states):
            profile = windowed_min_effrank(H, width, stride)
            assert (min_erank[g], ranks[g]) == (profile.min_erank, norm_rank(profile))

    def test_one_trajectory_falling_back_leaves_the_others(self):
        # Trajectory 1's constant stretch sends its blocks to their own rows;
        # trajectory 0's stay on the Gram path.
        states = 100.0 + np.random.default_rng(0).normal(size=(2, 40, 24))
        states[1, 10:20] = states[1, 10]
        min_erank, _ = stacked_min_effrank(states, 8, 4)
        assert min_erank[1] == 1.0
        for g, H in enumerate(states):
            assert min_erank[g] == windowed_min_effrank(H, 8, 4).min_erank

    @pytest.mark.parametrize("T, w, s", [(1024, 64, 16), (512, 256, 4)], ids=["w64", "w256"])
    def test_block_scorer_holds_one_buffer_and_the_block_grams(self, T, w, s):
        """At w < d a float32 (T, d) trajectory is scored one block at a
        time: the block's shifted rows, one float64 array of n < min(T, 2w)
        rows by d, dropped once its Gram is formed, the Gram of its n rows
        and at most four arrays of its k window slices: the slices, numpy's
        index for them, the previous block's slices and G / w. No block is
        widened and then shifted in two arrays, nor are two blocks' shifted
        rows held at once, either of which would add n x d floats. A block
        holds at most GRAM_FLOATS // w^2 windows: at w = 256 and stride 4
        that is 16, where the 64 windows spanning w offsets would stack
        32 MiB of Grams."""
        d = 512
        k = min(w // s, GRAM_FLOATS // (w * w))
        n = (k - 1) * s + w
        H = np.random.default_rng(0).normal(size=(T, d)).astype(np.float32)
        tracemalloc.start()
        try:
            _window_eranks(H, np.asarray(window_starts(T, w, s)), w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (min(T, 2 * w) * d + n * n + 4 * k * w * w)
        print(f"BUDGET test_block_scorer_holds_one_buffer_and_the_block_grams[w{w}] {peak} {bound}")
        assert peak <= bound

    def test_falling_back_block_copies_one_chunk_of_windows_at_a_time(self):
        """At stride 1 a constant stretch sends whole blocks of k = w windows
        to their own rows. Beyond the block scorer's buffer and Grams, such a
        block holds its rows of the trajectory, copied once (4 n d bytes of
        float32), and one chunk of its windows: OWN_ROWS_FLOATS values, or
        one window when a window holds more, copied out and widened (4 + 8
        bytes a value), with a w x w Gram per window. None of that grows
        with k; copying the block's windows all at once would add 12 k w d
        bytes."""
        T, d, w, s = 1024, 512, 64, 1
        k = w // s
        n = (k - 1) * s + w
        H = np.random.default_rng(0).normal(size=(T, d)).astype(np.float32)
        H[300:420] = H[300]
        chunk = max(1, OWN_ROWS_FLOATS // (w * d))
        tracemalloc.start()
        try:
            eranks = _window_eranks(H, np.asarray(window_starts(T, w, s)), w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert eranks[300:357].tolist() == [1.0] * 57  # the windows inside the stretch
        blocks = 8 * (min(T, 2 * w) * d + n * n + 4 * k * w * w)
        bound = blocks + 4 * n * d + chunk * (12 * w * d + 8 * w * w)
        print(f"BUDGET test_falling_back_block_copies_one_chunk_of_windows_at_a_time {peak} {bound}")
        assert peak <= bound

    @pytest.mark.parametrize("most", [1, 2, 3])  # uncapped, a block holds 4 windows
    def test_capped_blocks_score_each_trajectory_as_alone(self, monkeypatch, most):
        """With GRAM_FLOATS cut so that a block holds ``most`` windows, a
        stack still scores bit for bit as each trajectory alone, since the
        cap does not depend on the stack, and each window as its own
        covariance spectrum."""
        w, s = 8, 2
        monkeypatch.setattr(windows, "GRAM_FLOATS", most * w * w)
        states = 3.0 + np.random.default_rng(most).normal(size=(4, 40, 12))
        starts = np.asarray(window_starts(40, w, s))
        eranks = _window_eranks(states, starts, w)
        for g, H in enumerate(states):
            assert eranks[g].tobytes() == _window_eranks(H, starts, w).tobytes()
            expected = [erank_or_floor(covariance_spectrum(H[a:a + w])) for a in starts]
            np.testing.assert_allclose(eranks[g], expected, rtol=1e-12)

    @pytest.mark.parametrize("d", [4, 16])  # w >= d and w < d
    def test_empty_stack_scores_empty(self, d):
        min_erank, ranks = stacked_min_effrank(np.empty((0, 20, d)), 8, 4)
        assert min_erank.shape == ranks.shape == (0,)

    @pytest.mark.parametrize("width, stride", [(8.0, 4), (8, 4.0), (True, 4)])
    def test_non_integer_width_or_stride_refused(self, width, stride):
        states = np.random.default_rng(1).normal(size=(2, 20, 4))
        for call in (lambda: stacked_min_effrank(states, width, stride),
                     lambda: windowed_min_effrank(states[0], width, stride)):
            with pytest.raises(InputError, match="must be an integer") as info:
                call()
            assert info.value.code == "input"

    def test_bad_arguments_rejected(self):
        states = np.random.default_rng(1).normal(size=(2, 20, 4))
        with pytest.raises(InputError):
            stacked_min_effrank(states, width=1)
        with pytest.raises(InputError):
            stacked_min_effrank(states, width=8, stride=0)
        with pytest.raises(TrajectoryTooShortError):
            stacked_min_effrank(states[:, :1], width=8)
