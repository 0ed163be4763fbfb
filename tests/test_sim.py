import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    GroupSizeError,
    InputError,
    PolicyParams,
    RangeError,
    SimTrace,
    TrajectoryTooShortError,
    biased_init,
    build_env,
    covariance_spectrum,
    effective_rank,
    geometric_barrier_probe,
    policy_gradient,
    rollout,
    sample_group,
    temperature_sweep,
    train,
    weighted_log_prob,
)
from rankshape import sim


def pinned_policy(env, token_id):
    """Essentially deterministic policy on one token."""
    logits = np.zeros(env.vocab)
    logits[token_id] = 30.0
    return PolicyParams(logits=logits)


class TestBuildEnv:
    def test_deterministic_per_seed(self):
        a = build_env(7)
        b = build_env(7)
        npt.assert_array_equal(a.directions, b.directions)
        npt.assert_array_equal(a.u_star, b.u_star)
        npt.assert_array_equal(a.bias_basis, b.bias_basis)

    def test_seeds_differ(self):
        assert not np.array_equal(build_env(0).directions, build_env(1).directions)

    def test_unit_token_directions(self):
        env = build_env(0)
        npt.assert_allclose(np.linalg.norm(env.directions, axis=1), 1.0, atol=1e-10)

    def test_target_orthogonal_to_bias_subspace(self):
        env = build_env(1)
        npt.assert_allclose(env.bias_basis.T @ env.u_star, 0.0, atol=1e-10)
        assert abs(np.linalg.norm(env.u_star) - 1.0) < 1e-10

    def test_bias_tokens_inside_subspace(self):
        env = build_env(2)
        B = env.bias_basis
        for v in env.directions[:env.n_bias]:
            residual = v - B @ (B.T @ v)
            assert np.linalg.norm(residual) < 1e-10

    def test_null_tokens_mostly_outside_subspace(self):
        env = build_env(3)
        B = env.bias_basis
        for v in env.directions[env.n_bias:]:
            outside = np.linalg.norm(v - B @ (B.T @ v))
            assert outside >= 0.8

    def test_boundary_parameters_accepted(self):
        env = build_env(0, d=5, vocab=6, bias_dim=4, n_null=1)
        assert env.n_bias == 5

    def test_parameter_violations(self):
        with pytest.raises(InputError):
            build_env(-1)
        with pytest.raises(InputError):
            build_env(0, d=4, bias_dim=4)
        with pytest.raises(InputError):
            build_env(0, vocab=8, n_null=8)
        with pytest.raises(InputError):
            build_env(0, decay=1.0)
        with pytest.raises(InputError):
            build_env(0, horizon=0)

    @pytest.mark.parametrize("size", [{"d": 16.0}, {"vocab": 32.5}, {"n_null": 8.0},
                                      {"bias_dim": 4.0}, {"horizon": 32.5}, {"horizon": True}],
                             ids=["d", "vocab", "n_null", "bias_dim", "horizon", "horizon-bool"])
    def test_sizes_must_be_integers(self, size):
        name = next(iter(size))
        with pytest.raises(InputError, match=f"^{name} must be an integer") as info:
            build_env(0, **size)
        assert info.value.code == "input"


class TestPolicyParams:
    def test_probs_normalized(self):
        p = PolicyParams(np.array([2.0, 0.0, -1.0])).probs()
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0.0)

    def test_entropy_uniform(self):
        policy = PolicyParams(np.zeros(8))
        assert abs(policy.entropy() - np.log(8.0)) < 1e-12

    def test_scale_sharpens(self):
        logits = np.array([1.0, 0.0, -1.0])
        soft = PolicyParams(logits).entropy()
        sharp = PolicyParams(5.0 * logits).entropy()
        assert sharp < soft


class TestRollout:
    def test_shapes_and_determinism(self):
        env = build_env(0)
        policy = biased_init(env)
        a = rollout(policy, env, 42)
        b = rollout(policy, env, 42)
        assert a.tokens.shape == (env.horizon,)
        assert a.states.shape == (env.horizon, env.d)
        npt.assert_array_equal(a.tokens, b.tokens)
        npt.assert_array_equal(a.states, b.states)

    def test_single_bias_token_is_incorrect_rank_one(self):
        env = build_env(2)
        r = rollout(pinned_policy(env, 0), env, 3)
        assert np.all(r.tokens == 0)
        assert r.correct is False
        assert abs(effective_rank(covariance_spectrum(r.states)) - 1.0) < 1e-9

    def test_single_null_token_is_correct(self):
        env = build_env(2)
        r = rollout(pinned_policy(env, env.n_bias), env, 3)
        assert r.correct is True

    def test_recurrence_definition(self):
        env = build_env(3, horizon=5)
        r = rollout(biased_init(env), env, 11)
        h = np.zeros(env.d)
        for t, a in enumerate(r.tokens):
            h = env.decay * h + env.directions[a]
            npt.assert_allclose(r.states[t], h, atol=1e-12)

    def test_token_frequencies_match_policy(self):
        env = build_env(4, horizon=32)
        rng_logits = np.random.default_rng(5).normal(size=env.vocab)
        policy = PolicyParams(rng_logits)
        p = policy.probs()
        draws = 100_000
        counts = np.zeros(env.vocab)
        n_rollouts = draws // env.horizon
        for i in range(n_rollouts):
            r = rollout(policy, env, np.random.SeedSequence([9, i]))
            counts += np.bincount(r.tokens, minlength=env.vocab)
        total = n_rollouts * env.horizon
        freq = counts / total
        se = np.sqrt(p * (1.0 - p) / total)
        assert np.all(np.abs(freq - p) <= 3.0 * se + 1e-12)

    def test_vocab_mismatch_rejected(self):
        env = build_env(0)
        with pytest.raises(InputError):
            rollout(PolicyParams(np.zeros(env.vocab + 1)), env, 0)


def reference_rollout(policy, env, seed):
    """One rollout by the per-step loop: (tokens, states, correct)."""
    rng = np.random.default_rng(seed)
    tokens = rng.choice(env.vocab, size=env.horizon, p=policy.probs())
    states = np.empty((env.horizon, env.d))
    h = np.zeros(env.d)
    for t, a in enumerate(tokens):
        h = env.decay * h + env.directions[a]
        states[t] = h
    final = states[-1]
    norm = float(np.linalg.norm(final))
    correct = norm > 0.0 and float(final @ env.u_star) / norm >= env.tau
    return tokens, states, bool(correct)


class TestSampleGroup:
    @pytest.mark.parametrize("env_seed, kind, group", [
        (0, "biased", 8), (1, "random", 64), (2, "null", 4), (3, "random", 1),
    ])
    def test_equals_separate_rollouts(self, env_seed, kind, group):
        env = build_env(env_seed)
        if kind == "biased":
            policy = biased_init(env)
        elif kind == "null":
            policy = pinned_policy(env, env.n_bias)
        else:
            policy = PolicyParams(np.random.default_rng(env_seed).normal(size=env.vocab))
        seeds = [np.random.SeedSequence([5, env_seed, i]) for i in range(group)]
        tokens, states, correct = sample_group(policy, env, seeds)
        assert tokens.shape == (group, env.horizon)
        assert states.shape == (group, env.horizon, env.d)
        for i, seed in enumerate(seeds):
            ref_tokens, ref_states, ref_correct = reference_rollout(policy, env, seed)
            npt.assert_array_equal(tokens[i], ref_tokens)
            npt.assert_array_equal(states[i], ref_states)
            assert bool(correct[i]) == ref_correct
        if kind == "random" and group > 1:
            assert 0 < int(correct.sum()) < group

    def test_rollout_is_group_of_one(self):
        env = build_env(4)
        policy = biased_init(env)
        r = rollout(policy, env, 9)
        tokens, states, correct = sample_group(policy, env, [9])
        npt.assert_array_equal(r.tokens, tokens[0])
        npt.assert_array_equal(r.states, states[0])
        assert r.correct is bool(correct[0])


def test_tokens_equal_generator_choice():
    """Over 3,000 random policies, at several vocab sizes and horizons and with
    logits from flat to peaked enough that softmax underflows to exact zeros,
    sample_group's tokens are Generator.choice's draws."""
    rng = np.random.default_rng(2024)
    envs = [build_env(s, d=4, vocab=vocab, bias_dim=2, n_null=1, horizon=horizon)
            for s, (vocab, horizon) in enumerate([(2, 1), (2, 9), (3, 1), (5, 4), (32, 32),
                                                  (64, 3)])]
    zeros_seen = 0
    for _ in range(3000):
        env = envs[int(rng.integers(len(envs)))]
        scale = float(rng.choice([0.01, 1.0, 10.0, 300.0, 3000.0]))
        policy = PolicyParams(scale * rng.normal(size=env.vocab))
        p = policy.probs()
        seeds = [int(rng.integers(2**32)) if rng.random() < 0.5
                 else np.random.SeedSequence([int(rng.integers(2**32)), i])
                 for i in range(int(rng.integers(1, 4)))]
        tokens, _, _ = sample_group(policy, env, seeds)
        for row, seed in zip(tokens, seeds):
            expected = np.random.default_rng(seed).choice(env.vocab, size=env.horizon, p=p)
            assert np.array_equal(row, expected)
        assert np.all(p[tokens] > 0.0)
        zeros_seen += int(np.any(p == 0.0))
    assert zeros_seen > 100


def numpy_uniforms(seed, horizon):
    return np.random.default_rng(seed).random(horizon)


def drawn_uniforms(seeds, horizon):
    """sim._uniforms of same-length seed words, as one (N, horizon) call."""
    return sim._uniforms(np.array([sim._seed_words(s) for s in seeds], dtype=np.uint32),
                         horizon)


SS = np.random.SeedSequence


def seed_id(seed):
    return f"SeedSequence({seed.entropy})" if isinstance(seed, SS) else repr(seed)


@pytest.mark.parametrize("horizon", [1, 2, 37])
@pytest.mark.parametrize("seed", [
    0, 1, 7, 2**31 + 5, 2**32 - 1, 2**32, 2**64 + 5, 99999999999999999999999, np.uint64(2**63),
    np.int8(3), [3, 2**40], (0, 0), SS(0), SS([]), SS([5, 0, 0, 0]), SS([1, 2, 3, 4, 5]),
    SS(list(range(11))), SS([2**40, 7, 2**70]), SS((3, np.uint32(2**32 - 1))), SS([[1, 2], [3]]),
], ids=seed_id)
def test_uniforms_equal_numpy(seed, horizon):
    """The drawer's uniforms are default_rng(seed).random(horizon), bit for bit."""
    u = drawn_uniforms([seed], horizon)
    assert u.shape == (1, horizon)
    assert np.array_equal(u[0].view(np.int64), numpy_uniforms(seed, horizon).view(np.int64))


def test_uniforms_equal_numpy_over_random_entropy():
    rng = np.random.default_rng(17)

    def number(nbytes):  # a random number of 0 to 8 * nbytes bits
        return int.from_bytes(rng.bytes(nbytes), "little") >> int(rng.integers(8 * nbytes + 1))

    by_length = {}
    for _ in range(600):
        entropy = ([number(16) for _ in range(int(rng.integers(0, 8)))] if rng.random() < 0.8
                   else number(32))
        seed = SS(entropy)
        by_length.setdefault(len(sim._seed_words(seed)), []).append(seed)
    assert max(by_length) >= 10
    for seeds in by_length.values():
        horizon = int(rng.integers(1, 40))
        u = drawn_uniforms(seeds, horizon)
        for row, seed in zip(u, seeds):
            assert np.array_equal(row.view(np.int64),
                                  numpy_uniforms(seed, horizon).view(np.int64)), seed


def test_uniforms_equal_numpy_across_draw_chunks():
    """A group large enough that its draws are computed in several chunks,
    the last one partial."""
    seeds = [SS([k, 3]) for k in range(300)]
    width = sim._DRAW_CHUNK // len(seeds)
    horizon = 3 * width + 1
    u = drawn_uniforms(seeds, horizon)
    expected = np.array([numpy_uniforms(seed, horizon) for seed in seeds])
    assert np.array_equal(u.view(np.int64), expected.view(np.int64))


def test_group_of_mixed_seed_lengths_equals_generator_choice():
    env = build_env(3)
    policy = PolicyParams(np.random.default_rng(3).normal(size=env.vocab))
    seeds = [0, SS([1, 2, 3, 4, 5, 6]), 2**64 + 5, SS([9, 1]), 4, SS([1, 2, 3, 4, 5, 7])]
    tokens, _, _ = sample_group(policy, env, seeds)
    for row, seed in zip(tokens, seeds):
        expected = np.random.default_rng(seed).choice(env.vocab, size=env.horizon,
                                                      p=policy.probs())
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("seed", [
    np.random.default_rng(0), np.random.PCG64(0), -1, True, None, 1.5, "7", [1, -2],
    np.array([1, 2]), SS(np.array([1, 2])), SS(1, pool_size=8), SS(1).spawn(1)[0],
], ids=["Generator", "PCG64", "negative", "bool", "None", "float", "str", "negative-item",
        "array", "array-entropy", "pool-size-8", "spawn-key"])
def test_seeds_the_drawer_cannot_reproduce_are_refused(seed):
    env = build_env(0)
    with pytest.raises(InputError, match=r"seed must be (an integer|>= 0)|pool_size 4"):
        sample_group(biased_init(env), env, [3, seed])


def test_train_tokens_equal_per_rollout_generators(monkeypatch):
    """Across several blocks of drawn iterations (the last one partial), each
    iteration's tokens are Generator.choice's from SeedSequence([seed, it, i])."""
    env = build_env(6, horizon=64)
    group, seed = 16, 2**70 + 11  # a 3-word seed: rows of 5 words
    block = sim.UNIFORM_BLOCK // (group * env.horizon)
    iterations = 2 * block + 3
    seen = []
    core = sim._sample

    def spy(p, env, u, steps):
        out = core(p, env, u, steps)
        seen.append((p.copy(), out[0]))
        return out

    monkeypatch.setattr(sim, "_sample", spy)
    train(env, biased_init(env), alpha=0.5, group_size=group, iterations=iterations, seed=seed)
    assert len(seen) == iterations
    for it, (p, tokens) in enumerate(seen):
        for i, row in enumerate(tokens):
            expected = np.random.default_rng(SS([seed, it, i])).choice(
                env.vocab, size=env.horizon, p=p)
            assert np.array_equal(row, expected), (it, i)


def test_empty_seed_list_refused():
    env = build_env(0)
    with pytest.raises(InputError, match="empty group"):
        sample_group(biased_init(env), env, [])


class TestPolicyGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            V = int(rng.integers(2, 9))
            T = int(rng.integers(1, 5))
            logits = rng.normal(size=V)
            scale = float(rng.uniform(0.5, 2.0))
            seqs = [rng.integers(0, V, size=T) for _ in range(4)]
            adv = rng.normal(size=4)
            grad = policy_gradient(logits, scale, seqs, adv)
            step = 1e-5
            for j in range(V):
                bump = np.zeros(V)
                bump[j] = step
                numeric = (weighted_log_prob(logits + bump, scale, seqs, adv)
                           - weighted_log_prob(logits - bump, scale, seqs, adv)) / (2 * step)
                denom = max(abs(numeric), abs(grad[j]), 1e-8)
                assert abs(grad[j] - numeric) / denom < 1e-4

    def test_zero_advantages_zero_gradient(self):
        logits = np.array([0.3, -0.2, 0.9])
        grad = policy_gradient(logits, 1.0, [np.array([0, 1, 2])], [0.0])
        npt.assert_allclose(grad, 0.0)

    def test_equals_per_rollout_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            V = int(rng.integers(2, 40))
            G = int(rng.integers(1, 12))
            T = int(rng.integers(1, 40))
            logits = rng.normal(size=V)
            scale = float(rng.uniform(0.5, 2.0))
            tokens = rng.integers(0, V, size=(G, T))
            adv = rng.normal(size=G)
            # The per-rollout loop of earlier versions, as the reference.
            p = PolicyParams(scale * logits).probs()
            grad = np.zeros(V)
            for seq, a in zip(tokens, adv):
                grad += a * (np.bincount(seq, minlength=V) - seq.size * p)
            npt.assert_array_equal(policy_gradient(logits, scale, tokens, adv), scale * grad)
            weighted = sum(a * np.log(p)[seq].sum() for seq, a in zip(tokens, adv))
            npt.assert_allclose(weighted_log_prob(logits, scale, tokens, adv), weighted,
                                rtol=1e-12)

    @pytest.mark.parametrize("tokens, adv, match", [
        ([[0, 1], [1, 2]], [1.0], r"advantages \(1,\)"),
        ([[0, 1], [1, 2]], [1.0, 2.0, 3.0], r"advantages \(3,\)"),
        ([[0, 1], [1]], [1.0, 2.0], "same length"),
        ([[0, -1], [1, 2]], [1.0, 2.0], r"token ids must be in \[0, 3\)"),
        ([[0, 1], [1, 3]], [1.0, 2.0], r"token ids must be in \[0, 3\)"),
        ([0, 1, 2], [1.0], r"shape \(3,\)"),
        ([[0.0, 1.0]], [1.0], "float64 tokens"),
    ], ids=["too-few-advantages", "too-many-advantages", "ragged", "negative-id",
            "id-at-vocab", "one-dimensional", "float-tokens"])
    @pytest.mark.parametrize("fn", [policy_gradient, weighted_log_prob])
    def test_malformed_group_rejected(self, fn, tokens, adv, match):
        with pytest.raises(InputError, match=match):
            fn(np.zeros(3), 1.0, tokens, adv)

    @pytest.mark.parametrize("logits, scale, match", [
        ([1.0, np.inf, 0.0], 1.0, "logits must be finite"),
        ([np.nan, 1.0, 0.0], 1.0, "logits must be finite"),
        (["a", "b", "c"], 1.0, "logits must be a numeric vector"),
        ([[1.0, 0.0, 0.0]], 1.0, "logits must be 1-D"),
        ([10.0, 0.0, 0.0], 1e308, "overflows the float range"),
    ], ids=["inf", "nan", "strings", "two-dimensional", "scaled-overflow"])
    @pytest.mark.parametrize("fn", [policy_gradient, weighted_log_prob])
    def test_logits_are_checked(self, fn, logits, scale, match):
        with pytest.raises(InputError, match=match):
            fn(logits, scale, [[0, 1], [1, 2]], [1.0, -1.0])


    @pytest.mark.parametrize("adv, match", [
        ([np.nan, 1.0], "advantages must be finite"),
        ([np.inf, 1.0], "advantages must be finite"),
        ([None, 1.0], "advantages must be finite"),
        (["1", "2"], "advantages must be a numeric vector"),
    ], ids=["nan", "inf", "none", "text"])
    @pytest.mark.parametrize("fn", [policy_gradient, weighted_log_prob])
    def test_advantages_are_checked(self, fn, adv, match):
        with pytest.raises(InputError, match=match):
            fn([0.0, 5.0], 1.0, [[0, 0], [1, 1]], adv)

    @pytest.mark.parametrize("fn, logits, scale, tokens, adv", [
        (policy_gradient, [1e-300, 0.0], 1e308, [[0, 1]], [2.0]),
        (policy_gradient, [0.0, 5.0], 1.0, [[0, 0], [0, 0]], [1e308, 1e308]),
        (policy_gradient, [0.0, 5.0], 1.0, [[0, 0], [0, 0]], [1e308, -1e308]),
        (weighted_log_prob, [0.0, 5.0], 1.0, [[0, 0], [1, 1]], [1e308, 1e308]),
        (weighted_log_prob, [0.0, 5.0], 1.0, [[0, 0], [1, 1]], [1e308, -1e308]),
        (weighted_log_prob, [1e308, -1e308], 1.0, [[0, 1]], [1.0]),
    ], ids=["gradient-scale", "gradient-advantages", "gradient-mixed-signs",
            "weighted-advantages", "weighted-mixed-signs", "weighted-logit-spread"])
    def test_result_past_the_float_range_refused(self, fn, logits, scale, tokens, adv):
        with pytest.raises(InputError, match="overflows the float range") as info:
            fn(logits, scale, tokens, adv)
        assert info.value.code == "input"

    def test_finite_result_of_extreme_advantages_returned(self):
        assert weighted_log_prob([0.0, 5.0], 1.0, [[1, 1], [1, 1]], [1e308, -1e308]) == 0.0
        npt.assert_array_equal(policy_gradient([1e308, -1e308], 1.0, [[0, 1]], [1.0]),
                               [-1.0, 1.0])

    def test_undrawn_token_at_minus_inf_adds_nothing(self):
        # The logit spread underflows token 1's probability to 0, so its
        # log-probability is -inf; only a group that draws it is refused.
        assert weighted_log_prob([1e308, -1e308], 1.0, [[0, 0]], [1.0]) == 0.0
        with pytest.raises(InputError, match="overflows the float range"):
            weighted_log_prob([1e308, -1e308], 1.0, [[1, 1]], [1.0])

    def test_zero_advantage_rollout_at_minus_inf_adds_nothing(self):
        # Rollout 0 drew token 1, whose log-probability is -inf, but its
        # advantage is 0: it adds nothing to the sum, as it adds nothing to
        # the gradient, instead of 0 * -inf = NaN.
        group = ([1e308, -1e308], 1.0, [[1, 1], [0, 0]], [0.0, 1.0])
        assert weighted_log_prob(*group) == 0.0
        assert np.array_equal(policy_gradient(*group), [0.0, 0.0])


class TestTrain:
    def test_zero_learning_rate_keeps_policy(self):
        env = build_env(0)
        init = biased_init(env)
        trace = train(env, init, alpha=0.5, iterations=10, learning_rate=0.0, seed=3)
        npt.assert_array_equal(trace.final_policy.logits, init.logits)

    def test_bit_reproducible(self):
        env = build_env(1)
        init = biased_init(env)
        a = train(env, init, alpha=0.5, iterations=15, seed=4)
        b = train(env, init, alpha=0.5, iterations=15, seed=4)
        npt.assert_array_equal(a.mean_windowed_erank, b.mean_windowed_erank)
        npt.assert_array_equal(a.success_rate, b.success_rate)
        npt.assert_array_equal(a.final_policy.logits, b.final_policy.logits)

    def test_does_not_mutate_init_policy(self):
        env = build_env(2)
        init = biased_init(env)
        before = init.logits.copy()
        train(env, init, alpha=0.0, iterations=5, seed=0)
        npt.assert_array_equal(init.logits, before)

    def test_trace_shapes(self):
        env = build_env(3)
        trace = train(env, biased_init(env), alpha=0.25, iterations=12, seed=5)
        assert len(trace) == 12
        assert trace.iteration[0] == 0 and trace.iteration[-1] == 11
        assert np.all(np.isfinite(trace.mean_windowed_erank))
        assert np.all((trace.success_rate >= 0.0) & (trace.success_rate <= 1.0))

    def test_init_logits_edited_to_nan_rejected(self):
        env = build_env(0)
        init = biased_init(env)
        init.logits[0] = np.nan
        with pytest.raises(InputError, match="logits must be finite"):
            train(env, init, alpha=0.5, iterations=1)

    def test_overflowing_learning_rate_rejected(self):
        env = build_env(0)
        with pytest.raises(InputError, match="logits must be finite"):
            train(env, biased_init(env), alpha=0.5, iterations=4, learning_rate=1e308)

    def test_parameter_violations(self):
        env = build_env(0)
        init = biased_init(env)
        with pytest.raises(GroupSizeError):
            train(env, init, alpha=0.0, group_size=1)
        for alpha in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InputError, match="alpha"):
                train(env, init, alpha=alpha)
        with pytest.raises(InputError):
            train(env, init, alpha=0.0, iterations=0)
        with pytest.raises(InputError):
            train(env, init, alpha=0.0, seed=-2)


@pytest.mark.parametrize("change, error, match", [
    ({"horizon": 1}, TrajectoryTooShortError, "trajectory too short"),
    ({"window": 1}, InputError, "window width must be >= 2"),
    ({"stride": 0}, InputError, "stride must be >= 1"),
    ({"seed": True}, InputError, "seed must be an integer, got True"),
    ({"vocab": 3}, InputError, "logits for a 32-token vocabulary"),
    ({"iterations": 2**32 + 1}, InputError, "iterations and group_size must be <= 4294967296"),
    ({"iterations": 2.5}, InputError, "iterations must be an integer"),
    ({"window": 8.0}, InputError, "window width must be an integer"),
    ({"stride": 4.0}, InputError, "stride must be an integer"),
], ids=["horizon-1", "window-1", "stride-0", "bool-seed", "vocab-mismatch", "iterations",
        "iterations-float", "window-float", "stride-float"])
def test_train_checks_every_argument_before_drawing(monkeypatch, change, error, match):
    def no_draws(*args):
        raise AssertionError("train drew uniforms before refusing its arguments")

    monkeypatch.setattr(sim, "_uniforms", no_draws)
    kwargs = dict(change)
    env = build_env(0, horizon=kwargs.pop("horizon", 32))
    init = PolicyParams(np.zeros(kwargs.pop("vocab", env.vocab)))
    with pytest.raises(error, match=match) as info:
        train(env, init, alpha=0.5, **kwargs)
    assert info.value.code == error.code


SEED_ENTRY_POINTS = {
    "build_env": lambda env, seed: build_env(seed),
    "train": lambda env, seed: train(env, biased_init(env), alpha=0.5, iterations=1, seed=seed),
    "temperature_sweep": lambda env, seed: temperature_sweep(
        biased_init(env), env, [1.0, 2.0], 2, seed=seed),
    "geometric_barrier_probe": lambda env, seed: geometric_barrier_probe(
        biased_init(env), env, 0.3, 2, seed=seed),
}


DRAW_ENTRY_POINTS = {
    "train": lambda env, n: train(env, biased_init(env), alpha=0.5, group_size=n),
    "temperature_sweep": lambda env, n: temperature_sweep(biased_init(env), env, [1.0], n),
    "geometric_barrier_probe": lambda env, n: geometric_barrier_probe(
        biased_init(env), env, 0.3, n),
}


@pytest.mark.parametrize("entry", sorted(DRAW_ENTRY_POINTS))
def test_draws_beyond_physical_memory_refused(entry):
    with pytest.raises(InputError, match="^1000000000000 draws of horizon 32 and dimension 16"):
        DRAW_ENTRY_POINTS[entry](build_env(0), 10**12)


@pytest.mark.parametrize("seeds", [
    range(1000),
    iter(range(1000)),
    [0] * 999 + [-1],  # refused for its size before its last seed is checked
], ids=["range", "iterator", "list"])
def test_sample_group_refuses_a_group_the_host_cannot_hold(seeds, monkeypatch):
    env = build_env(0)
    policy = biased_init(env)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    with pytest.raises(InputError, match=r"^1000 draws of horizon 32 and dimension 16 need "
                                         r"0\.00381 GiB of states, more than this host's "
                                         r"0\.000977 GiB"):
        sample_group(policy, env, seeds)


def test_sample_group_refuses_a_range_too_long_for_len(monkeypatch):
    """len of a range past sys.maxsize raises OverflowError; the memory rule
    refuses the group as at least sys.maxsize + 1 draws, before any seed is
    read."""
    env = build_env(0)
    policy = biased_init(env)

    def no_draw(seed):
        raise AssertionError("a seed was read")

    monkeypatch.setattr(sim, "_seed_words", no_draw)
    with pytest.raises(InputError, match=rf"^at least {sys.maxsize + 1} draws of horizon 32 "
                                         r"and dimension 16 need .* GiB of states, more than "
                                         r"this host's"):
        sample_group(policy, env, range(2**64))


# Each Monte Carlo estimate, with the entropy of its samples' seeds in order.
MONTE_CARLO = {
    "temperature_sweep": (
        lambda env: temperature_sweep(biased_init(env), env, [1.0, 2.0], 16, seed=11),
        [[11, j, i] for j in range(2) for i in range(16)]),
    "geometric_barrier_probe": (
        lambda env: geometric_barrier_probe(PolicyParams(np.zeros(env.vocab)), env, 0.5, 64,
                                            seed=11),
        [[11, i] for i in range(64)]),
}


@pytest.mark.parametrize("entry", sorted(MONTE_CARLO))
def test_entropy_lists_draw_as_seed_sequences(entry, monkeypatch):
    # Sample i's seed is its entropy list, which draws the rollout that
    # SeedSequence(entropy) does, so the estimate is the same.
    env = build_env(2)
    call, entropy = MONTE_CARLO[entry]
    seeds = []
    listed = call(env)

    def via_seed_sequences(policy, env, group):
        seeds.extend(group)
        return sample_group(policy, env, [np.random.SeedSequence(s) for s in group])

    monkeypatch.setattr(sim, "sample_group", via_seed_sequences)
    assert call(env) == listed
    assert seeds == entropy


@pytest.mark.parametrize("entry", sorted(DRAW_ENTRY_POINTS))
@pytest.mark.parametrize("count", [2.5, 8.0, True])
def test_draw_counts_must_be_integers(entry, count):
    with pytest.raises(InputError, match="must be an integer") as info:
        DRAW_ENTRY_POINTS[entry](build_env(0), count)
    assert info.value.code == "input"


def test_env_frame_beyond_physical_memory_refused():
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="^dimension 100000 needs 74.5 GiB for its "
                                             "100000 x 100000 frame"):
            build_env(0, d=100000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
def test_seed_must_be_a_non_negative_integer(entry, seed):
    with pytest.raises(InputError, match=r"seed must be (an integer|>= 0), got "):
        SEED_ENTRY_POINTS[entry](build_env(0), seed)


# Every entry point that takes a seed, the drawer's included.
ALL_SEED_ENTRY_POINTS = {
    **SEED_ENTRY_POINTS,
    "sample_group": lambda env, seed: sample_group(biased_init(env), env, [seed]),
    "rollout": lambda env, seed: rollout(biased_init(env), env, seed),
}


@pytest.mark.parametrize("seed, message", [
    (-1, r"^seed must be >= 0, got -1$"),
    (1.5, r"^seed must be an integer, got 1\.5$"),
    (True, r"^seed must be an integer, got True$"),
], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("entry", sorted(ALL_SEED_ENTRY_POINTS))
def test_every_seed_entry_point_words_the_integer_rule(entry, seed, message):
    with pytest.raises(InputError, match=message):
        ALL_SEED_ENTRY_POINTS[entry](build_env(0), seed)


@pytest.mark.parametrize("entry", ["train", "temperature_sweep", "geometric_barrier_probe"])
def test_a_list_seed_is_refused_where_one_seed_is_asked(entry):
    # sample_group reproduces list seeds, but these entry points take one integer.
    with pytest.raises(InputError, match=r"^seed must be an integer, got \[1, 2\]$"):
        SEED_ENTRY_POINTS[entry](build_env(0), [1, 2])


GOLDEN = json.loads((Path(__file__).parent / "golden_train.json").read_text())


class TestTrainGolden:
    """Short runs recorded with the per-rollout train loop, before the group step."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_recorded_run(self, name):
        rec = GOLDEN[name]
        windowing = {key: rec[key] for key in ("window", "stride") if key in rec}
        env = build_env(rec["env_seed"])
        trace = train(env, biased_init(env), alpha=rec["alpha"], iterations=rec["iterations"],
                      seed=rec["seed"], **windowing)
        npt.assert_allclose(trace.mean_windowed_erank, rec["mean_windowed_erank"],
                            rtol=1e-12, atol=1e-12)
        npt.assert_allclose(trace.success_rate, rec["success_rate"], rtol=1e-12, atol=1e-12)
        npt.assert_allclose(trace.final_policy.logits, rec["final_logits"],
                            rtol=1e-12, atol=1e-12)


class TestSimTraceCsv:
    def test_round_trip(self, tmp_path):
        env = build_env(4)
        trace = train(env, biased_init(env), alpha=0.5, iterations=8, seed=6)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = SimTrace.from_csv(path)
        npt.assert_array_equal(loaded.iteration, trace.iteration)
        npt.assert_array_equal(loaded.mean_windowed_erank, trace.mean_windowed_erank)
        npt.assert_array_equal(loaded.policy_entropy, trace.policy_entropy)

    def test_bytes_survive_a_round_trip(self, tmp_path):
        env = build_env(5)
        trace = train(env, biased_init(env), alpha=0.5, iterations=6, seed=2)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        trace.to_csv(first)
        SimTrace.from_csv(first).to_csv(second)
        assert second.read_bytes() == first.read_bytes()
        assert first.read_text().splitlines()[1].split(",")[0] == "0"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError):
            SimTrace.from_csv(path)

    @pytest.mark.parametrize("rows", ["", "0,1.0,0.5,0.5\n", "0,1.0,0.5,0.5,1.0,2\n"],
                             ids=["no-rows", "short-row", "long-row"])
    def test_malformed_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "trace.csv"
        path.write_text(SimTrace.CSV_HEADER + "\n" + rows)
        with pytest.raises(InputError) as info:
            SimTrace.from_csv(path)
        assert str(info.value) == f"malformed trace CSV: {path}"


class TestTemperatureSweep:
    def test_pinned_policy_stays_rank_one(self):
        env = build_env(5)
        result = temperature_sweep(pinned_policy(env, 0), env, [1.0, 2.0], 20, seed=0)
        assert all(abs(m - 1.0) < 1e-6 for m in result.mean_erank)

    def test_sharper_scales_lower_rank(self):
        env = build_env(6)
        policy = PolicyParams(np.random.default_rng(7).normal(size=env.vocab))
        result = temperature_sweep(policy, env, [1.0, 8.0], 100, seed=1)
        assert result.mean_erank[1] < result.mean_erank[0]

    def test_parameter_violations(self):
        env = build_env(0)
        policy = biased_init(env)
        with pytest.raises(InputError):
            temperature_sweep(policy, env, [], 10)
        with pytest.raises(InputError):
            temperature_sweep(policy, env, [2.0, 1.0], 10)
        with pytest.raises(InputError):
            temperature_sweep(policy, env, [1.0, -2.0], 10)
        with pytest.raises(RangeError):
            temperature_sweep(policy, env, [1.0, 2.0], 0)


class TestGeometricBarrierProbe:
    def test_bias_policy_never_escapes(self):
        env = build_env(7)
        assert geometric_barrier_probe(pinned_policy(env, 0), env, 0.3, 200, seed=0) == 0.0

    def test_null_policy_escapes(self):
        env = build_env(7)
        policy = pinned_policy(env, env.n_bias)
        assert geometric_barrier_probe(policy, env, 0.3, 200, seed=0) > 0.9

    def test_parameter_violations(self):
        env = build_env(0)
        policy = biased_init(env)
        with pytest.raises(RangeError):
            geometric_barrier_probe(policy, env, 0.0, 10)
        with pytest.raises(RangeError):
            geometric_barrier_probe(policy, env, 0.3, 0)
