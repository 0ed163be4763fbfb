"""train's loop against the loop it replaced.

train checks its arguments once and then runs the unchecked cores of the
GRPO group step on the arrays it builds. reference_train is the loop built
from the public functions, each of which checks its input on every call.
The two must give the same trace, bit for bit.

train is one consumer of the one training loop, sim._iterations. Consuming
the loop directly gives train's trace, and each record it yields describes
the policy before that iteration's update.
"""

import numpy as np
import pytest

from rankshape import (
    RunConfig,
    biased_init,
    build_env,
    gated_rewards,
    group_advantages,
    policy_gradient,
    sample_group,
    stacked_min_effrank,
    train,
)
from rankshape import rewards, sim, spectral, windows


def reference_train(env, init, alpha, group_size=RunConfig.group_size,
                    iterations=RunConfig.iterations, learning_rate=RunConfig.learning_rate,
                    seed=RunConfig.train_seed, window=RunConfig.window, stride=RunConfig.stride):
    """The trace columns and final logits of train, from the public functions."""
    policy = init.copy()
    rows = []
    for it in range(iterations):
        tokens, states, correct = sample_group(policy, env,
                                               [[seed, it, i] for i in range(group_size)])
        min_eranks, norm_ranks = stacked_min_effrank(states, window, stride)
        group_rewards = gated_rewards(correct, norm_ranks, alpha)
        advantages = group_advantages(group_rewards)
        rows.append((np.mean(min_eranks), np.mean(correct), group_rewards.mean(),
                     policy.entropy()))
        grad = policy_gradient(policy.logits, 1.0, tokens, advantages)
        with np.errstate(over="ignore"):
            policy.logits += learning_rate * grad
    return np.array(rows).T, policy.logits


CASES = {
    "defaults": (3, {}),
    "window8_stride3": (1, dict(window=8, stride=3, iterations=120)),
    "group_size3": (2, dict(group_size=3, iterations=120)),
    "70_iterations": (4, dict(iterations=70)),  # crosses UNIFORM_BLOCK's blocks of 32
    "alpha_1e300": (5, dict(alpha=1e300, iterations=120)),  # rewards past 2**500
    "learning_rate_0": (6, dict(learning_rate=0.0, iterations=60)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_train_equals_the_public_function_loop(name):
    env_seed, kwargs = CASES[name]
    kwargs = {"alpha": 0.5, "seed": env_seed + 100, **kwargs}
    env = build_env(env_seed)
    trace = train(env, biased_init(env), **kwargs)
    columns, logits = reference_train(env, biased_init(env), **kwargs)
    got = [trace.mean_windowed_erank, trace.success_rate, trace.mean_reward,
           trace.policy_entropy]
    for column, expected in zip(got, columns):
        assert np.array_equal(column, expected)
    assert np.array_equal(trace.final_policy.logits, logits)


# The checked public functions that train's loop used to call, where the
# loop could look them up.
CHECKED = [
    (sim, "policy_gradient"), (sim, "weighted_log_prob"), (sim, "group_advantages"),
    (sim, "total_reward"), (sim, "windowed_min_effrank"), (sim, "sample_group"),
    (sim, "rollout"), (sim, "_checked_group"),
    (rewards, "gated_rewards"), (rewards, "group_advantages"), (rewards, "total_reward"),
    (windows, "stacked_min_effrank"), (windows, "windowed_min_effrank"),
    (sim.PolicyParams, "probs"), (sim.PolicyParams, "entropy"),
]


def test_train_runs_without_the_checked_public_functions(monkeypatch):
    env = build_env(2)
    expected = train(env, biased_init(env), alpha=0.5, iterations=40, window=8, stride=3)

    def fail(*args, **kwargs):
        raise AssertionError("train's loop called a checked public function")

    for owner, name in CHECKED:
        monkeypatch.setattr(owner, name, fail)
    trace = train(env, biased_init(env), alpha=0.5, iterations=40, window=8, stride=3)
    assert np.array_equal(trace.mean_windowed_erank, expected.mean_windowed_erank)
    assert np.array_equal(trace.final_policy.logits, expected.final_policy.logits)


CHECKS = ("_finite_array", "_check_int", "_check_real", "_within", "check_alpha",
          "_check_policy", "_check_draws", "_check_memory", "window_starts")


def test_train_checks_once_whatever_the_iteration_count(monkeypatch):
    calls = []

    def counted(name, check):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)
        return wrapper

    for module in (sim, rewards, spectral, windows):
        for name in CHECKS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    env = build_env(0)
    counts = []
    for iterations in (1, 40):
        calls.clear()
        train(env, biased_init(env), alpha=0.5, iterations=iterations)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert "check_alpha" in counts[0] and "window_starts" in counts[0]


def checked_iterations(env, init, alpha, group_size=RunConfig.group_size,
                       iterations=RunConfig.iterations, learning_rate=RunConfig.learning_rate,
                       seed=RunConfig.train_seed, window=RunConfig.window,
                       stride=RunConfig.stride):
    """The logits and the records of sim._iterations on train's arguments,
    with the window plan train makes of them."""
    logits = init.copy().logits
    starts, w, r_max = windows._window_plan(env.horizon, env.d, window, stride)
    return logits, sim._iterations(env, logits, alpha, group_size, iterations, learning_rate,
                                   seed, np.asarray(starts), w, r_max)


@pytest.mark.parametrize("name", sorted(CASES))
def test_consuming_the_loop_reproduces_train(name):
    env_seed, kwargs = CASES[name]
    kwargs = {"alpha": 0.5, "seed": env_seed + 100, **kwargs}
    env = build_env(env_seed)
    trace = train(env, biased_init(env), **kwargs)
    logits, records = checked_iterations(env, biased_init(env), **kwargs)
    rows = [(np.mean(min_eranks), np.mean(correct), np.mean(rewards),
             spectral.entropy_rows(p)) for p, correct, min_eranks, rewards in records]
    got = [trace.mean_windowed_erank, trace.success_rate, trace.mean_reward,
           trace.policy_entropy]
    for column, expected in zip(got, np.array(rows).T):
        assert np.array_equal(column, expected)
    assert np.array_equal(trace.final_policy.logits, logits)


@pytest.mark.parametrize("it", [1, 33, 70])  # 33 and 70 cross UNIFORM_BLOCK's blocks of 32
def test_each_record_describes_the_policy_before_its_update(it):
    env = build_env(4)
    kwargs = dict(alpha=0.5, seed=104)
    logits, records = checked_iterations(env, biased_init(env), iterations=it + 1, **kwargs)
    # The record, and the logits as the loop holds them when it yields the record.
    p, held = [(record[0], logits.copy()) for record in records][it]
    ended = train(env, biased_init(env), iterations=it, **kwargs).final_policy
    assert np.array_equal(p, sim._softmax(ended.logits))
    assert np.array_equal(held, ended.logits)
