"""The scalar contract of the public surface: every public callable that
takes a number, called with awkward values for each numeric argument, either
returns or raises a RankshapeError. No other exception and no warning may
escape.

The table also checks its own coverage: every public callable, dataclass or
public method with an int- or float-annotated parameter is in the table or
on the exemption list, with its reason.
"""

import inspect
import math
import warnings

import numpy as np

import rankshape
from rankshape import (
    DecouplingSample,
    PassCounts,
    ProbeSet,
    RankshapeError,
    RolloutOutcome,
    StitchPlan,
    biased_init,
    build_env,
    gated_rewards,
    geometric_barrier_probe,
    lookahead_manifold,
    pass_at_k,
    pass_curve,
    plan_stitch,
    policy_gradient,
    principal_subspace,
    rollout,
    select_probe,
    stacked_min_effrank,
    temperature_sweep,
    total_reward,
    train,
    weighted_log_prob,
    window_starts,
    windowed_min_effrank,
)

AWKWARD = [2.5, True, math.nan, math.inf, "3", None, -1, 2**70, np.float64(3.0)]

ENV = build_env(0)
POLICY = biased_init(ENV)
RNG = np.random.default_rng(0)
H = RNG.normal(size=(20, 4))
STATES = RNG.normal(size=(2, 20, 4))
PROBES = ProbeSet(RNG.normal(size=(3, 4)))
BASIS = lookahead_manifold(H)
LOGITS = np.array([0.5, -0.3, 1.0])
GROUP = dict(token_seqs=[[0, 1], [2, 2]], advantages=[1.0, -1.0])

# name: (call, the arguments every call passes, the numeric arguments varied).
# An argument in LISTED takes its awkward value as the one item of a list.
TABLE = {
    "build_env": (build_env, dict(seed=0),
                  ["seed", "d", "vocab", "bias_dim", "n_null", "tau", "horizon", "decay"]),
    "biased_init": (biased_init, dict(env=ENV), ["offset"]),
    "rollout": (rollout, dict(policy=POLICY, env=ENV, seed=0), ["seed"]),
    "train": (train, dict(env=ENV, init_policy=POLICY, alpha=0.5, iterations=2),
              ["alpha", "group_size", "iterations", "learning_rate", "seed", "window",
               "stride"]),
    "temperature_sweep": (temperature_sweep,
                          dict(policy=POLICY, env=ENV, scales=[1.0], samples_per_scale=2),
                          ["scales", "samples_per_scale", "seed"]),
    "geometric_barrier_probe": (geometric_barrier_probe,
                                dict(policy=POLICY, env=ENV, delta=0.3, samples=2),
                                ["delta", "samples", "seed"]),
    "policy_gradient": (policy_gradient, dict(logits=LOGITS, scale=1.0, **GROUP), ["scale"]),
    "weighted_log_prob": (weighted_log_prob, dict(logits=LOGITS, scale=1.0, **GROUP),
                          ["scale"]),
    "RolloutOutcome": (RolloutOutcome, dict(correct=True, norm_rank=0.5), ["norm_rank"]),
    "gated_rewards": (gated_rewards, dict(correct=[True], norm_rank=[0.5]), ["alpha"]),
    "total_reward": (total_reward, dict(outcome=RolloutOutcome(True, 0.5)), ["alpha"]),
    "DecouplingSample": (DecouplingSample, dict(eff_rank=2.0, entropy=0.5, correct=True),
                         ["eff_rank", "entropy"]),
    "PassCounts": (PassCounts, dict(n=4, counts=[1]), ["n", "counts"]),
    "pass_at_k": (pass_at_k, dict(n=4, c=1, k=2), ["n", "c", "k"]),
    "pass_curve": (pass_curve, dict(pc=PassCounts(4, (1,)), ks=[2]), ["ks"]),
    "principal_subspace": (principal_subspace, dict(H=H), ["energy_threshold"]),
    "lookahead_manifold": (lookahead_manifold, dict(samples=H), ["energy_threshold"]),
    "plan_stitch": (plan_stitch, dict(teacher_trace=H, prefix_length=3, lookahead_states=H,
                                      probes=PROBES),
                    ["prefix_length", "energy_threshold"]),
    "StitchPlan.from_choice": (StitchPlan.from_choice,
                               dict(choice=select_probe(PROBES, BASIS), basis=BASIS,
                                    prefix_length=3),
                               ["prefix_length"]),
    "window_starts": (window_starts, dict(T=100, width=64, stride=16), ["T", "width", "stride"]),
    "windowed_min_effrank": (windowed_min_effrank, dict(H=H, width=8, stride=4),
                             ["width", "stride"]),
    "stacked_min_effrank": (stacked_min_effrank, dict(states=STATES, width=8, stride=4),
                            ["width", "stride"]),
}
LISTED = {"scales", "counts", "ks"}

# Plain records: their fields are the values a computation returned or a
# config file held, and the functions that take them check what they use.
EXEMPT = {
    "EnvSpec": "a record that build_env fills from its checked arguments",
    "LogitFit": "a record of fit_decoupling_logit's result",
    "ProbeChoice": "a record of select_probe's result",
    "RunConfig": "a config record; build_env and train check the values it holds",
    "StitchPlan": "a record that StitchPlan.from_choice fills from its checked arguments",
    "WindowRankProfile": "a record of windowed_min_effrank's result",
}


def numeric_parameters(obj) -> list[str]:
    """The parameters of a callable annotated int or float."""
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return []
    return [p.name for p in parameters if p.annotation in (int, float, "int", "float")]


def public_numeric_callables() -> dict[str, list[str]]:
    """Each public callable, dataclass and public method of a public class
    with a numeric parameter, by name, with those parameters."""
    found = {}
    for name in rankshape.__all__:
        obj = getattr(rankshape, name)
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                        if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr))]
        for qualname, member in members:
            parameters = numeric_parameters(member) if callable(member) else []
            if parameters:
                found[qualname] = parameters
    return found


def outcome(call, kwargs) -> str:
    """What a call did: "returned", "documented" (it raised a RankshapeError),
    or the exception that escaped, warnings included."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(**kwargs)
    except RankshapeError:
        return "documented"
    except Exception as exc:  # any other escape is what this test reports
        return f"{type(exc).__name__}: {exc}"
    return "returned"


def test_every_numeric_argument_returns_or_raises_a_documented_error():
    tally = {"returned": 0, "documented": 0}
    raw = []
    for name, (call, base, arguments) in sorted(TABLE.items()):
        for argument in arguments:
            for value in AWKWARD:
                kwargs = {**base, argument: [value] if argument in LISTED else value}
                result = outcome(call, kwargs)
                if result in tally:
                    tally[result] += 1
                else:
                    raw.append(f"{name}({argument}={value!r}): {result}")
    calls = sum(tally.values()) + len(raw)
    print(f"CONTRACT {calls} calls: {tally['returned']} returned, "
          f"{tally['documented']} documented errors, {len(raw)} raw")
    assert not raw, "\n".join(raw)


def test_the_table_covers_every_numeric_parameter():
    found = public_numeric_callables()
    assert set(EXEMPT) <= set(found), sorted(set(EXEMPT) - set(found))
    assert not set(TABLE) & set(EXEMPT)
    for name, parameters in found.items():
        if name in EXEMPT:
            continue
        assert name in TABLE, f"{name} takes {parameters} but is neither in TABLE nor EXEMPT"
        missing = set(parameters) - set(TABLE[name][2])
        assert not missing, f"TABLE varies none of {name}'s {sorted(missing)}"
