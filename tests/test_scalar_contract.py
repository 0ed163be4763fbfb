"""The scalar contract of the public surface: every public callable that
takes a number, called with awkward values for each numeric argument, either
returns or raises a RankshapeError. No other exception and no warning may
escape.

The table also checks its own coverage: every public callable, dataclass or
public method with an int- or float-annotated parameter is in the table or
on the exemption list, with its reason.

The verdict table does the same for the one verdict rule: every public
``correct`` parameter refuses what is not a bool or an integer 0 or 1, and
stores what it accepts as a Python bool.

The stack table does it for the stack check of the two public functions
that take a (..., T, d) stack of trajectories: each refuses what is not a
finite real stack and scores what is, as it scores its float64 image.

The sequence table does it for the six parameters that take a sequence of
items: a bare scalar there is an InputError, not a raw TypeError.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import rankshape
from rankshape import (
    DecouplingSample,
    InputError,
    PassCounts,
    ProbeSet,
    RankshapeError,
    RolloutOutcome,
    RunConfig,
    StitchPlan,
    apply_overrides,
    biased_init,
    build_env,
    erank_stack,
    fit_decoupling_logit,
    gated_rewards,
    geometric_barrier_probe,
    lookahead_manifold,
    pass_at_k,
    pass_curve,
    policy_gradient,
    principal_subspace,
    rollout,
    sample_group,
    select_probe,
    stacked_min_effrank,
    temperature_sweep,
    total_reward,
    train,
    weighted_log_prob,
    window_starts,
    windowed_min_effrank,
)

AWKWARD = [2.5, True, math.nan, math.inf, "3", None, -1, 2**40, 2**70, np.float64(3.0)]

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


REFUSED_VERDICTS = ["abc", "true", 1.0, np.float64(0), math.nan, 2, -1, None]
ACCEPTED_VERDICTS = [True, np.True_, 1, 0, np.int8(1), np.uint8(0)]

# name: a call that takes one verdict and returns the verdict it stored. A
# gated reward is positive exactly when its verdict is correct.
VERDICT_TABLE = {
    "RolloutOutcome": lambda v: RolloutOutcome(correct=v, norm_rank=0.5).correct,
    "DecouplingSample": lambda v: DecouplingSample(eff_rank=2.0, entropy=0.5, correct=v).correct,
    "gated_rewards": lambda v: bool(gated_rewards([v], [0.5])[0] > 0),
}
VERDICT_EXEMPT = {"Rollout": "a record of rollout's result, whose verdicts sample_group computes"}


def test_every_verdict_is_refused_or_stored_as_a_bool():
    tally = {"refused": 0, "accepted": 0}
    wrong = []
    for name, call in sorted(VERDICT_TABLE.items()):
        for value, valid in ([(v, False) for v in REFUSED_VERDICTS]
                             + [(v, True) for v in ACCEPTED_VERDICTS]):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    stored = call(value)
            except RankshapeError:
                result = "refused"
            except Exception as exc:  # any other escape is what this test reports
                wrong.append(f"{name}({value!r}): {type(exc).__name__}: {exc}")
                continue
            else:
                result = "accepted"
            tally[result] += 1
            if valid and not (result == "accepted" and type(stored) is bool
                              and stored == bool(value)):
                wrong.append(f"{name}({value!r}) {result}, not stored as {bool(value)}")
            elif not valid and result != "refused":
                wrong.append(f"{name}({value!r}) accepted as {stored!r}")
    calls = len(VERDICT_TABLE) * (len(REFUSED_VERDICTS) + len(ACCEPTED_VERDICTS))
    print(f"VERDICTS {calls} calls: {tally['refused']} refused, {tally['accepted']} accepted, "
          f"{calls - sum(tally.values())} raw")
    assert not wrong, "\n".join(wrong)


def test_the_verdict_table_covers_every_correct_parameter():
    found = set()
    for name in rankshape.__all__:
        try:
            parameters = inspect.signature(getattr(rankshape, name)).parameters
        except (TypeError, ValueError):
            continue
        if "correct" in parameters:
            found.add(name)
    assert found == set(VERDICT_TABLE) | set(VERDICT_EXEMPT)


NAN_DEEP_IN_A_STACK = np.random.default_rng(0).normal(size=(2, 40, 8))
NAN_DEEP_IN_A_STACK[1, 30, 5] = math.nan
REFUSED_STACKS = {
    "strings": np.array([["1", "2"], ["3", "4"]]),
    "nan": np.array([[[math.nan, 2.0], [3.0, 4.0]]]),
    "nan deep in a stack": NAN_DEEP_IN_A_STACK,
    "inf in a list": [[[1.0, 2.0], [math.inf, 4.0]]],
    "int past the float range": [[[10**400, 2], [3, 4]]],
    "complex": np.ones((2, 3, 2)) * (1 + 1j),
    "bools": np.ones((2, 3, 2), dtype=bool),
    "ragged": [[[1.0, 2.0], [3.0]]],
    "None entry": [[[1.0, None], [3.0, 4.0]]],
    "None": None,
    "scalar": 3.0,
    "vector": [1.0, 2.0, 3.0],
    "no rows": np.empty((2, 0, 3)),
    "no columns": np.empty((2, 3, 0)),
}
ACCEPTED_STACKS = {
    "float64": STATES,
    "float32": STATES.astype(np.float32),
    "list": STATES.tolist(),
    "ints": np.arange(24).reshape(2, 4, 3) % 5,
    "one trajectory": H,
    "empty stack": np.empty((0, 20, 4)),
}
STACK_TABLE = {
    "erank_stack": erank_stack,
    "stacked_min_effrank": lambda stack: stacked_min_effrank(stack, 8, 4),
}


def test_every_stack_is_refused_or_scored_as_its_float64_image():
    tally = {"refused": 0, "scored": 0}
    wrong = []
    for name, call in sorted(STACK_TABLE.items()):
        for label, stack, valid in ([(k, v, False) for k, v in REFUSED_STACKS.items()]
                                    + [(k, v, True) for k, v in ACCEPTED_STACKS.items()]):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    scored = call(stack)
            except RankshapeError:
                result = "refused"
            except Exception as exc:  # any other escape is what this test reports
                wrong.append(f"{name}({label}): {type(exc).__name__}: {exc}")
                continue
            else:
                result = "scored"
            tally[result] += 1
            if valid and not (result == "scored" and np.array_equal(
                    scored, call(np.asarray(stack, dtype=np.float64)))):
                wrong.append(f"{name}({label}) {result}, not as its float64 image")
            elif not valid and result != "refused":
                wrong.append(f"{name}({label}) scored as {scored!r}")
    calls = len(STACK_TABLE) * (len(REFUSED_STACKS) + len(ACCEPTED_STACKS))
    print(f"STACKS {calls} calls: {tally['refused']} refused, {tally['scored']} scored, "
          f"{calls - sum(tally.values())} raw escapes")
    assert not wrong, "\n".join(wrong)


# name: a call that takes one sequence.
SEQUENCE_TABLE = {
    "pass_curve(ks)": lambda v: pass_curve(PassCounts(4, (1,)), v),
    "PassCounts(counts)": lambda v: PassCounts(4, v),
    "sample_group(seeds)": lambda v: sample_group(POLICY, ENV, v),
    "temperature_sweep(scales)": lambda v: temperature_sweep(POLICY, ENV, v, 2),
    "fit_decoupling_logit(samples)": fit_decoupling_logit,
    "apply_overrides(assignments)": lambda v: apply_overrides(RunConfig(), v),
}


@pytest.mark.parametrize("value", [3, 2.5, np.array(3), None], ids=["int", "float", "0-d", "None"])
@pytest.mark.parametrize("name", sorted(SEQUENCE_TABLE))
def test_a_bare_scalar_where_a_sequence_belongs_is_an_input_error(name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="must be a sequence, got "):
            SEQUENCE_TABLE[name](value)
