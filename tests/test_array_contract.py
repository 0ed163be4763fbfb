"""The array contract of the public surface: every public parameter that
takes an array of numbers (trajectories, stacks, probe vectors, eigenvalues,
logits, advantages, rewards and rank scores), called with awkward arrays,
either returns or raises a RankshapeError. No other exception and no warning
may escape.

The awkward arrays are complex numbers, strings, ragged rows, NaN, inf,
bools, the wrong number of axes and no entries. Trajectory and stack
parameters also get finite rows whose centred products overflow the float
range.

The table checks its own coverage: every public parameter whose value
reaches the array checks (spectral._finite_array, _finite_stack or
validate_trajectory), directly or through the package's own calls, is in
the table or on the exemption list, with its reason. Which parameters reach
them is read from the package source.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np

import rankshape
from rankshape import (
    PolicyParams,
    ProbeSet,
    RankshapeError,
    Spectrum,
    covariance_spectrum,
    erank_stack,
    gated_rewards,
    group_advantages,
    lookahead_manifold,
    orthogonality_score,
    policy_gradient,
    principal_subspace,
    stacked_min_effrank,
    validate_trajectory,
    weighted_log_prob,
    windowed_min_effrank,
    write_trajectory,
)

RNG = np.random.default_rng(0)
H = RNG.normal(size=(20, 4))
LOGITS = np.array([0.5, -0.3, 1.0])
GROUP = dict(logits=LOGITS, scale=1.0, token_seqs=[[0, 1], [2, 2]], advantages=[1.0, -1.0])

# Each awkward value by the kind of array a parameter takes.
AWKWARD = {
    "vector": {
        "complex": [1 + 1j, 2.0],
        "strings": ["1", "a"],
        "ragged": [[1.0], [1.0, 2.0]],
        "nan": [1.0, math.nan],
        "inf": [math.inf, 1.0],
        "bools": [True, False],
        "matrix": [[1.0, 2.0], [3.0, 4.0]],
        "scalar": 3.0,
        "empty": [],
    },
    "matrix": {
        "complex": np.ones((3, 2)) * (1 + 1j),
        "strings": [["1", "2"], ["3", "a"]],
        "ragged": [[1.0, 2.0], [3.0]],
        "nan": [[1.0, 2.0], [3.0, math.nan]],
        "inf": [[1.0, 2.0], [math.inf, 4.0]],
        "bools": [[True, False], [False, True]],
        "vector": [1.0, 2.0, 3.0],
        "stack": np.ones((2, 3, 2)),
        "no rows": np.zeros((0, 2)),
        "no columns": np.zeros((3, 0)),
    },
    "stack": {
        "complex": np.ones((2, 3, 2)) * (1 + 1j),
        "strings": [[["1", "2"], ["3", "a"]]],
        "ragged": [[[1.0, 2.0], [3.0]]],
        "nan": [[[1.0, 2.0], [3.0, math.nan]]],
        "inf": [[[1.0, 2.0], [math.inf, 4.0]]],
        "bools": np.ones((2, 3, 2), dtype=bool),
        "vector": [1.0, 2.0, 3.0],
        "scalar": 3.0,
        "no rows": np.zeros((2, 0, 3)),
        "no columns": np.zeros((2, 3, 0)),
    },
}
OVERFLOW_ROWS = {
    "overflow 3x5": np.array([[1e200, 0, 0, 0, 0], [0, 1e200, 0, 0, 0],
                              [-1e200, -1e200, 0, 0, 0]]),
    "overflow 3x2": np.array([[1e200, 0], [0, 1e200], [-1e200, -1e200]]),
}
AWKWARD["trajectory"] = {**AWKWARD["matrix"], **OVERFLOW_ROWS}
AWKWARD["trajectory stack"] = {**AWKWARD["stack"],
                               **{k: np.stack([v, v]) for k, v in OVERFLOW_ROWS.items()}}

# name: (call, the arguments every call passes, {array parameter: kind}).
TABLE = {
    "validate_trajectory": (validate_trajectory, dict(values=H), {"values": "trajectory"}),
    "covariance_spectrum": (covariance_spectrum, dict(H=H), {"H": "trajectory"}),
    "windowed_min_effrank": (windowed_min_effrank, dict(H=H, width=2, stride=1),
                             {"H": "trajectory"}),
    "principal_subspace": (principal_subspace, dict(H=H), {"H": "trajectory"}),
    "lookahead_manifold": (lookahead_manifold, dict(samples=H), {"samples": "trajectory"}),
    # The test runs in a temporary directory, so a write that is not refused
    # leaves nothing behind.
    "write_trajectory": (write_trajectory, dict(path="t.hstb", H=H), {"H": "trajectory"}),
    "erank_stack": (erank_stack, dict(H=H[None]), {"H": "trajectory stack"}),
    "stacked_min_effrank": (stacked_min_effrank, dict(states=H[None], width=2, stride=1),
                            {"states": "trajectory stack"}),
    "Spectrum": (Spectrum, dict(eigenvalues=[2.0, 1.0]), {"eigenvalues": "vector"}),
    "ProbeSet": (ProbeSet, dict(vectors=H[:3]), {"vectors": "matrix"}),
    "orthogonality_score": (orthogonality_score,
                            dict(probe=H[0], basis=lookahead_manifold(H)), {"probe": "vector"}),
    "PolicyParams": (PolicyParams, dict(logits=LOGITS), {"logits": "vector"}),
    "policy_gradient": (policy_gradient, GROUP,
                        {"logits": "vector", "advantages": "vector", "token_seqs": "matrix"}),
    "weighted_log_prob": (weighted_log_prob, GROUP,
                          {"logits": "vector", "advantages": "vector", "token_seqs": "matrix"}),
    "gated_rewards": (gated_rewards, dict(correct=[True, False], norm_rank=[0.5, 0.2]),
                      {"norm_rank": "vector", "correct": "vector"}),
    "group_advantages": (group_advantages, dict(rewards=[1.0, 0.0]), {"rewards": "vector"}),
}

# "name(parameter)": the reason a public parameter that reaches an array
# check is not varied in TABLE. None is exempt today.
EXEMPT = {}

CHECKS = ("_finite_array", "_finite_stack")


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


def test_every_awkward_array_returns_or_raises_a_documented_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tally = {"returned": 0, "documented": 0}
    raw = []
    for name, (call, base, parameters) in sorted(TABLE.items()):
        assert outcome(call, base) == "returned", name
        for parameter, kind in parameters.items():
            for label, value in AWKWARD[kind].items():
                result = outcome(call, {**base, parameter: value})
                if result in tally:
                    tally[result] += 1
                else:
                    raw.append(f"{name}({parameter}={label}): {result}")
    calls = sum(tally.values()) + len(raw)
    print(f"ARRAYS {calls} calls: {tally['returned']} returned, "
          f"{tally['documented']} documented errors, {len(raw)} raw escapes")
    assert not raw, "\n".join(raw)


def callables(tree: ast.Module) -> dict[str, tuple[list[str], list[ast.AST]]]:
    """Each function of a module and each dataclass with a __post_init__, by
    name: its parameters (a dataclass's are its fields, in order) and the
    bodies its calls are read from."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            found[node.name] = ([a.arg for a in args.posonlyargs + args.args + args.kwonlyargs],
                                node.body)
        elif isinstance(node, ast.ClassDef):
            post_init = [n for n in node.body
                         if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"]
            if post_init:
                fields = [n.target.id for n in node.body
                          if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
                found[node.name] = (fields, post_init[0].body)
    return found


def passed_names(arg: ast.AST, parameters: list[str]) -> set[str]:
    """The parameters an argument passes as they are: a parameter's name,
    ``self.<field>``, or either inside a list or tuple literal."""
    if isinstance(arg, (ast.List, ast.Tuple)):
        return set().union(*(passed_names(item, parameters) for item in arg.elts))
    if isinstance(arg, ast.Name):
        name = arg.id
    elif (isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
          and arg.value.id == "self"):
        name = arg.attr
    else:
        return set()
    return {name} & set(parameters)


def reaching_parameters() -> dict[str, set[str]]:
    """Each callable of the package, by name, with the parameters whose
    values reach the array checks, as a fixpoint over the package's calls."""
    package = Path(rankshape.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        found.update(callables(ast.parse(path.read_text(encoding="utf-8"))))
    reach = {name: set() for name in found}
    reach.update({check: {found[check][0][0]} for check in CHECKS})
    changed = True
    while changed:
        changed = False
        for name, (parameters, body) in found.items():
            for node in ast.walk(ast.Module(body=body, type_ignores=[])):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee not in found or callee == name:
                    continue
                callee_parameters = found[callee][0]
                pairs = list(zip(callee_parameters, node.args))
                pairs += [(k.arg, k.value) for k in node.keywords if k.arg]
                for target, arg in pairs:
                    if target in reach[callee]:
                        new = passed_names(arg, parameters) - reach[name]
                        if new:
                            reach[name] |= new
                            changed = True
    return reach


def test_the_table_covers_every_public_array_parameter():
    reach = reaching_parameters()
    public = {name: reach[name] for name in rankshape.__all__ if reach.get(name)}
    # The analysis sees the direct checks and the calls that pass an array on.
    assert public["validate_trajectory"] == {"values"}
    assert public["lookahead_manifold"] == {"samples"}
    assert public["orthogonality_score"] == {"probe"}
    assert public["policy_gradient"] == {"logits", "advantages"}
    for name, parameters in sorted(public.items()):
        for parameter in sorted(parameters):
            listed = name in TABLE and parameter in TABLE[name][2]
            assert listed or f"{name}({parameter})" in EXEMPT, (
                f"{name}({parameter}) reaches an array check but is neither in TABLE nor EXEMPT")
    for key in EXEMPT:
        name, parameter = key.rstrip(")").split("(")
        assert parameter in public.get(name, ()), f"EXEMPT lists {key}, which reaches no check"
