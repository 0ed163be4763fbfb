"""The package's star-import surface and its dependencies."""

import ast
import dataclasses
import re
import sys
import types
from pathlib import Path

import pytest

import rankshape
from test_trace_sites import import_sites

SOURCES = sorted(Path(rankshape.__file__).parent.glob("*.py"))

PUBLIC_NAMES = """
ConfigError DecouplingSample DegenerateDataError DegenerateLabelsError
DegenerateSpectrumError EnvSpec FileFormatError GroupSizeError InputError LogitFit
ManifoldBasis NormalizationError PassCounts PolicyParams ProbeChoice ProbeSet RangeError
RankshapeError Rollout RolloutOutcome RunConfig SeparableDataError SimTrace Spectrum
StitchPlan SweepResult TrajectoryTooShortError WindowRankProfile ZeroVarianceError
apply_overrides biased_init build_env covariance_spectrum effective_rank erank_or_floor
erank_stack fit_decoupling_logit gated_rewards geometric_barrier_probe group_advantages
load_decoupling_csv load_run_config lookahead_manifold norm_rank orthogonality_score
parse_run_config pass_at_k pass_curve policy_gradient principal_subspace
read_trajectory read_trajectory_with_metadata rollout sample_group select_probe
spectral_entropy stacked_min_effrank temperature_sweep total_reward train
validate_trajectory weighted_log_prob window_starts windowed_min_effrank
write_trajectory
""".split()


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from rankshape import *", namespace)
    del namespace["__builtins__"]
    assert sorted(rankshape.__all__) == sorted(PUBLIC_NAMES)
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    # In particular the rankshape.io submodule cannot shadow the stdlib io.
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_rankshape(path):
    """pyproject.toml declares numpy as the only dependency."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "rankshape"}
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported - allowed == set()


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    """No module-level import goes unused. __init__.py is left out: its
    import block is the export list. An import marked ``# noqa: F401`` may
    keep only the names that perfbench/spans.py traces where this module
    imports them (its IMPORT_SITES)."""
    traced = {attr for module, attr, _ in import_sites() if module == f"rankshape.{path.stem}"}
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        kept = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and not (kept and name in traced):
                unused.append(name)
    assert unused == [], f"{path.name} never uses {unused}"


# Records the CLI writes whole: every field reaches a file or stdout, read by
# attribute or not.
CLI_RECORDS = {
    "LogitFit": "fit-decouple prints dataclasses.asdict of the fit",
    "StitchPlan": "soe-select prints dataclasses.asdict of the plan",
    "RunConfig": "simulate writes dataclasses.asdict of the resolved config",
    "SimTrace": "to_csv writes the columns named in SimTrace.COLUMNS",
}

# Public attributes that no module reads, each kept for a stated reason.
UNREAD_BUT_KEPT = {
    "Rollout.tokens": "the one rollout's token ids, what rollout returns to a caller",
    "Rollout.states": "the one rollout's (horizon, d) states, what rollout returns to a caller",
    "ProbeChoice.index": "the winner's row in the probe set; the label only names it",
    "SimTrace.final_policy": "the policy a run ends with; the acceptance checks evaluate it",
    "Spectrum.nonzero_count": "the spectrum's numerical rank, the bound that erank stays under",
    "SweepResult.mean_erank": "temperature_sweep's result, which an acceptance check reads",
    "SweepResult.std_error": "temperature_sweep's sampling error, beside its means",
    "WindowRankProfile.starts": "the scored windows' first rows; perfbench/spans.py counts them",
}


def record_fields(cls) -> set[str]:
    if cls is rankshape.SimTrace:
        return {name for name, _ in cls.COLUMNS}
    return {field.name for field in dataclasses.fields(cls)}


def public_attributes() -> dict[str, type]:
    """Each public field, property, method and constant that a public class
    of rankshape.__all__ defines or inherits from rankshape, as "Class.attr",
    mapped to the class."""
    found = {}
    for name in rankshape.__all__:
        cls = getattr(rankshape, name)
        if not isinstance(cls, type):
            continue
        for klass in cls.__mro__:
            if not klass.__module__.startswith("rankshape"):
                continue
            attrs = set(vars(klass))
            if dataclasses.is_dataclass(klass):
                attrs |= {field.name for field in dataclasses.fields(klass)}
            found.update({f"{name}.{a}": cls for a in attrs if not a.startswith("_")})
    return found


def test_every_public_attribute_has_a_reader():
    """Each public attribute is read by attribute somewhere in the package
    (matched by name, on any object), is a field of a record the CLI writes
    whole, or is kept in UNREAD_BUT_KEPT with its reason."""
    names_read = {node.attr for path in SOURCES
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read, record, exempt, unread = [], [], [], []
    for qualified, cls in sorted(public_attributes().items()):
        attr = qualified.split(".")[1]
        if attr in names_read:
            read.append(qualified)
        elif cls.__name__ in CLI_RECORDS and attr in record_fields(cls):
            record.append(qualified)
        elif qualified in UNREAD_BUT_KEPT:
            exempt.append(qualified)
        else:
            unread.append(qualified)
    assert unread == [], f"public attributes that nothing reads: {unread}"
    # Each exemption is still needed: it names an attribute that exists and
    # that neither a read nor a record covers.
    assert sorted(UNREAD_BUT_KEPT) == exempt, sorted(set(UNREAD_BUT_KEPT) - set(exempt))
    print(f"\nCENSUS {len(read) + len(record) + len(exempt)} attributes: {len(read)} read, "
          f"{len(record)} record fields, {len(exempt)} exempt")


TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

# The checks whose names stay however the library shrinks: the acceptance
# criteria, the property-test and window oracles, and the benchmark's
# reference test.
KEEPING_TESTS = ("test_acceptance.py", "test_properties.py", "test_window_oracle.py",
                 "test_benchmark_reference.py")

# Public names that nothing reads, each kept for a stated reason.
NAMES_UNREAD_BUT_KEPT = {
    "gated_rewards": "train runs its core, rewards._gated",
    "geometric_barrier_probe": "SOE stage-1 geometry, which ROADMAP item 6 decides",
}


def names_loaded(paths) -> set[str]:
    """Every name that a Name or Attribute node loads in these sources."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_reader():
    """Each name of rankshape.__all__ is loaded by a package module other
    than __init__.py (whose import block only lists the names) or by a
    keeping test, appears in perfbench's sources (read as text, without
    importing perfbench), or is kept in NAMES_UNREAD_BUT_KEPT with its
    reason."""
    loaded = names_loaded([p for p in SOURCES if p.name != "__init__.py"]
                          + [TESTS / name for name in KEEPING_TESTS])
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    read, exempt, unread = [], [], []
    for name in sorted(rankshape.__all__):
        if name in loaded or re.search(rf"\b{name}\b", bench):
            read.append(name)
        elif name in NAMES_UNREAD_BUT_KEPT:
            exempt.append(name)
        else:
            unread.append(name)
    assert unread == [], f"public names that nothing reads: {unread}"
    # Each exemption is still needed: it names a public name that no read covers.
    assert sorted(NAMES_UNREAD_BUT_KEPT) == exempt, sorted(set(NAMES_UNREAD_BUT_KEPT) - set(exempt))
    print(f"\nNAMES {len(read) + len(exempt)} names: {len(read)} read, {len(exempt)} exempt")
