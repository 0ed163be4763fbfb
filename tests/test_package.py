"""The package's star-import surface and its dependencies."""

import ast
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
parse_run_config pass_at_k pass_curve plan_stitch policy_gradient principal_subspace
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
