"""The package's star-import surface and its dependencies."""

import ast
import sys
import types
from pathlib import Path

import pytest

import rankshape

SOURCES = sorted(Path(rankshape.__file__).parent.glob("*.py"))

PUBLIC_NAMES = """
ConfigError DecouplingSample DegenerateDataError DegenerateLabelsError
DegenerateSpectrumError EnvSpec FileFormatError GroupSample GroupSizeError InputError
LogitFit ManifoldBasis NormalizationError PassCounts PolicyParams ProbeChoice ProbeSet
RangeError RankshapeError Rollout RolloutOutcome RunConfig SeparableDataError SimTrace
Spectrum StitchPlan SweepResult TrajectoryTooShortError WindowRankProfile
ZeroVarianceError apply_overrides biased_init build_env center confinement_ratio
covariance_spectrum effective_rank erank_or_floor erank_stack fit_decoupling_logit
gated_rewards geometric_barrier_probe group_advantages grpo_objective
load_decoupling_csv load_run_config lookahead_manifold mean_token_entropy norm_rank
orthogonality_score parse_run_config pass_at_k pass_curve plan_stitch policy_gradient
principal_subspace read_trajectory read_trajectory_with_metadata rollout sample_group
score_group select_probe spectral_entropy stacked_min_effrank temperature_sweep
total_reward train validate_trajectory weighted_log_prob window_starts
windowed_min_effrank write_trajectory
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
