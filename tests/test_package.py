"""The package's star-import surface."""

import types

import rankshape

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
