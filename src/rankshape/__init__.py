"""Numerical toolkit for effective-rank trajectory analysis: spectral
metrics, rank-aware reward shaping, orthogonal probe selection, evaluation
statistics, and a desk-scale rank-collapse simulator."""

import types

from .errors import (
    ConfigError,
    DegenerateDataError,
    DegenerateLabelsError,
    DegenerateSpectrumError,
    FileFormatError,
    GroupSizeError,
    InputError,
    NormalizationError,
    RangeError,
    RankshapeError,
    SeparableDataError,
    TrajectoryTooShortError,
    ZeroVarianceError,
)
from .evalstats import (
    DecouplingSample,
    LogitFit,
    PassCounts,
    fit_decoupling_logit,
    load_decoupling_csv,
    pass_at_k,
    pass_curve,
)
from .io import (
    RunConfig,
    apply_overrides,
    load_run_config,
    parse_run_config,
    read_trajectory,
    read_trajectory_with_metadata,
    write_trajectory,
)
from .probes import (
    ProbeChoice,
    ProbeSet,
    StitchPlan,
    lookahead_manifold,
    orthogonality_score,
    plan_stitch,
    select_probe,
)
from .rewards import (
    RolloutOutcome,
    gated_rewards,
    group_advantages,
    total_reward,
)
from .sim import (
    EnvSpec,
    PolicyParams,
    Rollout,
    SimTrace,
    SweepResult,
    biased_init,
    build_env,
    geometric_barrier_probe,
    policy_gradient,
    rollout,
    sample_group,
    temperature_sweep,
    train,
    weighted_log_prob,
)
from .spectral import (
    ManifoldBasis,
    Spectrum,
    covariance_spectrum,
    effective_rank,
    erank_or_floor,
    erank_stack,
    principal_subspace,
    spectral_entropy,
    validate_trajectory,
)
from .windows import (
    WindowRankProfile,
    norm_rank,
    stacked_min_effrank,
    window_starts,
    windowed_min_effrank,
)

__version__ = "0.1.0"

# The import block above is the one list of public names; the submodules
# it binds stay out, so a star import cannot shadow the stdlib io.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
