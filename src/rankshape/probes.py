"""Look-ahead manifold extraction and orthogonality scoring for candidate
ejection probes.

The idea: short look-ahead continuations from a reasoning prefix trace out
the local manifold the policy is currently confined to. A probe that is
nearly orthogonal to that manifold (high omega) points somewhere the
policy was not about to go, so stitching it in forces an exit. This module
does the vector geometry and emits the decision record; the text side of
stitching lives elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ZeroVarianceError
from .spectral import (
    DEFAULT_ENERGY_THRESHOLD,
    ManifoldBasis,
    principal_subspace,
    validate_trajectory,
)

DEFAULT_EPS = 1e-8
LOW_OMEGA_THRESHOLD = 0.1
# Scores within this of the maximum count as tied; ties resolve to the
# lowest index for determinism.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ProbeSet:
    """Candidate probe vectors in the latent space, with opaque labels."""

    vectors: np.ndarray  # (M, d)
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise InputError(f"probe vectors must form an (M, d) matrix, got shape {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise InputError("probe vectors contain non-finite values")
        labels = self.labels
        if labels is None:
            labels = tuple(f"probe{i}" for i in range(vectors.shape[0]))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != vectors.shape[0]:
                raise InputError(f"got {len(labels)} labels for {vectors.shape[0]} probes")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@dataclass(frozen=True)
class ProbeChoice:
    """Winning probe of one selection round."""

    index: int
    label: str
    omega: float


@dataclass(frozen=True)
class StitchPlan:
    """Geometric record of one ejection decision."""

    prefix_length: int
    probe_index: int
    probe_label: str
    omega_score: float
    basis_k: int
    warning: bool
    query_id: str | None = None

    def to_record(self) -> dict:
        return {
            "query_id": self.query_id,
            "prefix_length": self.prefix_length,
            "probe_label": self.probe_label,
            "omega": self.omega_score,
            "basis_k": self.basis_k,
            "warning": self.warning,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())

    @classmethod
    def from_choice(cls, choice: ProbeChoice, basis: ManifoldBasis, prefix_length: int,
                    query_id: str | None = None) -> "StitchPlan":
        """The record of one selection round. It warns when even the winner
        lies nearly inside the manifold (omega below LOW_OMEGA_THRESHOLD),
        meaning no probe actually escapes."""
        return cls(prefix_length=int(prefix_length), probe_index=choice.index,
                   probe_label=choice.label, omega_score=choice.omega, basis_k=basis.k,
                   warning=choice.omega < LOW_OMEGA_THRESHOLD, query_id=query_id)


def _stack_lookahead(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        return validate_trajectory(samples)
    mats = [validate_trajectory(m) for m in samples]
    if len(mats) < 2:
        raise InputError("need at least 2 look-ahead samples")
    dims = {m.shape[1] for m in mats}
    if len(dims) != 1:
        raise InputError(f"look-ahead samples disagree on state dimension: {sorted(dims)}")
    return np.vstack(mats)


def lookahead_manifold(samples, energy_threshold: float = DEFAULT_ENERGY_THRESHOLD) -> ManifoldBasis:
    """Principal subspace of look-ahead states around one prefix.

    ``samples`` is either an (N, d) matrix with one summary state per
    look-ahead or an iterable of (T_i, d) trajectories whose rows are
    stacked before the decomposition.
    """
    stacked = _stack_lookahead(samples)
    if stacked.shape[0] < 2:
        raise InputError("need at least 2 look-ahead states")
    try:
        return principal_subspace(stacked, energy_threshold)
    except ZeroVarianceError:
        raise ZeroVarianceError("zero-variance look-ahead: all states identical") from None


def orthogonality_score(probe, basis: ManifoldBasis) -> float:
    """Fraction of the centered probe's norm outside the basis span.

    omega = ||(I - U U^T)(z - mean)|| / (||z - mean|| + DEFAULT_EPS), which lands
    in [0, 1): 0 for vectors inside the span, just under 1 for vectors
    orthogonal to it.
    """
    z = np.asarray(probe, dtype=np.float64)
    if z.ndim != 1 or z.size != basis.dim:
        raise InputError(f"probe must be a {basis.dim}-vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InputError("probe contains non-finite values")
    residual = basis.project_out(z)
    return float(np.linalg.norm(residual) / (np.linalg.norm(z - basis.mean) + DEFAULT_EPS))


def select_probe(probes: ProbeSet, basis: ManifoldBasis) -> ProbeChoice:
    """Pick the most orthogonal probe; ties go to the lowest index."""
    if probes.dim != basis.dim:
        raise InputError(f"probes have dimension {probes.dim}, states have {basis.dim}")
    scores = [orthogonality_score(v, basis) for v in probes.vectors]
    best = max(scores)
    index = next(i for i, s in enumerate(scores) if s >= best - TIE_TOLERANCE)
    return ProbeChoice(index=index, label=probes.labels[index], omega=scores[index])


def plan_stitch(teacher_trace, prefix_length: int, lookahead_states, probes: ProbeSet,
                energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
                query_id: str | None = None) -> StitchPlan:
    """Full ejection decision for one prefix of a teacher trace.

    Builds the look-ahead manifold, scores the probes, and records the
    winner (see StitchPlan.from_choice).
    """
    H = validate_trajectory(teacher_trace)
    if not 1 <= prefix_length <= H.shape[0]:
        raise InputError(f"prefix_length must be in [1, {H.shape[0]}], got {prefix_length}")
    basis = lookahead_manifold(lookahead_states, energy_threshold)
    if basis.dim != H.shape[1]:
        raise InputError(
            f"look-ahead states have dimension {basis.dim}, teacher trace has {H.shape[1]}")
    return StitchPlan.from_choice(select_probe(probes, basis), basis, prefix_length, query_id)
