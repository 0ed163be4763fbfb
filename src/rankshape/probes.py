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

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ZeroVarianceError
from .spectral import (
    DEFAULT_ENERGY_THRESHOLD,
    ManifoldBasis,
    _check_int,
    _finite_array,
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
    """Candidate probe vectors in the latent space; probe i is named "probe{i}"."""

    vectors: np.ndarray  # (M, d)

    def __post_init__(self):
        object.__setattr__(self, "vectors", _finite_array(self.vectors, "probe vectors", 2))

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
    """Geometric record of one ejection decision. Its fields, in order, are
    the keys of its JSON record."""

    query_id: str | None
    prefix_length: int
    probe_label: str
    omega: float
    basis_k: int
    warning: bool

    @classmethod
    def from_choice(cls, choice: ProbeChoice, basis: ManifoldBasis, prefix_length: int,
                    query_id: str | None = None) -> "StitchPlan":
        """The record of one selection round. It warns when even the winner
        lies nearly inside the manifold (omega below LOW_OMEGA_THRESHOLD),
        meaning no probe actually escapes. prefix_length is an integer >= 0."""
        prefix_length = _check_int(prefix_length, "prefix_length", low=0)
        return cls(query_id=query_id, prefix_length=prefix_length,
                   probe_label=choice.label, omega=choice.omega, basis_k=basis.k,
                   warning=choice.omega < LOW_OMEGA_THRESHOLD)


def lookahead_manifold(samples, energy_threshold: float = DEFAULT_ENERGY_THRESHOLD) -> ManifoldBasis:
    """Principal subspace of look-ahead states around one prefix.

    ``samples`` is an (N, d) matrix with one summary state per look-ahead,
    N >= 2; principal_subspace checks it.
    """
    try:
        return principal_subspace(samples, energy_threshold)
    except ZeroVarianceError:
        raise ZeroVarianceError("zero-variance look-ahead: all states identical") from None


def orthogonality_score(probe, basis: ManifoldBasis) -> float:
    """Fraction of the centered probe's norm outside the basis span.

    The one-probe case of select_probe, which defines omega; ProbeSet
    checks the probe.
    """
    return select_probe(ProbeSet(vectors=[probe]), basis).omega


def select_probe(probes: ProbeSet, basis: ManifoldBasis) -> ProbeChoice:
    """Pick the most orthogonal probe; ties go to the lowest index.

    Each probe z scores omega = ||(I - U U^T)(z - mean)|| / (||z - mean|| +
    DEFAULT_EPS), which lands in [0, 1): 0 for vectors inside the span, just
    under 1 for vectors orthogonal to it.
    """
    if probes.dim != basis.dim:
        raise InputError(f"probes have dimension {probes.dim}, states have {basis.dim}")
    v, D = probes.vectors - basis.mean, basis.directions
    scores = np.linalg.norm(v - (v @ D) @ D.T, axis=1) / (np.linalg.norm(v, axis=1) + DEFAULT_EPS)
    index = int(np.argmax(scores >= scores.max() - TIE_TOLERANCE))
    return ProbeChoice(index=index, label=f"probe{index}", omega=float(scores[index]))


def plan_stitch(teacher_trace, prefix_length: int, lookahead_states, probes: ProbeSet,
                energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
                query_id: str | None = None) -> StitchPlan:
    """Full ejection decision for one prefix of a teacher trace.

    Builds the look-ahead manifold, scores the probes, and records the
    winner (see StitchPlan.from_choice).
    """
    H = validate_trajectory(teacher_trace)
    _check_int(prefix_length, "prefix_length", 1, H.shape[0])
    basis = lookahead_manifold(lookahead_states, energy_threshold)
    if basis.dim != H.shape[1]:
        raise InputError(
            f"look-ahead states have dimension {basis.dim}, teacher trace has {H.shape[1]}")
    return StitchPlan.from_choice(select_probe(probes, basis), basis, prefix_length, query_id)
