import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    InputError,
    ProbeChoice,
    ProbeSet,
    StitchPlan,
    ZeroVarianceError,
    lookahead_manifold,
    orthogonality_score,
    plan_stitch,
    principal_subspace,
    select_probe,
)
from rankshape.probes import LOW_OMEGA_THRESHOLD, TIE_TOLERANCE

EPS = 1e-8


def planar_basis(d=4, spread=2.0, n=40, seed=0):
    """States spanning exactly the first two coordinates, zero mean."""
    rng = np.random.default_rng(seed)
    coords = rng.normal(scale=spread, size=(n, 2))
    coords -= coords.mean(axis=0)
    H = np.zeros((n, d))
    H[:, :2] = coords
    return principal_subspace(H, 0.999)


class TestProbeSet:
    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            ProbeSet(np.array([[1.0, np.nan]]))

    def test_rejects_1d(self):
        with pytest.raises(InputError):
            ProbeSet(np.ones(3))

    @pytest.mark.parametrize("make", [
        lambda v: ProbeSet(v),
        lambda v: orthogonality_score(v[0], planar_basis()),
    ], ids=["ProbeSet", "orthogonality_score"])
    def test_rejects_complex(self, make):
        with pytest.raises(InputError, match="probe vectors must be real"):
            make(np.array([[1.0, 2.0j, 0.0, 0.0]]))

    def test_non_numeric_is_an_input_error(self):
        with pytest.raises(InputError, match="probe vectors must be a numeric matrix"):
            ProbeSet([[1.0, "x"]])


class TestOrthogonalityScore:
    def test_in_span_scores_zero(self):
        basis = planar_basis()
        omega = orthogonality_score(np.array([1.0, -2.0, 0.0, 0.0]), basis)
        assert omega < 1e-10

    def test_orthogonal_scores_near_one(self):
        basis = planar_basis()
        omega = orthogonality_score(np.array([0.0, 0.0, 1.0, 0.0]), basis)
        assert abs(omega - 1.0 / (1.0 + EPS)) < 1e-10

    def test_diagonal_splits_evenly(self):
        basis = planar_basis()
        z = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert abs(orthogonality_score(z, basis) - 0.7071) < 1e-4

    def test_pythagoras(self):
        basis = planar_basis()
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(size=4)
            centered = z - basis.mean
            inside = basis.directions @ (basis.directions.T @ centered)
            outside = centered - inside
            total = np.linalg.norm(centered) ** 2
            parts = np.linalg.norm(inside) ** 2 + np.linalg.norm(outside) ** 2
            assert abs(total - parts) < 1e-9

    def test_scale_changes_nothing_material(self):
        basis = planar_basis()
        z = np.array([0.3, 0.1, 0.9, -0.4])
        a = orthogonality_score(z, basis)
        b = orthogonality_score(z * 100.0, basis)
        assert abs(a - b) < 1e-6

    def test_dimension_mismatch_rejected(self):
        basis = planar_basis()
        with pytest.raises(InputError):
            orthogonality_score(np.ones(3), basis)


class TestSelectProbe:
    def test_picks_most_orthogonal(self):
        basis = planar_basis()
        probes = ProbeSet(np.array([
            [1.0, 0.5, 0.0, 0.0],   # inside the span
            [0.5, 0.0, 0.8, 0.0],   # partially out
            [0.0, 0.0, 0.0, 1.0],   # fully out
        ]))
        choice = select_probe(probes, basis)
        assert choice.index == 2
        assert choice.label == "probe2"
        assert choice.omega > 0.99

    def test_tie_resolves_to_lowest_index(self):
        basis = planar_basis()
        v = np.array([0.0, 0.0, 1.0, 0.0])
        probes = ProbeSet(np.vstack([v, v, v]))
        assert select_probe(probes, basis).index == 0

    def test_dimension_mismatch_named(self):
        with pytest.raises(InputError, match="^probes have dimension 3, states have 4$"):
            select_probe(ProbeSet(np.eye(3)), planar_basis())

    def test_singleton(self):
        basis = planar_basis()
        probes = ProbeSet(np.array([[0.2, 0.1, 0.0, 0.0]]))
        choice = select_probe(probes, basis)
        assert choice.index == 0

    def test_matches_per_probe_reference(self):
        rng = np.random.default_rng(8)
        for trial in range(60):
            d = int(rng.integers(2, 10))
            basis = principal_subspace(rng.normal(size=(int(rng.integers(3, 20)), d)), 0.8)
            vectors = rng.normal(size=(int(rng.integers(1, 8)), d))
            inside = basis.mean + rng.normal(size=(len(vectors), basis.k)) @ basis.directions.T
            if trial % 3 == 0:
                vectors = inside                 # every probe inside the span
            elif trial % 3 == 1:
                vectors[0] = inside[0]           # one probe inside the span
            vectors = np.vstack([vectors, vectors[::-1]])   # every row duplicated

            def omega(z):  # the per-probe score of earlier versions
                c = z - basis.mean
                r = c - basis.directions @ (basis.directions.T @ c)
                return np.linalg.norm(r) / (np.linalg.norm(c) + EPS)

            scores = [omega(z) for z in vectors]
            expected = next(i for i, s in enumerate(scores) if s >= max(scores) - TIE_TOLERANCE)
            choice = select_probe(ProbeSet(vectors), basis)
            assert choice.index == expected
            assert expected < len(vectors) // 2  # of two equal rows, the lower index wins
            assert choice.omega == pytest.approx(scores[expected], rel=1e-12, abs=1e-15)


class TestLookaheadManifold:
    def test_matrix_form(self):
        rng = np.random.default_rng(2)
        states = np.zeros((30, 5))
        states[:, :2] = rng.normal(size=(30, 2))
        basis = lookahead_manifold(states, 0.999)
        assert basis.k == 2
        projector = basis.directions @ basis.directions.T
        expected = np.zeros((5, 5))
        expected[0, 0] = expected[1, 1] = 1.0
        npt.assert_allclose(projector, expected, atol=1e-10)

    def test_identical_states_raise_zero_variance(self):
        states = np.tile([1.0, 2.0, 3.0], (6, 1))
        with pytest.raises(ZeroVarianceError, match="look-ahead"):
            lookahead_manifold(states)

    def test_dimension_disagreement_rejected(self):
        with pytest.raises(InputError):
            lookahead_manifold([np.ones((3, 4)), np.ones((3, 5))])

    def test_single_sample_rejected(self):
        with pytest.raises(InputError):
            lookahead_manifold([np.ones((3, 4))])


class TestPlanStitch:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.trace = rng.normal(size=(20, 4))
        self.lookahead = np.zeros((30, 4))
        self.lookahead[:, :2] = rng.normal(size=(30, 2))

    def test_selects_escaping_probe(self):
        probes = ProbeSet(np.array([
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
        ]))
        plan = plan_stitch(self.trace, 7, self.lookahead, probes,
                           energy_threshold=0.999, query_id="q7")
        assert plan.probe_label == "probe1"
        assert select_probe(probes, lookahead_manifold(self.lookahead, 0.999)).index == 1
        assert plan.omega > 0.9
        assert plan.basis_k == 2
        assert plan.warning is False
        assert plan.prefix_length == 7

    def test_warns_when_no_probe_escapes(self):
        probes = ProbeSet(np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
        ]))
        plan = plan_stitch(self.trace, 3, self.lookahead, probes,
                           energy_threshold=0.999)
        assert plan.warning is True
        assert plan.omega < 0.1

    def test_prefix_bounds(self):
        probes = ProbeSet(np.eye(4))
        plan_stitch(self.trace, 1, self.lookahead, probes)
        plan_stitch(self.trace, 20, self.lookahead, probes)
        for bad in (0, 21, -3):
            with pytest.raises(InputError):
                plan_stitch(self.trace, bad, self.lookahead, probes)

    def test_probe_dimension_checked(self):
        probes = ProbeSet(np.eye(3))
        with pytest.raises(InputError):
            plan_stitch(self.trace, 2, self.lookahead, probes)

    def test_warning_below_threshold_only(self):
        basis = planar_basis()
        for omega, warning in ((LOW_OMEGA_THRESHOLD, False),
                               (np.nextafter(LOW_OMEGA_THRESHOLD, 0.0), True)):
            plan = StitchPlan.from_choice(ProbeChoice(1, "p1", omega), basis, 4, "q")
            assert plan == StitchPlan(query_id="q", prefix_length=4, probe_label="p1",
                                      omega=omega, basis_k=basis.k, warning=warning)

    def test_json_record_fields(self):
        probes = ProbeSet(np.eye(4))
        plan = plan_stitch(self.trace, 5, self.lookahead, probes, query_id="qx")
        record = json.loads(json.dumps(asdict(plan)))
        assert set(record) == {"query_id", "prefix_length", "probe_label",
                               "omega", "basis_k", "warning"}
        assert record["query_id"] == "qx"
        assert record["prefix_length"] == 5
        assert isinstance(record["warning"], bool)


class TestInvariances:
    def test_rotation_preserves_omega(self):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(25, 6))
        z = rng.normal(size=6)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        before = orthogonality_score(z, principal_subspace(states, 0.9))
        after = orthogonality_score(Q.T @ z, principal_subspace(states @ Q, 0.9))
        assert abs(before - after) < 1e-8
