import warnings

import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    DegenerateSpectrumError,
    InputError,
    PolicyParams,
    ProbeSet,
    Spectrum,
    ZeroVarianceError,
    covariance_spectrum,
    effective_rank,
    erank_or_floor,
    erank_stack,
    group_advantages,
    lookahead_manifold,
    principal_subspace,
    spectral_entropy,
    validate_trajectory,
    windowed_min_effrank,
    write_trajectory,
)

# Every public function that takes a trajectory from a library caller.
TRAJECTORY_TAKERS = {
    "validate_trajectory": validate_trajectory,
    "covariance_spectrum": covariance_spectrum,
    "windowed_min_effrank": windowed_min_effrank,
    "principal_subspace": principal_subspace,
    "lookahead_manifold": lookahead_manifold,
    "write_trajectory": lambda H: write_trajectory("never-written.hstb", H),
}

# Every public entry point whose whole array check is spectral._finite_array,
# with the number of axes it takes.
ARRAY_TAKERS = {
    "validate_trajectory": (validate_trajectory, 2),
    "ProbeSet": (ProbeSet, 2),
    "Spectrum": (Spectrum, 1),
    "PolicyParams": (PolicyParams, 1),
    "group_advantages": (group_advantages, 1),
}

# Each bad input as a vector and as a matrix.
NAN, INF = float("nan"), float("inf")
BAD_ARRAYS = {
    "string-cell": ([2.0, "a"], [[1.0, 2.0], [3.0, "a"]]),
    "number-as-string": ([2.0, "1"], [[1.0, 2.0], [3.0, "4"]]),
    "ragged": ([[2.0, 1.0], [1.0]], [[1.0, 2.0], [3.0]]),
    "complex": ([2 + 1j, 1.0], [[1.0, 2.0], [3.0, 1j]]),
    "nan": ([2.0, NAN], [[1.0, 2.0], [3.0, NAN]]),
    "inf": ([INF, 1.0], [[1.0, 2.0], [INF, 4.0]]),
    "int-past-float": ([2.0, 10**400], [[1.0, 2.0], [3.0, 10**400]]),
    "wrong-axes": ([[2.0, 1.0]], [1.0, 2.0]),
    "empty": ([], np.zeros((0, 2))),
}


class TestValidation:
    @pytest.mark.parametrize("bad", sorted(BAD_ARRAYS))
    @pytest.mark.parametrize("name", sorted(ARRAY_TAKERS))
    def test_bad_array_is_a_documented_input_error(self, name, bad):
        take, ndim = ARRAY_TAKERS[name]
        values = BAD_ARRAYS[bad][ndim - 1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError) as info:
                take(values)
        assert not caught
        too_small = name == "group_advantages" and bad == "empty"
        assert info.value.code == ("group_too_small" if too_small else "input")

    def test_rejects_1d(self):
        with pytest.raises(InputError):
            validate_trajectory(np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            validate_trajectory(np.ones((0, 3)))

    def test_rejects_nan(self):
        H = np.ones((3, 2))
        H[1, 1] = np.nan
        with pytest.raises(InputError):
            validate_trajectory(H)

    def test_accepts_lists(self):
        H = validate_trajectory([[1, 2], [3, 4]])
        assert H.dtype == np.float64

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_TAKERS))
    @pytest.mark.parametrize("values", [
        [[1.0, 2.0], [3.0]],              # ragged rows
        [[1.0, 2.0], [3.0, "x"]],         # a string cell
        [[1.0, 2.0], [3.0, None]],        # a cell that is not a number
        [[1.0, 2.0], [3.0, [4.0, 5.0]]],  # a nested cell
    ], ids=["ragged", "string", "none", "nested"])
    def test_non_numeric_input_is_an_input_error(self, name, values, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InputError):
            TRAJECTORY_TAKERS[name](values)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_TAKERS))
    @pytest.mark.parametrize("values", [
        [[1 + 5j, 2], [3, 4], [0, 1j]],
        np.array([[1, 2], [3, 4], [0, 1]], dtype=np.complex128),  # zero imaginary parts
    ], ids=["complex", "complex-dtype"])
    def test_complex_input_is_an_input_error(self, name, values, tmp_path, monkeypatch):
        # Casting would keep the real parts and drop the rest with only a warning.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InputError, match="must be real, got complex numbers"):
            TRAJECTORY_TAKERS[name](values)
        assert not list(tmp_path.iterdir())


class TestSpectrumType:
    def test_rejects_negative(self):
        with pytest.raises(InputError):
            Spectrum(np.array([1.0, -0.1]))

    def test_rejects_increasing(self):
        with pytest.raises(InputError):
            Spectrum(np.array([0.2, 0.5]))

    def test_probs_sum_to_one(self):
        s = Spectrum(np.array([3.0, 2.0, 1.0]))
        assert abs(s.probs.sum() - 1.0) < 1e-12

    def test_probs_on_zero_mass_raises(self):
        s = Spectrum(np.zeros(3))
        with pytest.raises(DegenerateSpectrumError):
            s.probs

    def test_nonzero_count(self):
        assert Spectrum(np.array([2.0, 1.0, 0.0])).nonzero_count == 2


class TestCovarianceSpectrum:
    def test_two_point_single_direction(self):
        # centered rows (1,0) and (-1,0): covariance diag(1, 0)
        s = covariance_spectrum(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        npt.assert_allclose(s.eigenvalues, [1.0, 0.0], atol=1e-15)

    def test_constant_rows_zero_spectrum(self):
        s = covariance_spectrum(np.tile([2.0, 3.0, 4.0], (5, 1)))
        assert s.total_mass == 0.0

    def test_single_row_zero_spectrum(self):
        s = covariance_spectrum([[1.0, 2.0, 3.0]])
        assert s.total_mass == 0.0
        assert s.eigenvalues.size == 1

    def test_spectrum_length_is_min_T_d(self):
        rng = np.random.default_rng(0)
        assert covariance_spectrum(rng.normal(size=(5, 9))).eigenvalues.size == 5
        assert covariance_spectrum(rng.normal(size=(9, 5))).eigenvalues.size == 5

    def test_gram_and_covariance_paths_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            T = rng.integers(2, 40)
            d = rng.integers(1, 40)
            H = rng.normal(size=(T, d))
            a = covariance_spectrum(H, method="gram").eigenvalues
            b = covariance_spectrum(H, method="covariance").eigenvalues
            npt.assert_allclose(a, b, rtol=1e-8, atol=1e-10 * max(a[0], 1.0))

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            covariance_spectrum(np.eye(3), method="svd")

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(12, 6))
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = covariance_spectrum(H).eigenvalues
        b = covariance_spectrum(H @ Q).eigenvalues
        npt.assert_allclose(a, b, rtol=1e-8, atol=1e-12)

    def test_scale_invariance_of_erank(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(10, 4))
        base = effective_rank(covariance_spectrum(H))
        for c in (0.01, 3.0, -2.5):
            scaled = effective_rank(covariance_spectrum(c * H))
            assert abs(scaled - base) < 1e-10

    def test_row_duplication_keeps_spectrum(self):
        rng = np.random.default_rng(4)
        H = rng.normal(size=(6, 10))
        a = covariance_spectrum(H).eigenvalues
        b = covariance_spectrum(np.vstack([H, H])).eigenvalues
        # lengths differ (min(T, d) grows); the extra entries must be zero
        npt.assert_allclose(a, b[: a.size], rtol=1e-10, atol=1e-12)
        npt.assert_allclose(b[a.size:], 0.0, atol=1e-12)


class TestEntropyAndRank:
    def test_point_mass_entropy_zero(self):
        assert spectral_entropy(Spectrum(np.array([2.0, 0.0]))) == 0.0

    def test_two_point_uniform(self):
        s = Spectrum(np.array([3.0, 3.0]))
        assert abs(spectral_entropy(s) - np.log(2.0)) < 1e-12

    def test_half_quarter_quarter(self):
        s = Spectrum(np.array([0.5, 0.25, 0.25]))
        assert abs(spectral_entropy(s) - 1.039721) < 1e-6
        assert abs(effective_rank(s) - 2.828427) < 1e-5

    def test_uniform_four(self):
        assert abs(effective_rank(Spectrum(np.ones(4))) - 4.0) < 1e-12

    def test_single_direction(self):
        assert effective_rank(Spectrum(np.array([2.0, 0.0, 0.0]))) == 1.0

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            spectral_entropy(Spectrum(np.zeros(4)))

    def test_erank_or_floor(self):
        assert erank_or_floor(Spectrum(np.zeros(4))) == 1.0
        assert erank_or_floor(covariance_spectrum(np.ones((5, 3)))) == 1.0
        s = Spectrum(np.array([0.5, 0.25, 0.25]))
        assert erank_or_floor(s) == effective_rank(s)

    def test_erank_stack_matches_each_trajectory(self):
        # Rows of very different scale: each must be floored against its own
        # largest eigenvalue, not the stack's.
        rng = np.random.default_rng(6)
        for T, d in ((12, 5), (5, 12)):
            stack = rng.normal(size=(2, 3, T, d))
            stack[0, 1] *= 1e8
            stack[1, 2] *= 1e-8
            stack[1, 0] = stack[1, 0, 0]
            eranks = erank_stack(stack)
            assert eranks.shape == (2, 3)
            assert eranks[1, 0] == 1.0
            for index in np.ndindex(2, 3):
                expected = erank_or_floor(covariance_spectrum(stack[index]))
                assert abs(eranks[index] - expected) <= 1e-12

    def test_bounds_on_random_trajectories(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            H = rng.normal(size=(rng.integers(3, 30), rng.integers(2, 30)))
            s = covariance_spectrum(H)
            er = effective_rank(s)
            assert 1.0 - 1e-12 <= er <= s.nonzero_count + 1e-9

    def test_nonzero_count_capped_by_centering(self):
        # centering removes one degree of freedom
        rng = np.random.default_rng(6)
        H = rng.normal(size=(4, 10))
        s = covariance_spectrum(H)
        assert s.nonzero_count <= 3


class TestPrincipalSubspace:
    def test_single_direction_recovered(self):
        H = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        basis = principal_subspace(H, 0.9)
        assert basis.k == 1
        npt.assert_allclose(np.abs(basis.directions[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_isotropic_cloud_needs_both_directions(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(400, 2))
        basis = principal_subspace(H, 0.9)
        assert basis.k == 2

    def test_orthonormal_columns_covariance_path(self):
        rng = np.random.default_rng(8)
        H = rng.normal(size=(50, 8))
        basis = principal_subspace(H, 0.99)
        gram = basis.directions.T @ basis.directions
        npt.assert_allclose(gram, np.eye(basis.k), atol=1e-10)

    def test_orthonormal_columns_gram_path(self):
        rng = np.random.default_rng(9)
        H = rng.normal(size=(6, 40))
        basis = principal_subspace(H, 0.99)
        gram = basis.directions.T @ basis.directions
        npt.assert_allclose(gram, np.eye(basis.k), atol=1e-10)

    def test_threshold_one_takes_all_nonzero(self):
        rng = np.random.default_rng(10)
        H = rng.normal(size=(5, 12))
        basis = principal_subspace(H, 1.0)
        s = covariance_spectrum(H)
        assert basis.k == s.nonzero_count

    def test_constant_rows_raise(self):
        with pytest.raises(ZeroVarianceError):
            principal_subspace(np.ones((5, 3)))

    def test_single_row_rejected(self):
        with pytest.raises(InputError):
            principal_subspace([[1.0, 2.0]])

    def test_bad_threshold_rejected(self):
        H = np.random.default_rng(11).normal(size=(5, 3))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InputError):
                principal_subspace(H, bad)
