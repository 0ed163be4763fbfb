import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    DegenerateSpectrumError,
    InputError,
    Spectrum,
    ZeroVarianceError,
    center,
    confinement_ratio,
    covariance_spectrum,
    effective_rank,
    erank_or_floor,
    principal_subspace,
    spectral_entropy,
    validate_trajectory,
)


class TestValidation:
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


class TestCenter:
    def test_mean_is_row_mean(self):
        H = np.array([[1.0, 2.0], [3.0, 6.0]])
        centered, mean = center(H)
        npt.assert_allclose(mean, [2.0, 4.0])
        npt.assert_allclose(centered.mean(axis=0), 0.0, atol=1e-15)

    def test_single_row_centers_to_zero(self):
        centered, mean = center([[5.0, -2.0, 1.0]])
        npt.assert_allclose(centered, 0.0)
        npt.assert_allclose(mean, [5.0, -2.0, 1.0])


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
        npt.assert_allclose(s.mean, [0.0, 0.0])

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
        assert abs(basis.captured_energy - 1.0) < 1e-12

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
        assert abs(basis.captured_energy - 1.0) < 1e-9

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

    def test_project_out_removes_span(self):
        H = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        basis = principal_subspace(H, 0.9)
        residual = basis.project_out(np.array([3.0, 4.0]))
        npt.assert_allclose(residual, [0.0, 4.0], atol=1e-12)


class TestConfinement:
    def test_rank_one_is_confined(self):
        assert confinement_ratio(Spectrum(np.array([2.0, 0.0])), 1) == 1.0

    def test_uniform_four_top_one(self):
        assert abs(confinement_ratio(Spectrum(np.ones(4)), 1) - 0.25) < 1e-12

    def test_worked_example(self):
        s = Spectrum(np.array([0.5, 0.3, 0.2]))
        assert abs(confinement_ratio(s, 2) - 0.8) < 1e-12

    def test_monotone_in_k_and_reaches_one(self):
        rng = np.random.default_rng(12)
        s = covariance_spectrum(rng.normal(size=(20, 6)))
        values = [confinement_ratio(s, k) for k in range(1, s.eigenvalues.size + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.0) < 1e-12

    def test_k_out_of_range(self):
        s = Spectrum(np.array([1.0, 0.5]))
        for bad in (0, 3, -1):
            with pytest.raises(InputError):
                confinement_ratio(s, bad)

    def test_zero_mass_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            confinement_ratio(Spectrum(np.zeros(3)), 1)
