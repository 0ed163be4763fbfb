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
    stacked_min_effrank,
    validate_trajectory,
    windowed_min_effrank,
    write_trajectory,
)
from rankshape import spectral

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
    "bool": ([True, False], [[True, False], [False, True]]),
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


# (shape, method): the Gram path (T < d) and the covariance path (T >= d),
# for one trajectory and for a stack, and each path forced on the other shape.
CHUNK_CASES = [((40, 300), "auto"), ((3, 40, 300), "auto"), ((300, 40), "auto"),
               ((2, 300, 40), "auto"), ((60, 20), "gram"), ((20, 60), "covariance")]


def built_product(monkeypatch, H, method, floats=spectral.GRAM_FLOATS):
    """(M, mean, vals): the matrix that _centered_eigh hands its eigensolver
    with GRAM_FLOATS set to ``floats``, and the mean and spectrum it returns."""
    seen = []
    top = spectral._top_eigen

    def spy(M, m, vectors=False):
        seen.append(M.copy())
        return top(M, m, vectors)

    monkeypatch.setattr(spectral, "_top_eigen", spy)
    monkeypatch.setattr(spectral, "GRAM_FLOATS", floats)
    mean, vals, _ = spectral._centered_eigh(H, method)
    return seen[0], mean, vals


def llm_like(shape, seed=0):
    """Rows on a large offset, as LLM hidden states sit, so that centring matters."""
    return 300.0 + np.random.default_rng(seed).normal(size=shape)


def is_gram(shape, method):
    return shape[-2] < shape[-1] if method == "auto" else method == "gram"


def chunk_floats(shape, method, features):
    """The GRAM_FLOATS that cuts each trajectory of a stack of ``shape`` into
    chunks of ``features`` features: columns of T values on the Gram path,
    rows of d values on the covariance path. The budget is per trajectory,
    so the stack's size does not enter."""
    return features * shape[-2 if is_gram(shape, method) else -1]


class TestChunkedProduct:
    @pytest.mark.parametrize("features", [1, 7])
    @pytest.mark.parametrize("shape, method", CHUNK_CASES)
    def test_chunked_lower_triangle_matches_the_one_chunk_product(self, monkeypatch, shape,
                                                                   method, features):
        """Chunks of 7 features, or of one, leave ragged last chunks and row
        blocks; the lower triangle, all that eigvalsh reads, is the one-chunk
        product's to 1e-13 of its largest entry."""
        H = llm_like(shape)
        whole, mean, vals = built_product(monkeypatch, H, method)
        M, chunked_mean, chunked_vals = built_product(monkeypatch, H, method,
                                                      chunk_floats(shape, method, features))
        npt.assert_array_equal(chunked_mean, mean)
        assert np.abs(np.tril(M) - np.tril(whole)).max() <= 1e-13 * np.abs(whole).max()
        npt.assert_allclose(chunked_vals, vals, rtol=0, atol=1e-12 * vals.max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, method", CHUNK_CASES)
    def test_one_chunk_is_the_product_of_the_whole_centred_copy(self, monkeypatch, shape,
                                                                method, dtype):
        """A stack of trajectories of at most GRAM_FLOATS values each is one
        chunk and one block: bit for bit the full product of its whole
        centred float64 copy."""
        H = llm_like(shape).astype(dtype)
        M, mean, _ = built_product(monkeypatch, H, method)
        Y = H.astype(np.float64)
        Y -= Y.mean(axis=-2)[..., None, :]
        Yt = np.swapaxes(Y, -1, -2)
        npt.assert_array_equal(mean, H.astype(np.float64).mean(axis=-2))
        npt.assert_array_equal(M, (Y @ Yt if is_gram(shape, method) else Yt @ Y) / shape[-2])

    @pytest.mark.parametrize("features", [1, 7, None])
    @pytest.mark.parametrize("shape, method", CHUNK_CASES)
    def test_float32_scores_as_its_float64_image(self, monkeypatch, shape, method, features):
        """Each chunk is widened exactly and the mean is summed in float64, so
        a float32 stack gives the M, mean and spectrum of its float64 image,
        byte for byte, chunked or not (None: one chunk)."""
        H = llm_like(shape).astype(np.float32)
        floats = spectral.GRAM_FLOATS if features is None else chunk_floats(shape, method,
                                                                             features)
        for got, image in zip(built_product(monkeypatch, H, method, floats),
                              built_product(monkeypatch, H.astype(np.float64), method, floats)):
            npt.assert_array_equal(got, image)


    @pytest.mark.parametrize("shape", [(40, 300), (300, 40)], ids=["gram", "covariance"])
    def test_chunked_principal_subspace_spans_the_one_chunk_subspace(self, monkeypatch, shape):
        """principal_subspace needs eigenvectors, which eigh reads from the
        lower triangle that the chunked builder fills: chunks of 7 features
        give the one-chunk basis's subspace, its projectors within 1e-12."""
        H = llm_like(shape) * np.linspace(3.0, 0.1, shape[1])
        whole = principal_subspace(H, 0.9)
        monkeypatch.setattr(spectral, "GRAM_FLOATS", chunk_floats(shape, "auto", 7))
        chunked = principal_subspace(H, 0.9)
        assert chunked.k == whole.k
        npt.assert_array_equal(chunked.mean, whole.mean)
        projector = chunked.directions @ chunked.directions.T
        assert np.abs(projector - whole.directions @ whole.directions.T).max() <= 1e-12


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


# Finite rows whose centred products overflow the float range.
OVERFLOW_ROWS = {
    "3x5": np.array([[1e200, 0, 0, 0, 0], [0, 1e200, 0, 0, 0], [-1e200, -1e200, 0, 0, 0]]),
    "3x2": np.array([[1e200, 0], [0, 1e200], [-1e200, -1e200]]),
}
OVERFLOW_SCORERS = {
    "covariance_spectrum": covariance_spectrum,
    "covariance_spectrum-gram": lambda H: covariance_spectrum(H, "gram"),
    "covariance_spectrum-covariance": lambda H: covariance_spectrum(H, "covariance"),
    "windowed_min_effrank": windowed_min_effrank,
    "windowed_min_effrank-blocks": lambda H: windowed_min_effrank(H, 2, 1),
    "erank_stack": erank_stack,
    "stacked_min_effrank": lambda H: stacked_min_effrank([H, H], 2, 1),
    "principal_subspace": principal_subspace,
    "lookahead_manifold": lookahead_manifold,
}


@pytest.mark.parametrize("scorer", sorted(OVERFLOW_SCORERS))
@pytest.mark.parametrize("rows", sorted(OVERFLOW_ROWS))
def test_rows_whose_centred_products_overflow_are_refused(rows, scorer):
    """Refused as too large to score, with no warning, rather than scored
    from an overflowed product or left to the eigensolver to fail on."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="too large to score"):
            OVERFLOW_SCORERS[scorer](OVERFLOW_ROWS[rows])


def test_principal_directions_past_the_float_range_are_refused():
    # The centred products are finite, but T times the leading eigenvalue
    # is not, so the Gram path cannot scale its directions to unit length.
    H = np.random.default_rng(0).normal(size=(3, 8)) * 10.0**153.7
    assert covariance_spectrum(H).total_mass > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="too large to score"):
            principal_subspace(H)
