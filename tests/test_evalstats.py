import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

from rankshape import (
    DecouplingSample,
    DegenerateDataError,
    DegenerateLabelsError,
    FileFormatError,
    InputError,
    LogitFit,
    PassCounts,
    RangeError,
    SeparableDataError,
    fit_decoupling_logit,
    load_decoupling_csv,
    pass_at_k,
    pass_curve,
)


def enumerate_pass_at_k(n, c, k):
    """Exhaustive oracle: fraction of k-subsets containing a correct sample."""
    hits = 0
    total = 0
    for subset in itertools.combinations(range(n), k):
        total += 1
        if any(i < c for i in subset):
            hits += 1
    return hits / total


def synthetic_samples(seed, n, beta_r=0.56, beta_e=0.0):
    """Features with known z-scored coefficients and Bernoulli labels."""
    rng = np.random.default_rng(seed)
    eff_rank = np.clip(rng.normal(4.0, 1.5, size=n), 1.0, None)
    entropy = np.clip(rng.normal(2.0, 0.6, size=n), 0.0, None)
    zr = (eff_rank - eff_rank.mean()) / eff_rank.std()
    ze = (entropy - entropy.mean()) / entropy.std()
    p = 1.0 / (1.0 + np.exp(-(beta_r * zr + beta_e * ze)))
    labels = rng.uniform(size=n) < p
    return [DecouplingSample(float(r), float(e), bool(y))
            for r, e, y in zip(eff_rank, entropy, labels)]


def collinear_samples(seed, noise, n=40):
    """entropy = 3 eff_rank + 0.5 (plus noise * N(0, 1)), random labels."""
    rng = np.random.default_rng(seed)
    eff_rank = rng.uniform(1.0, 5.0, n)
    labels = rng.uniform(size=n) < 0.5
    entropy = 3.0 * eff_rank + 0.5 + noise * rng.normal(size=n)
    return [DecouplingSample(float(r), float(e), bool(y))
            for r, e, y in zip(eff_rank, entropy, labels)]


def quasi_separated_samples(seed, n=60):
    """eff_rank in {1, 2, 3}: wrong at 1, right at 3, a fair coin at 2;
    gamma entropies. No maximum-likelihood estimate exists."""
    rng = np.random.default_rng(seed)
    eff_rank = rng.integers(1, 4, size=n)
    coin = rng.uniform(size=n) < 0.5
    entropy = rng.gamma(2.0, 1.0, size=n)
    labels = (eff_rank == 3) | ((eff_rank == 2) & coin)
    return [DecouplingSample(float(r), float(e), bool(y))
            for r, e, y in zip(eff_rank, entropy, labels)]


class TestPassAtK:
    def test_no_correct_samples(self):
        assert pass_at_k(10, 0, 5) == 0.0

    def test_any_correct_with_k_equal_n(self):
        assert pass_at_k(10, 1, 10) == 1.0

    def test_worked_example(self):
        assert abs(pass_at_k(4, 2, 2) - 5.0 / 6.0) < 1e-12

    def test_early_exit_when_misses_cannot_fill_k(self):
        assert pass_at_k(64, 60, 16) == 1.0

    def test_matches_enumeration_small(self):
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    expected = enumerate_pass_at_k(n, c, k)
                    assert abs(pass_at_k(n, c, k) - expected) < 1e-12

    def test_monotone_in_k(self):
        values = [pass_at_k(64, 7, k) for k in range(1, 65)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_monotone_in_c(self):
        values = [pass_at_k(64, c, 8) for c in range(65)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_pass_at_1_is_success_rate(self):
        for c in range(65):
            assert pass_at_k(64, c, 1) == c / 64

    def test_range_violations(self):
        with pytest.raises(RangeError):
            pass_at_k(4, 2, 5)
        with pytest.raises(RangeError):
            pass_at_k(4, 5, 2)
        with pytest.raises(RangeError):
            pass_at_k(4, 2, 0)
        with pytest.raises(RangeError):
            pass_at_k(0, 0, 1)
        with pytest.raises(RangeError):
            pass_at_k(4, -1, 2)

    @pytest.mark.parametrize("call", [
        lambda: PassCounts(4.5, (1,)),
        lambda: PassCounts(4, (1.5,)),
        lambda: PassCounts(True, (1,)),
        lambda: pass_curve(PassCounts(4, (1,)), [2.5]),
        lambda: pass_at_k(4, 1, "2"),
        lambda: pass_at_k(4.0, 1, 2),
    ], ids=["n-float", "count-float", "n-bool", "k-float", "k-string", "pass_at_k-n-float"])
    def test_non_integer_is_an_input_error(self, call):
        with pytest.raises(InputError, match="must be an integer") as info:
            call()
        assert info.value.code == "input"

    def test_numpy_integers_are_integers(self):
        assert pass_at_k(np.int64(4), np.int32(2), np.int64(2)) == pass_at_k(4, 2, 2)
        assert PassCounts(4, np.array([1, 2])).counts == (1, 2)


def reference_pass_at_k(n, c, k):
    """The per-problem running product of earlier versions."""
    if n - c < k:
        return 1.0
    miss = 1.0
    for i in range(k):
        miss *= (n - c - i) / (n - i)
    return 1.0 - miss


class TestPassCurve:
    def test_equals_per_problem_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            # Counts near n give problems with n - c < k; k = n is always asked.
            counts = tuple(int(c) for c in rng.integers(0, n + 1, size=int(rng.integers(1, 30))))
            ks = sorted({int(k) for k in rng.integers(1, n + 1, size=4)} | {n})
            curve = pass_curve(PassCounts(n=n, counts=counts), ks)
            for k in ks:
                assert curve[k] == float(np.mean([reference_pass_at_k(n, c, k) for c in counts]))

    def test_matches_paper_style_aggregate(self):
        # 30 problems, 28 of them solved at least once in 64 samples
        rng = np.random.default_rng(0)
        counts = tuple(int(c) for c in rng.integers(1, 65, size=28)) + (0, 0)
        pc = PassCounts(n=64, counts=counts)
        curve = pass_curve(pc, [64])
        assert abs(curve[64] - 28.0 / 30.0) < 1e-12

    def test_k1_equals_mean_success(self):
        counts = (3, 10, 0, 64, 31)
        pc = PassCounts(n=64, counts=counts)
        curve = pass_curve(pc, [1])
        assert abs(curve[1] - np.mean(counts) / 64.0) < 1e-12

    def test_nondecreasing_in_k(self):
        pc = PassCounts(n=32, counts=(0, 1, 5, 9, 30))
        curve = pass_curve(pc, [1, 2, 4, 8, 16, 32])
        values = [curve[k] for k in (1, 2, 4, 8, 16, 32)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_count_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            PassCounts(n=4, counts=(5,))

    def test_empty_counts_rejected(self):
        with pytest.raises(InputError):
            PassCounts(n=4, counts=())

    def test_k_above_n_rejected(self):
        pc = PassCounts(n=4, counts=(2,))
        with pytest.raises(RangeError):
            pass_curve(pc, [8])


class TestDecouplingSamples:
    def test_bounds_enforced(self):
        with pytest.raises(InputError):
            DecouplingSample(0.5, 1.0, True)
        with pytest.raises(InputError):
            DecouplingSample(2.0, -0.1, False)


class TestFitDecouplingLogit:
    def test_recovers_rank_coefficient(self):
        fit = fit_decoupling_logit(synthetic_samples(0, 5000))
        assert fit.converged
        assert abs(fit.beta_r - 0.56) < 0.1
        assert fit.p_values[1] < 1e-3
        assert fit.p_values[2] > 0.05

    def test_score_equation_mean_match(self):
        samples = synthetic_samples(1, 2000)
        fit = fit_decoupling_logit(samples)
        raw = np.array([[s.eff_rank, s.entropy] for s in samples])
        Z = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        eta = fit.beta0 + Z @ np.array([fit.beta_r, fit.beta_e])
        predicted = 1.0 / (1.0 + np.exp(-eta))
        rate = np.mean([s.correct for s in samples])
        assert abs(predicted.mean() - rate) < 1e-6

    def test_standardization_makes_fit_affine_invariant(self):
        samples = synthetic_samples(2, 2000)
        rescaled = [DecouplingSample(10.0 * s.eff_rank, 3.0 * s.entropy + 5.0, s.correct)
                    for s in samples]
        a = fit_decoupling_logit(samples)
        b = fit_decoupling_logit(rescaled)
        assert abs(a.beta_r - b.beta_r) < 1e-6
        assert abs(a.beta_e - b.beta_e) < 1e-6

    def test_null_features_rarely_significant(self):
        # under independence both Wald p-values clear 0.05 about 90% of runs
        clear = 0
        for seed in range(50):
            fit = fit_decoupling_logit(synthetic_samples(seed, 2000, beta_r=0.0))
            if fit.p_values[1] > 0.05 and fit.p_values[2] > 0.05:
                clear += 1
        assert clear >= 45

    def test_single_class_rejected(self):
        samples = [DecouplingSample(2.0 + 0.1 * i, 1.0 + 0.05 * i, True)
                   for i in range(30)]
        with pytest.raises(DegenerateLabelsError):
            fit_decoupling_logit(samples)

    def test_separable_data_detected(self):
        rng = np.random.default_rng(3)
        eff_rank = np.clip(rng.normal(4.0, 1.5, size=200), 1.0, None)
        entropy = np.clip(rng.normal(2.0, 0.6, size=200), 0.0, None)
        labels = eff_rank > np.median(eff_rank)
        samples = [DecouplingSample(float(r), float(e), bool(y))
                   for r, e, y in zip(eff_rank, entropy, labels)]
        with pytest.raises(SeparableDataError):
            fit_decoupling_logit(samples)

    # The saturated rows stop contributing to the gradient, which falls below
    # GRADIENT_TOL while the coefficients still drift; a fit reported there
    # had standard errors above 1e4.
    @pytest.mark.parametrize("seed", range(60))
    def test_quasi_separated_labels_detected(self, seed):
        with pytest.raises(SeparableDataError) as info:
            fit_decoupling_logit(quasi_separated_samples(seed))
        assert info.value.code == "separable_data"

    def test_too_few_samples_rejected(self):
        with pytest.raises(InputError):
            fit_decoupling_logit(synthetic_samples(4, 19))

    # Exactly and nearly collinear features. Without the correlation check
    # the Newton solve fails on seed 0, and on seed 2 with noise, whose design
    # matrix still has full numerical rank; the final inverse fails on seed 2
    # without noise; rounding leaves a negative variance on seed 8.
    @pytest.mark.parametrize("seed, noise", [(0, 0.0), (2, 1e-9), (2, 0.0), (8, 0.0)])
    def test_collinear_features_rejected(self, seed, noise):
        with pytest.raises(DegenerateDataError, match="collinear features") as info:
            fit_decoupling_logit(collinear_samples(seed, noise))
        assert info.value.code == "degenerate"

    # Fair-coin labels on entropy = 3 eff_rank + 0.5 + noise * N(0, 1). Exactly
    # and nearly collinear features are refused as degenerate, never as
    # separable data; only at noise 1e-3 may a seed fit.
    @pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-7, 1e-5, 1e-3])
    def test_collinear_noise_sweep_is_never_separable(self, noise):
        fits = 0
        for seed in range(40):
            try:
                fit_decoupling_logit(collinear_samples(seed, noise))
            except DegenerateDataError as exc:
                assert exc.code == "degenerate", f"seed {seed}: {exc}"
                assert "collinear features eff_rank and entropy" in str(exc)
            else:
                fits += 1
        assert fits == 0 if noise < 1e-3 else fits <= 1

    def test_constant_feature_rejected(self):
        samples = [DecouplingSample(3.0, 1.0 + 0.1 * (i % 7), i % 2 == 0)
                   for i in range(40)]
        with pytest.raises(InputError):
            fit_decoupling_logit(samples)

    def test_p_values_pinned(self):
        # Two-sided normal tail probabilities recorded from
        # 2 * scipy.stats.norm.sf(|z|) for this fit.
        fit = fit_decoupling_logit(synthetic_samples(0, 5000))
        expected = [0.11302804262067079, 1.8959679798536757e-73, 0.9260338935439979]
        np.testing.assert_allclose(fit.p_values, expected, rtol=1e-12, atol=0.0)

    def test_json_record(self):
        fit = fit_decoupling_logit(synthetic_samples(5, 500))
        record = json.loads(json.dumps(asdict(fit)))
        assert set(record) == {"beta0", "beta_r", "beta_e", "std_errors",
                               "p_values", "converged", "iterations"}
        assert len(record["std_errors"]) == 3

    def test_json_bytes_pinned(self):
        fit = LogitFit(beta0=0.5, beta_r=1.25, beta_e=-0.75, std_errors=(0.1, 0.2, 0.3),
                       p_values=(0.01, 1e-73, 0.9), converged=True, iterations=6)
        assert json.dumps(asdict(fit)) == (
            '{"beta0": 0.5, "beta_r": 1.25, "beta_e": -0.75, "std_errors": [0.1, 0.2, 0.3], '
            '"p_values": [0.01, 1e-73, 0.9], "converged": true, "iterations": 6}')


class TestLoadDecouplingCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("eff_rank,entropy,correct\n2.5,1.25,1\n1.0,0.0,0\n")
        samples = load_decoupling_csv(path)
        assert len(samples) == 2
        assert samples[0].eff_rank == 2.5
        assert samples[0].correct is True
        assert samples[1].correct is False

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("rank,entropy,correct\n2.5,1.0,1\n")
        with pytest.raises(FileFormatError) as info:
            load_decoupling_csv(path)
        assert info.value.code == "bad_header"

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("eff_rank,entropy,correct\n2.5,1.0,2\n")
        with pytest.raises(FileFormatError) as info:
            load_decoupling_csv(path)
        assert info.value.code == "bad_value"

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_decoupling_csv("/nonexistent/samples.csv")
