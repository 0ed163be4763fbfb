"""End-to-end acceptance suite.

Each test covers one shipping criterion at a pinned tolerance and prints a
single PASS line when it holds (run with ``pytest -s`` to see them). The
training-dependent criteria share one set of seeded runs through a
module-scoped fixture so the whole suite stays fast and deterministic.
"""

import itertools
import struct
import time

import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    DecouplingSample,
    PolicyParams,
    ProbeSet,
    Spectrum,
    biased_init,
    build_env,
    covariance_spectrum,
    effective_rank,
    fit_decoupling_logit,
    group_advantages,
    orthogonality_score,
    pass_at_k,
    policy_gradient,
    principal_subspace,
    read_trajectory,
    rollout,
    select_probe,
    temperature_sweep,
    train,
    weighted_log_prob,
    write_trajectory,
)
from rankshape.cli import main as cli_main
from rankshape.io import MAGIC, VERSION

OMEGA_EPS = 1e-8

PAIRED_SEEDS = (0, 1, 2, 3, 4)
TRAIN_ITERATIONS = 500
COLLAPSE_BUDGET_SECONDS = 120.0


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def training_runs():
    """Paired alpha=0 / alpha=0.5 runs on five seeded environments.

    Uses library defaults everywhere (group size, learning rate, window);
    train seeds are offset from env seeds so the two never coincide.
    """
    started = time.perf_counter()
    runs = []
    for seed in PAIRED_SEEDS:
        env = build_env(seed)
        init = biased_init(env)
        plain = train(env, init, alpha=0.0, iterations=TRAIN_ITERATIONS, seed=seed + 100)
        shaped = train(env, init, alpha=0.5, iterations=TRAIN_ITERATIONS, seed=seed + 100)
        runs.append((env, plain, shaped))
    return runs, time.perf_counter() - started


class TestSpectralCriteria:
    def test_spectral_oracle_suite(self):
        # 100 seeded trajectories, T and d in [4, 64]: dual-path agreement,
        # rotation and scale invariance at 1e-8, and rank bounds, in < 10 s.
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            T = int(rng.integers(4, 65))
            d = int(rng.integers(4, 65))
            H = rng.normal(size=(T, d))

            gram = covariance_spectrum(H, method="gram").eigenvalues
            cov = covariance_spectrum(H, method="covariance").eigenvalues
            scale_ref = max(gram[0], 1e-12)
            npt.assert_allclose(gram, cov, rtol=1e-8, atol=1e-8 * scale_ref)

            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            rotated = covariance_spectrum(H @ Q).eigenvalues
            base = covariance_spectrum(H).eigenvalues
            npt.assert_allclose(rotated, base, rtol=1e-8, atol=1e-8 * scale_ref)

            c = float(rng.uniform(0.1, 10.0))
            er_base = effective_rank(covariance_spectrum(H))
            er_scaled = effective_rank(covariance_spectrum(c * H))
            assert abs(er_base - er_scaled) < 1e-8

            spectrum = covariance_spectrum(H)
            er = effective_rank(spectrum)
            assert 1.0 - 1e-12 <= er <= spectrum.nonzero_count + 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        report(f"spectral oracle suite (100 trajectories, {elapsed:.2f}s)")

    def test_hand_computed_spectral_values(self):
        er = effective_rank(Spectrum(np.array([0.5, 0.25, 0.25])))
        assert abs(er - 2.828427) < 1e-5
        for k in range(1, 65):
            uniform = effective_rank(Spectrum(np.full(k, 1.0 / k)))
            assert abs(uniform - k) < 1e-9
        report("hand-computed effective ranks (2.828427 and uniform k-mass)")


class TestPassAtKCriteria:
    def test_passk_exactness_and_monotonicity(self):
        started = time.perf_counter()
        # exhaustive subset enumeration for every n <= 12, c, k
        for n in range(1, 13):
            for k in range(1, n + 1):
                mins = np.array([min(s) for s in itertools.combinations(range(n), k)])
                for c in range(n + 1):
                    expected = float((mins < c).mean())
                    assert abs(pass_at_k(n, c, k) - expected) < 1e-12
        # n = 64: monotone curve and exact pass@1
        for c in range(65):
            assert pass_at_k(64, c, 1) == c / 64
            values = [pass_at_k(64, c, k) for k in (1, 4, 8, 16, 32, 64)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        report(f"pass@k exact vs enumeration for n<=12, monotone at n=64 ({elapsed:.2f}s)")


class TestOmegaCriteria:
    def test_omega_geometry(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(60, 2))
        coords -= coords.mean(axis=0)
        H = np.zeros((60, 6))
        H[:, :2] = coords
        basis = principal_subspace(H, 0.999)
        assert basis.k == 2

        in_span = orthogonality_score(np.array([2.0, -1.0, 0, 0, 0, 0]), basis)
        assert in_span < 1e-10
        orthogonal = orthogonality_score(np.array([0, 0, 0, 1.0, 0, 0]), basis)
        assert abs(orthogonal - 1.0 / (1.0 + OMEGA_EPS)) < 1e-10
        diagonal = orthogonality_score(np.array([1.0, 0, 1.0, 0, 0, 0]) / np.sqrt(2), basis)
        assert abs(diagonal - 0.7071) < 1e-4

        for _ in range(100):
            z = rng.normal(size=6)
            centered = z - basis.mean
            inside = basis.directions @ (basis.directions.T @ centered)
            outside = centered - inside
            assert abs(np.linalg.norm(centered) ** 2
                       - np.linalg.norm(inside) ** 2
                       - np.linalg.norm(outside) ** 2) < 1e-9
        report("omega scores (in-span 0, orthogonal 1/(1+eps), diagonal 0.7071, Pythagoras)")


class TestAdvantageCriteria:
    def test_advantage_contract_over_random_groups(self):
        rng = np.random.default_rng(99)
        standardized = 0
        for _ in range(1000):
            rewards = rng.uniform(0.0, 1.5, size=8)
            advantages = group_advantages(rewards)
            if rewards.std() > 1e-6:
                standardized += 1
                assert abs(advantages.mean()) <= 1e-9
                assert abs(advantages.std() - 1.0) <= 1e-9
        assert standardized > 990  # draws are continuous, ties essentially never
        npt.assert_allclose(group_advantages(np.full(8, 1.25)), 0.0)
        report(f"advantage standardization over {standardized} random groups plus all-equal")


class TestLogisticCriteria:
    @staticmethod
    def synthetic(seed, n, beta_r=0.56, beta_e=0.0):
        rng = np.random.default_rng(seed)
        eff_rank = np.clip(rng.normal(4.0, 1.5, size=n), 1.0, None)
        entropy = np.clip(rng.normal(2.0, 0.6, size=n), 0.0, None)
        zr = (eff_rank - eff_rank.mean()) / eff_rank.std()
        ze = (entropy - entropy.mean()) / entropy.std()
        p = 1.0 / (1.0 + np.exp(-(beta_r * zr + beta_e * ze)))
        labels = rng.uniform(size=n) < p
        return [DecouplingSample(float(r), float(e), bool(y))
                for r, e, y in zip(eff_rank, entropy, labels)]

    def test_logistic_recovery(self):
        started = time.perf_counter()
        passed = 0
        for seed in range(5):
            fit = fit_decoupling_logit(self.synthetic(seed, 5000))
            if (fit.converged and abs(fit.beta_r - 0.56) <= 0.10
                    and fit.p_values[1] < 1e-3 and fit.p_values[2] > 0.05):
                passed += 1
        elapsed = time.perf_counter() - started
        assert passed >= 4
        assert elapsed < 30.0
        report(f"logistic decoupling recovery ({passed}/5 seeds, {elapsed:.2f}s)")


class TestGradientCriteria:
    def test_policy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        step = 1e-5
        for _ in range(20):
            V = int(rng.integers(2, 9))
            T = int(rng.integers(1, 5))
            logits = rng.normal(size=V)
            scale = float(rng.uniform(0.5, 2.0))
            seqs = [rng.integers(0, V, size=T) for _ in range(4)]
            advantages = rng.normal(size=4)
            analytic = policy_gradient(logits, scale, seqs, advantages)
            for j in range(V):
                bump = np.zeros(V)
                bump[j] = step
                numeric = (weighted_log_prob(logits + bump, scale, seqs, advantages)
                           - weighted_log_prob(logits - bump, scale, seqs, advantages)
                           ) / (2.0 * step)
                denom = max(abs(numeric), abs(analytic[j]), 1e-8)
                assert abs(analytic[j] - numeric) / denom < 1e-4
        report("policy gradient vs central differences (20 instances)")


class TestCollapseCriteria:
    def test_collapse_and_mitigation(self, training_runs):
        runs, elapsed = training_runs
        collapsed = 0
        mitigated = 0
        for env, plain, shaped in runs:
            if plain.mean_windowed_erank[-1] < plain.mean_windowed_erank[0]:
                collapsed += 1
            if shaped.mean_windowed_erank[-1] > plain.mean_windowed_erank[-1]:
                mitigated += 1
        assert collapsed == len(runs)
        assert mitigated >= 4
        assert elapsed < COLLAPSE_BUDGET_SECONDS
        report(f"rank collapse ({collapsed}/5 seeds) and mitigation "
               f"({mitigated}/5 pairs) in {elapsed:.1f}s")

    def test_boundary_expansion(self, training_runs):
        runs, _ = training_runs
        improved = 0
        ties = 0
        margins = []
        for pair_index, (env, plain, shaped) in enumerate(runs):
            counts = {}
            for label, trace in (("plain", plain), ("shaped", shaped)):
                correct = sum(
                    rollout(trace.final_policy, env,
                            np.random.SeedSequence([7000, pair_index, i])).correct
                    for i in range(64))
                counts[label] = correct
            plain16 = pass_at_k(64, counts["plain"], 16)
            shaped16 = pass_at_k(64, counts["shaped"], 16)
            margins.append(f"{plain16:.4f}->{shaped16:.4f}")
            ties += shaped16 == plain16
            if shaped16 >= plain16:
                improved += 1
        assert improved >= 4
        # A tie counts as improved, so the report names the ties.
        report(f"pass@16 boundary expansion ({improved}/5 pairs, {ties} ties; "
               f"plain->shaped {', '.join(margins)})")


class TestTemperatureCriteria:
    def test_sweep_nonincreasing(self):
        env = build_env(0)
        policy = PolicyParams(np.random.default_rng(11).normal(size=env.vocab))
        sweep = temperature_sweep(policy, env, [1.0, 2.0, 4.0, 8.0], 500, seed=2)
        for a, b, sa, sb in zip(sweep.mean_erank, sweep.mean_erank[1:],
                                sweep.std_error, sweep.std_error[1:]):
            assert b <= a + 2.0 * np.sqrt(sa * sa + sb * sb)
        report("temperature sweep mean rank nonincreasing across scales 1,2,4,8")


class TestFormatCriteria:
    def test_hstb_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "roundtrip.hstb"
        for _ in range(50):
            T = int(rng.integers(1, 40))
            d = int(rng.integers(1, 24))
            H = rng.normal(size=(T, d)).astype(np.float32).astype(np.float64)
            write_trajectory(path, H)
            npt.assert_array_equal(read_trajectory(path), H)
        report("HSTB round trip bit-exact on 50 random trajectories")

    def test_cli_error_paths_return_documented_exit_codes(self, tmp_path, capsys):
        flat = tmp_path / "flat.hstb"
        write_trajectory(flat, np.ones((8, 3)))
        good = tmp_path / "good.hstb"
        write_trajectory(good, np.random.default_rng(0).normal(size=(10, 3)))
        bad_magic = tmp_path / "magic.hstb"
        bad_magic.write_bytes(b"WHAT" + b"\x00" * 16)
        truncated = tmp_path / "short.hstb"
        truncated.write_bytes(
            struct.pack("<4sIII", MAGIC, VERSION, 4, 4) + b"\x00" * 10)
        nonfinite = tmp_path / "inf.hstb"
        nonfinite.write_bytes(
            struct.pack("<4sIII", MAGIC, VERSION, 1, 2)
            + np.array([[1.0, np.inf]], dtype="<f4").tobytes())
        counts = tmp_path / "counts.csv"
        counts.write_text("2\n")
        one_class = tmp_path / "one_class.csv"
        one_class.write_text("eff_rank,entropy,correct\n"
                             + "".join(f"{1.0 + 0.1 * i},{0.5 + 0.01 * i},1\n"
                                       for i in range(30)))
        single = tmp_path / "single.csv"
        single.write_text("1.0\n")
        badcfg = tmp_path / "bad.cfg"
        badcfg.write_text("bogus = 1\n")
        same = tmp_path / "same.hstb"
        write_trajectory(same, np.ones((6, 3)))
        probes = tmp_path / "probes.hstb"
        write_trajectory(probes, np.eye(3))
        empty = tmp_path / "empty"
        empty.mkdir()

        cases = [
            (["effrank", "/nonexistent.hstb"], 1),
            (["effrank", str(bad_magic)], 1),
            (["effrank", str(truncated)], 1),
            (["effrank", str(nonfinite)], 1),
            (["effrank", str(flat)], 2),
            (["window-rank", str(good), "--w", "1"], 1),
            (["passk", "--n", "4", "--ks", "8", str(counts)], 1),
            (["fit-decouple", str(one_class)], 2),
            (["advantage", str(single)], 1),
            (["soe-select", "--basis", str(same), "--probes", str(probes)], 2),
            (["simulate", "--config", str(badcfg), "--out", str(tmp_path / "out")], 1),
            (["report", "--runs", str(empty)], 1),
            (["frobnicate"], 1),
        ]
        for argv, expected in cases:
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == expected, f"{argv} exited {code}, expected {expected}"
            err_lines = captured.err.strip().splitlines()
            assert len(err_lines) == 1 and err_lines[0].startswith("error [")
        good_code = cli_main(["effrank", str(good)])
        capsys.readouterr()
        assert good_code == 0
        report(f"CLI error paths ({len(cases)} cases) return documented exit codes")
