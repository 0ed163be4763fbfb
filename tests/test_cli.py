import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankshape
from rankshape import write_trajectory
from rankshape.cli import main
from rankshape.io import apply_overrides, load_run_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def traj_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "traj.hstb"
    write_trajectory(path, rng.normal(size=(40, 6)).astype(np.float32))
    return path


class TestEffrank:
    def test_json_line_per_file(self, capsys, traj_file):
        code, out, err = run_cli(capsys, "effrank", str(traj_file))
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["file"] == str(traj_file)
        assert 1.0 <= record["effective_rank"] <= 6.0

    def test_multiple_files_in_order(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        paths = []
        for i in range(3):
            p = tmp_path / f"t{i}.hstb"
            write_trajectory(p, rng.normal(size=(10, 3)).astype(np.float32))
            paths.append(str(p))
        code, out, _ = run_cli(capsys, "effrank", *paths)
        assert code == 0
        got = [json.loads(line)["file"] for line in out.strip().splitlines()]
        assert got == paths

    def test_constant_trajectory_is_degenerate_exit_2(self, capsys, tmp_path):
        path = tmp_path / "flat.hstb"
        write_trajectory(path, np.ones((8, 3)))
        code, out, err = run_cli(capsys, "effrank", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error [degenerate_spectrum]:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "effrank", "/nonexistent.hstb")
        assert code == 1
        assert err.startswith("error [")

    def test_bad_magic_exit_1(self, capsys, tmp_path):
        path = tmp_path / "junk.hstb"
        path.write_bytes(b"JUNKJUNKJUNK")
        code, _, err = run_cli(capsys, "effrank", str(path))
        assert code == 1
        assert "bad_magic" in err


class TestWindowRank:
    def test_profile_fields(self, capsys, traj_file):
        code, out, _ = run_cli(capsys, "window-rank", str(traj_file),
                               "--w", "16", "--stride", "8")
        assert code == 0
        record = json.loads(out.strip())
        assert record["window"] == 16
        assert record["stride"] == 8
        assert record["r_max"] == 6
        assert record["min_erank"] == min(record["per_window_erank"])
        assert 0.0 <= record["norm_rank"] <= 1.0

    def test_bad_width_exit_1(self, capsys, traj_file):
        code, _, err = run_cli(capsys, "window-rank", str(traj_file), "--w", "1")
        assert code == 1
        assert err.startswith("error [")


@pytest.mark.parametrize("T, d, width, stride, quiet, paths", [
    (200, 96, 32, 8, False, {"gram"}),
    (120, 16, 32, 8, False, {"own"}),
    (200, 64, 16, 4, True, {"gram", "own"}),
    (20, 48, 64, 16, False, {"gram"}),
], ids=["shared_gram", "own_rows", "constant_stretch", "shorter_than_window"])
def test_stored_float32_scores_as_its_float64_image(capsys, tmp_path, monkeypatch,
                                                    T, d, width, stride, quiet, paths):
    """window-rank and effrank score the float32 payload as stored; their
    output equals, byte for byte, the float64 library path's. ``paths``
    names the window scorers each case reaches: the shared block Gram, and
    each window's own rows (w >= d, or a constant stretch that trips
    BLOCK_SHIFT_RATIO)."""
    from rankshape import windows

    H = 300.0 + np.random.default_rng(7).normal(size=(T, d))  # an LLM-like offset
    if quiet:
        H[60:100] = H[60]
    path = tmp_path / "traj.hstb"
    write_trajectory(path, H)
    H64 = rankshape.read_trajectory(path)
    profile = rankshape.windowed_min_effrank(H64, width, stride)
    expected_window = json.dumps({
        "file": str(path), "window": width, "stride": stride,
        "per_window_erank": list(profile.per_window_erank), "min_erank": profile.min_erank,
        "r_max": profile.r_max, "norm_rank": rankshape.norm_rank(profile)}) + "\n"
    erank = rankshape.effective_rank(rankshape.covariance_spectrum(H64))
    expected_effrank = json.dumps({"file": str(path), "effective_rank": erank}) + "\n"

    taken = set()

    def spy(name, tag):
        original = getattr(windows, name)

        def traced(*args):
            taken.add(tag)
            return original(*args)
        monkeypatch.setattr(windows, name, traced)

    spy("_top_eigen", "gram")
    spy("_erank_stack", "own")
    assert run_cli(capsys, "window-rank", str(path), "--w", str(width),
                   "--stride", str(stride)) == (0, expected_window, "")
    assert taken == paths
    assert run_cli(capsys, "effrank", str(path)) == (0, expected_effrank, "")


class TestReward:
    def test_rewards_per_record(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"correct": true, "norm_rank": 1.0}\n'
            '{"correct": true, "norm_rank": 0.5}\n'
            '{"correct": false, "norm_rank": 0.9}\n')
        code, out, _ = run_cli(capsys, "reward", "--alpha", "0.5", str(path))
        assert code == 0
        rewards = [json.loads(line)["reward"] for line in out.strip().splitlines()]
        assert rewards == [1.5, 1.25, 0.0]

    def test_bad_json_exit_1(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("not json\n")
        code, _, err = run_cli(capsys, "reward", str(path))
        assert code == 1
        assert "line 1" in err

    def test_missing_field_exit_1(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"correct": true}\n')
        code, _, _ = run_cli(capsys, "reward", str(path))
        assert code == 1


class TestAdvantage:
    def test_one_group_per_row(self, capsys, tmp_path):
        path = tmp_path / "rewards.csv"
        path.write_text("1.0,0.0\n1.0,1.0,1.0\n")
        code, out, _ = run_cli(capsys, "advantage", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1.000000,-1.000000"
        assert lines[1] == "0.000000,0.000000,0.000000"

    def test_huge_rewards_print_no_warning(self, tmp_path):
        # A subprocess, so that a numpy overflow warning would reach the real stderr.
        path = tmp_path / "rewards.csv"
        path.write_text("1.7e308,1.7e308\n1e200,-1e200\n")
        src = str(Path(rankshape.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "rankshape.cli", "advantage", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "0.000000,0.000000\n1.000000,-1.000000\n"

    def test_short_group_exit_1(self, capsys, tmp_path):
        path = tmp_path / "rewards.csv"
        path.write_text("1.0\n")
        code, _, err = run_cli(capsys, "advantage", str(path))
        assert code == 1
        assert "group_too_small" in err


class TestPassk:
    def test_worked_example(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("2\n")
        code, out, _ = run_cli(capsys, "passk", "--n", "4", "--ks", "2", str(path))
        assert code == 0
        assert out.strip() == "2,0.833333"

    def test_curve_rows_in_requested_order(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("0\n16\n64\n")
        code, out, _ = run_cli(capsys, "passk", "--n", "64",
                               "--ks", "1,4,16", str(path))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert [r[0] for r in rows] == ["1", "4", "16"]
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)

    def test_k_above_n_exit_1(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("2\n")
        code, _, err = run_cli(capsys, "passk", "--n", "4", "--ks", "8", str(path))
        assert code == 1
        assert "range" in err

    def test_count_above_n_exit_1(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("9\n")
        code, _, _ = run_cli(capsys, "passk", "--n", "4", "--ks", "2", str(path))
        assert code == 1

    def test_n_is_checked_before_the_counts(self, capsys, tmp_path):
        """--n is not a line of the counts file: its error has no line label,
        and it comes before any count is read."""
        path = tmp_path / "counts.csv"
        path.write_text("3\n9\n")
        code, _, err = run_cli(capsys, "passk", "--n", "0", "--ks", "1", str(path))
        assert (code, err) == (1, "error [range]: n must be >= 1 and <= 9223372036854775807, "
                                  "got 0\n")


class TestFitDecouple:
    def test_fit_json(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        rows = ["eff_rank,entropy,correct"]
        for _ in range(200):
            r = max(1.0, rng.normal(4.0, 1.5))
            e = max(0.0, rng.normal(2.0, 0.6))
            y = int(rng.uniform() < 1.0 / (1.0 + np.exp(-(r - 4.0))))
            rows.append(f"{r},{e},{y}")
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit-decouple", str(path))
        assert code == 0
        record = json.loads(out.strip())
        assert record["converged"] is True
        assert record["beta_r"] > 0.0

    def test_single_class_exit_2(self, capsys, tmp_path):
        rows = ["eff_rank,entropy,correct"]
        rows += [f"{1.0 + 0.1 * i},{0.5 + 0.01 * i},1" for i in range(30)]
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "fit-decouple", str(path))
        assert code == 2
        assert "degenerate_labels" in err

    def test_collinear_features_exit_2(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        eff_rank = rng.uniform(1.0, 5.0, 40)
        correct = rng.uniform(size=40) < 0.5
        rows = ["eff_rank,entropy,correct"]
        rows += [f"{r!r},{3.0 * r + 0.5!r},{int(y)}" for r, y in zip(eff_rank.tolist(), correct)]
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit-decouple", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error [degenerate]: collinear features eff_rank and entropy")


class TestSoeSelect:
    def test_selects_orthogonal_probe(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        states = np.zeros((30, 4), dtype=np.float32)
        states[:, :2] = rng.normal(size=(30, 2)).astype(np.float32)
        basis_path = tmp_path / "basis.hstb"
        write_trajectory(basis_path, states)
        probes_path = tmp_path / "probes.hstb"
        write_trajectory(probes_path, np.array([[1.0, 0.0, 0.0, 0.0],
                                                [0.0, 0.0, 1.0, 0.0]], dtype=np.float32))
        code, out, _ = run_cli(capsys, "soe-select",
                               "--basis", str(basis_path),
                               "--probes", str(probes_path),
                               "--energy", "0.999",
                               "--prefix", "12", "--query-id", "q1")
        assert code == 0
        plan = json.loads(out.strip())
        assert set(plan) == {"query_id", "prefix_length", "probe_label",
                             "omega", "basis_k", "warning"}
        assert plan["probe_label"] == "probe1"
        assert plan["omega"] > 0.9
        assert plan["warning"] is False
        assert plan["prefix_length"] == 12
        assert plan["query_id"] == "q1"

    def test_probe_dimension_mismatch_is_input_error(self, capsys, tmp_path):
        basis_path = tmp_path / "basis.hstb"
        write_trajectory(basis_path, np.random.default_rng(0).normal(size=(30, 4)))
        probes_path = tmp_path / "probes.hstb"
        write_trajectory(probes_path, np.eye(3))
        code, out, err = run_cli(capsys, "soe-select",
                                 "--basis", str(basis_path), "--probes", str(probes_path))
        assert code == 1
        assert out == ""
        assert err == "error [input]: probes have dimension 3, states have 4\n"

    def test_identical_states_exit_2(self, capsys, tmp_path):
        basis_path = tmp_path / "basis.hstb"
        write_trajectory(basis_path, np.ones((6, 3)))
        probes_path = tmp_path / "probes.hstb"
        write_trajectory(probes_path, np.eye(3))
        code, _, err = run_cli(capsys, "soe-select",
                               "--basis", str(basis_path),
                               "--probes", str(probes_path))
        assert code == 2
        assert "zero_variance" in err


class TestSimulateAndReport:
    def write_config(self, tmp_path, **overrides):
        lines = ["iterations = 10", "horizon = 12", "window = 12"]
        lines += [f"{k} = {v}" for k, v in overrides.items()]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_simulate_writes_trace_and_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, alpha=0.5, train_seed=3)
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(out_dir))
        assert code == 0
        record = json.loads(out.strip())
        trace_path = tmp_path / "runs" / "alpha0.5_seed3.csv"
        config_path = tmp_path / "runs" / "alpha0.5_seed3.json"
        assert record["trace"] == str(trace_path)
        assert trace_path.exists() and config_path.exists()
        header = trace_path.read_text().splitlines()[0]
        assert header == "iteration,mean_windowed_erank,success_rate,mean_reward,policy_entropy"
        config = json.loads(config_path.read_text())
        assert config["alpha"] == 0.5
        assert config["train_seed"] == 3

    def test_record_is_the_resolved_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, env_seed=3, train_seed=103, label="p3")
        first = tmp_path / "first"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(first),
                "--set", "alpha=0.5")
        record = json.loads((first / "p3_alpha0.5_seed103.json").read_text())
        resolved = apply_overrides(load_run_config(cfg), ["alpha=0.5"])
        assert record == dataclasses.asdict(resolved)
        # The record reads back as a config file and reproduces both outputs.
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in record.items()))
        second = tmp_path / "second"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(second))
        for path in first.iterdir():
            assert (second / path.name).read_bytes() == path.read_bytes()

    def test_simulate_deterministic_bytes(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, alpha=0.0, train_seed=1)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_a))
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_b))
        a = (out_a / "alpha0_seed1.csv").read_bytes()
        b = (out_b / "alpha0_seed1.csv").read_bytes()
        assert a == b

    # sha256 of the trace CSV and run JSON of an empty config file, recorded
    # while each rollout still drew from its own numpy Generator. The 23-digit
    # seed spans three entropy words, so each SeedSequence([seed, it, i]) of
    # its run takes the hash's second mixing loop (more than 4 words).
    @pytest.mark.parametrize("overrides, stem, csv_sha256, json_sha256", [
        ([], "alpha0.5_seed1",
         "92a0f23606fa09caa9a747b2a72545d3d8fc0d59f72808d599e6bf554e187db7",
         "02de11cc173600ee0aab8b1cd2b9a85ae3bdde066a362d27a5aaa521fba0df43"),
        (["--set", "train_seed=99999999999999999999999"],
         "alpha0.5_seed99999999999999999999999",
         "f94b05d4513ef090af3d824eefd1c1fd7b67a4b8540638ae90414b7f73b2cf5c",
         "2e113519d3f753fa6b311c5d56b6dc67eb13bf6b26c8a9372fd9bc9825dd7161"),
    ], ids=["defaults", "23-digit-seed"])
    def test_default_run_keeps_its_bytes(self, capsys, tmp_path, overrides, stem,
                                         csv_sha256, json_sha256):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        out = tmp_path / "runs"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out),
                             *overrides)
        assert code == 0
        assert hashlib.sha256((out / f"{stem}.csv").read_bytes()).hexdigest() == csv_sha256
        assert hashlib.sha256((out / f"{stem}.json").read_bytes()).hexdigest() == json_sha256

    def test_library_train_at_defaults_matches_simulate(self, capsys, tmp_path):
        # horizon 16 < window 64 < dim 24 is where a train default of its own
        # used to score windows with a smaller r_max than simulate did.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env_seed = 0\ndim = 24\nhorizon = 16\niterations = 100\n")
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "runs"))
        env = rankshape.build_env(0, d=24, horizon=16)
        trace = rankshape.train(env, rankshape.biased_init(env), alpha=0.5, iterations=100)
        trace.to_csv(tmp_path / "lib.csv")
        simulated = (tmp_path / "runs" / "alpha0.5_seed1.csv").read_bytes()
        assert (tmp_path / "lib.csv").read_bytes() == simulated

    def test_set_overrides_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, alpha=0.5, train_seed=1)
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(out_dir), "--set", "alpha=0.0",
                               "--set", "train_seed=2")
        assert code == 0
        assert json.loads(out.strip())["trace"].endswith("alpha0_seed2.csv")

    def test_unknown_config_key_exit_1(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out", str(tmp_path / "runs"))
        assert code == 1
        assert "accepted keys" in err

    def test_label_with_hash_is_config_error(self, capsys, tmp_path):
        # A config file cuts lines at "#", so such a label could not be restated.
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "runs"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--out", str(out_dir), "--set", "label=a#b")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error [config]:")
        assert "label" in err
        assert not out_dir.exists()

    def test_overflowing_learning_rate_is_one_error_line(self, tmp_path):
        # A subprocess, so that a numpy warning would reach the real stderr.
        cfg = self.write_config(tmp_path)
        src = str(Path(rankshape.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "rankshape.cli", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "runs"), "--set", "learning_rate=1e308"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error [input]:")
        assert "learning_rate" in lines[0]

    def test_report_aggregates_sorted(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "runs"
        for alpha in ("0.5", "0.0"):
            for seed in ("2", "1"):
                run_cli(capsys, "simulate", "--config", str(cfg),
                        "--out", str(out_dir),
                        "--set", f"alpha={alpha}", "--set", f"train_seed={seed}")
        code, out, _ = run_cli(capsys, "report", "--runs", str(out_dir))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,seed,iterations,final_mean_windowed_erank,final_success_rate"
        keys = [(float(r.split(",")[0]), int(r.split(",")[1])) for r in lines[1:]]
        assert keys == [(0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2)]
        assert all(int(r.split(",")[2]) == 10 for r in lines[1:])

    def test_report_empty_dir_exit_1(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(capsys, "report", "--runs", str(empty))
        assert code == 1
        assert "no run records" in err

    def test_oversized_group_refused_before_training(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "runs"
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out),
                                    "--set", "group_size=1000000000000")
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error [input]: 1000000000000 draws")
        assert not list(out.glob("*.csv"))

    def test_oversized_env_refused_before_drawing(self, capsys, tmp_path):
        out = tmp_path / "runs"
        code, stdout, err = run_cli(capsys, "simulate", "--config",
                                    str(self.write_config(tmp_path)), "--out", str(out),
                                    "--set", "dim=100000")
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error [input]: dimension 100000 needs")
        assert not out.exists()

    @pytest.mark.parametrize("override",
                             ["alpha=nan", "window=1", "group_size=1", "iterations=0"])
    def test_refused_run_leaves_no_output_directory(self, capsys, tmp_path, override):
        out = tmp_path / "runs" / "nested"
        code, stdout, err = run_cli(capsys, "simulate", "--config",
                                    str(self.write_config(tmp_path)), "--out", str(out),
                                    "--set", override)
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert not out.exists()
        assert not out.parent.exists()

    def test_refused_run_keeps_an_existing_output_directory(self, capsys, tmp_path):
        out = tmp_path / "runs"
        out.mkdir()
        code, _, _ = run_cli(capsys, "simulate", "--config", str(self.write_config(tmp_path)),
                             "--out", str(out), "--set", "alpha=nan")
        assert code == 1
        assert out.is_dir() and not list(out.iterdir())

    def test_memory_error_is_one_input_line(self, capsys, tmp_path, monkeypatch):
        def build_env(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("rankshape.cli.build_env", build_env)
        code, stdout, err = run_cli(capsys, "simulate", "--config",
                                    str(self.write_config(tmp_path)), "--out", str(tmp_path))
        assert code == 1
        assert stdout == ""
        assert err == "error [input]: out of memory: allocation failed\n"


class TestArgumentErrors:
    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error [")
        assert len(err.strip().splitlines()) == 1

    def test_missing_required_flag_exit_1(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("1\n")
        code, _, err = run_cli(capsys, "passk", str(path))
        assert code == 1


# Deeper than json.loads can recurse.
DEEPLY_NESTED = "[" * 200_000
ONE_RECORD = '{"correct": true, "norm_rank": 0.5}\n'


class TestMalformedInput:
    @pytest.mark.parametrize("record", [
        '{"correct": true, "norm_rank": "abc"}',
        '{"correct": true, "norm_rank": null}',
        '{"correct": true, "norm_rank": [0.5]}',
        '{"correct": true, "norm_rank": true}',
        '{"correct": true, "norm_rank": false}',
        '{"correct": true, "norm_rank": "0.5"}',
        '{"correct": "false", "norm_rank": 0.5}',
        '{"correct": "true", "norm_rank": 0.5}',
        '{"correct": null, "norm_rank": 0.5}',
        '{"correct": 2, "norm_rank": 0.5}',
        pytest.param(DEEPLY_NESTED, id="deeply_nested"),
    ])
    def test_reward_rejects_bad_field(self, capsys, tmp_path, record):
        path = tmp_path / "records.jsonl"
        path.write_text(record + "\n")
        code, out, err = run_cli(capsys, "reward", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error [input]:")
        assert "line 1" in err

    def test_reward_accepts_zero_one_flags(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"correct": 1, "norm_rank": 0.5}\n'
                        '{"correct": 0, "norm_rank": 0.5}\n')
        code, out, _ = run_cli(capsys, "reward", "--alpha", "0.5", str(path))
        assert code == 0
        rewards = [json.loads(line)["reward"] for line in out.strip().splitlines()]
        assert rewards == [1.25, 0.0]

    def write_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 3\nhorizon = 12\nwindow = 12\n")
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        record = json.loads(out.strip())
        return out_dir, Path(record["config"]), Path(record["trace"])

    @pytest.mark.parametrize("key, value", [
        ("alpha", "abc"), ("train_seed", "abc"), ("train_seed", None), ("alpha", [1]),
        ("train_seed", 1.9), ("train_seed", True), ("alpha", True), ("alpha", False),
        ("alpha", float("inf")), ("alpha", float("nan")),
        pytest.param("alpha", DEEPLY_NESTED, id="alpha-deeply_nested"),
    ])
    def test_report_non_numeric_config_value(self, capsys, tmp_path, key, value):
        out_dir, config_path, _ = self.write_run(tmp_path, capsys)
        config = json.loads(config_path.read_text())
        config[key] = value
        # DEEPLY_NESTED goes in as raw JSON, not as a string.
        config_path.write_text(json.dumps(config).replace(json.dumps(DEEPLY_NESTED), DEEPLY_NESTED))
        code, _, err = run_cli(capsys, "report", "--runs", str(out_dir))
        assert code == 1
        assert err.startswith("error [input]:")
        assert config_path.name in err

    @pytest.mark.parametrize("option, argv, records", [
        ("alpha", ["reward", "--alpha", "nan"], ONE_RECORD),
        ("alpha", ["reward", "--alpha", "inf"], ONE_RECORD),
        ("alpha", ["reward", "--alpha", "nan"], ""),
        ("alpha", ["reward", "--alpha", "-1"], ""),
        ("alpha", ["simulate", "--set", "alpha=nan"], None),
        ("learning_rate", ["simulate", "--set", "learning_rate=-0.05"], None),
        ("prefix", ["soe-select", "--prefix", "-3"], None),
    ], ids=["reward-alpha-nan", "reward-alpha-inf", "reward-alpha-nan-empty-file",
            "reward-alpha-negative-empty-file", "simulate-alpha-nan",
            "simulate-learning-rate-negative", "soe-select-prefix"])
    def test_out_of_range_number_is_input_error(self, capsys, tmp_path, option, argv, records):
        if argv[0] == "reward":
            path = tmp_path / "records.jsonl"
            path.write_text(records)
            argv = argv + [str(path)]
        elif argv[0] == "simulate":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("iterations = 3\nhorizon = 12\nwindow = 12\n")
            argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "runs")]
        else:
            states = tmp_path / "states.hstb"
            write_trajectory(states, np.random.default_rng(0).normal(size=(10, 4)))
            argv = argv + ["--basis", str(states), "--probes", str(states)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error [input]:")
        assert option in err

    @pytest.mark.parametrize("case", ["label_with_slash", "out_is_a_file", "out_under_a_file"])
    def test_simulate_unwritable_output_is_input_error(self, capsys, tmp_path, monkeypatch, case):
        def train(*args, **kwargs):
            raise AssertionError("simulate trained before checking its output path")

        monkeypatch.setattr("rankshape.cli.train", train)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 2\nhorizon = 12\nwindow = 12\n")
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        out, argv = tmp_path / "runs", []
        if case == "label_with_slash":
            argv, named = ["--set", "label=a/b"], str(out / "a")
        elif case == "out_is_a_file":
            out = named = a_file
        else:
            out = a_file / "runs"
            named = str(out)
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg),
                                    "--out", str(out), *argv)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error [input]:")
        assert str(named) in err
        assert not [p for p in tmp_path.rglob("*") if p.suffix in (".csv", ".json")]

    def test_report_accepts_integral_float_seed(self, capsys, tmp_path):
        out_dir, config_path, _ = self.write_run(tmp_path, capsys)
        config = json.loads(config_path.read_text())
        config["train_seed"] = 4.0
        config_path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "report", "--runs", str(out_dir))
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "4"

    @pytest.mark.parametrize("text", ["[1, 2]", '{"alpha": 0.5}', '{"train_seed": 1}', "3"])
    def test_report_skips_a_json_that_is_not_a_run_record(self, capsys, tmp_path, text):
        out_dir, _, _ = self.write_run(tmp_path, capsys)
        _, expected, _ = run_cli(capsys, "report", "--runs", str(out_dir))
        (out_dir / "notes.json").write_text(text)
        code, out, err = run_cli(capsys, "report", "--runs", str(out_dir))
        assert (code, out, err) == (0, expected, "")

    def test_report_unparseable_trace_number(self, capsys, tmp_path):
        out_dir, _, trace_path = self.write_run(tmp_path, capsys)
        lines = trace_path.read_text().splitlines()
        lines[-1] = "2,abc,0.5,0.5,1.0"
        trace_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "report", "--runs", str(out_dir))
        assert code == 1
        assert err.startswith("error [input]:")
        assert trace_path.name in err


NOT_UTF8 = b"\xff\xfe\x00bad\n"


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    path = tmp_path / "traj.hstb"
    write_trajectory(path, np.random.default_rng(0).normal(size=(400, 3)))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, so every write to stdout fails with EPIPE
    src = str(Path(rankshape.__file__).resolve().parents[1])
    try:
        result = subprocess.run(
            [sys.executable, "-m", "rankshape.cli", "window-rank", str(path), "--w", "2",
             "--stride", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


def _not_utf8_case(tmp_path, capsys, command):
    """Argv for `command` with one input file replaced by non-UTF-8 bytes."""
    bad = tmp_path / "bad"
    if command == "effrank":
        bad = bad.with_suffix(".csv")
        bad.write_bytes(b"1.0,2.0\n" + NOT_UTF8)
        return ["effrank", str(bad)]
    if command in ("reward", "advantage"):
        bad.write_bytes(NOT_UTF8)
        return [command, str(bad)]
    if command == "passk":
        bad.write_bytes(NOT_UTF8)
        return ["passk", "--n", "4", "--ks", "1", str(bad)]
    if command == "fit-decouple":
        bad.write_bytes(b"eff_rank,entropy,correct\n" + NOT_UTF8)
        return ["fit-decouple", str(bad)]
    if command == "simulate":
        bad.write_bytes(b"alpha = 0.5 # \xe9\n")
        return ["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations = 2\nhorizon = 12\nwindow = 12\n")
    runs = tmp_path / "runs"
    assert main(["simulate", "--config", str(cfg), "--out", str(runs)]) == 0
    capsys.readouterr()
    target = "json" if command == "report-config" else "csv"
    path = next(runs.glob(f"*.{target}"))
    path.write_bytes(path.read_bytes() + NOT_UTF8)
    return ["report", "--runs", str(runs)]


@pytest.mark.parametrize("command", [
    "effrank", "reward", "advantage", "passk", "fit-decouple", "simulate",
    "report-config", "report-trace",
])
def test_non_utf8_input_is_input_error(capsys, tmp_path, command):
    argv = _not_utf8_case(tmp_path, capsys, command)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error [input]:")
    assert "UTF-8" in err


@pytest.mark.parametrize("command", ["effrank", "reward", "advantage"])
def test_directory_input_is_input_error(capsys, tmp_path, command):
    code, _, err = run_cli(capsys, command, str(tmp_path))
    assert code == 1
    assert err.startswith("error [input]: no such file")


MEM = Path("/proc/self/mem")


@pytest.mark.skipif(not MEM.is_file(), reason="needs /proc/self/mem")
@pytest.mark.parametrize("command", [
    "effrank", "window-rank-csv", "fit-decouple", "simulate", "reward", "report",
])
def test_unreadable_input_is_input_error(capsys, tmp_path, command):
    """/proc/self/mem opens but its first read fails (EIO): one error line
    naming the file, not a traceback. A .csv or .json symlink to it reads as
    that kind of file."""
    name = MEM
    if command in ("window-rank-csv", "report"):
        name = tmp_path / ("mem.csv" if command == "window-rank-csv" else "mem.json")
        name.symlink_to(MEM)
    argv = {
        "effrank": ["effrank", str(name)],
        "window-rank-csv": ["window-rank", str(name)],
        "fit-decouple": ["fit-decouple", str(name)],
        "simulate": ["simulate", "--config", str(name), "--out", str(tmp_path / "out")],
        "reward": ["reward", str(name)],
        "report": ["report", "--runs", str(tmp_path)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error [input]: cannot read {name}: ")


SAMPLES_HEADER = "eff_rank,entropy,correct\n"


@pytest.mark.parametrize("argv, text, error_code", [
    (["advantage"], "1,abc\n", "input"),
    (["passk", "--n", "4", "--ks", "2"], "x\n", "input"),
    (["passk", "--n", "4", "--ks", "a"], "2\n", "input"),
    (["passk", "--n", "4", "--ks", ","], "2\n", "input"),
    (["report", "--runs"], "", "input"),
    (["fit-decouple"], "", "bad_header"),
    (["fit-decouple"], "x" * 200_000 + ",entropy,correct\n", "bad_header"),
    (["fit-decouple"], SAMPLES_HEADER + "1.0,0.5\n", "dimension_mismatch"),
    (["fit-decouple"], SAMPLES_HEADER + "2.0,0.5,2\n", "bad_value"),
    (["fit-decouple"], SAMPLES_HEADER + "0.5,0.5,1\n", "bad_value"),
    (["advantage"], "\n5\n", "group_too_small"),
    (["advantage"], "\n3,nan\n", "input"),
], ids=["advantage-bad-reward", "passk-bad-count", "passk-bad-ks", "passk-empty-ks",
        "report-runs-is-a-file", "fit-decouple-empty", "fit-decouple-header-field-limit",
        "fit-decouple-two-fields",
        "fit-decouple-correct-2", "fit-decouple-rank-below-1", "advantage-one-value-row",
        "advantage-non-finite-row"])
def test_documented_error_exit(capsys, tmp_path, argv, text, error_code):
    path = tmp_path / "input.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error [{error_code}]:")
    if argv == ["advantage"]:  # the bad row is the file's last line
        assert f"line {len(text.splitlines())}" in err


@pytest.mark.parametrize("argv, text, error", [
    (["reward"], '{"correct": 1, "norm_rank": 0.5}\n\n{oops\n',
     "error [input]: record line 3: not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (["reward"], '[1, 2]\n', "error [input]: record line 1: needs fields correct and norm_rank"),
    (["reward"], '{"correct": 1, "norm_rank": 1.5}\n',
     "error [input]: record line 1: norm_rank must be >= 0 and <= 1, got 1.5"),
    (["reward"], '{"correct": 1, "norm_rank": 1' + "0" * 5000 + '}\n',
     "error [input]: record line 1: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
    (["advantage"], "1,2\n 1,x\n", "error [input]: line 2: could not convert string to float: 'x'"),
    (["advantage"], "1,2\n\n5\n",
     "error [group_too_small]: line 3: rewards must have 2 or more entries on each axis, "
     "got shape (1,)"),
    (["passk", "--n", "4", "--ks", "1"], "3\n 2.0 \n",
     "error [input]: line 2: invalid literal for int() with base 10: '2.0'"),
    (["passk", "--n", "4", "--ks", "1"], "3\n9\n",
     "error [range]: line 2: count must be >= 0 and <= 4, got 9"),
    # The config and its overrides are refused before --out is made.
    (["simulate", "--out", "never-made", "--config"], "alpha = 0.5\n\niterations = x\n",
     "error [config]: <path> line 3: key iterations: expected int, got 'x'"),
    (["simulate", "--out", "never-made", "--config"], "alpha = 0.5\x0c\niterations = x\n",
     "error [config]: <path> line 2: key iterations: expected int, got 'x'"),
    (["simulate", "--out", "never-made", "--set", "iterations=y", "--config"], "alpha = 0.5\n",
     "error [config]: override 'iterations=y': key iterations: expected int, got 'y'"),
    (["fit-decouple"], SAMPLES_HEADER + "2.0,abc,1\n",
     "error [bad_value]: row 2: could not convert string to float: 'abc'"),
    (["fit-decouple"], SAMPLES_HEADER + "1" * 200_000 + ",0.5,1\n",
     "error [bad_value]: row 2: field larger than field limit (131072)"),
], ids=["reward-json", "reward-fields", "reward-range", "reward-int-past-limit",
        "advantage-float", "advantage-group", "passk-count", "passk-count-range",
        "config-line", "config-form-feed", "config-override", "samples-row", "samples-field-limit"])
def test_a_bad_line_is_named_by_the_one_line_error_rule(capsys, tmp_path, argv, text, error):
    """reward, advantage, passk, fit-decouple and simulate's config name the
    bad line (or override) and keep the error's code; a value Python cannot
    parse is an input error in Python's words."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    error = error.replace("<path>", str(path))
    code, _, err = run_cli(capsys, *argv, str(path))
    assert (code, err) == (1, error + "\n")


@pytest.mark.parametrize("argv, text, error_code, where", [
    (["reward"], '{"correct": 1.0, "norm_rank": 0.5}\n', "input", "record line 1: "),
    (["reward"], '{"correct": 0.0, "norm_rank": 0.5}\n', "input", "record line 1: "),
    (["fit-decouple"], SAMPLES_HEADER + "2.0,0.5,2\n", "bad_value", "row 2: "),
], ids=["reward-float-one", "reward-float-zero", "fit-decouple-two"])
def test_a_verdict_follows_the_one_rule(capsys, tmp_path, argv, text, error_code, where):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error [{error_code}]: {where}correct must be a bool or 0/1, got ")


@pytest.mark.parametrize("name, text", [("empty.csv", ""), ("blanks.csv", "\n\r\n\n")],
                         ids=["empty", "blanks"])
def test_empty_csv_is_one_error_line(tmp_path, name, text):
    # A subprocess, so that numpy's "input contained no data" warning would
    # reach the real stderr.
    path = tmp_path / name
    path.write_text(text, newline="")
    src = str(Path(rankshape.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "rankshape.cli", "effrank", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error [dimension_mismatch]: empty trajectory file: {path}\n"


def test_cli_import_loads_no_scipy():
    src = str(Path(rankshape.__file__).resolve().parents[1])
    probe = ("import sys, rankshape.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


OVERFLOW_ROWS = {
    "3x5": "1e200,0,0,0,0\n0,1e200,0,0,0\n-1e200,-1e200,0,0,0\n",
    "3x2": "1e200,0\n0,1e200\n-1e200,-1e200\n",
}


@pytest.mark.parametrize("command", ["effrank", "window-rank"])
@pytest.mark.parametrize("rows", sorted(OVERFLOW_ROWS))
def test_rows_whose_centred_products_overflow_are_one_error_line(tmp_path, rows, command):
    # A subprocess, so that a numpy warning or a traceback would reach the real stderr.
    path = tmp_path / "big.csv"
    path.write_text(OVERFLOW_ROWS[rows])
    src = str(Path(rankshape.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "rankshape.cli", command, str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == ("error [input]: trajectory values too large to score: their "
                             "centred products overflow the float range\n")


def test_a_whitespace_only_samples_line_is_skipped(capsys, tmp_path):
    rng = np.random.default_rng(0)
    rows = [f"{1.0 + r:.6f},{e:.6f},{int(c)}" for r, e, c in
            zip(rng.uniform(0, 4, 30), rng.uniform(0, 2, 30), rng.uniform(size=30) < 0.5)]
    path = tmp_path / "samples.csv"
    path.write_text(SAMPLES_HEADER + "\n".join(rows) + "\n")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(SAMPLES_HEADER + "\n".join(rows[:10]) + "\n \t\n" + "\n".join(rows[10:]))
    fitted = run_cli(capsys, "fit-decouple", str(spaced))
    assert fitted == run_cli(capsys, "fit-decouple", str(path))
    assert fitted[0] == 0

