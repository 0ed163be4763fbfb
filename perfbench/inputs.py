"""Seeded inputs for the three benchmark workloads.

Every input belongs to a fixed pool instance (a small integer). The run
seed only chooses pool instances; the instance alone fixes the file bytes,
so a reference output recorded once per instance checks every run. Files
are written once per instance under the work directory and reused.

Generation uses numpy's Generator and elementwise float64 arithmetic only
(no BLAS), then rounds to float32, so the bytes are the same on any x86-64
machine with this numpy and the program reads back exactly the values that
were generated.
"""

from __future__ import annotations

import json
import os
import random
import struct
import zlib
from pathlib import Path

import numpy as np

COLLAPSE_ENV_POOL = tuple(range(8))
COLLAPSE_ITERATIONS = 500
COLLAPSE_ALPHAS = (0.0, 0.5)
# Acceptance-suite convention: train seeds are offset from env seeds.
TRAIN_SEED_OFFSET = 100

LLM_WINDOW_POOL = tuple(range(4))   # 4096 x 4096 files scored by window-rank
LLM_WHOLE_POOL = tuple(range(2))    # 2048 x 4096 files scored by effrank
LLM_WINDOW_SHAPE = (4096, 4096)
LLM_WHOLE_SHAPE = (2048, 4096)
LLM_WIDTH = 64
LLM_STRIDE = 16

CLI_POOL = tuple(range(6))
CLI_CSV_SHAPE = (512, 1024)


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(zlib.crc32(repr(key).encode())))


def _atomic_write(path: Path, data: bytes | str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data, encoding="utf-8")
    else:
        tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_hstb(path: Path, rows_f32: np.ndarray) -> None:
    T, d = rows_f32.shape
    header = b"HSTB" + struct.pack("<III", 1, T, d)
    _atomic_write(path, header + np.ascontiguousarray(rows_f32, dtype="<f4").tobytes())


def hidden_states(T: int, d: int, key: tuple, block: int = 512) -> np.ndarray:
    """LLM-like hidden states as a float32 (T, d) matrix.

    A large shared offset with a few massive-activation coordinates, a
    rank-8 random-walk drift, isotropic noise, and one collapsed stretch
    of three window widths where the state moves along a single direction
    with 4% of the usual noise, so the minimum window is informative.
    """
    rng = _rng(*key)
    offset = rng.normal(0.0, 1.0, d)
    massive = rng.choice(d, size=4, replace=False)
    offset[massive] = rng.choice([-1.0, 1.0], 4) * rng.uniform(100.0, 300.0, 4)
    rank = 8
    walk = np.cumsum(rng.normal(0.0, 1.0, (T, rank)), axis=0) / np.sqrt(T)
    loadings = rng.normal(0.0, 2.0, (rank, d))
    lo = int(rng.integers(T // 8, T - T // 8 - 3 * LLM_WIDTH))
    hi = lo + 3 * LLM_WIDTH
    walk[lo:hi] = walk[lo]
    lead = rng.normal(0.0, 1.0, d)
    lead_path = np.zeros(T)
    lead_path[lo:hi] = np.cumsum(rng.normal(0.0, 0.02, hi - lo))
    noise_scale = np.ones(T)
    noise_scale[lo:hi] = 0.04
    out = np.empty((T, d), dtype=np.float32)
    for start in range(0, T, block):
        stop = min(start + block, T)
        rows = rng.normal(0.0, 0.5, (stop - start, d))
        rows *= noise_scale[start:stop, None]
        rows += offset
        for j in range(rank):
            rows += walk[start:stop, j, None] * loadings[j]
        rows += lead_path[start:stop, None] * lead
        out[start:stop] = rows
    return out


def _ensure(path: Path, make) -> None:
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        make(path)


def llm_file(root: Path, kind: str, index: int) -> str:
    """Path of a pool file relative to the work root, written on first use."""
    shape = LLM_WINDOW_SHAPE if kind == "window" else LLM_WHOLE_SHAPE
    name = f"llm/{kind}{index}.hstb"
    _ensure(root / name, lambda p: _write_hstb(p, hidden_states(*shape, ("llm", kind, index))))
    return name


def warm_file(root: Path) -> str:
    """Small HSTB file on the Gram path for untimed warm-up calls."""
    _ensure(root / "warm.hstb", lambda p: _write_hstb(p, hidden_states(320, 512, ("warm",))))
    return "warm.hstb"


def _csv_text(rows_f32: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in rows_f32.astype(np.float64).tolist())


def _cli_files(directory: Path, p: int) -> None:
    rng = _rng("cli", p)
    T, d = CLI_CSV_SHAPE
    _atomic_write(directory / "traj.csv", _csv_text(hidden_states(T, d, ("cli-csv", p))))

    lines = []
    for _ in range(200):
        correct = bool(rng.random() < 0.6)
        lines.append(json.dumps({"correct": correct, "norm_rank": float(rng.random())}))
    _atomic_write(directory / "outcomes.jsonl", "\n".join(lines) + "\n")

    rows = []
    for g in range(200):
        if g % 10 == 0:
            group = [0.0] * 8                       # all wrong: advantages zeroed
        elif g % 10 == 5:
            group = [1.0] * 8                       # all right at rank 0: zeroed too
        else:
            group = [0.0 if rng.random() < 0.4 else 1.0 + 0.5 * float(rng.random())
                     for _ in range(8)]
        rows.append(",".join(repr(x) for x in group))
    _atomic_write(directory / "rewards.csv", "\n".join(rows) + "\n")

    counts = rng.binomial(64, rng.beta(0.7, 1.3, 500))
    _atomic_write(directory / "counts.txt", "".join(f"{int(c)}\n" for c in counts))

    n = 2000
    erank = 1.0 + rng.gamma(3.0, 2.0, n)
    entropy = rng.gamma(2.0, 0.5, n)
    eta = -0.5 + 0.56 * (erank - erank.mean()) / erank.std() - 0.2 * (entropy - entropy.mean()) / entropy.std()
    correct = rng.random(n) < 1.0 / (1.0 + np.exp(-eta))
    body = "".join(f"{r!r},{e!r},{int(c)}\n" for r, e, c in zip(erank.tolist(), entropy.tolist(), correct))
    _atomic_write(directory / "samples.csv", "eff_rank,entropy,correct\n" + body)
    one_label = "".join(f"{r!r},{e!r},1\n" for r, e in zip(erank[:40].tolist(), entropy[:40].tolist()))
    _atomic_write(directory / "onelabel.csv", "eff_rank,entropy,correct\n" + one_label)

    _write_hstb(directory / "basis.hstb", hidden_states(384, 512, ("cli-basis", p)))
    probes = rng.normal(0.0, 1.0, (24, 512)).astype(np.float32)
    _write_hstb(directory / "probes.hstb", probes)

    _atomic_write(directory / "sim.cfg",
                  f"# short training run\niterations = 40\nenv_seed = {p}\n"
                  f"train_seed = {p + TRAIN_SEED_OFFSET}\nlabel = p{p}\n")
    _atomic_write(directory / "badkey.cfg", "iterations = 10\nwarmup = 3\n")
    _atomic_write(directory / "bad.hstb", b"HSTX" + bytes(64))


def cli_dir(root: Path, p: int) -> Path:
    directory = root / "cli" / f"p{p}"
    if not (directory / "ready").exists():
        directory.mkdir(parents=True, exist_ok=True)
        _cli_files(directory, p)
        (directory / "ready").write_text("", encoding="utf-8")
    return directory


# One cycle of cli-batch ops: (label, argv, expected exit code, expected error
# code). The order is fixed so that every run times the same mix; simulate
# runs before report, which reads what simulate wrote.
CLI_CYCLE = (
    ("effrank", ["effrank", "traj.csv"], 0, None),
    ("window-rank", ["window-rank", "traj.csv", "--w", "64", "--stride", "16"], 0, None),
    ("reward", ["reward", "outcomes.jsonl", "--alpha", "0.5"], 0, None),
    ("advantage", ["advantage", "rewards.csv"], 0, None),
    ("passk", ["passk", "counts.txt", "--n", "64", "--ks", "1,4,8,16,32,64"], 0, None),
    ("fit-decouple", ["fit-decouple", "samples.csv"], 0, None),
    ("soe-select", ["soe-select", "--basis", "basis.hstb", "--probes", "probes.hstb",
                    "--energy", "0.9", "--prefix", "12", "--query-id", "q"], 0, None),
    ("simulate", ["simulate", "--config", "sim.cfg", "--out", "runs", "--set", "alpha=0.5"], 0, None),
    ("report", ["report", "--runs", "runs"], 0, None),
    ("err-bad-magic", ["effrank", "bad.hstb"], 1, "bad_magic"),
    ("err-one-label", ["fit-decouple", "onelabel.csv"], 2, "degenerate_labels"),
    ("err-config", ["simulate", "--config", "badkey.cfg", "--out", "runs"], 1, "config"),
)


def collapse_ops(envs) -> list[dict]:
    return [{"key": f"env{e}-alpha{a:g}", "env_seed": e, "train_seed": e + TRAIN_SEED_OFFSET,
             "alpha": a, "iterations": COLLAPSE_ITERATIONS}
            for e in envs for a in COLLAPSE_ALPHAS]


def llm_ops(root: Path, windowed, whole) -> list[dict]:
    ops = [{"key": f"window{i}", "argv": ["window-rank", llm_file(root, "window", i),
                                           "--w", str(LLM_WIDTH), "--stride", str(LLM_STRIDE)]}
           for i in windowed]
    return ops + [{"key": f"whole{i}", "argv": ["effrank", llm_file(root, "whole", i)]}
                  for i in whole]


def cli_ops(p: int) -> list[dict]:
    return [{"key": f"p{p}-{label}", "argv": argv, "exit": code, "error": err}
            for label, argv, code, err in CLI_CYCLE]


def plan(workload: str, seed: int, root: Path) -> dict:
    """Pick pool instances for this seed, write their inputs, return the op cycle."""
    pick = random.Random(f"{workload}:{seed}")
    if workload == "collapse":
        return {"workload": workload, "seed": seed,
                "ops": collapse_ops(pick.sample(COLLAPSE_ENV_POOL, 2))}
    if workload == "llm-windows":
        ops = llm_ops(root, pick.sample(LLM_WINDOW_POOL, 2), [pick.choice(LLM_WHOLE_POOL)])
        return {"workload": workload, "seed": seed, "ops": ops, "warm": warm_file(root)}
    if workload == "cli-batch":
        p = pick.choice(CLI_POOL)
        return {"workload": workload, "seed": seed, "ops": cli_ops(p), "cwd": str(cli_dir(root, p))}
    raise ValueError(f"unknown workload {workload!r}")
