"""rankshape benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 20 --trace 0

Run from the root of a rankshape checkout; it imports the package from
``src/``. Inputs, plans and span dumps go to ``.perfbench_work/`` there.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it with spans around rankshape's functions and
reports the per-layer metrics. Either way the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and the op-latency tail. Workloads,
metrics and units are listed in BENCHMARK.json; README.md says what they
mean.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("collapse", "llm-windows", "cli-batch")
SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
# Every process runs single-threaded BLAS: the parent and the op share two
# cores with nothing else, and one thread gave the steadier timings.
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself cannot run (not a failed op)."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn_worker(plan_path: Path, mode: str, seconds: float, deadline: float) -> tuple[float, dict | None]:
    """Start worker.py; return seconds from spawn to its ready line, and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), mode, str(seconds)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=WORK / "inputs") as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError(f"{mode} worker ran past the run's time limit") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def import_times() -> tuple[float, float]:
    """(import of rankshape.cli, of which scipy) in seconds, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import rankshape.cli"]
    err = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                         timeout=60, check=True).stderr
    rows = []
    for line in err.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field.lstrip()
        rows.append(((len(field) - 1 - len(name)) // 2, name, int(cumulative) / 1e6))
    total = scipy = 0.0
    ancestors: list[str] = []
    for depth, name, seconds in reversed(rows):  # parents come first when reversed
        del ancestors[depth:]
        if depth == 0 and name.startswith("rankshape"):
            total += seconds
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy += seconds
        ancestors.append(name)
    return total, scipy


def lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    return {"cpu_model": fields.get("Model name", "").strip(),
            "llc": fields.get("L3 cache", fields.get("L2 cache", "")).strip()}


def environment(blas_threads) -> dict:
    import importlib.metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        **lscpu(),
    }


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return {"percentile": round(100.0 * (n - 10) / n, 1), "ms": ordered[n - 11] * 1e3,
            "samples": n}


def code_digest() -> str:
    """Hash of rankshape's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "rankshape").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: list) -> str | None:
    """Exact counts must repeat from run to run of the same seed and code.
    Changed code may change them on purpose, so each code digest keeps its own."""
    path = WORK / "counts" / f"{workload}-{seed}-{code_digest()}.json"
    if path.exists():
        if json.loads(path.read_text(encoding="utf-8")) != counts:
            return f"exact counts differ from an earlier run of seed {seed} of the same code"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts), encoding="utf-8")
    return None


def run(args) -> dict:
    if not (ROOT / "src" / "rankshape" / "__init__.py").is_file():
        raise BenchmarkError(f"no rankshape package under {ROOT / 'src'}")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        raise BenchmarkError("BENCHMARK.json not found at the checkout root")
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads, here and in every child
    import gate

    missed = gate.self_check(gate.load_reference())
    if missed:
        raise BenchmarkError("correctness gate self-check failed: " + "; ".join(missed))
    import inputs

    (WORK / "inputs").mkdir(parents=True, exist_ok=True)
    plan = inputs.plan(args.workload, args.seed, WORK / "inputs")
    plan["work"] = str(WORK)
    plan["spans_out"] = str(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    plan_path = WORK / f"plan-{args.workload}-{args.seed}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    for op in plan["ops"]:  # read every input file once, so no op pays a cold page cache
        for arg in op.get("argv", [])[1:]:
            path = Path(plan.get("cwd", WORK / "inputs")) / arg
            if path.is_file():
                path.read_bytes()

    if args.trace:
        imports = [import_times() for _ in range(IMPORTTIME_SPAWNS)]
        _, result = spawn_worker(plan_path, "traced", args.seconds, deadline)
        reason = check_counts(args.workload, args.seed, result["counts"])
        if reason:
            result["failed"] += 1
            result["failures"].append(reason)
        metrics = dict(result["layers"])
        metrics["cli.import_s"] = statistics.median(t for t, _ in imports)
        metrics["cli.import_scipy_s"] = statistics.median(s for _, s in imports)
        metrics["trace.overhead_ratio"] = result["overhead_ratio"]
        wanted = bench["per_layer"]
        info = {"cycles": result["cycles"], "counts_first_cycle": result["counts"],
                "spans": plan["spans_out"]}
    else:
        import calibrate

        # Set-up is process start-up and imports, so the spawn kernel scales it.
        setup_raw, setup = [], []
        with calibrate.Calibrator("cli-batch") as calibrator:
            before = calibrator.measure()
            for _ in range(SETUP_SPAWNS):
                setup_raw.append(spawn_worker(plan_path, "setup", 0, deadline)[0])
                after = calibrator.measure()
                setup.append(setup_raw[-1] * calibrator.scale(before, after))
                before = after
        _, result = spawn_worker(plan_path, "timed", args.seconds, deadline)
        nominal = result["nominal"]
        # Throughput of the workload's op mix: a run ends part-way through a
        # cycle, so take each op's median and time one whole cycle from them.
        cycle = len(plan["ops"])
        per_op = [statistics.median(nominal[k::cycle]) for k in range(cycle)]
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": cycle / sum(per_op),
            "op_p50_ms": statistics.median(nominal) * 1e3,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        raw = result["latencies"]
        info = {"ops": len(raw), "tail": tail(nominal),
                "raw": {"setup_s": statistics.median(setup_raw), "ops_per_s": len(raw) / sum(raw),
                        "op_p50_ms": statistics.median(raw) * 1e3},
                "calibration_median_s": {"setup": statistics.median(calibrator.samples),
                                         "ops": statistics.median(result["calibration"])}}
        wanted = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise BenchmarkError(f"metrics {sorted(set(units) ^ set(metrics))} do not match BENCHMARK.json")
    info.update(workload=args.workload, seed=args.seed, failures=result["failures"],
                env=environment(result["blas_threads"]))
    print(json.dumps({"info": info}))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
