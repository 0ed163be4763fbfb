"""One workload process: set up, signal ready, run ops, report.

    python3 perfbench/worker.py PLAN MODE SECONDS

MODE is ``setup`` (stop once ready), ``timed`` (ops for SECONDS, untraced,
each scaled to nominal host speed by calibrate.py) or ``traced`` (at least
two whole cycles of traced ops and at least SECONDS; in the first cycle each
op also runs untraced, for the trace overhead). The
parent times the spawn up to the ``ready`` line; the last
stdout line is a JSON result. ``collapse`` and ``llm-windows`` run their ops
in this process; ``cli-batch`` starts one CLI process per op and waits for
it, so this process is only the client.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 120.0


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class InProcess:
    """collapse and llm-windows: ops are library or cli.main calls. Also the
    set-up probe of cli-batch, whose ops start by importing the CLI."""

    def __init__(self, plan: dict):
        self.workload = plan["workload"]
        self.ops = plan["ops"]
        if self.workload == "collapse":
            from rankshape.sim import biased_init, build_env, train

            self.train = train
            self.envs = {}
            for op in self.ops:
                if op["env_seed"] not in self.envs:
                    env = build_env(op["env_seed"])
                    self.envs[op["env_seed"]] = (env, biased_init(env))
        else:
            from rankshape import cli

            self.cli = cli
            cli.build_parser()

    def warm_up(self, plan: dict) -> None:
        """Untimed first calls on small inputs, so lazy set-up is not timed."""
        if self.workload == "collapse":
            env, init = next(iter(self.envs.values()))
            self.train(env, init, alpha=0.5, iterations=2, seed=0)
        else:
            for argv in (["effrank", plan["warm"]], ["window-rank", plan["warm"]]):
                self.call_cli(argv)

    def call_cli(self, argv, tracer=None):
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = self.cli.main(argv)
            else:
                code = tracer.span("cli.main", self.cli.main, argv)
        return code, out.getvalue(), err.getvalue()

    def execute(self, k: int, tracer=None):
        """Run op k: a SimTrace for collapse, else (exit code, stdout, stderr)."""
        op = self.ops[k]
        if self.workload != "collapse":
            return self.call_cli(op["argv"], tracer)
        env, init = self.envs[op["env_seed"]]
        kwargs = dict(alpha=op["alpha"], iterations=op["iterations"], seed=op["train_seed"])
        if tracer is None:
            return self.train(env, init, **kwargs)
        return tracer.span("sim.train", self.train, env, init, **kwargs)

    def verdict(self, k: int, output, ref) -> str | None:
        import gate

        op = self.ops[k]
        if self.workload != "collapse":
            return gate.check_cli(op, *output, ref)
        if ref is None:
            return f"no reference for {op['key']}"
        return gate.compare_numbers(gate.collapse_summary(output), ref, op["key"])

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Processes:
    """cli-batch: each op is a fresh ``python -m rankshape.cli`` process."""

    def __init__(self, plan: dict):
        self.ops = plan["ops"]
        self.cwd = plan["cwd"]
        self.spans_dir = Path(plan["work"]) / "op-spans"

    def warm_up(self, plan: dict) -> None:
        """Users pay a fresh process's start-up on every call: nothing to warm."""

    def execute(self, k: int, tracer=None):
        """Run op k in a fresh process; return (exit code, stdout, stderr)."""
        import subprocess

        op = self.ops[k]
        if tracer is None:
            cmd = [sys.executable, "-m", "rankshape.cli", *op["argv"]]
        else:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            spans_path = self.spans_dir / f"{tracer.op}.jsonl"
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans_path), str(tracer.op),
                   *op["argv"]]
        with subprocess.Popen(cmd, cwd=self.cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if tracer is not None and spans_path.exists():
            import spans

            tracer.spans = spans.load(spans_path)
            spans_path.unlink()
        return proc.returncode, out, err

    def verdict(self, k: int, output, ref) -> str | None:
        import gate

        return gate.check_cli(self.ops[k], *output, ref)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_op(runner, k: int, reference: dict, tracer=None) -> tuple[float, str | None]:
    """Time op k and gate its output; return (wall seconds, None or why it failed)."""
    t0 = time.perf_counter()
    try:
        output = runner.execute(k, tracer)
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        return time.perf_counter() - t0, f"{runner.ops[k]['key']} raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, runner.verdict(k, output, reference.get(runner.ops[k]["key"]))


def timed(runner, workload: str, reference: dict, seconds: float) -> dict:
    """Ops for SECONDS and at least one whole cycle, each between two
    calibration kernels (calibrate.py)."""
    import calibrate

    latencies, nominal, failures = [], [], []
    n = len(runner.ops)
    with calibrate.Calibrator(workload) as calibrator:
        before = calibrator.measure()
        start = time.perf_counter()
        while len(latencies) < n or time.perf_counter() - start < seconds:
            wall, reason = run_op(runner, len(latencies) % n, reference)
            after = calibrator.measure()
            latencies.append(wall)
            nominal.append(wall * calibrator.scale(before, after))
            before = after
            if reason:
                failures.append(reason)
        peak_rss_kb = runner.peak_rss_kb()  # before the helper ends and counts as a child
    return {"latencies": latencies, "nominal": nominal, "calibration": calibrator.samples,
            "peak_rss_kb": peak_rss_kb, "failed": len(failures), "failures": failures[:5]}


def traced(runner, reference: dict, seconds: float, in_process: bool) -> dict:
    """Whole cycles of traced ops until SECONDS pass, and at least two, so
    that every op repeats. In the first cycle each op runs untraced just
    before it runs traced; those pairs give the trace overhead.

    Counts of a repeated op must equal those of its first run.
    """
    import spans

    tracer = spans.Tracer()
    cycles, failures = [], []
    plain = with_trace = 0.0
    start = time.perf_counter()
    while len(cycles) < 2 or time.perf_counter() - start < seconds:
        ops = []
        for k in range(len(runner.ops)):
            if not cycles:
                wall, reason = run_op(runner, k, reference)
                plain += wall
                failures += [reason] if reason else []
            tracer.spans, tracer.stack = [], []
            tracer.op = len(cycles) * len(runner.ops) + k
            if in_process:
                tracer.install()
            try:
                wall, reason = run_op(runner, k, reference, tracer)
            finally:
                if in_process:
                    tracer.uninstall()
            if not cycles:
                with_trace += wall
            failures += [reason] if reason else []
            ops.append(tracer.spans)
            if cycles and spans.op_counts(tracer.spans) != spans.op_counts(cycles[0][k]):
                failures.append(f"counts of op {k} changed between cycles")
        cycles.append(ops)
    all_ops = [op for cycle in cycles for op in cycle]
    return {
        "layers": spans.layer_metrics(all_ops, len(cycles)),
        "counts": [spans.op_counts(op) for op in cycles[0]],
        "overhead_ratio": with_trace / plain,
        "cycles": len(cycles),
        "failed": len(failures),
        "failures": failures[:5],
        "spans": all_ops,
    }


def main(argv) -> int:
    plan_path, mode, seconds = argv[1], argv[2], float(argv[3])
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    in_process = plan["workload"] != "cli-batch"
    runner = InProcess(plan) if in_process or mode == "setup" else Processes(plan)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    import gate

    reference = gate.load_reference().get(plan["workload"], {})
    runner.warm_up(plan)
    if mode == "timed":
        result = timed(runner, plan["workload"], reference, seconds)
    else:
        result = traced(runner, reference, seconds, in_process)
    result["attempted"] = (len(result["latencies"]) if mode == "timed"
                           else len(runner.ops) * (result["cycles"] + 1))
    result["blas_threads"] = blas_threads()
    if mode == "traced":
        import spans

        spans.dump(plan["spans_out"], [record for op in result.pop("spans") for record in op])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
