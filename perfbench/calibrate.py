"""Host-speed calibration: fixed kernels timed around every timed op.

The host that the benchmark was defined on changes speed by up to 2x over
tens of seconds, because other tenants share its cores and caches. One
fixed op, run back to back for three minutes, took between 147 and 313 ms
(medians of 10-second bins). So raw wall times from runs a minute apart
differ by more than any useful regression bound. The benchmark therefore
times a fixed kernel right before and right after each op, and scales the
op's wall time by NOMINAL_S / (mean of the two kernel times). The result is
the op's time at the host speed where the kernel takes NOMINAL_S.

Each workload gets a kernel that stresses the host the way its ops do, so
that the two slow down together. The kernels use only numpy and the
interpreter, never rankshape, so a change to the program cannot move them.
With a matched kernel, the spread between 20-second windows fell from
0.07-0.4 of the median to 0.02.

The kernels run in a helper process that the timed process drives one call
at a time, so their data and temporaries never count in the peak RSS of
the workload process.

    python3 perfbench/calibrate.py          # kernel medians on this host
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Median kernel times on the baseline host (see README.md). They are part of
# the benchmark's definition: changing them rescales every result.
NOMINAL_S = {"sim": 0.025, "blas": 0.036, "spawn": 0.160}
KERNEL_FOR = {"collapse": "sim", "llm-windows": "blas", "cli-batch": "spawn"}


def _sim_data(rng):
    return rng.normal(size=(2048, 32, 16)), np.full(32, 1.0 / 32.0)


def _sim(rng, data) -> None:
    """Small eigensolves, entropies, a Python recurrence and a sampler:
    the shape of one training iteration, over an 8 MiB pool of states."""
    states, tokens = data
    for i in range(150):
        M = states[(i * 37) % len(states)]
        c = M - M.mean(axis=0)
        w = np.clip(np.linalg.eigvalsh(c.T @ c / 32.0)[::-1], 0.0, None)
        p = w / w.sum()
        p = p[p > 0.0]
        float(np.exp(-(p * np.log(p)).sum()))
        h = np.zeros(16)
        for t in range(32):
            h = 0.7 * h + M[t]
        rng.choice(32, size=32, p=tokens)


def _blas_data(rng):
    return rng.normal(size=(512, 4096)).astype("<f4").tobytes()


def _blas(rng, payload) -> None:
    """A float32 payload widened to float64, then windowed Gram matrices
    and their eigenvalues, plus one larger Gram eigensolve."""
    X = np.frombuffer(payload, dtype="<f4").reshape(512, 4096).astype(np.float64)
    for start in range(0, 512, 64):
        W = X[start:start + 64]
        np.all(np.isfinite(W))
        c = W - W.mean(axis=0)
        np.linalg.eigvalsh(c @ c.T / 64.0)
    c = X[:256] - X[:256].mean(axis=0)
    np.linalg.eigvalsh(c @ c.T / 256.0)


def _spawn(rng, data) -> None:
    """A fresh interpreter that imports numpy: process start-up and
    extension-module loading, as every CLI call pays."""
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL, check=True)


# kernel, and the fixed data it works on (built once, outside the timing)
_KERNELS = {"sim": (_sim, _sim_data), "blas": (_blas, _blas_data), "spawn": (_spawn, lambda rng: None)}


class Calibrator:
    """Times one kernel in a helper process; ``scale`` turns an op's wall
    time into nominal time. Use it as a context manager, so the helper ends."""

    def __init__(self, workload: str):
        self.kind = KERNEL_FOR[workload]
        self.samples: list[float] = []
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--serve", self.kind],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise ChildProcessError(f"{self.kind} calibration helper did not start")

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise ChildProcessError(f"{self.kind} calibration helper exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        return NOMINAL_S[self.kind] / ((before + after) / 2.0)

    def close(self) -> None:
        self.proc.stdin.close()  # the helper stops at end of input
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(kind: str) -> None:
    """Helper loop: build the kernel's data, then time one kernel call per
    line of input and print its seconds."""
    kernel, make_data = _KERNELS[kind]
    rng = np.random.default_rng(20260)
    data = make_data(rng)
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel(rng, data)
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        serve(sys.argv[2])
        sys.exit(0)
    for workload, kind in KERNEL_FOR.items():
        with Calibrator(workload) as calibrator:
            for _ in range(31):
                calibrator.measure()
        times = sorted(calibrator.samples[1:])
        print(f"{kind}: median {times[len(times) // 2]:.4f} s, min {times[0]:.4f} s")
