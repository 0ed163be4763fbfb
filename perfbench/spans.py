"""In-memory spans recorded around calls into rankshape's modules.

The tracer replaces functions at the names their callers look them up
under (for example ``rankshape.sim.rollout``, which ``train`` calls), so
nothing in the package changes. Each span is
``[name, start, end, parent, op, attrs]``: times from ``perf_counter``,
the index of the enclosing span (or -1), the id of the benchmark op that
caused it, and a few facts read from the call's arguments or result for the
exact counts. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

# (module, attribute, span name). A module appears once per import site:
# rankshape.cli calls read_trajectory under its own name, rankshape.sim calls
# windowed_min_effrank under its own, and so on.
IMPORT_SITES = (
    ("rankshape.cli", "read_trajectory", "io.read_trajectory"),
    ("rankshape.cli", "covariance_spectrum", "spectral.covariance_spectrum"),
    ("rankshape.cli", "windowed_min_effrank", "windows.windowed_min_effrank"),
    ("rankshape.cli", "total_reward", "rewards.total_reward"),
    ("rankshape.cli", "group_advantages", "rewards.group_advantages"),
    ("rankshape.cli", "pass_curve", "evalstats.pass_curve"),
    ("rankshape.cli", "fit_decoupling_logit", "evalstats.fit_decoupling_logit"),
    ("rankshape.cli", "lookahead_manifold", "probes.lookahead_manifold"),
    ("rankshape.cli", "select_probe", "probes.select_probe"),
    ("rankshape.cli", "train", "sim.train"),
    ("rankshape.sim", "rollout", "sim.rollout"),
    ("rankshape.sim", "windowed_min_effrank", "windows.windowed_min_effrank"),
    ("rankshape.sim", "total_reward", "rewards.total_reward"),
    ("rankshape.sim", "group_advantages", "rewards.group_advantages"),
    ("rankshape.sim", "policy_gradient", "sim.policy_gradient"),
    ("rankshape.windows", "covariance_spectrum", "spectral.covariance_spectrum"),
    ("rankshape.probes", "principal_subspace", "spectral.principal_subspace"),
    ("rankshape.probes", "orthogonality_score", "probes.orthogonality_score"),
)


def _read_attrs(args, kwargs, result):
    path = str(args[0])
    kind = "csv" if path.lower().endswith(".csv") else "hstb"
    return {"kind": kind, "bytes": os.path.getsize(path), "cells": int(result.size)}


def _spectrum_attrs(args, kwargs, result):
    T, d = np.shape(args[0])
    method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
    if method == "auto":
        method = "gram" if T < d else "covariance"
    return {"T": int(T), "d": int(d), "path": method, "zero": bool(result.total_mass <= 0.0)}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


ATTRS = {
    "io.read_trajectory": _read_attrs,
    "spectral.covariance_spectrum": _spectrum_attrs,
    "windows.windowed_min_effrank": lambda a, k, r: {"windows": len(r.starts)},
    "rewards.group_advantages": lambda a, k, r: {"zeroed": not bool(np.any(r))},
    "evalstats.fit_decoupling_logit": lambda a, k, r: {"iters": int(r.iterations)},
    "io.write_trace": _write_attrs,
}


class Tracer:
    """Collects the spans of the op numbered ``op``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.spans.append(record)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        attrs = ATTRS.get(name)
        if attrs is not None:
            record[5] = attrs(args, kwargs, result)
        return result

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every import site in IMPORT_SITES, plus SimTrace.to_csv."""
        import importlib

        sites = [(importlib.import_module(m), attr, name) for m, attr, name in IMPORT_SITES]
        sim_trace = importlib.import_module("rankshape.sim").SimTrace
        sites.append((sim_trace, "to_csv", "io.write_trace"))
        for owner, attr, name in sites:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        """Put back every function install() replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)



def dump(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _cov_cost(T: int, d: int) -> tuple[float, float]:
    """Computed flops and bytes of one covariance_spectrum call.

    Centering (2Td), the m x m product over n = max(T, d) counted as a
    general matmul (2 m^2 n), and a values-only symmetric eigensolve
    (4/3 m^3); bytes read or written once each: H, the centered copy
    read twice, and the m x m matrix written and read.
    """
    m, n = min(T, d), max(T, d)
    flops = 2.0 * T * d + 2.0 * m * m * n + 4.0 / 3.0 * m ** 3
    moved = 8.0 * (3.0 * T * d + 2.0 * m * m)
    return flops, moved


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls in one thread nest, so the children of a span never overlap and
    their summed durations are the time they cover.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# Counts that must repeat exactly for the same input.
EXACT_COUNTS = (
    "sim.rollout_calls",
    "windows.windows_scored",
    "windows.zero_variance_windows",
    "spectral.cov_calls_gram",
    "spectral.cov_calls_covariance",
    "rewards.groups",
    "rewards.groups_zeroed",
    "evalstats.fit_newton_iters",
    "probes.score_calls",
)


def op_counts(spans) -> dict[str, int]:
    """Exact counts of one op's spans (indices local to ``spans``)."""
    by = {name: 0 for name in EXACT_COUNTS}
    for s in spans:
        name, attrs = s[0], s[5]
        if attrs is None and name in ATTRS:
            continue  # the call raised: an error-path op
        if name == "sim.rollout":
            by["sim.rollout_calls"] += 1
        elif name == "windows.windowed_min_effrank":
            by["windows.windows_scored"] += attrs["windows"]
        elif name == "spectral.covariance_spectrum":
            by["spectral.cov_calls_" + attrs["path"]] += 1
            if attrs["zero"] and s[3] >= 0 and spans[s[3]][0] == "windows.windowed_min_effrank":
                by["windows.zero_variance_windows"] += 1
        elif name == "rewards.group_advantages":
            by["rewards.groups"] += 1
            by["rewards.groups_zeroed"] += int(attrs["zeroed"])
        elif name == "evalstats.fit_decoupling_logit":
            by["evalstats.fit_newton_iters"] += attrs["iters"]
        elif name == "probes.orthogonality_score":
            by["probes.score_calls"] += 1
    return by


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def layer_metrics(ops, cycles: int) -> dict[str, float]:
    """Per-layer metrics of ``cycles`` complete op cycles.

    ``ops`` holds one span list per op, with parent indices local to it.
    Times and counts are per cycle; rates are ratios of the summed work
    and time. A layer that did no work reports zeros.
    """
    spans = [s for op in ops for s in op]
    own = [t for op in ops for t in self_times(op)]
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        dur[s[0]] = dur.get(s[0], 0.0) + (s[2] - s[1])
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1
    io = {"hstb_s": 0.0, "hstb_bytes": 0, "csv_s": 0.0, "csv_cells": 0}
    flops = moved = 0.0
    for s in spans:
        if s[0] == "io.read_trajectory" and s[5] is not None:
            a = s[5]
            io[a["kind"] + "_s"] += s[2] - s[1]
            if a["kind"] == "hstb":
                io["hstb_bytes"] += a["bytes"]
            else:
                io["csv_cells"] += a["cells"]
        elif s[0] == "spectral.covariance_spectrum" and s[5] is not None:
            f, b = _cov_cost(s[5]["T"], s[5]["d"])
            flops += f
            moved += b
    write_bytes = sum(s[5]["bytes"] for s in spans if s[0] == "io.write_trace" and s[5])
    counts = {name: 0 for name in EXACT_COUNTS}
    for op in ops:
        for name, value in op_counts(op).items():
            counts[name] += value
    n = float(cycles)
    cov_calls = counts["spectral.cov_calls_gram"] + counts["spectral.cov_calls_covariance"]
    cov_s = self_s.get("spectral.covariance_spectrum", 0.0)
    groups = counts["rewards.groups"]
    return {
        "cli.cmd_self_s": self_s.get("cli.main", 0.0) / n,
        "io.hstb_read_s": io["hstb_s"] / n,
        "io.hstb_read_mb_per_s": _ratio(io["hstb_bytes"] / 2**20, io["hstb_s"]),
        "io.csv_read_s": io["csv_s"] / n,
        "io.csv_cells_per_s": _ratio(io["csv_cells"], io["csv_s"]),
        "io.write_s": dur.get("io.write_trace", 0.0) / n,
        "io.write_bytes": write_bytes / n,
        "spectral.cov_calls_gram": counts["spectral.cov_calls_gram"] / n,
        "spectral.cov_calls_covariance": counts["spectral.cov_calls_covariance"] / n,
        "spectral.cov_self_s": cov_s / n,
        "spectral.cov_us_per_call": _ratio(cov_s * 1e6, cov_calls),
        "spectral.cov_gflop": flops / 1e9 / n,
        "spectral.cov_gbytes": moved / 1e9 / n,
        "spectral.cov_gflop_per_s": _ratio(flops / 1e9, cov_s),
        "spectral.principal_subspace_s": dur.get("spectral.principal_subspace", 0.0) / n,
        "windows.windows_scored": counts["windows.windows_scored"] / n,
        "windows.self_s": self_s.get("windows.windowed_min_effrank", 0.0) / n,
        "windows.windows_per_s": _ratio(counts["windows.windows_scored"],
                                        dur.get("windows.windowed_min_effrank", 0.0)),
        "windows.zero_variance_windows": counts["windows.zero_variance_windows"] / n,
        "sim.rollout_calls": counts["sim.rollout_calls"] / n,
        "sim.rollout_us_per_call": _ratio(dur.get("sim.rollout", 0.0) * 1e6,
                                          calls.get("sim.rollout", 0)),
        "sim.policy_gradient_s": dur.get("sim.policy_gradient", 0.0) / n,
        "sim.train_self_s": self_s.get("sim.train", 0.0) / n,
        "rewards.reward_s": dur.get("rewards.total_reward", 0.0) / n,
        "rewards.group_advantages_s": dur.get("rewards.group_advantages", 0.0) / n,
        "rewards.groups": groups / n,
        "rewards.groups_zeroed": counts["rewards.groups_zeroed"] / n,
        "rewards.signal_ratio": _ratio(groups - counts["rewards.groups_zeroed"], groups),
        "evalstats.pass_curve_s": dur.get("evalstats.pass_curve", 0.0) / n,
        "evalstats.fit_s": dur.get("evalstats.fit_decoupling_logit", 0.0) / n,
        "evalstats.fit_newton_iters": counts["evalstats.fit_newton_iters"] / n,
        "probes.manifold_s": dur.get("probes.lookahead_manifold", 0.0) / n,
        "probes.score_calls": counts["probes.score_calls"] / n,
        "probes.score_s": dur.get("probes.orthogonality_score", 0.0) / n,
    }
