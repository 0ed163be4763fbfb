"""Correctness gate: every op's output against the reference values.

``reference.json`` holds, for each pool instance and op, the output that
the commit defining this benchmark produced (see record_reference.py). An
op passes when its exit code and error code are the documented ones and
its output matches the reference:

* the text around the numbers must be identical;
* each number must agree to RTOL relative (ATOL absolute below 1), the
  spectral agreement the project's roadmap asks of any two paths;
* outputs printed with a fixed DECIMALS places (advantage, passk, report)
  may also differ by one unit in the last place, in case a change in the
  last bits of a value moves it across a rounding boundary.

Run this file to see the gate reject perturbed outputs:
``python3 perfbench/gate.py``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

RTOL = 1e-10
ATOL = 1e-10
DECIMALS = 6
FIXED_DECIMAL_COMMANDS = ("advantage", "passk", "report")
REFERENCE = Path(__file__).resolve().parent / "reference.json"

_NUMBER = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_ERROR_LINE = re.compile(r"^error \[([^\]]+)\]: ")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= max(RTOL * abs(ref), ATOL)


def compare_text(got: str, ref: str, fixed: bool = False) -> str | None:
    """None when the texts agree under the gate's rule, else the first difference."""
    got_parts, ref_parts = _NUMBER.split(got), _NUMBER.split(ref)
    if got_parts != ref_parts:
        return "output text differs from the reference"
    for g, r in zip(_NUMBER.findall(got), _NUMBER.findall(ref)):
        gv, rv = float(g), float(r)
        if _close(gv, rv):
            continue
        places = len(r.partition(".")[2])
        if (fixed and "e" not in r.lower() and places == DECIMALS
                and len(g.partition(".")[2]) == DECIMALS
                and abs(gv - rv) <= 1.01 * 10.0 ** -DECIMALS):
            continue
        return f"number {g} differs from reference {r}"
    return None


def compare_numbers(got, ref, where: str = "value") -> str | None:
    """Recursive comparison of nested lists/dicts of numbers."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return f"{where}: keys differ"
        for key in ref:
            reason = compare_numbers(got[key], ref[key], f"{where}.{key}")
            if reason:
                return reason
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            reason = compare_numbers(g, r, f"{where}[{i}]")
            if reason:
                return reason
        return None
    if not isinstance(got, (int, float)) or not math.isfinite(got) or not _close(got, ref):
        return f"{where}: {got!r} differs from reference {ref!r}"
    return None


def check_cli(op: dict, code: int, stdout: str, stderr: str, ref: dict | None) -> str | None:
    """Gate one CLI op: documented exit and error code, then output text."""
    if ref is None:
        return f"no reference for {op['key']}"
    want_exit = op.get("exit", 0)
    if code != want_exit or code != ref["exit"]:
        return f"exit code {code}, documented {want_exit}"
    if want_exit != 0:
        match = _ERROR_LINE.match(stderr)
        if not match or match.group(1) != op["error"] or stdout:
            return f"error output {stderr.strip()[:80]!r}, documented code {op['error']}"
        return None
    return compare_text(stdout, ref["stdout"], fixed=op["argv"][0] in FIXED_DECIMAL_COMMANDS)


def collapse_summary(trace) -> dict:
    """What the gate keeps of one train() run: enough to catch any drift."""
    erank = [float(x) for x in trace.mean_windowed_erank]
    success = [float(x) for x in trace.success_rate]
    return {
        "erank_every_25": erank[::25] + [erank[-1]],
        "erank_sum": sum(erank),
        "success_every_25": success[::25] + [success[-1]],
        "success_sum": sum(success),
        "reward_sum": float(sum(trace.mean_reward)),
        "entropy_last": float(trace.policy_entropy[-1]),
        "final_logits": [float(x) for x in trace.final_policy.logits],
    }


def self_check(reference: dict) -> list[str]:
    """Feed the gate perturbed outputs; return the perturbations it missed."""
    missed = []
    llm = next(iter(reference["llm-windows"].items()))
    op = {"key": llm[0], "argv": ["window-rank"], "exit": 0, "error": None}
    good = llm[1]["stdout"]
    value = next(m for m in _NUMBER.finditer(good) if "." in m.group() and len(m.group()) > 8)
    perturbed = good[:value.start()] + repr(float(value.group()) * (1.0 + 1e-8)) + good[value.end():]
    if check_cli(op, 0, good, "", llm[1]) is not None:
        missed.append("the reference output itself is rejected")
    if check_cli(op, 0, perturbed, "", llm[1]) is None:
        missed.append("an erank off by 1e-8 relative passes")
    if check_cli(op, 1, good, "", llm[1]) is None:
        missed.append("a wrong exit code passes")
    err_key, err_ref = next((k, v) for k, v in reference["cli-batch"].items() if v["exit"] != 0)
    err_op = {"key": err_key, "argv": ["effrank"], "exit": err_ref["exit"], "error": err_ref["error"]}
    if check_cli(err_op, err_ref["exit"], "", f"error [{err_ref['error']}]: x\n", err_ref) is not None:
        missed.append("a documented error is rejected")
    if check_cli(err_op, err_ref["exit"], "", "error [other_code]: x\n", err_ref) is None:
        missed.append("a wrong error code passes")
    fixed_key, fixed_ref = next((k, v) for k, v in reference["cli-batch"].items()
                                if k.endswith("-passk"))
    fixed_op = {"key": fixed_key, "argv": ["passk"], "exit": 0, "error": None}
    lines = fixed_ref["stdout"].splitlines()
    k, value = lines[0].split(",")
    off = f"{k},{float(value) + 3e-6:.6f}\n" + "".join(line + "\n" for line in lines[1:])
    if check_cli(fixed_op, 0, off, "", fixed_ref) is None:
        missed.append("a fixed-decimal value off by three units passes")
    summary = next(iter(reference["collapse"].values()))
    if compare_numbers(summary, summary) is not None:
        missed.append("a collapse summary is rejected against itself")
    shifted = json.loads(json.dumps(summary))
    shifted["final_logits"][0] += 1e-6
    if compare_numbers(shifted, summary) is None:
        missed.append("a final logit off by 1e-6 passes")
    return missed


if __name__ == "__main__":
    problems = self_check(load_reference())
    for problem in problems:
        print(f"gate self-check FAILED: {problem}")
    if not problems:
        print("gate self-check passed: every perturbed output was rejected")
    sys.exit(1 if problems else 0)
