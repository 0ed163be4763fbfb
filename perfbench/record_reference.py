"""Record reference.json: every pool instance's op outputs from this checkout.

    python3 perfbench/record_reference.py

Run once, at the commit that defined the benchmark; later commits are
gated against what it wrote. Re-recording on a later commit would hide any
change in results, so do not.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import gate
    import inputs
    import worker

    work = ROOT / ".perfbench_work" / "inputs"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    reference = {}

    ops = inputs.collapse_ops(inputs.COLLAPSE_ENV_POOL)
    runner = worker.InProcess({"workload": "collapse", "ops": ops})
    reference["collapse"] = {op["key"]: gate.collapse_summary(runner.execute(k))
                             for k, op in enumerate(ops)}

    ops = inputs.llm_ops(work, inputs.LLM_WINDOW_POOL, inputs.LLM_WHOLE_POOL)
    runner = worker.InProcess({"workload": "llm-windows", "ops": ops})
    reference["llm-windows"] = {}
    for k, op in enumerate(ops):
        code, out, _ = runner.execute(k)
        reference["llm-windows"][op["key"]] = {"exit": code, "stdout": out, "error": None}

    reference["cli-batch"] = {}
    for p in inputs.CLI_POOL:
        plan = {"ops": inputs.cli_ops(p), "cwd": str(inputs.cli_dir(work, p)), "work": str(work.parent)}
        runner = worker.Processes(plan)
        for k, op in enumerate(plan["ops"]):
            code, out, err = runner.execute(k)
            match = re.match(r"error \[([^\]]+)\]", err)
            reference["cli-batch"][op["key"]] = {"exit": code, "stdout": out,
                                                 "error": match.group(1) if match else None}

    for workload, entries in reference.items():
        for key, entry in entries.items():
            print(workload, key, entry.get("exit", ""), entry.get("error") or "")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
