"""The benchmark's reference outputs, checked in the test suite.

perfbench/ gates every benchmark op against perfbench/reference.json. Here
the same gate runs on one cli-batch pool instance and two collapse ops, so a
change to an output's text, key order or trace shows up in the tests, not
only in a benchmark run. perfbench/inputs.py and perfbench/gate.py are
loaded read-only from their files.
"""

import importlib.util
from pathlib import Path

import pytest

from rankshape import cli
from rankshape.sim import biased_init, build_env, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")
gate = _load("gate")
REFERENCE = gate.load_reference()


def test_cli_batch_pool_instance_matches_reference(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(inputs.cli_dir(tmp_path, 0))
    for op in inputs.cli_ops(0):
        code = cli.main(op["argv"])
        captured = capsys.readouterr()
        reason = gate.check_cli(op, code, captured.out, captured.err,
                                REFERENCE["cli-batch"].get(op["key"]))
        assert reason is None, f"{op['key']}: {reason}"


@pytest.mark.parametrize("key", ["env0-alpha0", "env0-alpha0.5"])
def test_collapse_op_matches_reference(key):
    op = next(op for op in inputs.collapse_ops([0]) if op["key"] == key)
    env = build_env(op["env_seed"])
    trace = train(env, biased_init(env), alpha=op["alpha"], iterations=op["iterations"],
                  seed=op["train_seed"])
    assert gate.compare_numbers(gate.collapse_summary(trace), REFERENCE["collapse"][key],
                                key) is None
