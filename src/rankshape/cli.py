"""Batch command-line interface.

Every subcommand reads files, writes results to stdout (JSON lines or
CSV), and exits 0 on success, 1 on input errors, 2 on numerical or
degenerate-data errors. Errors are a single machine-parseable stderr line:
``error [<code>]: <message>``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import InputError, RankshapeError
from .evalstats import PassCounts, fit_decoupling_logit, load_decoupling_csv, pass_curve
from .io import (_file_errors, _read_stored, apply_overrides, load_run_config, read_trajectory,
                 text_lines)
from .probes import ProbeSet, StitchPlan, lookahead_manifold, select_probe
from .rewards import DEFAULT_ALPHA, RolloutOutcome, check_alpha, group_advantages, total_reward
from .sim import SimTrace, biased_init, build_env, train
from .spectral import (DEFAULT_ENERGY_THRESHOLD, Spectrum, _centered_eigh, _check_int,
                       _check_real, effective_rank)
from .windows import DEFAULT_STRIDE, DEFAULT_WIDTH, _profile, norm_rank

# Not called here since effrank and window-rank score the reader's checked
# matrix through the private cores, but perfbench/spans.py traces them under
# rankshape.cli, so the names must keep resolving in this module.
from .spectral import covariance_spectrum  # noqa: F401
from .windows import windowed_min_effrank  # noqa: F401

REPORT_HEADER = "alpha,seed,iterations,final_mean_windowed_erank,final_success_rate"


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as InputError (exit 1)."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="rankshape", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("effrank", help="effective rank of whole trajectories")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_effrank)

    p = sub.add_parser("window-rank", help="windowed effective-rank profile")
    p.add_argument("files", nargs="+")
    p.add_argument("--w", type=int, default=DEFAULT_WIDTH,
                   help="window width (default %(default)s)")
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE,
                   help="window stride (default %(default)s)")
    p.set_defaults(func=cmd_window_rank)

    p = sub.add_parser("reward", help="rank-aware rewards for outcome records")
    p.add_argument("records", help="JSONL file with fields correct, norm_rank")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("advantage", help="group-standardized advantages")
    p.add_argument("rewards", help="CSV file, one group of rewards per row")
    p.set_defaults(func=cmd_advantage)

    p = sub.add_parser("passk", help="mean unbiased pass@k over problems")
    p.add_argument("counts", help="file with one per-problem correct count per line")
    p.add_argument("--n", type=int, required=True, help="samples per problem")
    p.add_argument("--ks", required=True, help="comma-separated k values")
    p.set_defaults(func=cmd_passk)

    p = sub.add_parser("fit-decouple", help="logistic fit of correctness on rank and entropy")
    p.add_argument("samples", help="CSV with header eff_rank,entropy,correct")
    p.set_defaults(func=cmd_fit_decouple)

    p = sub.add_parser("soe-select", help="score probes against a look-ahead manifold")
    p.add_argument("--basis", required=True, help="trajectory file of look-ahead states")
    p.add_argument("--probes", required=True, help="trajectory file, one probe vector per row")
    p.add_argument("--energy", type=float, default=DEFAULT_ENERGY_THRESHOLD,
                   help="basis energy threshold")
    p.add_argument("--prefix", type=int, default=0, help="prefix length to record")
    p.add_argument("--query-id", default=None)
    p.set_defaults(func=cmd_soe_select)

    p = sub.add_parser("simulate", help="train the subspace bandit and write a trace")
    p.add_argument("--config", required=True, help="key = value run config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="aggregate final metrics over a run directory")
    p.add_argument("--runs", required=True, help="directory of simulate outputs")
    p.set_defaults(func=cmd_report)

    return parser


def cmd_effrank(args) -> int:
    for name in args.files:
        # The payload goes in as a temporary, so it is freed once widened.
        value = effective_rank(Spectrum(_centered_eigh(_read_stored(name)[0])[2]))
        print(json.dumps({"file": name, "effective_rank": value}))
    return 0


def cmd_window_rank(args) -> int:
    for name in args.files:
        profile = _profile(_read_stored(name)[0], args.w, args.stride)
        print(json.dumps({
            "file": name,
            "window": profile.window_width,
            "stride": profile.stride,
            "per_window_erank": list(profile.per_window_erank),
            "min_erank": profile.min_erank,
            "r_max": profile.r_max,
            "norm_rank": norm_rank(profile),
        }))
    return 0


def _records(path, parse, where="line"):
    """parse(line) for each non-blank, stripped line of a text file, read
    whole first, so a missing or non-UTF-8 file fails before any record.
    The one line-error rule: an InputError from parse keeps its class, and
    so its code, and a ValueError becomes an InputError; either way the
    message reads "<where> <n>: <reason>"."""
    for n, line in [(n, s.strip()) for n, s in enumerate(text_lines(path), 1) if s.strip()]:
        try:
            record = parse(line)
        except InputError as exc:
            exc.args = (f"{where} {n}: {exc}",)
            raise
        except ValueError as exc:
            raise InputError(f"{where} {n}: {exc}") from None
        yield record  # outside the try: the caller's errors get no line label


def _outcome(line: str) -> RolloutOutcome:
    """One JSONL record with fields correct and norm_rank."""
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(record, dict) or "correct" not in record or "norm_rank" not in record:
        raise InputError("needs fields correct and norm_rank")
    return RolloutOutcome(correct=record["correct"], norm_rank=record["norm_rank"])


def cmd_reward(args) -> int:
    check_alpha(args.alpha)
    for outcome in _records(args.records, _outcome, "record line"):
        print(json.dumps({**dataclasses.asdict(outcome),
                          "reward": total_reward(outcome, args.alpha)}))
    return 0


def cmd_advantage(args) -> int:
    rows = _records(args.rewards, lambda line: group_advantages(
        [float(cell) for cell in line.split(",")]))
    for advantages in rows:
        print(",".join(f"{a:.6f}" for a in advantages))
    return 0


def cmd_passk(args) -> int:
    counts = tuple(_records(args.counts, int))
    try:
        ks = [int(part) for part in args.ks.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"unparseable k list: {args.ks!r}") from None
    if not ks:
        raise InputError("need at least one k")
    curve = pass_curve(PassCounts(n=args.n, counts=counts), ks)
    for k in ks:
        print(f"{k},{curve[k]:.6f}")
    return 0


def cmd_fit_decouple(args) -> int:
    fit = fit_decoupling_logit(load_decoupling_csv(args.samples))
    print(json.dumps(dataclasses.asdict(fit)))
    return 0


def cmd_soe_select(args) -> int:
    states = read_trajectory(args.basis)
    probe_rows = read_trajectory(args.probes)
    basis = lookahead_manifold(states, args.energy)
    choice = select_probe(ProbeSet(vectors=probe_rows), basis)
    plan = StitchPlan.from_choice(choice, basis, args.prefix, args.query_id)
    print(json.dumps(dataclasses.asdict(plan)))
    return 0


def cmd_simulate(args) -> int:
    cfg = apply_overrides(load_run_config(args.config), args.set)
    env = build_env(cfg.env_seed, d=cfg.dim, vocab=cfg.vocab, bias_dim=cfg.bias_dim,
                    n_null=cfg.null_tokens, tau=cfg.tau, horizon=cfg.horizon,
                    decay=cfg.decay)
    policy = biased_init(env, cfg.bias_logit)
    out = Path(args.out)
    stem = (f"{cfg.label}_" if cfg.label else "") + f"alpha{cfg.alpha:g}_seed{cfg.train_seed}"
    trace_path = out / f"{stem}.csv"
    config_path = out / f"{stem}.json"
    # Deepest first. os.path.exists, unlike Path.exists, never raises.
    made = [d for d in (out, *out.parents) if not os.path.exists(d)]
    try:
        with _file_errors("write", out):  # before training, so an unwritable output fails fast
            out.mkdir(parents=True, exist_ok=True)
            if not trace_path.parent.is_dir():  # a label holding "/"
                raise InputError(f"cannot write {trace_path}: no directory {trace_path.parent}")
        trace = train(env, policy, alpha=cfg.alpha, group_size=cfg.group_size,
                      iterations=cfg.iterations, learning_rate=cfg.learning_rate,
                      seed=cfg.train_seed, window=cfg.window, stride=cfg.stride)
    except BaseException:
        # A refused run leaves no directory behind: take back the ones made
        # above. rmdir removes only an empty directory.
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    with _file_errors("write", out):
        trace.to_csv(trace_path)
        config_path.write_text(json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2)
                               + "\n", encoding="utf-8")
    print(json.dumps({"trace": str(trace_path), "config": str(config_path)}))
    return 0


def cmd_report(args) -> int:
    runs = Path(args.runs)
    if not runs.is_dir():
        raise InputError(f"not a directory: {runs}")
    rows = []
    for config_path in sorted(runs.glob("*.json")):
        try:
            config = json.loads("".join(text_lines(config_path)))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"malformed config JSON {config_path}: {exc}") from None
        if not isinstance(config, dict) or "alpha" not in config or "train_seed" not in config:
            continue
        seed = config["train_seed"]
        if isinstance(seed, float) and seed.is_integer():
            seed = int(seed)
        try:
            alpha = _check_real(config["alpha"], "alpha")
            seed = _check_int(seed, "train_seed")
        except InputError as exc:
            raise InputError(f"{config_path}: {exc}") from None
        trace = SimTrace.from_csv(config_path.with_suffix(".csv"))
        rows.append((alpha, seed, len(trace), float(trace.mean_windowed_erank[-1]),
                     float(trace.success_rate[-1])))
    if not rows:
        raise InputError(f"no run records found in {runs}")
    rows.sort(key=lambda row: (row[0], row[1]))
    print(REPORT_HEADER)
    for alpha, seed, iterations, erank, success in rows:
        print(f"{alpha:g},{seed},{iterations},{erank:.6f},{success:.6f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (RankshapeError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = InputError(f"out of memory: {str(exc) or 'allocation failed'}")
        message = " ".join(str(exc).split())
        print(f"error [{exc.code}]: {message}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`). Stop quietly, and
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
