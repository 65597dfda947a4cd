"""Command-line entry points: solve, train, sweep, compare."""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    SweepSpec,
    emit_results,
    load_config,
    run_solve,
    run_sweep,
    run_training,
    run_training_group,
    write_summary,
)


def _base_parser(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", type=str, default=None,
                   help="YAML experiment config (defaults used when omitted)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed list with one seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--strict", action="store_true",
                   help="treat equilibrium verification failures as errors")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwmarket",
        description="Bandwidth-pricing Stackelberg market experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    _base_parser(sub, "solve", "solve and verify the analytic equilibrium")

    p_train = _base_parser(sub, "train", "train pricing agents")
    p_train.add_argument("--algo", choices=ALGORITHMS, default="tiny_madrl")

    p_sweep = _base_parser(sub, "sweep", "equilibrium sweep over a parameter grid")
    p_sweep.add_argument("--param", choices=("c", "p_bar", "I", "J"), default="c")
    p_sweep.add_argument("--grid", type=float, nargs="+", default=None)

    p_cmp = _base_parser(sub, "compare", "train every algorithm and summarize")
    p_cmp.add_argument("--algo", choices=ALGORITHMS, nargs="+",
                       default=list(ALGORITHMS))
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.out is not None:
        cfg.out = args.out
    if args.strict:
        cfg.strict = True
    return cfg.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            records = [run_solve(cfg, seed) for seed in cfg.seeds]
        elif args.command == "train":
            records = [run_training(cfg, args.algo, seed) for seed in cfg.seeds]
        elif args.command == "sweep":
            default = (1, 2, 3, 4) if args.param in ("I", "J") else (
                1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
            spec = SweepSpec(args.param, args.grid or list(default), cfg.seeds)
            records, aggregate = run_sweep(cfg, spec)
            for value, (mean, sd) in aggregate.items():
                print(f"{args.param}={value}: avg reward {mean:.4f} +- {sd:.4f}")
        else:  # compare: one lock-step group per seed, records algorithm-major
            records = [run_solve(cfg, seed) for seed in cfg.seeds]
            groups = [run_training_group(cfg, args.algo, seed) for seed in cfg.seeds]
            records += [group[k] for k in range(len(args.algo)) for group in groups]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_path = emit_results(records, cfg.out, fmt="csv")
    emit_results(records, cfg.out, fmt="jsonl")
    summary_path = write_summary(records, cfg.out)
    print(f"wrote {csv_path} and {summary_path}")
    if cfg.strict and any(not r.consistent for r in records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
