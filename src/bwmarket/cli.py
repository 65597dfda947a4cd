"""Command-line entry points: solve, train, sweep, compare."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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


# Sweep grids used without --grid: the default cost and cap ranges in steps of
# 0.5 and 5, and market sizes 1 to 4.
_DEFAULT_GRIDS = {"c": (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
                 "p_bar": (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0),
                 "I": (1, 2, 3, 4), "J": (1, 2, 3, 4)}


def _base_parser(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", type=str, default=None,
                   help="YAML experiment config (defaults used when omitted)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed list with one seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--strict", action="store_true",
                   help="exit 1, after writing the outputs, if any run's "
                        "equilibrium is inconsistent or fails verification")
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
    p_sweep.add_argument("--param", choices=list(_DEFAULT_GRIDS), default="c")
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
    # the deepest existing path on the way to out must be a directory, or the
    # outputs could not be written after all the work
    out = Path(cfg.out).absolute()
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {cfg.out!r}: {str(existing)!r} exists and "
                          f"is not a directory")
    if args.command == "compare" and len(set(args.algo)) < len(args.algo):
        raise ConfigError(f"--algo must not repeat, got {args.algo}")
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
            spec = SweepSpec(args.param, args.grid or list(_DEFAULT_GRIDS[args.param]),
                             cfg.seeds)
            records, aggregate = run_sweep(cfg, spec)
            for value, (mean, sd) in aggregate.items():
                print(f"{args.param}={value}: avg reward {mean:.4f} +- {sd:.4f}")
        else:  # compare: one lock-step group per seed, solves first, then algorithm-major
            groups = [run_training_group(cfg, args.algo, seed) for seed in cfg.seeds]
            records = [group[k] for k in range(len(args.algo) + 1) for group in groups]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        csv_path = emit_results(records, cfg.out, fmt="csv")
        emit_results(records, cfg.out, fmt="jsonl")
        summary_path = write_summary(records, cfg.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} and {summary_path}")
    inconsistent = [r.run_id for r in records if not r.consistent]
    if args.strict and inconsistent:
        print(f"error: equilibrium check failed for {', '.join(inconsistent)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
