"""Command-line entry point.

The first argument is the experiment mode: exponent, dominance, simulate,
minimax, full.  Exit codes: 0 success, 2 config error, 3 numerical failure,
4 IO failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, RobustSpecError
from .harness import MODES, parse_config, report_text, run_experiment, write_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustspec",
        description="Minimax-robust Gaussian detection experiments",
    )
    parser.add_argument("mode", choices=MODES, help="experiment mode")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format, on stdout and in --out alike",
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--grid", type=int, default=None, help="override grid size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    except UnicodeDecodeError as exc:
        print(f"config error: config is not UTF-8: {exc}", file=sys.stderr)
        return 2
    try:
        overrides = {"mode": args.mode, "seed": args.seed, "grid_size": args.grid}
        config = replace(
            parse_config(text), **{k: v for k, v in overrides.items() if v is not None}
        )
        record = run_experiment(config)
    except ConfigError as exc:  # a RobustSpecError too: keep it first
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RobustSpecError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    out_path = args.out or config.output_path
    try:
        if out_path:
            write_report(record, out_path, args.format)
        else:
            sys.stdout.write(report_text(record, args.format))
    except RobustSpecError as exc:  # serialised before any byte is written
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
