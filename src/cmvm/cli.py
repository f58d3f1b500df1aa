"""Command line entry point.

Three subcommands: ``run`` executes a scenario and writes its output files,
``list-scenarios`` prints what is available, ``validate-config`` resolves a
config (file plus overrides) without running anything. Exit codes: 0 on
success, 1 when a scenario ran and failed its gate, 2 for bad invocations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .harness import (
    apply_overrides,
    config_hash,
    load_config,
    run,
    scenario_description,
    scenario_names,
)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "config",
        nargs="?",
        help="JSON config path or bare scenario name (alternative to --config)",
    )
    parser.add_argument(
        "--config",
        dest="config_flag",
        metavar="FILE",
        help="path to a JSON config, or a bare scenario name for its defaults",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field (repeatable); params.NAME reaches into params",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config's seed")


def _shown(value) -> str:
    """A check field as the CSV writes it, with a blank (null or non-finite) as '-'."""
    return repr(value) if value is not None and math.isfinite(value) else "-"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmvm",
        description="Verification experiments for measure-driven stochastic integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write CSV/JSON output")
    _add_config_args(p_run)
    p_run.add_argument("--out", default="runs", help="output directory (default: runs)")

    sub.add_parser("list-scenarios", help="list scenario names with one-line descriptions")

    p_val = sub.add_parser("validate-config", help="resolve and print a config without running")
    _add_config_args(p_val)
    return parser


def _resolve(args):
    source = args.config_flag or args.config
    if source is None:
        raise ValueError("give a config file or scenario name (positionally or via --config)")
    if args.config_flag and args.config:
        raise ValueError("give the config either positionally or via --config, not both")
    cfg = load_config(source)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name in scenario_names():
            print(f"{name:28s} {scenario_description(name)}")
        return 0

    try:
        cfg = _resolve(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate-config":
        print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
        print(f"config-hash: {config_hash(cfg)}")
        return 0

    try:
        result = run(cfg, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"scenario {result.scenario} ({config_hash(cfg)[:12]})")
    for check in result.checks:
        state = "pass" if check["passed"] else "FAIL"
        fields = " ".join(f"{k}={_shown(check[k])}" for k in ("value", "target", "tolerance", "z"))
        print(f"  [{state}] {check['name']}: {fields}")
    print(f"  csv:  {result.csv_path}")
    print(f"  json: {result.json_path}")
    print(f"  {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
