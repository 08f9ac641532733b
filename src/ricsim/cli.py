"""Command line entry point for single runs and multi-seed sweeps."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .experiment import (
    MODES,
    ExperimentConfig,
    load_experiment_config,
    result_to_dict,
    run,
    sweep,
)
from .sdl import ValidationError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ricsim",
        description="Deterministic RAN simulator with a conflict-mitigating RIC.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one simulation under one mitigation mode")
    run_p.add_argument("--mode", choices=MODES, required=True)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--config", help="JSON experiment config (defaults apply if omitted)")
    run_p.add_argument("--out", help="directory for event/verdict/result files")

    sweep_p = sub.add_parser("sweep", help="run modes x seeds and compare against disabled")
    sweep_p.add_argument(
        "--modes",
        default="all",
        help="comma-separated subset of modes, or 'all' (default)",
    )
    sweep_p.add_argument("--seeds", type=int, default=10, help="number of seeds, 0..n-1")
    sweep_p.add_argument("--seed-list", help="comma-separated explicit seeds (overrides --seeds)")
    sweep_p.add_argument("--config", help="JSON experiment config")
    sweep_p.add_argument("--out", help="directory for runs.csv and summaries")
    return p


def _load_config(path: Optional[str]) -> ExperimentConfig:
    if not path:
        return ExperimentConfig()
    try:
        return load_experiment_config(path)
    except (OSError, ValueError) as exc:  # unreadable file or invalid JSON
        raise ValidationError(f"cannot read config {path}: {exc}") from exc


def _seeds(args: argparse.Namespace) -> List[int]:
    if not args.seed_list:
        return list(range(args.seeds))
    try:
        return [int(s) for s in args.seed_list.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"--seed-list takes comma-separated integers: {exc}") from exc


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command; invalid input exits with status 2 and a usage message."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "run":
            result = run(config, args.mode, args.seed, out_dir=args.out)
            json.dump(result_to_dict(result), sys.stdout, indent=2, sort_keys=True)
            print()
            return 0
        modes = MODES if args.modes == "all" else tuple(args.modes.split(","))
        table, _ = sweep(config, _seeds(args), modes=modes, out_dir=args.out)
    except ValidationError as exc:
        parser.error(str(exc))
    print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
