"""Command-line entry points: run one experiment, sweep a config
directory, or plot existing artifacts."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigurationError, parse_config
from .experiment import emit_plots, run_experiment


def cmd_run(args) -> int:
    cfg = parse_config(args.config, args.seed, args.out)
    artifacts = run_experiment(cfg)
    print(f"wrote {artifacts.market_csv}")
    print(f"wrote {artifacts.summary_csv}")
    print(f"wrote {artifacts.calibration_report}")
    return 0


def cmd_sweep(args) -> int:
    config_dir = Path(args.config_dir)
    paths = sorted(p for p in config_dir.iterdir() if p.suffix in (".yaml", ".yml"))
    if not paths:
        print(f"no config files found in {config_dir}", file=sys.stderr)
        return 1
    configs = {}  # stem -> (path, config): each stem is one output directory
    for path in paths:  # check every file before running any
        if path.stem in configs:
            first = configs[path.stem][0].name
            raise ConfigurationError(f"{first} and {path.name} would both write to {path.stem}/")
        try:
            cfg = parse_config(path, args.seed, args.out)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path.name}: {exc}") from None
        configs[path.stem] = path, replace(cfg, output_dir=str(Path(cfg.output_dir) / path.stem))
    for path, cfg in configs.values():
        artifacts = run_experiment(cfg)
        print(f"{path.name}: wrote {artifacts.summary_csv}")
    return 0


def cmd_plot(args) -> int:
    written = emit_plots(args.artifacts_dir, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flmarket")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--out", default=None, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every config in a directory")
    p_sweep.add_argument("config_dir")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="emit bar charts from artifacts")
    p_plot.add_argument("artifacts_dir")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
