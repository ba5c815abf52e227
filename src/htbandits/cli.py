"""Command-line front end for running regret experiments.

Example
-------
htbandits --algo dprse --setting S1 --v 0.9 --eps 1.0 --horizon 100000 \
          --reps 30 --seed 7 --out results/dprse_s1
"""

import argparse
import sys

from .distributions import format_value
from .harness import (
    ALGORITHMS,
    SETTINGS,
    ExperimentConfig,
    make_instance_for,
    run_experiment,
    write_csv,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htbandits",
        description="Simulate private bandit policies on heavy-tailed reward instances.",
    )
    parser.add_argument("--algo", required=True, choices=ALGORITHMS, help="policy to run")
    parser.add_argument(
        "--setting", required=True, choices=SETTINGS, help="reward instance"
    )
    parser.add_argument("--v", type=float, required=True, help="tail exponent in (0, 1]")
    parser.add_argument("--eps", type=float, required=True, help="privacy budget")
    parser.add_argument("--horizon", type=int, required=True, help="rounds per repetition")
    parser.add_argument("--reps", type=int, default=1, help="number of repetitions")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--out", required=True, help="output path base for .runs.csv/.summary.csv/.meta"
    )
    parser.add_argument(
        "--checkpoints", type=int, default=200, help="number of geometric checkpoints"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for repetitions"
    )
    parser.add_argument(
        "--zero-noise",
        action="store_true",
        help="test hook: replace all noise with zeros (no privacy guarantee)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(
            algo=args.algo,
            setting=args.setting,
            v=args.v,
            eps=args.eps,
            horizon=args.horizon,
            reps=args.reps,
            base_seed=args.seed,
            checkpoint_count=args.checkpoints,
            zero_noise=args.zero_noise,
        )
        instance = make_instance_for(config.setting, config.v)
        traces, summary = run_experiment(config, workers=args.workers)
        paths = write_csv(args.out, config, instance, traces, summary)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{config.algo} on {config.setting}: {config.reps} reps, T={config.horizon}, "
        f"final regret mean={format_value(summary.means[-1])} "
        f"std={format_value(summary.stds[-1])}"
    )
    print(f"wrote {paths['runs']}, {paths['summary']}, {paths['meta']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
