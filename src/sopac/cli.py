"""Command line interface.

Subcommands: ``train`` runs one experiment, ``aggregate`` folds per-seed
metrics into median/quartile curves, ``grad-check`` and ``oracle-check``
expose the verification suites. Every train flag has a config-file (JSON)
equivalent; flags given on the command line win.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .autodiff import NumericError
from .harness import (
    ConfigError,
    ENVS,
    RunConfig,
    SOP_MODES,
    aggregate,
    load_config,
    run_experiment,
    write_aggregate,
)
from .learn import ALGOS, SCHEDULES


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sopac")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags left off the command line stay out of the namespace, so every
    # flag whose dest is a RunConfig field is an override of the config file.
    train = sub.add_parser("train", help="run one seeded experiment",
                           argument_default=argparse.SUPPRESS)
    train.add_argument("--env", choices=ENVS)
    train.add_argument("--algo", choices=ALGOS)
    train.add_argument("--sop", choices=SOP_MODES)
    train.add_argument("--critic-schedule", choices=SCHEDULES, dest="critic_schedule")
    train.add_argument("--batch-size", type=int, dest="batch_size")
    train.add_argument("--kl-threshold", type=float, dest="kl_threshold")
    train.add_argument("--gamma-adv-one", type=_parse_bool, dest="gamma_adv_one")
    train.add_argument("--seed", type=int)
    train.add_argument("--total-steps", type=int, dest="total_steps")
    train.add_argument("--eval-interval", type=int, dest="eval_interval")
    train.add_argument("--out", required=True)
    train.add_argument("--config", help="JSON file with RunConfig fields")
    train.set_defaults(func=_cmd_train)

    agg = sub.add_parser("aggregate", help="median/quartiles across seed runs")
    agg.add_argument("--runs", nargs="+", required=True,
                     help="run directories (containing metrics.csv) or CSV paths")
    agg.add_argument("--out", required=True)
    agg.set_defaults(func=_cmd_aggregate)

    grad = sub.add_parser("grad-check", help="finite-difference gradient suite")
    grad.add_argument("--seeds", type=int, default=5)
    grad.add_argument("--tolerance", type=float, default=1e-4)
    grad.set_defaults(func=_cmd_grad_check)

    oracle = sub.add_parser("oracle-check", help="critic vs exact-value oracle")
    oracle.add_argument("--env", choices=["switch"], default="switch")
    oracle.add_argument("--tolerance", type=float, default=0.05)
    oracle.set_defaults(func=_cmd_oracle_check)
    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    data = load_config(args.config) if "config" in args else {}
    data.update((key, value) for key, value in vars(args).items()
                if key in RunConfig.__dataclass_fields__)
    cfg = RunConfig.from_dict(data)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    result = run_experiment(cfg, args.out)
    last = result.rows[-1] if result.rows else {}
    print(f"wrote {result.metrics_path} ({len(result.rows)} rows)")
    if last:
        print(
            f"final: step={last['step']} win_rate={last['test_win_rate']:.3f} "
            f"return={last['test_return']:.3f}"
        )
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    paths = []
    for entry in args.runs:
        p = Path(entry)
        paths.append(p / "metrics.csv" if p.is_dir() else p)
    try:
        rows = aggregate(paths)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        write_aggregate(args.out, rows)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    print(f"wrote {args.out} ({len(rows)} rows over {len(paths)} runs)")
    return 0


def _check_tolerance(tolerance: float) -> None:
    """A verification tolerance that is not finite and positive makes the
    check pass or fail whatever it measures."""
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigError(f"--tolerance must be finite and > 0, got {tolerance}")


def _cmd_grad_check(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    _check_tolerance(args.tolerance)
    from .verify import gradient_suite

    result = gradient_suite(seeds=args.seeds)
    for name, err in sorted(result.max_errors.items()):
        status = "ok" if err < args.tolerance else "FAIL"
        print(f"{name:10s} max rel error {err:.3e}  {status}")
    return 0 if result.overall < args.tolerance else 3


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    _check_tolerance(args.tolerance)
    from .verify import switch_oracle_check

    result = switch_oracle_check(tol=args.tolerance)
    print(f"V critic  |V - V*| = {result.v_error:.4f} after {result.v_updates} updates")
    print(f"Q critic  max|Q - Q*| = {result.q_error:.4f} after {result.q_updates} updates")
    ok = result.passed(args.tolerance)
    print("ok" if ok else "FAIL")
    return 0 if ok else 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
