"""Command-line experiment runner.

Subcommands:
  run       execute a config (one run per repeat seed), write metrics + summary
  sweep     run noise-free/uplink-only/downlink-only variants along r or E
  bounds    print the error-bound decomposition for a config (no simulation)
  power     compare cumulative power budgets of the control policies
  bcd-demo  print the witness violating any bounded-dissimilarity constant

Exit codes: 0 success (divergence inside a run is data, not failure),
2 invalid configuration, 3 I/O failure. A warning is printed to stderr as one
``warning: …`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings

from .config import ConfigError, load_config
from .channel import compare_policies
from .experiment import _fmt, bound_inputs, build_task, run_experiment, run_sweep
from .theory import bcd_gap, bcd_witness, fedavg_error_bound, min_rounds


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed_override is not None and args.seed_override < 0:
        raise ConfigError(f"--seed-override must be >= 0, got {args.seed_override}")
    try:
        summary = run_experiment(cfg, out_prefix=args.out, seed_override=args.seed_override)
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}") from exc
    fl = summary["final_loss"]
    print(f"wrote {summary['summary_file']}")
    print(f"final loss mean={_fmt(fl['mean'])} std={_fmt(fl['std'])} "
          f"(seeds {summary['seeds']})")
    for s, status in summary["status"].items():
        if status != "completed":
            print(f"seed {s}: diverged at round {summary['diverged_at'][s]}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated integers, "
                          f"got {args.values!r}") from exc
    try:
        out = run_sweep(cfg, args.axis, values, out_prefix=args.out)
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}") from exc
    print(f"wrote {out['csv']}")
    for v, name, fl, exc in out["rows"]:
        print(f"{args.axis}={v:<4d} {name:<14s} final={_fmt(fl)} excess={_fmt(exc)}")
    for v, name, seeds in out["diverged"]:
        print(f"{args.axis}={v} {name}: diverged in seeds {seeds}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    if cfg.mode != "fedavg":
        raise ConfigError(f"{args.config}: bounds apply to fedavg mode")
    try:
        params = bound_inputs(cfg, build_task(cfg))
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}") from exc
    report = fedavg_error_bound(params)
    mr = min_rounds(params.r, params.gamma)
    pairs = [*dataclasses.asdict(report).items(),
             ("eta", params.eta), ("f0", params.f0), ("sigma2", params.sigma2),
             ("sum_U2", params.sum_U2), ("sum_N2", params.sum_N2), ("min_rounds", mr),
             ("K", params.K), ("K_meets_min_rounds", int(params.K >= mr))]
    if args.csv:
        print("quantity,value")
        for k, v in pairs:
            print(f"{k},{_fmt(v)}")
    else:
        for k, v in pairs:
            print(f"{k:<20s} {_fmt(v)}")
    return 0


def _cmd_power(args) -> int:
    if args.K < 1 or args.E < 1:
        raise ConfigError(f"power: need K >= 1 and E >= 1, got K={args.K} E={args.E}")
    cmp = compare_policies(args.K, args.E)
    rows = [
        ("uplink", cmp.uplink_budget, cmp.prior_uplink_budget, cmp.uplink_ratio),
        ("downlink", cmp.downlink_budget, cmp.prior_downlink_budget, cmp.downlink_ratio),
        ("total", cmp.uplink_budget + cmp.downlink_budget,
         cmp.prior_uplink_budget + cmp.prior_downlink_budget, cmp.total_ratio),
    ]
    if args.csv:
        print("link,policy_budget,reference_budget,ratio")
        for name, a, b, ratio in rows:
            print(f"{name},{_fmt(a)},{_fmt(b)},{_fmt(ratio)}")
    else:
        print(f"power budgets over K={args.K} rounds, E={args.E} local steps")
        print(f"{'link':<10s}{'policy':>16s}{'reference':>16s}{'ratio':>12s}")
        for name, a, b, ratio in rows:
            print(f"{name:<10s}{_fmt(a):>16s}{_fmt(b):>16s}{_fmt(ratio):>12s}")
    return 0


def _cmd_bcd(args) -> int:
    n, G = args.n, args.G
    if n < 1 or not 0 < G < math.inf:
        raise ConfigError(f"bcd-demo: need n >= 1 and finite G > 0, got n={n} G={G}")
    if n == 1:
        print("single client: gap identically 0 for all w")
        return 0
    w = bcd_witness(G, n)
    try:
        gap = bcd_gap(w, n)
    except OverflowError:
        gap = math.inf
    if not math.isfinite(gap):
        raise ConfigError(f"bcd-demo: G={G} is too large: the gap overflows a float")
    print(f"witness w = {_fmt(w)}")
    print(f"gap(w)    = {_fmt(gap)}")
    print(f"G^2       = {_fmt(G * G)}")
    print(f"gap exceeds G^2: {gap > G * G}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="noisyfed",
                                description="noisy-channel federated averaging toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a config file")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", default=None, help="output path prefix")
    runp.add_argument("--seed-override", type=int, default=None)
    runp.set_defaults(func=_cmd_run)

    sw = sub.add_parser("sweep", help="axis sweep with channel variants")
    sw.add_argument("--config", required=True)
    sw.add_argument("--axis", required=True, choices=("r", "E"))
    sw.add_argument("--values", required=True, help="comma-separated integers")
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=_cmd_sweep)

    bo = sub.add_parser("bounds", help="error-bound decomposition, no simulation")
    bo.add_argument("--config", required=True)
    bo.add_argument("--csv", action="store_true")
    bo.set_defaults(func=_cmd_bounds)

    po = sub.add_parser("power", help="policy power-budget comparison")
    po.add_argument("K", type=int)
    po.add_argument("E", type=int)
    po.add_argument("--csv", action="store_true")
    po.set_defaults(func=_cmd_power)

    bc = sub.add_parser("bcd-demo", help="dissimilarity-bound counterexample")
    bc.add_argument("n", type=int)
    bc.add_argument("G", type=float)
    bc.set_defaults(func=_cmd_bcd)
    return p


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    python_form, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = python_form


if __name__ == "__main__":
    sys.exit(main())
