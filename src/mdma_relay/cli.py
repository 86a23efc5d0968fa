"""Command-line front end: analyze, simulate, sweep, validate, dump-chain."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    PUBLISH_MIN_TRIALS,
    SweepSpec,
    analytic_solution,
    run_manifest,
    run_sweep,
    validate,
    write_rows_csv,
)
from .markov import build_chain, chain_to_json, labelled, ring_distribution, solve_chain
from .analytic import step_outages
from .simulator import SCHEMES, SimOptions, simulate, trace_to_csv_rows
from .topology import ConfigError, default_paper_setup, load_setup, read_json


def _add_setup_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paper-defaults", action="store_true",
                   help="use the built-in reference geometry and parameters")
    p.add_argument("--config", type=Path, help="JSON configuration file")
    p.add_argument("--power-dbm", type=float, default=None, help="override transmit power")
    p.add_argument("--eta", type=float, default=None, help="override shared-information ratio")
    p.add_argument("--granularity", type=int, default=None, help="override bin count")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000, help="slots to simulate")
    p.add_argument("--no-relay-cooperation", action="store_true",
                   help="disable relay forwarding for baselines and MDMA alike")
    p.add_argument("--noma-rho", type=float, default=SimOptions.noma_rho,
                   help="NOMA power fraction for source 1")
    p.add_argument("--noma-sic-order", choices=("mean", "instant"),
                   default=SimOptions.noma_sic_order)


def _setup(args) -> tuple:
    if args.config and args.paper_defaults:
        raise ConfigError("choose either --config or --paper-defaults")
    if args.config:
        topo, cfg = load_setup(args.config)
    elif args.paper_defaults:
        topo, cfg = default_paper_setup()
    else:
        raise ConfigError("one of --config or --paper-defaults is required")
    overrides = {}
    if args.power_dbm is not None:
        overrides["power_dbm"] = args.power_dbm
    if args.eta is not None:
        overrides["eta"] = args.eta
    if args.granularity is not None:
        overrides["granularity"] = args.granularity
    if overrides:
        cfg = replace(cfg, **overrides)
    return topo, cfg


def _options(args) -> SimOptions:
    return SimOptions(
        relay_cooperation=not args.no_relay_cooperation,
        noma_rho=args.noma_rho,
        noma_sic_order=args.noma_sic_order,
        trace_limit=getattr(args, "trace_slots", 0),
    )


def _emit(doc: str, out: Path | None) -> None:
    if out is None:
        print(doc)
    else:
        out.write_text(doc + ("\n" if not doc.endswith("\n") else ""), encoding="utf-8")


def cmd_analyze(args) -> int:
    topo, cfg = _setup(args)
    sol = analytic_solution(topo, cfg)
    outs = step_outages(topo, cfg)
    doc = {
        "gamma_th": cfg.gamma_th,
        "beta_s": cfg.beta_s,
        "beta_p": cfg.beta_p,
        "step_outages": labelled(outs),
        "overall_op": sol.overall_op,
        "slot_cost": None if math.isinf(sol.slot_cost) else sol.slot_cost,
        "efficiency": sol.efficiency,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False), args.out)
    return 0


def cmd_simulate(args) -> int:
    topo, cfg = _setup(args)
    if args.trace_out and args.trace_slots < 1:
        raise ConfigError("--trace-out needs --trace-slots of at least 1")
    est = simulate(args.scheme, topo, cfg, args.trials, seed=args.seed, options=_options(args))
    doc = est.to_dict()
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False), args.out)
    if args.trace_out:
        rows = trace_to_csv_rows(est.trace)
        with open(args.trace_out, "w", encoding="utf-8", newline="\n") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
    return 0


def cmd_sweep(args) -> int:
    topo, cfg = _setup(args)
    spec = SweepSpec.from_dict(read_json(args.spec, "sweep spec"))
    if spec.trials < PUBLISH_MIN_TRIALS and not args.allow_small_trials:
        raise ConfigError(
            f"published sweeps need at least {PUBLISH_MIN_TRIALS} trials per point; "
            "pass --allow-small-trials to override"
        )
    options = _options(args)
    # Built first, so a setting the manifest cannot record stops the sweep before it runs.
    manifest = run_manifest(spec, topo, cfg, options)
    rows = run_sweep(spec, topo, cfg, options)
    outdir = args.out or Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"sweep_{spec.parameter}.csv"
    write_rows_csv(csv_path, rows)
    (outdir / f"sweep_{spec.parameter}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {csv_path}")
    return 0


def cmd_validate(args) -> int:
    topo, cfg = _setup(args)
    report = validate(topo, cfg, trials=args.trials, seed=args.seed, options=_options(args))
    for line in report.lines():
        print(line)
    print("validation:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_dump_chain(args) -> int:
    topo, cfg = _setup(args)
    outs = step_outages(topo, cfg)
    wrap = args.literal_personal1_wrap
    chain = build_chain(outs, cfg.beta_s, cfg.beta_p, wrap)
    pi = ring_distribution(outs, cfg.beta_s, cfg.beta_p, wrap)
    sol = solve_chain(outs, cfg.beta_s, cfg.beta_p, cfg.bandwidth_units, cfg.power_units, wrap)
    _emit(chain_to_json(sol, chain, pi, outs), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once per process.

    Building it costs about 2 ms on a 2-core host (each ``add_argument``
    makes a help formatter), more than the closed-form work of one
    ``analyze``, so ``main`` reuses it.  That is safe: ``parse_args``
    returns a fresh namespace on every call, help is formatted (and the
    terminal width read) when printed, and no argument has a mutable default.
    """
    parser = argparse.ArgumentParser(
        prog="mdma-relay",
        description="Cooperative-relay outage and efficiency analysis with Monte Carlo cross-validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form outage, slot cost and efficiency")
    _add_setup_args(p)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo run for one scheme at one point")
    _add_setup_args(p)
    _add_sim_args(p)
    p.add_argument("--scheme", choices=SCHEMES, default="mdma")
    p.add_argument("--trace-slots", type=int, default=0, help="record this many slot events")
    p.add_argument("--trace-out", type=Path, help="CSV path for the slot trace")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a sweep specification file")
    _add_setup_args(p)
    _add_sim_args(p)
    p.add_argument("--spec", type=Path, required=True, help="JSON sweep specification")
    p.add_argument("--allow-small-trials", action="store_true")
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="analytic-vs-simulation oracle suite")
    _add_setup_args(p)
    _add_sim_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dump-chain", help="state list, transitions and occupancies as JSON")
    _add_setup_args(p)
    p.add_argument("--literal-personal1-wrap", action="store_true",
                   help="use the literal transition-table variant for the first personalized phase")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_dump_chain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
