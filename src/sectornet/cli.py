"""Command-line interface.

Subcommands cover the whole pipeline: generate instances, orient a
quadruplet, replace omnidirectional antennas, assign power along a tour,
verify a configuration against its instance, and render SVG pictures.

Exit codes: 0 success, 1 a verification check failed, 2 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import fileio
from .generators import FAMILIES, GenSpec, gen
from .geometry import _lex_order, plane_coverage_verify
from .orientation import configs_from_assignment, orient_quadruplet
from .power import PowerAssignment, cost_chain_check, orient_and_assign, tsp_tour_approx
from .render import render_svg
from .replacement import _udg, replace, verify_hop_spanner
from .scg import build_scg, is_connected

_DEFAULT_STRETCH = {"replace-basic": 9, "replace-refined": 8, "replace-small": 5}
_MISMATCH = "config antennas do not match the instance points"


def cmd_generate(args: argparse.Namespace) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        side=args.side,
        gap=args.gap,
        case=args.case,
        clusters=args.clusters,
    )
    inst = gen(spec)
    meta = dict(inst.metadata)
    meta["family"] = spec.family
    meta["seed"] = args.seed
    text = fileio.write_instance(inst.points, args.out, metadata=meta)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def cmd_orient4(args: argparse.Namespace) -> int:
    points, _ = fileio.read_instance(args.instance)
    if len(points) != 4:
        raise ValueError("orient4 needs an instance with exactly 4 points")
    assignment = orient_quadruplet(points)
    configs = configs_from_assignment(assignment)
    text = fileio.write_config(configs, "orient4", args.out, metadata={"case": assignment.case})
    if args.out is None:
        sys.stdout.write(text)
    return 0


def cmd_replace(args: argparse.Namespace) -> int:
    points, _ = fileio.read_instance(args.instance)
    result = replace(points, mode=args.mode)
    meta = {"grid_origin": list(result.grid.origin)}
    text = fileio.write_config(result.configs, f"replace-{result.mode}", args.out, metadata=meta)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    points, _ = fileio.read_instance(args.instance)
    pa = orient_and_assign(points, args.beta)
    text = fileio.write_config(pa.configs(), "power", args.out, metadata={"beta": args.beta})
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _json_number(x):
    """A report value, with infinity written as "inf" like unbounded ranges."""
    return "inf" if math.isinf(x) else x


# A check takes the verify inputs, raises its usage errors, and returns
# the run that reports on the configuration given a zero-argument SCG
# builder; cmd_verify prepares every check before running any.  The
# instance, when given, is its x and y coordinate columns.


def _check_connected(configs, mode, instance, metadata, limit):
    return lambda scg: {"passed": is_connected(scg())}


def _check_coverage(configs, mode, instance, metadata, limit):
    if any(map(math.isfinite, configs.range.tolist())):
        raise ValueError("coverage check needs unbounded ranges")

    def run(scg):
        report = plane_coverage_verify(configs)
        out: dict = {"passed": report.covered}
        if report.witness_point is not None:
            out["witness_point"] = [report.witness_point.x, report.witness_point.y]
        if report.witness_direction is not None:
            out["witness_direction"] = report.witness_direction
        return out

    return run


def _check_stretch(configs, mode, instance, metadata, limit):
    if instance is None:
        raise ValueError("stretch check needs --instance")
    xs, ys = instance
    if not (np.array_equal(configs.x, xs) and np.array_equal(configs.y, ys)):
        raise ValueError(_MISMATCH)
    if limit is None:
        limit = _DEFAULT_STRETCH.get(mode)
    if limit is None:
        raise ValueError(f"no default hop limit for mode {mode!r}; pass --limit")
    if math.isnan(limit):
        raise ValueError("--limit must be a number, not NaN")

    def run(scg):
        rep = verify_hop_spanner(_udg(xs, ys), scg(), limit)
        out = {"passed": rep.ok, "max_hops": _json_number(rep.max_hops), "limit": _json_number(limit)}
        if rep.worst_edge is not None:
            out["worst_edge"] = [list(rep.worst_edge[0].as_tuple()), list(rep.worst_edge[1].as_tuple())]
        return out

    return run


def _check_cost_chain(configs, mode, instance, metadata, limit):
    if instance is None:
        raise ValueError("cost-chain check needs --instance")
    # the same points in any order, sorted lexicographically: a repeated
    # antenna shows, as the instance repeats no point
    xs, ys = instance
    at, by = _lex_order(xs, ys), np.lexsort((configs.y, configs.x))
    if not (np.array_equal(xs[at], configs.x[by]) and np.array_equal(ys[at], configs.y[by])):
        raise ValueError(_MISMATCH)
    beta = metadata.get("beta")
    if isinstance(beta, bool) or not isinstance(beta, (int, float)):
        raise ValueError("config metadata lacks a numeric beta")
    pa = PowerAssignment(
        beta, tuple(zip(configs.locations, configs.orientation.tolist(), configs.range.tolist()))
    )

    def run(scg):
        # the tour of the config's points, which are the instance's
        rep = cost_chain_check(pa, tsp_tour_approx(configs.locations))
        return {
            "passed": rep.ok,
            "cost": _json_number(rep.cost),
            "cost_over_tour": _json_number(rep.cost_over_tour),
            "cost_over_mst": _json_number(rep.cost_over_mst),
            "max_index_gap": rep.max_index_gap,
        }

    return run


_CHECKS = {
    "connected": _check_connected,
    "coverage": _check_coverage,
    "stretch": _check_stretch,
    "cost-chain": _check_cost_chain,
}

_DEFAULT_CHECKS = {
    "orient4": ["connected", "coverage"],
    "replace-basic": ["connected", "stretch"],
    "replace-refined": ["connected", "stretch"],
    "replace-small": ["connected", "stretch"],
    "power": ["connected", "cost-chain"],
}


def cmd_verify(args: argparse.Namespace) -> int:
    configs, mode, metadata = fileio.read_config(args.config)
    instance = fileio._read_instance_columns(args.instance)[:2] if args.instance else None
    names = (
        [s.strip() for s in args.checks.split(",") if s.strip()]
        if args.checks is not None
        else _DEFAULT_CHECKS.get(mode, ["connected"])
    )
    if not names:
        raise ValueError("no checks given")
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown check: {name!r}")
    runs = [
        (name, _CHECKS[name](configs, mode, instance, metadata, args.limit))
        for name in names
    ]
    # built once, on first use, and only after every usage error
    scg = functools.cache(lambda: build_scg(configs))
    report = {"mode": mode, "checks": {name: run(scg) for name, run in runs}}
    report["ok"] = all(c["passed"] for c in report["checks"].values())
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return 0 if report["ok"] else 1


def cmd_render(args: argparse.Namespace) -> int:
    configs, mode, metadata = fileio.read_config(args.config)
    grid_origin = None
    if mode.startswith("replace") and "grid_origin" in metadata:
        grid_origin = metadata["grid_origin"]  # render_svg checks it
    svg = render_svg(configs, grid_origin=grid_origin)
    if args.out is None:
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectornet",
        description="Orientation and power assignment for quarter-wedge sector antennas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point instance")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side", type=float, default=100.0)
    p.add_argument("--gap", type=float, default=10.0)
    p.add_argument("--case", type=int, choices=(1, 2), default=None)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("orient4", help="orient a four-point instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_orient4)

    p = sub.add_parser("replace", help="replace unit disks by wedges")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=("basic", "refined"), default="refined")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_replace)

    p = sub.add_parser("power", help="orient and assign transmission ranges")
    p.add_argument("--instance", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("verify", help="check a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--instance", default=None)
    p.add_argument("--checks", default=None, help="comma separated subset of: connected, coverage, stretch, cost-chain")
    p.add_argument("--limit", type=float, default=None, help="hop limit for the stretch check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a configuration as SVG")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
