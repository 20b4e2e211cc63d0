"""The benchmark's workloads: inputs made from a seed, and the op each times.

An op takes one instance from input points to a verified result, calling
only public functions of sectornet.  Every call goes through a tracer
(see ``tracing.py``) under the name ``<module>.<function>``.  An op
returns the serialized configuration it produced, whether its guarantee
held, and per-op counts that the traced run reports.

Import this module after ``sectornet``: the worker times that import on
its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

from sectornet import (
    FULL_CELL_MIN,
    HalfPlane,
    Point,
    PowerAssignment,
    SplitMix64,
    build_scg,
    build_udg,
    classify_separated_pair,
    configs_from_assignment,
    cost_chain_check,
    find_mutual_cover_pair,
    full_cell_labels,
    grid_partition,
    is_connected,
    orient_and_assign,
    orient_quadruplet,
    plane_coverage_verify,
    replace,
    select_hubs_basic,
    select_hubs_refined,
    tsp_tour_approx,
    verify_hop_spanner,
)
from sectornet import fileio
from sectornet.generators import GenSpec, gen

#: Promised hop stretch per replacement mode.
HOP_LIMIT = {"basic": 9, "refined": 8}

#: Input sizes, full and tiny (the tiny ones keep the benchmark's own
#: tests fast).  ``pool`` is the number of distinct instances an op
#: cycles through; ``warmup`` the ops run, untimed, at the end of set-up.
#: Instance costs differ from seed to seed; large pools average that out,
#: so that runs with different seeds measure about the same work.
SIZES = {
    "udg_dense": ({"n": 300, "pool": 24, "warmup": 2}, {"n": 40, "pool": 2, "warmup": 1}),
    "udg_web": ({"n": 285, "pool": 24, "warmup": 2}, {"n": 60, "pool": 2, "warmup": 2}),
    "power_chain": ({"n": 512, "pool": 18, "warmup": 3}, {"n": 32, "pool": 3, "warmup": 3}),
    "quad_batch": ({"units": 30, "warmup": 10}, {"units": 1, "warmup": 10}),
}

#: Per-op counts reported as their maximum over the traced ops; every
#: other count is reported as its mean per op.
MAX_COUNTS = ("replacement.max_hops_over_limit", "power.cost_over_tour_max")


@dataclass
class Outcome:
    """What one op produced: serialized config, verdict, per-op counts.

    ``udg`` is the unit-disk graph a replacement op built, which the
    traced run reuses for the full-cell labels stage.
    """

    text: str
    ok: bool
    counts: dict
    udg: object = None


@dataclass(frozen=True)
class Workload:
    make: Callable  # (seed, size, tracer) -> list of pool entries
    op: Callable  # (tracer, entry, config_path) -> Outcome
    stages: Optional[Callable] = None  # (tracer, entry, outcome) -> counts, traced run only


def _seeds(seed: int, k: int) -> list[int]:
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(k)]


def _gen(t, spec: GenSpec):
    return t.call("generators.gen", gen, spec)


# ---------------------------------------------------------------------------
# Unit-disk replacement: replace, round-trip the config, verify the spanner
# ---------------------------------------------------------------------------


WEB_STEP = 0.85
WEB_JITTER = 0.1  # per coordinate, so a step is at most 0.85 + 0.1*sqrt(2) < 1


def web_points(seed: int, n: int) -> list[Point]:
    """A connected unit-disk "web": jittered unit-step chains along a tree.

    The tree has 12 to 20 centres; each new centre is the end of a chain
    of about ``n / centres`` steps from a random earlier centre.  Chains
    cross 7x7 cells on the way, so they fill many full cells and leave
    some points in cells they only clip, which are the stray points that
    the refined grouping and the full-cell labels handle.
    """
    rng = SplitMix64(seed)
    k = 12 + rng.randrange(9)
    edges = k - 1
    pts = [Point(0.0, 0.0)]
    centres = [pts[0]]
    for e in range(edges):
        steps = (n - 1) // edges + (1 if e < (n - 1) % edges else 0)
        c = centres[rng.randrange(len(centres))]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        ux, uy = WEB_STEP * math.cos(ang), WEB_STEP * math.sin(ang)
        x, y = c.x, c.y
        for _ in range(steps):
            x += ux + rng.uniform(-WEB_JITTER, WEB_JITTER)
            y += uy + rng.uniform(-WEB_JITTER, WEB_JITTER)
            pts.append(Point(x, y))
        centres.append(pts[-1])
    if len(set(pts)) != len(pts):
        raise AssertionError("web generator produced duplicate points")
    if not is_connected(build_udg(pts)):
        raise AssertionError("web generator produced a disconnected unit-disk graph")
    return pts


def make_udg_dense(seed: int, size: dict, t) -> list:
    out = []
    for s in _seeds(seed, size["pool"]):
        inst = _gen(t, GenSpec("connected_udg", size["n"], s))
        out.append((list(inst.points), "refined"))
    return out


def make_udg_web(seed: int, size: dict, t) -> list:
    modes = ("basic", "refined")
    return [
        (t.call("generators.gen", web_points, s, size["n"]), modes[i % 2])
        for i, s in enumerate(_seeds(seed, size["pool"]))
    ]


def udg_op(t, entry, path) -> Outcome:
    points, mode = entry
    limit = HOP_LIMIT[mode]
    res = t.call("replacement.replace", replace, points, mode)
    text = t.call(
        "fileio.write_config",
        fileio.write_config,
        res.configs,
        f"replace-{res.mode}",
        path,
        {"grid_origin": list(res.grid.origin)},
    )
    configs, read_mode, _ = t.call("fileio.read_config", fileio.read_config, path)
    udg = t.call("replacement.build_udg", build_udg, points)
    scg = t.call("scg.build_scg", build_scg, configs)
    connected = t.call("scg.is_connected", is_connected, scg)
    rep = t.call("replacement.verify_hop_spanner", verify_hop_spanner, udg, scg, limit)
    ok = (
        connected
        and rep.ok
        and read_mode == f"replace-{mode}"
        and [c.location for c in configs] == points
    )
    counts = {
        "replacement.udg_edges": len(udg.edges),
        "replacement.max_hops_over_limit": rep.max_hops / limit,
        "scg.edges": len(scg.edges),
        "fileio.bytes": len(text),
    }
    return Outcome(text, ok, counts, udg)


def udg_stages(t, entry, outcome: Outcome) -> dict:
    """The stages of ``replace``, called directly on the op's instance.

    Full-cell labels are computed only when some point lies outside every
    full cell, as ``replace`` itself does.
    """
    points, mode = entry
    grid = t.call("replacement.grid", grid_partition, points)
    full = grid.full_cells()
    select = select_hubs_basic if mode == "basic" else select_hubs_refined
    for cell in full:
        t.call("replacement.hubs", select, grid.points_in(cell))
    strays = sum(len(p) for p in grid.cells.values() if len(p) < FULL_CELL_MIN)
    if strays and full:
        t.call("replacement.labels", full_cell_labels, grid, outcome.udg)
    return {"replacement.full_cells": len(full), "replacement.stray_points": strays}


# ---------------------------------------------------------------------------
# Power assignment: assign, round-trip the config, check the cost chain
# ---------------------------------------------------------------------------


def make_power_chain(seed: int, size: dict, t) -> list:
    return [
        (list(_gen(t, GenSpec("random_square", size["n"], s, side=60.0)).points), 1 + i % 3)
        for i, s in enumerate(_seeds(seed, size["pool"]))
    ]


def power_op(t, entry, path) -> Outcome:
    points, beta = entry
    pa = t.call("power.orient_and_assign", orient_and_assign, points, beta)
    text = t.call(
        "fileio.write_config", fileio.write_config, pa.configs(), "power", path, {"beta": beta}
    )
    configs, mode, meta = t.call("fileio.read_config", fileio.read_config, path)
    scg = t.call("scg.build_scg", build_scg, configs)
    connected = t.call("scg.is_connected", is_connected, scg)
    tour = t.call("power.tsp_tour_approx", tsp_tour_approx, points)
    read_pa = PowerAssignment(
        meta["beta"], tuple((c.location, c.orientation, c.range) for c in configs)
    )
    rep = t.call("power.cost_chain_check", cost_chain_check, read_pa, tour)
    ok = connected and rep.ok and mode == "power"
    counts = {
        "scg.edges": len(scg.edges),
        "fileio.bytes": len(text),
        "power.cost_over_tour_max": rep.cost_over_tour,
    }
    return Outcome(text, ok, counts)


# ---------------------------------------------------------------------------
# Quadruplets and separated pairs: small inputs, exact predicates
# ---------------------------------------------------------------------------

#: One unit of the quad_batch mix: seven random quadruplets, one collinear
#: quadruplet and two separated pairs.  Pairs take about ten times longer
#: than quadruplets, so with two pairs in ten ops the 90th percentile
#: falls among the pairs instead of on the edge between the two kinds.
QUAD_MIX = ("random",) * 7 + ("collinear", "pair", "pair")


def make_quad_batch(seed: int, size: dict, t) -> list:
    out = []
    seeds = iter(_seeds(seed, size["units"] * len(QUAD_MIX)))
    pairs = 0
    for _ in range(size["units"]):
        for kind in QUAD_MIX:
            s = next(seeds)
            if kind == "random":
                out.append(("quad", list(_gen(t, GenSpec("random_square", 4, s)).points)))
            elif kind == "collinear":
                out.append(("quad", list(_gen(t, GenSpec("collinear", 4, s)).points)))
            else:
                # alternate separated_quads, stratified case 1, separated_quads, case 2
                case = None if pairs % 2 == 0 else 1 + (pairs // 2) % 2
                family = "separated_quads" if case is None else "stratified_quads"
                inst = _gen(t, GenSpec(family, 8, s, case=case))
                sep = HalfPlane(**inst.metadata["separator"])
                out.append(("pair", list(inst.points[:4]), list(inst.points[4:]), sep, case))
                pairs += 1
    return out


def _config_text(configs) -> str:
    return json.dumps([[c.location.x, c.location.y, c.orientation] for c in configs])


def quad_op(t, entry, path) -> Outcome:
    if entry[0] == "quad":
        asg = t.call("orientation.orient_quadruplet", orient_quadruplet, entry[1])
        configs = configs_from_assignment(asg)
        cov = t.call(
            "geometry.plane_coverage_verify", plane_coverage_verify, [c.wedge() for c in configs]
        )
        ok = cov.covered
    else:
        _, side_a, side_b, sep, case = entry
        cfg_a = configs_from_assignment(
            t.call("orientation.orient_quadruplet", orient_quadruplet, side_a)
        )
        cfg_b = configs_from_assignment(
            t.call("orientation.orient_quadruplet", orient_quadruplet, side_b)
        )
        got, _, _ = t.call(
            "scg.classify_separated_pair", classify_separated_pair, cfg_a, cfg_b, sep
        )
        pair = t.call("scg.find_mutual_cover_pair", find_mutual_cover_pair, cfg_a, cfg_b)
        configs = cfg_a + cfg_b
        ok = pair is not None and (case is None or got == case)
    scg = t.call("scg.build_scg", build_scg, configs)
    ok = t.call("scg.is_connected", is_connected, scg) and ok
    return Outcome(_config_text(configs), ok, {"scg.edges": len(scg.edges)})


WORKLOADS = {
    "udg_dense": Workload(make_udg_dense, udg_op, udg_stages),
    "udg_web": Workload(make_udg_web, udg_op, udg_stages),
    "power_chain": Workload(make_power_chain, power_op),
    "quad_batch": Workload(make_quad_batch, quad_op),
}
