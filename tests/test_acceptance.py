"""Acceptance checks: one test per shipped guarantee.

Each test exercises a guarantee end to end at the stated scale and
tolerance, so a verbose run reads as a pass/fail line per guarantee.
Artifacts (ratio tables) are written to a temporary directory and must
equal, byte for byte, the copies tracked in ``artifacts/``.
"""

import csv
import hashlib
import itertools
import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from sectornet.generators import GenSpec, gen
from sectornet.geometry import (
    QUARTER_TURN,
    TAU,
    AntennaConfig,
    HalfPlane,
    Point,
    distance,
    normalize_angle,
    plane_coverage_verify,
    weakly_separable,
)
from sectornet.orientation import configs_from_assignment, orient_quadruplet
from sectornet.power import (
    cost_chain_check,
    orient_and_assign,
    tsp_tour_approx,
)
from sectornet.replacement import (
    REPLACEMENT_RANGE,
    build_udg,
    full_cell_labels,
    grid_partition,
    replace,
    verify_hop_spanner,
)
from sectornet.rng import SplitMix64
from sectornet.scg import (
    build_scg,
    find_mutual_cover_pair,
    is_connected,
)

from oracles import (
    block,
    cell_of,
    choice,
    coverage_sample_check,
    mst_cost,
    neighbor_lists,
    path_hits_full_cell,
    search_nonseparated_counterexample,
    tour_power_cost,
    wedge_contains,
)

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "artifacts"
FIXTURES = Path(__file__).parent / "fixtures"


def _distinct_quad(rng, side=100.0):
    pts = []
    while len(set(pts)) < 4:
        pts = [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(4)]
    return pts


def test_criterion_1_random_quadruplets_cover_and_connect():
    """10^4 quadruplets (all three shapes) get covering, connected wedges."""
    started = time.monotonic()
    rng = SplitMix64(1)
    tally = {"convex": 0, "triangle": 0, "collinear": 0}
    quads = [_distinct_quad(rng) for _ in range(9_900)]
    quads += [list(gen(GenSpec("collinear", 4, seed=s)).points) for s in range(100)]
    assert len(quads) == 10_000
    for pts in quads:
        asg = orient_quadruplet(pts)
        tally[asg.case] += 1
        configs = configs_from_assignment(asg)
        assert plane_coverage_verify(configs).covered, pts
        assert is_connected(build_scg(configs)), pts
    elapsed = time.monotonic() - started
    assert tally["convex"] >= 1_000
    assert tally["triangle"] >= 1_000
    assert tally["collinear"] >= 100
    assert elapsed < 60.0, f"too slow: {elapsed:.1f}s"


def test_criterion_2_separated_pairs_link_into_one_component():
    """10^4 separated pairs (rotated, both regimes) always join up."""
    from sectornet.scg import classify_separated_pair

    strata = {1: 0, 2: 0}
    checked = 0
    for seed in range(9_800):
        inst = gen(GenSpec("separated_quads", 8, seed=seed))
        pts = inst.points
        ca = configs_from_assignment(orient_quadruplet(list(pts[:4])))
        cb = configs_from_assignment(orient_quadruplet(list(pts[4:])))
        assert find_mutual_cover_pair(ca, cb) is not None, seed
        assert is_connected(build_scg(ca + cb)), seed
        checked += 1
    for case in (1, 2):
        for seed in range(100):
            inst = gen(GenSpec("stratified_quads", 8, seed=seed, case=case))
            pts = inst.points
            sep = HalfPlane(**inst.metadata["separator"])
            ca = configs_from_assignment(orient_quadruplet(list(pts[:4])))
            cb = configs_from_assignment(orient_quadruplet(list(pts[4:])))
            got, _, _ = classify_separated_pair(ca, cb, sep)
            assert got == case
            strata[case] += 1
            assert find_mutual_cover_pair(ca, cb) is not None, (case, seed)
            assert is_connected(build_scg(ca + cb)), (case, seed)
            checked += 1
    assert checked == 10_000
    assert strata[1] > 0 and strata[2] > 0


def test_criterion_3_nonseparated_counterexample_is_reproducible():
    """Dropping separation breaks the guarantee: a pinned pair shows it."""
    found = search_nonseparated_counterexample(trials=4_000, seed=1)
    assert found is not None, "search budget exhausted without a counterexample"
    group_a, group_b = found
    doc = json.loads((FIXTURES / "nonseparated_pair.json").read_text())
    assert [list(p.as_tuple()) for p in group_a] == doc["group_a"]
    assert [list(p.as_tuple()) for p in group_b] == doc["group_b"]
    # re-verify every claimed property from scratch
    ca = configs_from_assignment(orient_quadruplet(group_a))
    cb = configs_from_assignment(orient_quadruplet(group_b))
    assert plane_coverage_verify(ca).covered
    assert plane_coverage_verify(cb).covered
    assert is_connected(build_scg(ca))
    assert is_connected(build_scg(cb))
    assert not weakly_separable(group_a, group_b)
    assert find_mutual_cover_pair(ca, cb) is None
    assert not is_connected(build_scg(ca + cb))


def test_criterion_4_replacement_spanner_bounds():
    """200 unit-disk instances: refined hops <= 8, basic <= 9, on time."""
    exact_range = 14.0 * math.sqrt(2.0)
    assert REPLACEMENT_RANGE == exact_range
    for k in range(200):
        n = 20 + (480 * k) // 199
        inst = gen(GenSpec("connected_udg", n, seed=k))
        pts = list(inst.points)
        started = time.monotonic()
        udg = build_udg(pts)
        refined = replace(pts, mode="refined")
        assert all(c.range == exact_range for c in refined.configs)
        scg_r = build_scg(list(refined.configs))
        assert is_connected(scg_r), (k, n)
        assert verify_hop_spanner(udg, scg_r, 8).ok, (k, n)
        basic = replace(pts, mode="basic")
        scg_b = build_scg(list(basic.configs))
        assert is_connected(scg_b), (k, n)
        assert verify_hop_spanner(udg, scg_b, 9).ok, (k, n)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"n={n}: {elapsed:.2f}s per instance"


def _shortest_path_out_of_block(udg, grid, src):
    """BFS until some vertex leaves the 3x3 block of src's cell."""
    cells = set(block(cell_of(grid, udg.vertices[src])))
    adj = neighbor_lists(udg)
    parent = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in parent:
                    continue
                parent[v] = u
                if cell_of(grid, udg.vertices[v]) not in cells:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return [udg.vertices[i] for i in reversed(path)]
                nxt.append(v)
        frontier = nxt
    return None


def _drifting_walk(seed, n):
    """A connected chain of sub-unit steps that wanders across many cells."""
    rng = SplitMix64(seed)
    heading = rng.uniform(0.0, TAU)
    pts = [Point(0.0, 0.0)]
    seen = {pts[0]}
    while len(pts) < n:
        heading += 0.25 * rng.gauss()
        step = rng.uniform(0.55, 0.95)
        prev = pts[-1]
        q = Point(prev.x + step * math.cos(heading), prev.y + step * math.sin(heading))
        if q in seen:
            heading += 1.0
            continue
        seen.add(q)
        pts.append(q)
    return pts


def _full_cell_checks(pts, rng, samples):
    """(label checks, exiting paths verified) for one connected instance."""
    grid = grid_partition(pts)
    udg = build_udg(pts)
    if not grid.full_cells():
        return 0, 0
    labels = full_cell_labels(grid, udg)
    for p in pts:
        assert labels[p] in block(cell_of(grid, p)), p
    probe = pts[rng.randrange(len(pts))]
    assert full_cell_labels(grid, udg)[probe] == labels[probe]
    paths = 0
    for _ in range(samples):
        src = rng.randrange(len(pts))
        path = _shortest_path_out_of_block(udg, grid, src)
        if path is None:
            continue
        assert path_hits_full_cell(path, grid) is True, src
        paths += 1
    return len(pts), paths


def test_criterion_5_exiting_paths_cross_full_cells():
    """Paths leaving a 3x3 block always march through a neighboring full cell."""
    rng = SplitMix64(5)
    paths_checked = 0
    points_checked = 0
    # the same 200 instances the spanner bounds run on (compact blobs)
    for k in range(200):
        n = 20 + (480 * k) // 199
        inst = gen(GenSpec("connected_udg", n, seed=k))
        labeled, paths = _full_cell_checks(list(inst.points), rng, samples=5)
        points_checked += labeled
        paths_checked += paths
    assert points_checked >= 40_000
    # wandering chains actually spread across blocks, so exits occur
    for seed in range(25):
        labeled, paths = _full_cell_checks(_drifting_walk(seed, 140), rng, samples=30)
        assert paths > 0, seed
        points_checked += labeled
        paths_checked += paths
    assert paths_checked >= 200


def test_criterion_6_power_assignment_cost_chain(tmp_path):
    """1000 power instances: connected, chained cost bounds, ratio table."""
    rows = []
    for n, beta in itertools.product((8, 16, 64, 512), (1, 2, 3, 4, 5)):
        for rep_i in range(50):
            inst = gen(GenSpec("random_square", n, seed=1_000 * beta + rep_i, side=60.0))
            pts = list(inst.points)
            pa = orient_and_assign(pts, beta)
            assert is_connected(build_scg(pa.configs())), (n, beta, rep_i)
            tour = tsp_tour_approx(pts)
            chain = cost_chain_check(pa, tour)
            assert chain.ok, (n, beta, rep_i, chain)
            assert chain.mst_cost <= chain.cost + 1e-9
            rows.append(
                (n, beta, rep_i, chain.cost, chain.tour_cost, chain.mst_cost,
                 chain.cost_over_tour, chain.cost_over_mst)
            )
    assert len(rows) == 1_000
    with open(tmp_path / "power_ratios.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "beta", "rep", "cost", "tour_cost", "mst_cost", "cost_over_tour", "cost_over_mst"]
        )
        writer.writerows(rows)
    _assert_matches_artifact(tmp_path, "power_ratios.csv")


def _assert_matches_artifact(tmp_path, name):
    """The table just written equals the tracked copy byte for byte."""
    assert (tmp_path / name).read_bytes() == (ARTIFACTS / name).read_bytes(), name


def _far_point_in_direction(wedges, direction):
    """A concrete uncovered point witnessing an uncovered direction.

    Checks independently (plain angle arithmetic) that the direction
    clears every wedge's closed angular interval, then steps far enough
    out that each wedge's bearing error stays below its angular margin.
    """
    margin = math.inf
    for w in wedges:
        off = normalize_angle(direction - w.orientation)
        if off > math.pi:
            off -= TAU
        margin = min(margin, abs(off) - w.aperture / 2.0)
    assert margin > 0.0, "claimed direction lies inside some wedge's arc"
    cx = sum(w.location.x for w in wedges) / len(wedges)
    cy = sum(w.location.y for w in wedges) / len(wedges)
    span = max(
        (distance(a.location, b.location) for a in wedges for b in wedges), default=1.0
    )
    r = 10.0 * (span + 1.0) / math.sin(min(margin, QUARTER_TURN))
    return Point(cx + r * math.cos(direction), cy + r * math.sin(direction))


def test_criterion_7_independent_route_agreement(tmp_path):
    """Arrangement vs sampling, tree and tour vs exhaustive enumeration."""
    rng = SplitMix64(7)
    covered = uncovered = 0
    for _ in range(1_000):
        k = 2 + rng.randrange(4)
        wedges = [
            AntennaConfig(
                Point(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0, TAU),
                choice(rng, [QUARTER_TURN, 2.0, math.pi, 4.5]),
            )
            for _ in range(k)
        ]
        exact = plane_coverage_verify(wedges)
        sampled = coverage_sample_check(wedges, grid_points=20_000, ring_points=2_000)
        if exact.covered:
            covered += 1
            assert sampled.covered  # sampling may never contradict a proof
        else:
            uncovered += 1
            if exact.witness_point is not None:
                assert not any(wedge_contains(w, exact.witness_point) for w in wedges)
            else:
                far = _far_point_in_direction(wedges, exact.witness_direction)
                assert not any(wedge_contains(w, far) for w in wedges)
        if not sampled.covered:
            assert not exact.covered
            assert not any(wedge_contains(w, sampled.witness_point) for w in wedges)
    assert covered > 0 and uncovered > 0

    # spanning tree against full enumeration (label sequences), n <= 7
    from test_power import _brute_mst_cost

    mst_sets = 0
    for _ in range(150):
        n = 4 + rng.randrange(4)
        pts = []
        while len(set(pts)) < n:
            pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]
        for beta in (1, 2):
            assert mst_cost(pts, beta) == pytest.approx(_brute_mst_cost(pts, beta))
        mst_sets += 1

    # tour against the factorial optimum, n <= 8
    from test_power import _brute_best_tour_length

    worst_ratio = 0.0
    tour_sets = 0
    for _ in range(40):
        n = 5 + rng.randrange(4)
        pts = []
        while len(set(pts)) < n:
            pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]
        ratio = tour_power_cost(tsp_tour_approx(pts), 1) / _brute_best_tour_length(pts)
        assert ratio <= 2.0 + 1e-9
        worst_ratio = max(worst_ratio, ratio)
        tour_sets += 1

    with open(tmp_path / "route_agreement.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "sets", "note"])
        writer.writerow(["coverage_exact_vs_sampling", covered + uncovered,
                         f"covered={covered} uncovered={uncovered}"])
        writer.writerow(["mst_vs_enumeration", mst_sets, "costs equal at beta 1 and 2"])
        writer.writerow(["tour_vs_factorial", tour_sets, f"worst_ratio={worst_ratio:.4f}"])
    _assert_matches_artifact(tmp_path, "route_agreement.csv")


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sectornet", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _pipeline_outputs(workdir):
    workdir.mkdir(exist_ok=True)
    out = {}
    quad = workdir / "quad.json"
    udg = workdir / "udg.json"
    pts = workdir / "pts.json"
    _run_cli("gen", "--family", "random_square", "--n", "4", "--seed", "123", "--out", str(quad))
    _run_cli("gen", "--family", "connected_udg", "--n", "60", "--seed", "123", "--out", str(udg))
    _run_cli("gen", "--family", "random_square", "--n", "64", "--seed", "123", "--out", str(pts))
    qcfg = workdir / "quad_cfg.json"
    rcfg = workdir / "udg_cfg.json"
    pcfg = workdir / "pts_cfg.json"
    _run_cli("orient4", "--instance", str(quad), "--out", str(qcfg))
    _run_cli("replace", "--instance", str(udg), "--out", str(rcfg))
    _run_cli("power", "--instance", str(pts), "--beta", "3", "--out", str(pcfg))
    out["quad"] = quad.read_bytes()
    out["udg"] = udg.read_bytes()
    out["pts"] = pts.read_bytes()
    out["quad_cfg"] = qcfg.read_bytes()
    out["udg_cfg"] = rcfg.read_bytes()
    out["pts_cfg"] = pcfg.read_bytes()
    out["verify_quad"] = _run_cli("verify", "--config", str(qcfg))
    out["verify_udg"] = _run_cli("verify", "--config", str(rcfg), "--instance", str(udg))
    out["verify_pts"] = _run_cli("verify", "--config", str(pcfg), "--instance", str(pts))
    out["render_quad"] = _run_cli("render", "--config", str(qcfg))
    out["render_udg"] = _run_cli("render", "--config", str(rcfg))
    return out


#: sha256 of every pipeline output: a change to any output byte fails,
#: even one that both runs repeat.
PIPELINE_SHA256 = {
    "quad": "da7517c6fb5c0d4873649ded1bb15b23a6ecb799b708f746ac207e1e20a5af66",
    "udg": "509081d697bad11f600e40a369a86d5fb61394eb8fd616a21fdd0c0c6d745db3",
    "pts": "668c0a3540234274c06c08c831c0638e032fc84fb0a99dd6a2c03c5e5401eae6",
    "quad_cfg": "3ad07c33b94146a71f39cff5d1c1260eecb683a2123c04e6117e86db75fe008f",
    "udg_cfg": "5e5e50366b2a2c43e6d6889c44c8e1b4c3a6eee16d7726633444d6e570c04d7d",
    "pts_cfg": "758b63c681ff80045dc8da4745e67d72468b61fe86f2d86dc1f41fd4e4a47076",
    "verify_quad": "f8e5c424a720328751b2e68bd070754607442f132d9b656327b33c1b233bbed1",
    "verify_udg": "0a38ad0ff2f78dc52a9bbc4f48bc14599c3da810f32ebb586c05aade0d905860",
    "verify_pts": "fd88181a6c2e0ac9558200a8a662f4db31a7895ef3528a461c37b094721ce8f9",
    "render_quad": "70927b80dd3b844b07f1e3a6d0dcbc8182b9d3f9ad6969b4d96631b25262d483",
    "render_udg": "726b89461a66d16ca20ba6b4bf81dc60792381be2ca8589eb89debcbb28d7836",
}


def test_criterion_8_cli_outputs_are_byte_identical(tmp_path):
    """The full command pipeline reproduces itself bit for bit."""
    run_a = _pipeline_outputs(tmp_path / "a")
    run_b = _pipeline_outputs(tmp_path / "b")
    assert run_a.keys() == run_b.keys() == PIPELINE_SHA256.keys()
    for key in run_a:
        assert run_a[key] == run_b[key], f"{key} differs between runs"
        out = run_a[key] if isinstance(run_a[key], bytes) else run_a[key].encode()
        assert hashlib.sha256(out).hexdigest() == PIPELINE_SHA256[key], key
    assert json.loads(run_a["verify_udg"])["ok"]
    assert json.loads(run_a["verify_pts"])["ok"]


def test_criterion_9_a_quarter_turn_and_four_antennas_are_tight(record_property):
    """No three quarter-wedges cover the plane, no aperture under pi/2
    serves collinear points, and the construction narrowed stops covering."""
    rng = SplitMix64(9)
    # three quarter-wedges span 3pi/2 of directions, so a direction stays
    # bare; half the triples are three wedges of one perpendicular fan
    for k in range(300):
        t = rng.uniform(0, TAU)
        oris = [t + i * QUARTER_TURN for i in range(3)] if k % 2 else [rng.uniform(0, TAU) for _ in range(3)]
        triple = [AntennaConfig(Point(rng.uniform(-10, 10), rng.uniform(-10, 10)), o) for o in oris]
        assert not plane_coverage_verify(triple).covered, triple
    # on a line, every wedge of a connected graph holds a direction along
    # it, so under pi/2 none reaches the perpendicular: draw orientations
    # along the line, either way, within the aperture
    connected = {}
    for alpha in (1.0, 1.3, 1.5, QUARTER_TURN - 1e-6):
        connected[alpha] = 0
        for k in range(600):
            pts = list(gen(GenSpec("collinear", 6, seed=k % 20)).points)
            d = math.atan2(pts[-1].y - pts[0].y, pts[-1].x - pts[0].x)
            oris = [d + math.pi * rng.randrange(2) + rng.uniform(-alpha / 2, alpha / 2) for _ in pts]
            configs = [AntennaConfig(p, o, alpha) for p, o in zip(pts, oris)]
            if is_connected(build_scg(configs)):
                connected[alpha] += 1
                assert not plane_coverage_verify(configs).covered, (alpha, configs)
    assert min(connected.values()) > 50, connected
    # the fan narrowed by 1e-9 rad leaves a direction gap on every hull
    # shape; whether the graph stays connected is recorded, not asserted
    tally = Counter()
    for family, seeds in (("random_square", range(1, 60)), ("collinear", range(1, 20))):
        for seed in seeds:
            asg = orient_quadruplet(list(gen(GenSpec(family, 4, seed=seed)).points))
            configs = [AntennaConfig(p, a, QUARTER_TURN - 1e-9) for p, a in asg.entries]
            assert not plane_coverage_verify(configs).covered, (family, seed)
            tally[asg.case, is_connected(build_scg(configs))] += 1
    assert {case for case, _ in tally} == {"convex", "triangle", "collinear"}
    record_property("narrowed_fans_by_case_and_connectivity", dict(tally))
