"""Symmetric connectivity graphs and the separated-pair machinery."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sectornet.geometry import (
    DIST_SQ_TOL,
    QUARTER_TURN,
    HalfPlane,
    Point,
    halfplane_covered,
    squared_distance,
    wedge_contains,
    weakly_separable,
)
from sectornet.generators import GenSpec, gen
from sectornet.orientation import orient_quadruplet
from sectornet.replacement import build_udg
from sectornet.rng import SplitMix64
from sectornet.scg import (
    AntennaConfig,
    bfs,
    build_scg,
    classify_separated_pair,
    configs_from_assignment,
    find_mutual_cover_pair,
    halfplane_cover_number,
    is_connected,
)

FIXTURES = Path(__file__).parent / "fixtures"
PI = math.pi


def test_antenna_config_defaults_and_wedge():
    c = AntennaConfig(Point(1.0, 2.0), 0.5)
    assert c.aperture == QUARTER_TURN
    assert math.isinf(c.range)
    w = c.wedge()
    assert w.apex == Point(1.0, 2.0) and w.orientation == 0.5


def _zigzag_configs(rng=math.inf):
    # diagonal chain with alternating orientations; see the hop asserts
    pts = [Point(float(k), float(k)) for k in range(4)]
    oris = [0.25 * PI, 1.25 * PI, 0.25 * PI, 1.25 * PI]
    return [AntennaConfig(p, o, range=rng) for p, o in zip(pts, oris)]


def _hops(g, u, v):
    dist = [math.inf] * len(g.vertices)
    bfs(g.neighbor_lists, [u], dist)
    return dist[v]


def test_build_scg_mutual_edges_hand_case():
    g = build_scg(_zigzag_configs())
    assert g.edges.tolist() == [[0, 1], [0, 3], [2, 3]]
    assert is_connected(g)
    assert _hops(g, 1, 2) == 3
    assert _hops(g, 0, 2) == 2
    assert _hops(g, 2, 0) == 2


def test_build_scg_range_cuts_long_edges():
    g = build_scg(_zigzag_configs(rng=1.5))
    assert g.edges.tolist() == [[0, 1], [2, 3]]
    assert not is_connected(g)
    assert _hops(g, 1, 2) == math.inf


def test_build_scg_rejects_duplicate_locations():
    with pytest.raises(ValueError):
        build_scg([AntennaConfig(Point(0.0, 0.0), 0.0), AntennaConfig(Point(0.0, 0.0), 1.0)])


def test_build_scg_matches_naive_double_loop():
    rng = SplitMix64(3)
    for _ in range(20):
        configs = []
        seen = set()
        while len(configs) < 8:
            p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if p in seen:
                continue
            seen.add(p)
            configs.append(
                AntennaConfig(p, rng.uniform(0, 2 * PI), range=rng.choice([math.inf, 3.0, 6.0]))
            )
        g = build_scg(configs)
        expect = []
        for i in range(8):
            for j in range(i + 1, 8):
                if wedge_contains(configs[i].wedge(), configs[j].location) and wedge_contains(
                    configs[j].wedge(), configs[i].location
                ):
                    expect.append([i, j])
        assert g.edges.tolist() == expect
        # the unit-disk graph shares the matrix-to-edges step; shrink the
        # points into [-1, 1]^2 so that it has plenty of edges
        pts = [Point(c.location.x / 4, c.location.y / 4) for c in configs]
        udg = build_udg(pts)
        assert udg.edges.tolist() == [
            [i, j]
            for i in range(8)
            for j in range(i + 1, 8)
            if squared_distance(pts[i], pts[j]) <= 1.0 + DIST_SQ_TOL
        ]
        for graph in (g, udg):
            e = graph.edges
            assert e.shape == (len(e), 2) and np.issubdtype(e.dtype, np.integer)
            assert (e[:, 0] < e[:, 1]).all()
            rows = e.tolist()
            assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly row-major
            assert not e.flags.writeable
            for nbrs in graph.neighbor_lists:
                assert all(type(k) is int for k in nbrs)
                assert nbrs == sorted(nbrs)


def test_single_vertex_graph_is_connected():
    g = build_scg([AntennaConfig(Point(0.0, 0.0), 0.0)])
    assert is_connected(g)
    assert _hops(g, 0, 0) == 0


def test_find_mutual_cover_pair():
    a = [AntennaConfig(Point(0.0, 0.0), 0.0)]  # aims right
    b = [AntennaConfig(Point(5.0, 0.0), PI)]  # aims left, at a
    assert find_mutual_cover_pair(a, b) == (Point(0.0, 0.0), Point(5.0, 0.0))
    away = [AntennaConfig(Point(5.0, 0.0), 0.0)]  # aims away
    assert find_mutual_cover_pair(a, away) is None
    # coincident locations are skipped rather than matched
    co = [AntennaConfig(Point(0.0, 0.0), PI)]
    assert find_mutual_cover_pair(a, co) is None
    assert find_mutual_cover_pair([], b) is None
    assert find_mutual_cover_pair(a, []) is None
    # (a0, b0) coincide; (a0, b1) and (a1, b0) both link, and the scan
    # runs over side A first, so (a0, b1) is the answer
    a2 = a + [AntennaConfig(Point(-5.0, 0.0), 0.0)]
    b2 = co + b
    assert find_mutual_cover_pair(a2, b2) == (Point(0.0, 0.0), Point(5.0, 0.0))
    assert find_mutual_cover_pair(b2, a2) == (Point(0.0, 0.0), Point(-5.0, 0.0))


def _square_configs(x0, y0, rot=0.0):
    pts = [Point(x0, y0), Point(x0 + 1.0, y0), Point(x0 + 1.0, y0 + 1.0), Point(x0, y0 + 1.0)]
    if rot:
        cx, cy = x0 + 0.5, y0 + 0.5
        c, s = math.cos(rot), math.sin(rot)
        pts = [Point(cx + c * (p.x - cx) - s * (p.y - cy), cy + s * (p.x - cx) + c * (p.y - cy)) for p in pts]
    return configs_from_assignment(orient_quadruplet(pts))


def test_halfplane_cover_number_square():
    configs = _square_configs(0.0, 0.0)
    # the rightward couple covers {x >= 0}, hence any {x >= c} with c >= 0
    assert halfplane_cover_number(configs, HalfPlane(1.0, 0.0, 5.0)) == 2
    # a single quarter wedge never covers a half-plane
    assert halfplane_cover_number(configs[:1], HalfPlane(1.0, 0.0, 5.0)) is None


def _cover_number_by_definition(configs, hp):
    """The smallest k such that some k antennas cover ``hp`` on their own."""
    for k in range(1, 5):
        for subset in itertools.combinations(configs, k):
            if halfplane_covered([c.wedge() for c in subset], hp).covered:
                return k
    return None


def test_halfplane_cover_number_matches_its_definition():
    specs = [GenSpec("separated_quads", 8, seed=s) for s in range(40)]
    specs += [GenSpec("stratified_quads", 8, seed=s, case=c) for c in (1, 2) for s in range(20)]
    for spec in specs:
        inst = gen(spec)
        sep = HalfPlane(**inst.metadata["separator"])
        flipped = HalfPlane(-sep.nx, -sep.ny, -sep.c)
        for side in (inst.points[:4], inst.points[4:]):
            configs = configs_from_assignment(orient_quadruplet(list(side)))
            for hp in (sep, flipped):
                want = _cover_number_by_definition(configs, hp)
                assert halfplane_cover_number(configs, hp) == want, spec


def test_classify_separated_pair_aligned_is_case_one():
    a = _square_configs(0.0, 0.0)
    b = _square_configs(9.0, 0.0)
    case, x_a, x_b = classify_separated_pair(a, b, HalfPlane(1.0, 0.0, 5.0))
    assert (case, x_a, x_b) == (1, 2, 2)


def test_classify_separated_pair_rotated_is_case_two():
    a = _square_configs(0.0, 0.0, rot=0.2)
    b = _square_configs(9.0, 0.0, rot=0.3)
    case, x_a, x_b = classify_separated_pair(a, b, HalfPlane(1.0, 0.0, 5.0))
    assert (case, x_a, x_b) == (2, 3, 3)


def test_classify_separated_pair_one_aligned_side_is_case_one():
    a = _square_configs(0.0, 0.0)
    b = _square_configs(9.0, 0.0, rot=0.3)
    case, x_a, x_b = classify_separated_pair(a, b, HalfPlane(1.0, 0.0, 5.0))
    assert case == 1 and x_a == 2 and x_b == 3


def test_classify_separated_pair_rejects_unseparated_input():
    a = _square_configs(0.0, 0.0)
    b = _square_configs(9.0, 0.0)
    with pytest.raises(ValueError):
        classify_separated_pair(a, b, HalfPlane(1.0, 0.0, 50.0))  # B not inside
    with pytest.raises(ValueError):
        classify_separated_pair(b, a, HalfPlane(1.0, 0.0, 5.0))  # sides swapped


def test_separated_squares_always_link_up():
    rng = SplitMix64(17)
    for _ in range(30):
        rot_a, rot_b = rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI)
        a = _square_configs(0.0, rng.uniform(-3, 3), rot=rot_a)
        b = _square_configs(rng.uniform(6.0, 12.0), rng.uniform(-3, 3), rot=rot_b)
        assert find_mutual_cover_pair(a, b) is not None
        assert is_connected(build_scg(a + b))


def test_pinned_nonseparated_pair_defeats_cross_linking():
    doc = json.loads((FIXTURES / "nonseparated_pair.json").read_text())
    group_a = [Point(x, y) for x, y in doc["group_a"]]
    group_b = [Point(x, y) for x, y in doc["group_b"]]
    ca = configs_from_assignment(orient_quadruplet(group_a))
    cb = configs_from_assignment(orient_quadruplet(group_b))
    # each side on its own is fine
    assert is_connected(build_scg(ca))
    assert is_connected(build_scg(cb))
    # but no line weakly separates them, and no cross edge exists
    assert not weakly_separable(group_a, group_b)
    assert find_mutual_cover_pair(ca, cb) is None
    assert not is_connected(build_scg(ca + cb))
