"""Grid partition, hub selection, and unit-disk replacement guarantees."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import distance_matrix

from sectornet import replacement
from sectornet.generators import GenSpec, gen
from sectornet.geometry import (
    DIST_SQ_TOL,
    Point,
    _coords,
    _hull_candidates,
    convex_hull,
    distance,
    squared_distance,
)
from sectornet.orientation import aim_at_fan, configs_from_assignment, orient_quadruplet
from sectornet.replacement import (
    CELL_SIDE,
    FULL_CELL_MIN,
    REPLACEMENT_RANGE,
    build_udg,
    full_cell_labels,
    grid_partition,
    replace,
    select_hubs_basic,
    select_hubs_refined,
    verify_hop_spanner,
)
from sectornet.rng import SplitMix64
from sectornet.scg import CommGraph, build_scg, is_connected

from oracles import (
    block,
    cell_of,
    choice,
    hubs_refined_reference,
    path_hits_full_cell,
    rational_signs,
    shuffle,
    wedge_contains,
)

PI = math.pi


def _hand_bfs_hops(graph, src):
    """Test-local breadth-first search, independent of the library route."""
    adj = {i: [] for i in range(len(graph.vertices))}
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def test_grid_partition_cells_are_half_open():
    pts = [
        Point(0.0, 0.0),
        Point(6.999999, 0.0),
        Point(7.0, 0.0),
        Point(0.0, 14.0),
    ]
    grid = grid_partition(pts)
    assert grid.origin == (0.0, 0.0)  # the floored minimum
    assert grid.keys[grid.cell].tolist() == [[0, 0], [0, 0], [1, 0], [0, 2]]
    assert cell_of(grid, Point(0.0, 0.0)) == (0, 0)
    assert cell_of(grid, Point(6.999999, 0.0)) == (0, 0)
    assert cell_of(grid, Point(7.0, 0.0)) == (1, 0)
    assert cell_of(grid, Point(-0.5, 0.0)) == (-1, 0)
    assert cell_of(grid, Point(0.0, 14.0)) == (0, 2)
    assert grid.points_in((0, 0)) == (Point(0.0, 0.0), Point(6.999999, 0.0))
    assert grid.full_cells() == []
    assert grid.points_in((5, 5)) == ()


def test_grid_partition_default_origin_floors_the_minimum():
    pts = [Point(3.2, -1.7), Point(9.9, 4.0)]
    grid = grid_partition(pts)
    assert grid.origin == (3.0, -2.0)
    assert cell_of(grid, pts[0]) == (0, 0)


def test_grid_full_cells_and_block():
    pts = [Point(0.1 * k, 0.1 * k) for k in range(FULL_CELL_MIN)] + [Point(10.0, 10.0)]
    grid = grid_partition(pts)
    assert grid.full_cells() == [(0, 0)]
    assert len(grid.points_in((0, 0))) == FULL_CELL_MIN
    assert len(block((0, 0))) == 9
    assert (1, 1) in block((0, 0))


def test_build_udg_threshold_is_closed():
    pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0000001, 0.0)]
    g = build_udg(pts)
    assert g.edges.tolist() == [[0, 1]]
    with pytest.raises(ValueError):
        build_udg([Point(0.0, 0.0), Point(0.0, 0.0)])


def _brute_udg_edges(pts):
    return [
        [i, j]
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if squared_distance(pts[i], pts[j]) <= 1.0 + DIST_SQ_TOL
    ]


def test_build_udg_boundary_cases_match_brute_force():
    # the largest float x whose square stays within the limit, and the next
    inside = math.sqrt(1.0 + DIST_SQ_TOL)
    while inside * inside > 1.0 + DIST_SQ_TOL:
        inside = math.nextafter(inside, 0.0)
    while math.nextafter(inside, math.inf) ** 2 <= 1.0 + DIST_SQ_TOL:
        inside = math.nextafter(inside, math.inf)
    outside = math.nextafter(inside, math.inf)
    columns = [Point(float(i % 3) * 0.5, 0.3 * (i // 3)) for i in range(15)]
    cases = {
        "unit along x": [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)],
        "unit along y": [Point(0.0, 0.0), Point(0.0, 1.0), Point(0.0, 2.0)],
        "just inside": [Point(0.0, 0.0), Point(inside, 0.0), Point(0.0, inside)],
        "just outside": [Point(0.0, 0.0), Point(outside, 0.0), Point(0.0, outside)],
        "shared columns": columns,
        "near 1e6": [Point(p.x + 1e6, p.y - 1e6) for p in columns],
        "scaled by 2**-50": [Point(p.x * 2.0**-50, p.y * 2.0**-50) for p in columns],
        "empty": [],
        "one point": [Point(3.0, 4.0)],
    }
    for name, pts in cases.items():
        g = build_udg(pts)
        assert g.vertices == tuple(pts), name
        assert g.edges.shape == (len(g.edges), 2) and not g.edges.flags.writeable, name
        assert g.edges.tolist() == _brute_udg_edges(pts), name
    assert build_udg(cases["just inside"]).edges.tolist() == [[0, 1], [0, 2]]
    assert build_udg(cases["just outside"]).edges.tolist() == []
    assert len(build_udg(cases["scaled by 2**-50"]).edges) == 15 * 14 // 2


def test_build_udg_memory_is_linear():
    # an n x n float matrix over these 3000 points alone is 72 MB
    pts = _drifting_chain(2, 3000)
    tracemalloc.start()
    try:
        g = build_udg(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges) >= 2999
    assert peak < 8 * 2**20


def test_build_udg_matches_distance_matrix():
    rng = SplitMix64(6)
    for _ in range(10):
        pts = []
        while len(set(pts)) < 25:
            pts = [Point(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(25)]
        g = build_udg(pts)
        arr = np.array([p.as_tuple() for p in pts])
        dm = distance_matrix(arr, arr)
        expect = [
            [i, j]
            for i in range(25)
            for j in range(i + 1, 25)
            if dm[i, j] <= 1.0 + 1e-9
        ]
        assert g.edges.tolist() == expect


def test_select_hubs_basic_takes_lex_smallest_four():
    pts = [Point(5.0, 5.0), Point(1.0, 1.0), Point(2.0, 0.5), Point(0.0, 3.0), Point(4.0, 4.0)]
    asg = select_hubs_basic(pts)
    assert {p for p, _ in asg.entries} == {Point(0.0, 3.0), Point(1.0, 1.0), Point(2.0, 0.5), Point(4.0, 4.0)}
    with pytest.raises(ValueError):
        select_hubs_basic(pts[:3])


def test_select_hubs_refined_frozen_square_cell():
    # Hull is the 6x6 square; all sides tie for longest, the lex-least
    # edge (0,0)-(6,0) wins, (0,6) and (3,3) fill the strip slots.
    pts = [Point(0.0, 0.0), Point(6.0, 0.0), Point(0.0, 6.0), Point(6.0, 6.0), Point(3.0, 3.0)]
    asg = select_hubs_refined(pts)
    got = dict(asg.entries)
    assert [p for p, _ in asg.entries[:2]] == [Point(0.0, 0.0), Point(6.0, 0.0)]  # the base edge
    assert got[Point(0.0, 0.0)] == pytest.approx(0.25 * PI)
    assert got[Point(6.0, 0.0)] == pytest.approx(0.75 * PI)
    assert got[Point(3.0, 3.0)] == pytest.approx(1.25 * PI)  # farther along base
    assert got[Point(0.0, 6.0)] == pytest.approx(1.75 * PI)
    assert Point(6.0, 6.0) not in got


def test_select_hubs_refined_supporting_pair_covers_cell():
    rng = SplitMix64(21)
    for _ in range(40):
        pts = []
        while len(set(pts)) < 8:
            pts = [Point(rng.uniform(0, CELL_SIDE), rng.uniform(0, CELL_SIDE)) for _ in range(8)]
        asg = select_hubs_refined(pts)
        (a1, _), (a2, _) = asg.entries[:2]  # the supporting pair
        hub_configs = [
            dataclasses.replace(c, range=REPLACEMENT_RANGE) for c in configs_from_assignment(asg)
        ]
        w1, w2 = (c for c in hub_configs if c.location in (a1, a2))
        for p in pts:
            assert wedge_contains(w1, p) or wedge_contains(w2, p)
        # the four hubs alone form a connected symmetric graph
        assert is_connected(build_scg(hub_configs))


def _hub_cells():
    """Seeded full cells: the clouds of 300-point connected_udg instances,
    4-30 uniform points in a cell, lattice cells (tied longest hull
    edges, collinear strips, all points on one line), the same lattice
    points moved by an ulp, and seeded cells whose points all lie on one
    axis-aligned or slanted line (the hull is a segment), each in a
    shuffled input order.  For the hull prefilter: cells whose extreme
    points tie (several leftmost, lowest, rightmost or highest points),
    diamonds and triangles with lattice points exactly on the sides of
    the extreme-point quadrilateral, the same moved by an ulp, and
    triangles where two corners of the quadrilateral coincide."""
    rng = SplitMix64(18)
    for seed in (1, 2, 3):
        grid = grid_partition(list(gen(GenSpec("connected_udg", 300, seed=seed)).points))
        for cell in grid.full_cells():
            yield list(grid.points_in(cell))

    def distinct(draw, k):
        pts = []
        while len(pts) < k:
            p = draw()
            if p not in pts:
                pts.append(p)
        return pts

    def lattice_point():
        return Point(float(rng.randrange(7)), float(rng.randrange(7)))

    def nudged_point():
        p = lattice_point()
        up = [math.inf if rng.randrange(2) else -math.inf for _ in range(2)]
        x = math.nextafter(p.x, up[0]) if rng.randrange(3) == 0 else p.x
        y = math.nextafter(p.y, up[1]) if rng.randrange(3) == 0 else p.y
        return Point(x, y)

    def nudge(xy):
        """The lattice point ``xy``, each coordinate moved an ulp up or down, or kept."""
        x, y = (
            math.nextafter(float(v), math.inf if rng.randrange(2) else -math.inf) if rng.randrange(3) == 0 else float(v)
            for v in xy
        )
        return Point(x, y)

    for _ in range(60):
        yield distinct(lambda: Point(rng.uniform(0, CELL_SIDE), rng.uniform(0, CELL_SIDE)), 4 + rng.randrange(27))
    for _ in range(60):
        yield distinct(lattice_point, 4 + rng.randrange(12))
        yield distinct(nudged_point, 4 + rng.randrange(12))
    # all on one line, so the hull is a segment and the strip holds
    # every point; and squares and rectangles whose sides tie
    for line in ([(k, 0) for k in range(7)], [(k, k) for k in range(5)], [(0, k) for k in range(6)]):
        yield [Point(float(x), float(y)) for x, y in line]
    for w, h in ((6, 6), (6, 3), (4, 4)):
        corners = [(0, 0), (w, 0), (0, h), (w, h)]
        yield [Point(float(x), float(y)) for x, y in corners + [(w // 2, h // 2), (w // 2, 0), (0, h // 2)]]
    # dyadic steps along a line keep every point exactly on it
    directions = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (2.0, 1.0), (-1.0, 2.0), (0.75, 0.25))
    for _ in range(40):
        dx, dy = choice(rng, directions)
        x0, y0 = 0.25 * rng.randrange(8), 3.0 + 0.25 * rng.randrange(8)
        steps = distinct(lambda: 0.5 * rng.randrange(7), 4 + rng.randrange(4))
        yield [Point(x0 + t * dx, y0 + t * dy) for t in steps]
    # tied extremes: points on all four sides of a lattice rectangle
    for _ in range(30):
        w, h = 2 + rng.randrange(5), 2 + rng.randrange(5)
        sides = [(0, y) for y in range(h + 1)] + [(w, y) for y in range(h + 1)]
        sides += [(x, 0) for x in range(1, w)] + [(x, h) for x in range(1, w)]
        shuffle(rng, sides)
        cell = {(0, rng.randrange(h + 1)), (w, rng.randrange(h + 1))}
        cell |= {(1 + rng.randrange(w - 1), 0), (1 + rng.randrange(w - 1), h)}
        cell |= set(sides[: rng.randrange(len(sides))])
        cell |= {(rng.randrange(w + 1), rng.randrange(h + 1)) for _ in range(rng.randrange(6))}
        yield [Point(float(x), float(y)) for x, y in cell]
    # lattice points on the sides of the extreme-point quadrilateral: a
    # diamond and a right triangle (whose leftmost and lowest corners
    # coincide), sides and inside sampled, then moved by an ulp or scaled
    shapes = (
        lambda x, y: abs(x - 3) + abs(y - 3) <= 3,
        lambda x, y: x + y <= 6,
        lambda x, y: abs(x - 3) + abs(y - 3) == 3,
    )
    for _ in range(60):
        inside = shapes[rng.randrange(3)]
        lattice = [(x, y) for x in range(7) for y in range(7) if inside(x, y)]
        corners = [(x, y) for x, y in lattice if (x, y) in ((0, 3), (3, 0), (6, 3), (3, 6), (0, 0), (6, 0), (0, 6))]
        shuffle(rng, lattice)
        cell = sorted(set(corners + lattice[: 4 + rng.randrange(len(lattice) - 3)]))
        kind = rng.randrange(3)
        if kind == 0:
            yield [Point(float(x), float(y)) for x, y in cell]
        elif kind == 1:
            yield distinct(lambda: nudge(choice(rng, cell)), len(cell))
        else:
            yield [Point(0.1 * x, 0.1 * y) for x, y in cell]


def test_select_hubs_refined_matches_the_whole_strip_reference():
    rng = SplitMix64(81)
    cells = 0
    for pts in _hub_cells():
        shuffle(rng, pts)
        assert select_hubs_refined(pts) == hubs_refined_reference(pts), pts
        cells += 1
    assert cells > 300


def test_hull_prefilter_keeps_every_hull_vertex():
    # a dropped point lies strictly inside its cell's hull, so the kept
    # points have the same hull; all cells at once give each cell's answer
    cells = [sorted(set(pts), key=Point.as_tuple) for pts in _hub_cells()]
    keeps = []
    for pts in cells:
        keep = _hull_candidates(*_coords(pts), np.array([0, len(pts)])).tolist()
        hull = convex_hull(pts)
        assert convex_hull([p for p, k in zip(pts, keep) if k]) == hull, pts
        sides = list(zip(hull, hull[1:] + hull[:1]))
        for p, k in zip(pts, keep):
            assert k or all(rational_signs(a, b, a, p)[0] > 0 for a, b in sides), (pts, p)
        keeps.append(keep)
    xs, ys = _coords(p for pts in cells for p in pts)
    starts = np.cumsum([0] + [len(pts) for pts in cells])
    assert _hull_candidates(xs, ys, starts).tolist() == [k for keep in keeps for k in keep]
    # on the 300-point clouds the exact hull sees a small share of the points
    big = [(sum(keep), len(keep)) for keep in keeps if len(keep) >= 100]
    assert len(big) == 3 and all(kept < 0.25 * n for kept, n in big), big


def test_grid_partition_matches_per_point_buckets():
    rng = np.random.default_rng(41)
    for k in range(30):
        scale = (0.5, 7.0, 30.0, 1e6)[k % 4]
        raw = rng.uniform(-scale, scale, (1 + rng.integers(300), 2))
        if k % 3 == 0:  # points on cell boundaries
            raw = np.round(raw / 3.5) * 3.5
        pts = list(dict.fromkeys(Point(float(x), float(y)) for x, y in raw))
        grid = grid_partition(pts)
        buckets = {}
        for p in pts:
            buckets.setdefault(cell_of(grid, p), []).append(p)
        assert grid.cells == {c: tuple(b) for c, b in sorted(buckets.items())}
        assert list(grid.cells) == sorted(buckets)
        assert grid.full_cells() == sorted(c for c, b in buckets.items() if len(b) >= FULL_CELL_MIN)
        assert all(grid.keys[grid.cell[i]].tolist() == list(cell_of(grid, p)) for i, p in enumerate(pts))
        assert grid == grid_partition(tuple(pts)) and grid != grid_partition(pts[::-1] + [Point(1e9, 0.0)])
    with pytest.raises(ValueError):
        grid_partition([])


def test_full_cell_labels_need_the_grid_points():
    pts = [Point(0.1 * k, 0.0) for k in range(6)]
    with pytest.raises(ValueError, match="disagree"):
        full_cell_labels(grid_partition(pts), build_udg(pts[::-1]))


def test_full_cell_labels_cover_everyone():
    rng = SplitMix64(33)
    for _ in range(10):
        pts = _connected_blob(rng, 60, spread=12.0)
        grid = grid_partition(pts)
        udg = build_udg(pts)
        if not grid.full_cells():
            continue
        labels = full_cell_labels(grid, udg)
        assert set(labels) == set(pts)
        full = set(grid.full_cells())
        for p, cell in labels.items():
            assert cell in full
            if cell_of(grid, p) in full:
                assert cell == cell_of(grid, p)
        assert full_cell_labels(grid, udg) == labels


def _connected_blob(rng, n, spread):
    """Random points kept within unit steps of an existing one."""
    pts = [Point(rng.uniform(0, spread), rng.uniform(0, spread))]
    seen = {pts[0]}
    while len(pts) < n:
        base = pts[rng.randrange(len(pts))]
        ang = rng.uniform(0, 2 * PI)
        r = rng.uniform(0.05, 0.95)
        q = Point(base.x + r * math.cos(ang), base.y + r * math.sin(ang))
        if q in seen:
            continue
        seen.add(q)
        pts.append(q)
    return pts


@pytest.mark.parametrize("mode,limit", [("basic", 9), ("refined", 8)])
def test_replace_modes_meet_their_hop_bounds(mode, limit):
    rng = SplitMix64(50 if mode == "basic" else 51)
    for _ in range(15):
        pts = _connected_blob(rng, 80, spread=15.0)
        result = replace(pts, mode=mode)
        assert len(result.configs) == len(pts)
        assert all(c.range == REPLACEMENT_RANGE for c in result.configs)
        scg = build_scg(list(result.configs))
        assert is_connected(scg)
        udg = build_udg(pts)
        rep = verify_hop_spanner(udg, scg, limit)
        assert rep.ok, rep
        # cross-check the library's hop count with a test-local search
        hand_worst = 0
        for i, j in udg.edges:
            hand_worst = max(hand_worst, _hand_bfs_hops(scg, i)[j])
        assert hand_worst == rep.max_hops


def _drifting_chain(seed, n):
    """A chain of sub-unit steps that wanders across many 7x7 cells."""
    rng = SplitMix64(seed)
    heading = rng.uniform(0.0, 2 * PI)
    pts = [Point(0.0, 0.0)]
    while len(pts) < n:
        heading += 0.25 * rng.gauss()
        step = rng.uniform(0.55, 0.95)
        pts.append(Point(pts[-1].x + step * math.cos(heading), pts[-1].y + step * math.sin(heading)))
    return pts


#: sha256 of the configs below, recorded before the graph core was shared
#: between the unit-disk and symmetric graphs; any change to how points
#: outside full cells are labelled, grouped or aimed shows up here.
STRAY_CONFIGS_SHA256 = "a40b674900e3604aa81a21343316e89fd36676f30c007e7136ea178cdba37768"


def test_replace_output_is_pinned_on_instances_with_stray_points():
    lines = []
    for seed in range(1, 9):
        pts = _drifting_chain(seed, 140)
        grid = grid_partition(pts)
        assert any(len(grid.points_in(cell_of(grid, p))) < FULL_CELL_MIN for p in pts), seed
        for mode in ("basic", "refined"):
            for c in replace(pts, mode=mode).configs:
                lines.append(f"{mode} {c.location.x.hex()} {c.location.y.hex()} {c.orientation.hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STRAY_CONFIGS_SHA256


def test_replace_aims_once(monkeypatch):
    # full cells and stray groups alike are aimed in one call per run
    calls = []

    def counting_aim_at_fan(fans, points, fan_of):
        calls.append(len(points))
        return aim_at_fan(fans, points, fan_of)

    monkeypatch.setattr(replacement, "aim_at_fan", counting_aim_at_fan)
    pts = _drifting_chain(1, 140)
    grid = grid_partition(pts)
    assert any(len(grid.points_in(cell_of(grid, p))) < FULL_CELL_MIN for p in pts)
    for mode in ("basic", "refined"):
        replace(pts, mode=mode)
    assert calls == [140, 140]


def test_replace_results_compare_by_value():
    pts = _drifting_chain(2, 60)
    for mode in ("basic", "refined"):
        assert replace(pts, mode) == replace(list(pts), mode)
    assert replace(pts, "basic") != replace(pts, "refined")


def test_replace_small_instance_path():
    pts = [Point(0.0, 0.0), Point(0.9, 0.3), Point(1.7, 0.0)]
    result = replace(pts)
    assert result.mode == "small"
    assert is_connected(build_scg(list(result.configs)))


#: sha256 of the configs below, recorded while the instances without a
#: full cell went through their own wrapper.  A connected unit-disk graph
#: without a full cell has at most three points, so one to three cover
#: the whole path.
SMALL_CONFIGS_SHA256 = "877ef0a42d8905a24caa5b3efeb183c877c93f4e3511e3a458ceaeb06c4918da"


def test_replace_output_is_pinned_on_instances_without_full_cells():
    lines = []
    for n in (1, 2, 3):
        for seed in range(1, 9):
            pts = list(gen(GenSpec("connected_udg", n, seed=seed)).points)
            result = replace(pts)
            assert result.mode == "small"
            for c in result.configs:
                lines.append(
                    f"{n} {c.location.x.hex()} {c.location.y.hex()} {c.orientation.hex()} {c.range.hex()}"
                )
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SMALL_CONFIGS_SHA256


def test_replace_rejects_disconnected_and_bad_mode():
    apart = [Point(0.0, 0.0), Point(5.0, 0.0)]
    with pytest.raises(ValueError):
        replace(apart)
    with pytest.raises(ValueError):
        replace([Point(0.0, 0.0)], mode="fancy")


def test_verify_hop_spanner_vertex_mismatch():
    g1 = build_udg([Point(0.0, 0.0), Point(0.5, 0.0)])
    g2 = build_udg([Point(0.0, 0.0), Point(0.6, 0.0)])
    with pytest.raises(ValueError):
        verify_hop_spanner(g1, g2, 5)


def test_verify_hop_spanner_reports_worst_edge():
    pts = [Point(0.0, 0.0), Point(0.9, 0.3), Point(1.7, 0.0)]
    udg = build_udg(pts)
    result = replace(pts)
    scg = build_scg(list(result.configs))
    rep = verify_hop_spanner(udg, scg, 5)
    assert rep.ok and rep.max_hops <= 5
    bad = verify_hop_spanner(udg, scg, 0)
    assert not bad.ok and bad.worst_edge is not None


def test_verify_hop_spanner_report_rules():
    pts = [Point(0.0, 0.0), Point(0.0, 0.9), Point(0.0, 1.8), Point(0.9, 0.0)]
    udg = build_udg(pts)
    assert udg.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    # the path 0-1-3-2 spans (0, 3) and (1, 2) in two hops each: the
    # lexicographically smallest of the tied edges is reported
    path = CommGraph(udg.vertices, np.array([[0, 1], [1, 3], [2, 3]]))
    assert verify_hop_spanner(udg, path, 2) == (True, (pts[0], pts[3]), 2)
    assert verify_hop_spanner(udg, path, 1) == (False, (pts[0], pts[3]), 2)
    # with 3 cut off from 0 and 1, both (0, 3) and (1, 2) are unreachable
    split = CommGraph(udg.vertices, np.array([[0, 1], [2, 3]]))
    assert verify_hop_spanner(udg, split, 9) == (False, (pts[0], pts[3]), math.inf)
    # a unit-disk graph without edges has nothing to span
    apart = build_udg([Point(0.0, 0.0), Point(2.0, 0.0)])
    assert verify_hop_spanner(apart, apart, 0) == (True, None, 0)


def _shortest_path_report(udg, scg, limit):
    """The hop-spanner report read off scipy's all-pairs hop matrix."""
    if not len(udg.edges):
        return (True, None, 0)
    n = len(scg.vertices)
    s = scg.edges
    mat = csr_matrix((np.ones(len(s)), (s[:, 0], s[:, 1])), shape=(n, n))
    dist = shortest_path(mat, method="D", directed=False, unweighted=True)
    worst, worst_edge = -1.0, None
    for i, j in sorted(udg.edges.tolist()):
        if dist[i, j] > worst:
            worst, worst_edge = float(dist[i, j]), (udg.vertices[i], udg.vertices[j])
    return (worst <= limit, worst_edge, worst if math.isinf(worst) else int(worst))


def _random_graph(rng, vertices, p, chain):
    """Random symmetric graph; ``chain`` adds a spanning tree whose every
    vertex hangs off one of the four before it, so paths get long."""
    n = len(vertices)
    adj = rng.random((n, n)) < p
    if chain:
        for v in range(1, n):
            adj[rng.integers(max(0, v - 4), v), v] = True
    return CommGraph(vertices, np.argwhere(np.triu(adj | adj.T, 1)))


@pytest.mark.parametrize("chunk", [None, 1, 3, 64])
def test_verify_hop_spanner_matches_shortest_path_oracle(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(replacement, "_CHUNK", chunk)
    rng = np.random.default_rng(2024)
    for n in [1, 2, 3, 5, 8, 13, 30, 63, 64, 65, 66, 90]:
        vertices = tuple(Point(float(i), 0.0) for i in range(n))
        # edgeless, disconnected, connected with long paths, and dense
        for p, chain in ((0.0, False), (1.5 / n, False), (0.5 / n, True), (3.0 / n, True), (0.3, False)):
            scg = _random_graph(rng, vertices, p, chain)
            udg = _random_graph(rng, vertices, 0.2, False)
            for limit in range(10):
                assert verify_hop_spanner(udg, scg, limit) == _shortest_path_report(
                    udg, scg, limit
                ), (n, p, chain, limit)
            # a report shows only the worst edge; one-edge graphs show the
            # hops of edges on both sides of chunk and word boundaries
            for k in rng.permutation(len(udg.edges))[:4]:
                one = CommGraph(vertices, udg.edges[k : k + 1])
                assert verify_hop_spanner(one, scg, 8) == _shortest_path_report(
                    one, scg, 8
                ), (n, p, chain, one.edges)


def test_path_hits_full_cell_hand_case():
    # a dense cell at the origin plus a corridor marching out of the block
    cell = [Point(0.5 + 0.3 * k, 0.5) for k in range(4)]
    corridor = [Point(2.0 + 0.9 * k, 0.5) for k in range(22)]
    pts = cell + corridor
    grid = grid_partition(pts)
    assert len(grid.points_in((0, 0))) >= FULL_CELL_MIN
    path = cell + corridor
    assert cell_of(grid, path[-1])[0] >= 2  # genuinely leaves the 3x3 block
    # crossing the middle column takes at least seven unit steps, so the
    # traversed ring cell is itself full: the checker must say so
    assert path_hits_full_cell(path, grid) is True
    # a unit-step violation is rejected
    with pytest.raises(ValueError):
        path_hits_full_cell([Point(0.0, 0.0), Point(5.0, 0.0), Point(30.0, 0.0)], grid)
    # a path that never leaves the block is rejected too
    with pytest.raises(ValueError):
        path_hits_full_cell([cell[0], cell[1]], grid)


def test_small_instances_never_exceed_range():
    # a connected instance without a full cell has one to three points:
    # each antenna's range reaches every other point and the SCG connects
    rng = SplitMix64(77)
    for k in range(24):
        pts = _connected_blob(rng, 1 + k % 3, spread=3.0)
        result = replace(pts)
        assert result.mode == "small"
        assert all(c.range == REPLACEMENT_RANGE for c in result.configs)
        for p in pts:
            for q in pts:
                assert distance(p, q) <= REPLACEMENT_RANGE
        assert is_connected(build_scg(list(result.configs)))
