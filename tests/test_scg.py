"""Symmetric connectivity graphs and the separated-pair machinery."""

import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sectornet import geometry
from sectornet.geometry import (
    ANGLE_TOL,
    DIST_SQ_TOL,
    QUARTER_TURN,
    TAU,
    AntennaConfig,
    HalfPlane,
    Point,
    containment_matrix,
    plane_coverage_verify,
    squared_distance,
    weakly_separable,
)
from sectornet.generators import GenSpec, gen
from sectornet.orientation import configs_from_assignment, orient_quadruplet
from sectornet.power import orient_and_assign
from sectornet.replacement import (
    FULL_CELL_MIN,
    build_udg,
    full_cell_labels,
    grid_partition,
    replace,
    verify_hop_spanner,
)
from sectornet.rng import SplitMix64
from sectornet.scg import (
    CommGraph,
    build_scg,
    classify_separated_pair,
    components,
    find_mutual_cover_pair,
    halfplane_cover_number,
    is_connected,
)
from oracles import bfs, cell_of, choice, halfplane_covered, neighbor_lists, wedge_contains
from test_replacement import _drifting_chain

FIXTURES = Path(__file__).parent / "fixtures"
PI = math.pi


def test_antenna_config_defaults_and_wedge():
    c = AntennaConfig(Point(1.0, 2.0), 0.5)
    assert c.aperture == QUARTER_TURN
    assert math.isinf(c.range)
    assert c.wedge() is c


def _zigzag_configs(rng=math.inf):
    # diagonal chain with alternating orientations; see the hop asserts
    pts = [Point(float(k), float(k)) for k in range(4)]
    oris = [0.25 * PI, 1.25 * PI, 0.25 * PI, 1.25 * PI]
    return [AntennaConfig(p, o, range=rng) for p, o in zip(pts, oris)]


def _hops(g, u, v):
    dist = [math.inf] * len(g.vertices)
    bfs(neighbor_lists(g), [u], dist)
    return dist[v]


def _csr_rows(g):
    """The CSR rows as lists, after checking their shape."""
    indptr, indices = g.csr
    assert indptr.shape == (len(g.vertices) + 1,) and indptr[0] == 0
    assert indptr[-1] == len(indices) == 2 * len(g.edges) + len(g.vertices)
    assert not indptr.flags.writeable and not indices.flags.writeable
    return [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])]


def _closed_rows(g):
    """Each vertex followed by its neighbours, from the oracle, in order."""
    return [sorted(nbrs + [v]) for v, nbrs in enumerate(neighbor_lists(g))]


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
                AntennaConfig(p, rng.uniform(0, 2 * PI), range=choice(rng, [math.inf, 3.0, 6.0]))
            )
        g = build_scg(configs)
        expect = []
        for i in range(8):
            for j in range(i + 1, 8):
                if wedge_contains(configs[i], configs[j].location) and wedge_contains(
                    configs[j], configs[i].location
                ):
                    expect.append([i, j])
        assert g.edges.tolist() == expect
        # the unit-disk graph comes from the same sweep as finite-range
        # SCGs; shrink the points into [-1, 1]^2 so that it has plenty of edges
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
            assert _csr_rows(graph) == _closed_rows(graph)


def test_single_vertex_graph_is_connected():
    g = build_scg([AntennaConfig(Point(0.0, 0.0), 0.0)])
    assert is_connected(g)
    assert _hops(g, 0, 0) == 0


def _components_reference(g, members):
    dist = [0.0] * len(g.vertices)  # non-members count as already reached
    for i in members:
        dist[i] = math.inf
    adj = neighbor_lists(g)
    return [sorted(bfs(adj, [s], dist)) for s in members if dist[s] == math.inf]


def _labels_reference(grid, udg):
    """Nearest full cell by hop count, the smallest cell among the tied."""
    cells = [cell_of(grid, p) for p in udg.vertices]
    sources = [i for i, cell in enumerate(cells) if len(grid.points_in(cell)) >= FULL_CELL_MIN]
    if not sources:
        raise ValueError("no full cell")
    adj = neighbor_lists(udg)
    dist = [math.inf] * len(adj)
    label = {}
    for w in bfs(adj, sources, dist):
        if dist[w] == 0:
            label[w] = cells[w]
        else:
            label[w] = min(label[u] for u in adj[w] if dist[u] == dist[w] - 1)
    return {udg.vertices[i]: cell for i, cell in label.items()}


def _spanner_reference(udg, scg_graph):
    """The worst unit-disk edge and its hops, one plain search per edge;
    ties go to the first edge in row-major order."""
    adj = neighbor_lists(scg_graph)
    worst, worst_edge = -1.0, None
    for i, j in udg.edges.tolist():
        dist = [math.inf] * len(adj)
        bfs(adj, [i], dist)
        if dist[j] > worst:
            worst, worst_edge = dist[j], (udg.vertices[i], udg.vertices[j])
    return worst_edge, worst


def _random_graph(rng, vertices, p, isolated):
    """Edges drawn with probability ``p``, none at the ``isolated`` vertices."""
    n = len(vertices)
    adj = np.triu(rng.random((n, n)) < p, 1)
    adj[isolated, :] = adj[:, isolated] = False
    return CommGraph(vertices, np.argwhere(adj))


def _traversal_graphs(rng):
    """Pairs of random graphs over clumped points, so that some 7x7 cells
    are full and others not: no edges, one vertex, isolated vertices,
    sparse graphs in many pieces and dense ones in one."""
    for n in (1, 2, 3, 6, 17, 40, 70, 130):
        for p in (0.0, 1.0 / n, 2.5 / n, 0.3):
            centres = rng.uniform(0.0, 28.0, (3, 2))
            xy = centres[rng.integers(3, size=n)] + rng.normal(0.0, 2.0, (n, 2))
            vertices = tuple(dict.fromkeys(Point(float(x), float(y)) for x, y in xy))
            isolated = rng.permutation(len(vertices))[: len(vertices) // 5]
            yield (
                _random_graph(rng, vertices, p, isolated),
                _random_graph(rng, vertices, 1.5 * p, isolated[:1]),
            )


def _path_graph(vertices, runs):
    """The graph of paths through each run of vertex numbers in turn."""
    edges = np.concatenate([np.stack((r[:-1], r[1:]), axis=1) for r in runs])
    edges.sort(axis=1)
    return CommGraph(vertices, edges[np.lexsort((edges[:, 1], edges[:, 0]))])


def test_connectivity_settles_long_paths_in_any_numbering():
    # a path whose numbers run down, zigzag or are shuffled takes many
    # hooking rounds and pointer jumps; every root must still settle on
    # its component's least vertex
    rng = np.random.default_rng(17)
    n = 301
    vertices = tuple(Point(float(i), 0.0) for i in range(n))
    zigzag = np.stack((np.arange(n // 2 + 1), n - 1 - np.arange(n // 2 + 1)), axis=1).ravel()[:n]
    for order in (np.arange(n), np.arange(n)[::-1], zigzag, rng.permutation(n)):
        whole = _path_graph(vertices, [order])
        cut = _path_graph(vertices, [order[: n // 3], order[n // 3 :]])
        assert is_connected(whole)
        assert not is_connected(cut)
        assert components(whole, range(n)) == [list(range(n))]
        members = rng.permutation(n)[: n // 2].tolist()
        for g in (whole, cut):
            assert components(g, members) == _components_reference(g, members)


def test_array_traversal_matches_the_oracle_bfs():
    rng = np.random.default_rng(13)
    seen_full = seen_no_full = seen_split = 0
    for g, h in _traversal_graphs(rng):
        n = len(g.vertices)
        adj = neighbor_lists(g)
        assert is_connected(g) == (len(bfs(adj, [0], [math.inf] * n)) == n)
        assert components(g, range(n)) == _components_reference(g, range(n))
        for _ in range(3):  # members in shuffled order; non-members bridge them
            members = rng.permutation(n)[: rng.integers(n + 1)].tolist()
            assert components(g, members) == _components_reference(g, members), members
        grid = grid_partition(g.vertices)
        try:
            expect = _labels_reference(grid, g)
        except ValueError:
            seen_no_full += 1
            with pytest.raises(ValueError):
                full_cell_labels(grid, g)
        else:
            seen_full += 1
            assert full_cell_labels(grid, g) == expect
        seen_split += not is_connected(h)
        worst_edge, worst = _spanner_reference(g, h)
        for limit in range(10):
            expect = (worst <= limit, worst_edge, worst) if worst_edge else (True, None, 0)
            assert verify_hop_spanner(g, h, limit) == expect, limit
    assert min(seen_full, seen_no_full, seen_split) > 0


def test_components_keep_non_members_out():
    vertices = tuple(Point(float(k), 0.0) for k in range(5))
    g = CommGraph(vertices, np.array([[0, 1], [1, 2], [3, 4]]))
    assert components(g, [2, 0]) == [[2], [0]]  # 1 is the only bridge
    assert components(g, [2, 4, 0]) == [[2], [4], [0]]
    assert components(g, [4, 1, 3, 0, 2]) == [[3, 4], [0, 1, 2]]
    assert components(g, []) == []
    assert not is_connected(g)
    empty = CommGraph((), np.zeros((0, 2), dtype=np.intp))
    assert is_connected(empty) and components(empty, []) == []


def test_connectivity_leaves_a_small_adjacency():
    # Python neighbour lists over these 366,733 edges held 24.9 MB
    udg = build_udg(list(gen(GenSpec("connected_udg", 2000, seed=3)).points))
    tracemalloc.start()
    try:
        assert is_connected(udg)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(udg.edges) == 366_733
    assert kept < 10 * 2**20


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
            if halfplane_covered(subset, hp).covered:
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


def test_sliver_between_merged_lines_keeps_its_cover_number():
    # the last two points are an ulp apart, so two boundary lines of their
    # wedges merge into one and the sliver between them is no face; only a
    # rounded vertex lands in it, and without it two wedges would pass
    pts = [Point(4.0, 0.0), Point(2.0, 2.0), Point(2.0, 1.0), Point(2.0000000000000004, 1.0)]
    configs = configs_from_assignment(orient_quadruplet(pts))
    assert halfplane_cover_number(configs, HalfPlane(1.0, 1.0, 3.0)) == 3


def test_cover_numbers_do_not_depend_on_the_scale():
    # the test points move by amounts that grow with the arrangement, so
    # the decisions at 1e12 and 1e15 are those at unit scale
    for quad in ([(0, 0), (0, 1), (0, 2), (0, 3)], [(0, 0), (0, 1), (0, 2), (1, 0)]):
        for s in (1e-6, 1.0, 1e12, 1e15):
            configs = configs_from_assignment(orient_quadruplet([Point(x * s, y * s) for x, y in quad]))
            hps = [HalfPlane(1.0, 0.0, 2 * s), HalfPlane(0.0, -1.0, -s), HalfPlane(1.0, 1.0, 3 * s)]
            assert [halfplane_cover_number(configs, hp) for hp in hps] == [2, 2, 3], (quad, s)
            assert not plane_coverage_verify(configs[:3]).covered


def _coverage_decisions(quad, hps):
    configs = configs_from_assignment(orient_quadruplet(quad))
    row = [plane_coverage_verify(configs).covered, plane_coverage_verify(configs[:3]).covered]
    return row + [halfplane_cover_number(configs, hp) for hp in hps]


def test_coverage_decisions_do_not_move_with_an_exact_shift():
    # on the 1/256 grid of [0, 4]^2 a shift by 2**40 is exact, for the
    # points and for these half-planes, so every decision must be the one
    # at the origin
    rng = SplitMix64(23)
    big = 2.0**40
    moved = 0
    for _ in range(1500):
        quad = []
        while len(set(quad)) < 4:
            quad = [Point(rng.randrange(1025) / 256, rng.randrange(1025) / 256) for _ in range(4)]
        c = rng.randrange(1025) / 256
        hps = [HalfPlane(1.0, 0.0, c), HalfPlane(0.0, -1.0, -c), HalfPlane(1.0, 1.0, 2 * c)]
        far_hps = [HalfPlane(hp.nx, hp.ny, hp.c + hp.nx * big + hp.ny * big) for hp in hps]
        far = [Point(p.x + big, p.y + big) for p in quad]
        got, want = _coverage_decisions(far, far_hps), _coverage_decisions(quad, hps)
        moved += got != want
    assert moved == 0


@pytest.mark.parametrize("seed", [17, 39, 56])
def test_separated_pairs_classify_alike_far_from_the_origin(seed):
    inst = gen(GenSpec("separated_quads", 8, seed=seed))
    sep = HalfPlane(**inst.metadata["separator"])
    shift = 1e12
    far_sep = HalfPlane(sep.nx, sep.ny, sep.c + sep.nx * shift + sep.ny * shift)
    sides, far_sides = [], []
    for pts in (inst.points[:4], inst.points[4:]):
        sides.append(configs_from_assignment(orient_quadruplet(list(pts))))
        far_sides.append(configs_from_assignment(orient_quadruplet([Point(p.x + shift, p.y + shift) for p in pts])))
    assert classify_separated_pair(*far_sides, far_sep) == classify_separated_pair(*sides, sep)


#: sha256 of the coverage decisions below, recorded while the arrangement
#: test still tried every apex and a point on every edge.
COVERAGE_DECISIONS_SHA256 = "51d5d17b59c0507a981829761784a0444bc9806e616ef00aed38165f06dbddb0"


def _nudged_lattice_quadruplet(rng):
    """Four distinct points of {0, ..., 4}^2, each x moved up by one ulp
    with probability 1/3: near-degenerate quadruplets whose boundary lines
    nearly coincide."""
    while True:
        pts = []
        for _ in range(4):
            x, y = float(rng.randrange(5)), float(rng.randrange(5))
            if rng.randrange(3) == 0:
                x = math.nextafter(x, math.inf)
            pts.append(Point(x, y))
        if len(set(pts)) == 4:
            return pts


def test_coverage_decisions_on_nudged_lattice_are_pinned():
    hps = [HalfPlane(1.0, 0.0, 2.0), HalfPlane(0.0, -1.0, -1.0), HalfPlane(1.0, 1.0, 3.0)]
    lines = []
    for seed in range(2000):
        configs = configs_from_assignment(orient_quadruplet(_nudged_lattice_quadruplet(SplitMix64(seed))))
        row = [plane_coverage_verify(configs).covered, plane_coverage_verify(configs[:3]).covered]
        row += [halfplane_cover_number(configs, hp) for hp in hps]
        lines.append(" ".join(map(str, row)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COVERAGE_DECISIONS_SHA256


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


def test_half_plane_coverage_rejects_finite_ranges():
    a = _square_configs(0.0, 0.0)
    b = _square_configs(9.0, 0.0)
    a_short, b_short = ([dataclasses.replace(c, range=20.0) for c in s] for s in (a, b))
    sep = HalfPlane(1.0, 0.0, 5.0)
    unbounded = "half-plane coverage needs unbounded ranges"
    with pytest.raises(ValueError, match=unbounded):
        halfplane_covered(b_short, sep)
    with pytest.raises(ValueError, match=unbounded):
        halfplane_cover_number(a_short, sep)
    with pytest.raises(ValueError, match=unbounded):
        classify_separated_pair(a_short, b, sep)
    with pytest.raises(ValueError, match=unbounded):
        classify_separated_pair(a, b_short, sep)


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


def _matrix_edges(configs):
    """The reference: every ordered pair tested, in one containment matrix."""
    locs = [c.location for c in configs]
    M = containment_matrix(configs, locs)
    return np.argwhere(np.triu(M & M.T, 1)).tolist()


#: Apertures at the angular test's branch thresholds: a half-turn and
#: the floats either side of the reflex cutoff (convex, then reflex), and
#: the full-circle cutoff with its neighbours (reflex, full, full).
_CONVEX = [PI, math.nextafter(PI + ANGLE_TOL, -math.inf)]
_REFLEX = [math.nextafter(PI + ANGLE_TOL, math.inf), math.nextafter(TAU - ANGLE_TOL, -math.inf)]
_FULL = [TAU - ANGLE_TOL, math.nextafter(TAU - ANGLE_TOL, math.inf)]


def _sweep_cases():
    rng = SplitMix64(90)
    cases = [
        [],
        [AntennaConfig(Point(0.0, 0.0), 0.0, range=1.0)],
        [AntennaConfig(Point(0.0, 0.0), 0.0, range=2.0), AntennaConfig(Point(1.5, 0.0), PI, range=2.0)],
        # the exact boundary: d2 = 25 against range 5
        [
            AntennaConfig(Point(0.0, 0.0), math.atan2(4.0, 3.0), range=5.0),
            AntennaConfig(Point(3.0, 4.0), math.atan2(-4.0, -3.0), range=5.0),
        ],
        # d2 underflows to 0, so each point is the other's apex
        [AntennaConfig(Point(0.0, 0.0), 0.0, range=0.05), AntennaConfig(Point(1e-200, 0.0), 0.0, range=0.05)],
    ]

    def random_configs(n, x_of, apertures, ranges):
        seen, out = set(), []
        while len(out) < n:
            p = Point(x_of(), rng.uniform(0.0, 20.0))
            if p not in seen:
                seen.add(p)
                out.append(
                    AntennaConfig(p, rng.uniform(0, 2 * PI), choice(rng, apertures), choice(rng, ranges))
                )
        return out

    uniform = lambda: rng.uniform(0.0, 20.0)  # noqa: E731
    columns = lambda: float(rng.randrange(4))  # noqa: E731
    spread = [0.05, 0.5, 2.0, 5.0, 9.0, 20.0]
    for n in (3, 10, 40, 120):
        cases.append(random_configs(n, uniform, [QUARTER_TURN], spread))
        cases.append(random_configs(n, columns, [QUARTER_TURN], spread))
        cases.append(random_configs(n, uniform, [QUARTER_TURN, 4.5, 2 * PI], spread))
        cases.append(random_configs(n, uniform, [QUARTER_TURN, 4.5], spread + [math.inf]))
    # every aperture at a branch threshold: each of the call's branch
    # choices (some wedge reflex, some a full circle, all full circles)
    # on both sides of its cutoff
    for apertures in (
        _CONVEX,
        _REFLEX,
        _REFLEX + _FULL,
        _FULL,
        _CONVEX + _REFLEX,
        _CONVEX + _FULL,
        _CONVEX + _REFLEX + _FULL,
    ):
        for n in (10, 40):
            cases.append(random_configs(n, uniform, apertures, spread))
            cases.append(random_configs(n, columns, apertures, spread))

    # the sweep's quadrant split: wedges whose rays lie on the quadrant
    # bounds, and displacements along them or along the diagonals
    def aligned(points, apertures, ranges):
        return [
            AntennaConfig(p, rng.randrange(8) * PI / 4, choice(rng, apertures), choice(rng, ranges))
            for p in points
        ]

    def nudged(v):  # by up to two ulps either way
        for _ in range(2):
            v = math.nextafter(v, choice(rng, [-math.inf, v, math.inf]))
        return v

    lattice = [Point(float(x), float(y)) for x in range(-3, 4) for y in range(-3, 4)]
    near = [1.0, 1.5, 3.0, 9.0]
    cases.append(aligned(lattice, [QUARTER_TURN], near))
    cases.append(aligned(lattice, [QUARTER_TURN], [1.0, 1.5, 9.0, 1e160]))  # overflowed ranges among finite
    cases.append(aligned(lattice, [QUARTER_TURN, 1.5 * PI, 2 * PI], near))
    cases.append(aligned([Point(nudged(p.x), nudged(p.y)) for p in lattice], [QUARTER_TURN], near))
    cases.append(aligned([Point(nudged(1e6 + p.x), p.y) for p in lattice], [QUARTER_TURN], near))
    cases.append(aligned([Point(float(x), 2.0) for x in range(30)], [QUARTER_TURN, PI], near))
    cases.append(aligned([Point(float(x), float(x)) for x in range(20)], [QUARTER_TURN], near))
    cases.append(aligned([Point(float(x), -float(x)) for x in range(20)], [QUARTER_TURN, 2 * PI], near))
    cases.append(random_configs(40, uniform, [4.5, 5.5, 2 * PI], spread))
    cases.append(random_configs(40, columns, [QUARTER_TURN, 2 * PI], spread + [1e160]))
    # hairline wedges also see straight behind them, so pairs back to
    # back along a random direction are edges
    hairlines = []
    for _ in range(8):
        theta = rng.uniform(0, 2 * PI)
        p = Point(rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0))
        q = Point(p.x + math.cos(theta), p.y + math.sin(theta))
        hairlines += [AntennaConfig(p, theta + PI, 1e-13, 2.0), AntennaConfig(q, theta, 1e-13, 2.0)]
    cases.append(hairlines)
    # full circles of finite range, where the sweep skips the angular
    # test, and the same circles with one turned into a wedge, where it
    # must not; the last two cases are the largest such pair
    for n in (3, 10, 40, 120):
        circles = random_configs(n, columns, [2 * PI], spread)
        cases.append(circles)
        cases.append([dataclasses.replace(circles[0], aperture=QUARTER_TURN)] + circles[1:])
    return cases


@pytest.mark.parametrize("chunk", [None, 1, 5])
def test_swept_edges_match_the_containment_matrix(monkeypatch, chunk):
    if chunk is not None:  # force many chunks, and sources larger than one
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
    cases = _sweep_cases()
    for configs in cases:
        g = build_scg(configs)
        assert g.edges.tolist() == _matrix_edges(configs), len(configs)
        assert g.edges.shape == (len(g.edges), 2) and not g.edges.flags.writeable
        assert _csr_rows(g) == _closed_rows(g)
    assert build_scg(cases[3]).edges.tolist() == [[0, 1]]  # d2 == 25 at range 5
    assert build_scg(cases[4]).edges.tolist() == [[0, 1]]  # d2 underflows to 0
    circles, mixed = (build_scg(configs).edges.tolist() for configs in cases[-2:])
    assert set(map(tuple, mixed)) < set(map(tuple, circles))  # the wedge drops edges


def test_branch_choices_give_each_wedge_its_own_answer():
    # the containment matrix picks its reflex and full-circle branches
    # once for all its wedges; asked about one wedge at a time, each
    # wedge picks its own, and no entry may differ
    thresholds = set(_CONVEX + _REFLEX + _FULL)
    cases = [c for c in _sweep_cases() if c and all(w.aperture in thresholds for w in c)]
    assert len(cases) == 28
    for configs in cases:
        locs = [c.location for c in configs]
        rows = np.array([containment_matrix([c], locs)[0] for c in configs])
        assert np.array_equal(containment_matrix(configs, locs), rows)


def test_an_overflowing_squared_distance_raises():
    # back to back, 2e155 apart: d2 overflows to inf, which would make
    # the angular slack infinite, and passes an unbounded or overflowed
    # squared range, so the pair cannot be decided
    for r, aperture in itertools.product((math.inf, 1e160), (QUARTER_TURN, 2 * PI)):
        configs = [
            AntennaConfig(Point(-1e155, 0.0), PI, aperture, range=r),
            AntennaConfig(Point(1e155, 0.0), 0.0, aperture, range=r),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError alone, no numpy overflow warning
            with pytest.raises(ValueError, match="overflow"):
                build_scg(configs)
            with pytest.raises(ValueError, match="overflow"):
                containment_matrix(configs, [c.location for c in configs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # facing each other, out of a finite range: the range decides
        far = [AntennaConfig(Point(-1e155, 0.0), 0.0, range=1.0), AntennaConfig(Point(1e155, 0.0), PI, range=1.0)]
        assert build_scg(far).edges.tolist() == []
        assert containment_matrix(far, [c.location for c in far]).tolist() == [[True, False], [False, True]]
        # one finite range already rules the pair out, in either order, so
        # the unbounded side is never asked about the far point
        mixed = [AntennaConfig(Point(-1e155, 0.0), 0.0, range=1.0), AntennaConfig(Point(1e155, 0.0), PI)]
        assert build_scg(mixed).edges.tolist() == []
        assert build_scg(mixed[::-1]).edges.tolist() == []


def test_sweep_reach_never_trims():
    # a pair facing each other along x, some far from the origin, the
    # second point stepped in ulps across the first one's reach
    cases = list(itertools.product((0.0, 3.7, 1e6, 2.0**40 + 0.5), (0.05, 1.0, 7.0, 20.0)))
    # here the float step past x0 + sqrt(r**2 + DIST_SQ_TOL) still squares
    # to at most r**2 + DIST_SQ_TOL, so that threshold would trim an edge
    cases += [(-61.676748195972955, 56.176336015404075), (-9.366850280684368, 9.377639910226685)]
    for x0, r in cases:
        edge = x0 + math.sqrt(r * r + DIST_SQ_TOL)
        xb = edge
        for _ in range(3):
            xb = math.nextafter(xb, -math.inf)
        for _ in range(7):
            configs = [
                AntennaConfig(Point(x0, 0.0), 0.0, range=r),
                AntennaConfig(Point(xb, 0.0), PI, range=r),
            ]
            assert build_scg(configs).edges.tolist() == _matrix_edges(configs), (x0, r, xb)
            xb = math.nextafter(xb, math.inf)


def _pinned_edge_configs(case):
    if case.startswith("power"):
        n = int(case.split()[1])
        pts = list(gen(GenSpec("random_square", n, seed=1, side=60.0)).points)
        return [orient_and_assign(pts, 2).configs()]
    if case == "replace connected_udg":
        pts = list(gen(GenSpec("connected_udg", 300, seed=3)).points)
        return [list(replace(pts, "refined").configs)]
    return [
        list(replace(_drifting_chain(seed, 140), mode).configs)
        for seed in range(1, 9)
        for mode in ("basic", "refined")
    ]


#: sha256 of the SCG edge lists, ``json.dumps(edges.tolist())`` joined by
#: newlines, recorded while every SCG was still one full containment matrix.
PINNED_EDGES_SHA256 = {
    "power 512": "55d2bae1348e8ceceb48360183d992f80912293cd5a0c3fab05ad61d0d78b7d7",
    "power 2048": "a69217603b37150871da46430f809d1bc9216330fa08b55804e41297f8e16043",
    "replace connected_udg": "1a722e75e6b3a7ec914970cc08be7a501564a08708c26f086835c04f7a492b7b",
    "replace drifting chains": "4ebf441e7ab2ab5e74a8bb1e630e9c4d95ac82e42239dd04b60c9d21084a3321",
}


@pytest.mark.parametrize("case", sorted(PINNED_EDGES_SHA256))
def test_scg_edges_are_pinned(case):
    text = "\n".join(
        json.dumps(build_scg(configs).edges.tolist()) for configs in _pinned_edge_configs(case)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EDGES_SHA256[case]


def test_build_scg_memory_stays_below_the_matrix():
    # one full containment matrix over these 2048 antennas peaks near 240 MB
    pts = list(gen(GenSpec("random_square", 2048, seed=1, side=60.0)).points)
    configs = orient_and_assign(pts, 2).configs()
    tracemalloc.start()
    try:
        g = build_scg(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges) > 2048
    assert peak < 80 * 2**20
