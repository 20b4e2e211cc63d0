"""Reference oracles that only the tests call.

* :func:`search_nonseparated_counterexample` finds two quadruplets that
  are not linearly separable and share no symmetric edge, showing that
  the separated-pair guarantee needs its separation hypothesis.
* :func:`path_hits_full_cell` checks the path lemma behind the
  replacement: a unit-step path leaving its starting 3x3 block (see
  :func:`block`) crosses a full cell of that block.  :func:`cell_of`
  gives one point's cell by the grid's definition, the reference for
  the cell arrays of ``GridPartition``.
* :func:`coverage_sample_check` refutes plane coverage by sampling; it
  is the independent route the exact arrangement test is checked
  against.
* :func:`prim_reference` and :func:`tour_reference` build the minimum
  spanning tree and its tour by the documented tie rules in plain
  Python, the reference for inputs with exactly tied distances.
  :func:`prim_dense_reference` is Prim's loop over one squared-distance
  row per joined vertex, the reference for the sparse ``mst_edges`` at
  sizes the plain-Python one cannot reach, and :func:`walk_reference`
  walks its tree by sorted children, the reference for the tour's walk
  of a tree that may skip Prim's join order.
* :func:`neighbor_lists` and :func:`bfs` walk a graph in plain Python,
  the reference for the array traversal of connectivity, components,
  full-cell labels and the hop-spanner check.
* :func:`dump_reference` writes a document with the plain indent
  encoder, and :func:`instance_doc` and :func:`config_doc` build the
  documents row by row: the reference for the files ``fileio`` writes.
* :func:`wedge_contains` asks the containment matrix about one antenna
  and one point.
* :func:`_fan` builds the perpendicular fan over four given slots, and
  :func:`_pair_far_points` orders the two points off a base by their
  projections on it, slot by slot in plain Python: the references' own
  copy of the fan, apart from the lookup tables that orient quadruplets
  in the package.  :func:`vec_dot_sign` and :func:`dot_sign` are exact
  dot signs, which the references and the sign tests read.
* :func:`convex_hull`, the package's monotone chain on points, is the
  reference hull.
* :func:`hubs_refined_reference` picks refined hubs by their definition,
  from the whole strip over the longest hull edge: the reference for
  the early-stopping scan of ``select_hubs_refined``.
* :func:`orient_quadruplet_reference` orients a quadruplet by a separate
  construction per hull shape (:func:`_convex_slots`,
  :func:`_triangle_slots` and :func:`_collinear_slots`): the reference
  for the single base-edge rule of ``orient_quadruplet``.
* :func:`couples`, :func:`couple_halfplane` and :func:`halfplane_covered`
  check the couple lemma: the two wedges of each counterclockwise-adjacent
  couple of a quadruplet cover a closed half-plane.
* :func:`mst_cost` and :func:`tour_power_cost` weigh a tree and a tour
  by r**beta, the routes the power bounds are checked against.
* :func:`rational_signs` gives the signs of a cross and a dot product
  in ``Fraction`` arithmetic, the reference for the exact predicates.
* :func:`choice` and :func:`shuffle` draw from a seeded stream through
  ``randrange`` alone, so a seeded test is reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from sectornet.geometry import (
    DIST_SQ_TOL,
    QUARTER_TURN,
    TAU,
    AntennaConfig,
    CoverageReport,
    HalfPlane,
    Point,
    _antennas,
    _coverage_hits,
    _cross_sign,
    _lex_order,
    _sorted_hull,
    containment_matrix,
    distance,
    normalize_angle,
    orientation_sign,
    squared_distance,
    weakly_separable,
)
from sectornet.orientation import OrientationAssignment, configs_from_assignment, orient_quadruplet
from sectornet.power import Tour, _check_beta, _coords, _steps, mst_edges
from sectornet.replacement import CELL_SIDE, FULL_CELL_MIN, GridPartition
from sectornet.rng import SplitMix64
from sectornet.scg import CommGraph, find_mutual_cover_pair

# ---------------------------------------------------------------------------
# Searching for a non-separated pair with no cross edge
# ---------------------------------------------------------------------------

#: How far (in length units) every cross pair must miss mutual coverage.
_SLACK = 1e-6


def _mutual_margin(pa: Point, oa: float, pb: Point, ob: float) -> float:
    """How close points a and b are to forming a symmetric edge.

    Positive means both containments hold with that much room (in length
    units: distance to the nearest bounding line); negative means at
    least one containment fails by that much.  Quarter-wedge apertures
    assumed.
    """

    def depth(apex: Point, ori: float, p: Point) -> float:
        vx, vy = p.x - apex.x, p.y - apex.y
        if vx == 0.0 and vy == 0.0:
            return math.inf
        tr, tl = ori - 0.25 * math.pi, ori + 0.25 * math.pi
        cr = math.cos(tr) * vy - math.sin(tr) * vx
        cl = math.cos(tl) * vy - math.sin(tl) * vx
        return min(cr, -cl)

    return min(depth(pa, oa, pb), depth(pb, ob, pa))


def _dead_pair_score(
    a_pts: Sequence[Point], b_pts: Sequence[Point], slack: float
) -> float:
    """Sum of how far each cross pair still is from being edge-free."""
    try:
        asg_a = orient_quadruplet(a_pts)
        asg_b = orient_quadruplet(b_pts)
    except ValueError:
        return math.inf
    total = 0.0
    for pa, oa in asg_a.entries:
        for pb, ob in asg_b.entries:
            total += max(0.0, _mutual_margin(pa, oa, pb, ob) + slack)
    return total


def _seed_configuration(rng: SplitMix64) -> tuple[list[Point], list[Point]]:
    """A structured interleaved starting pair (never linearly separable)."""
    family = rng.randrange(3)
    cx, cy = rng.uniform(-1, 1), rng.uniform(-1, 1)
    if family == 0:
        # two crossing lines through a common neighborhood
        phi_a = rng.uniform(0, math.pi)
        phi_b = phi_a + rng.uniform(0.3, math.pi - 0.3)
        mk = lambda phi, k, r: Point(
            cx + r * math.cos(phi) * k + rng.gauss() * 0.2,
            cy + r * math.sin(phi) * k + rng.gauss() * 0.2,
        )
        ra, rb = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
        a = [mk(phi_a, k, ra) for k in (-2, -1, 1, 2)]
        b = [mk(phi_b, k, rb) for k in (-2, -1, 1, 2)]
    elif family == 1:
        # alternating around a circle
        phi0 = rng.uniform(0, math.pi)
        rad = rng.uniform(1.5, 4.0)
        pts = []
        for k in range(8):
            ang = phi0 + k * math.pi / 4 + rng.gauss() * 0.1
            rr = rad * (1.0 + 0.3 * rng.gauss())
            pts.append(Point(cx + rr * math.cos(ang), cy + rr * math.sin(ang)))
        a, b = pts[0::2], pts[1::2]
    else:
        # a small quadruplet nested inside a large rotated one
        phi = rng.uniform(0, math.pi / 2)
        big, small = rng.uniform(3.0, 5.0), rng.uniform(0.5, 1.5)
        ring = lambda r, off: [
            Point(
                cx + r * math.cos(off + k * math.pi / 2) + 0.15 * rng.gauss(),
                cy + r * math.sin(off + k * math.pi / 2) + 0.15 * rng.gauss(),
            )
            for k in range(4)
        ]
        a, b = ring(big, phi), ring(small, phi + rng.uniform(0.2, 1.2))
    return a, b


def search_nonseparated_counterexample(
    trials: int, seed: int
) -> Optional[tuple[tuple[Point, ...], tuple[Point, ...]]]:
    """Hunt for two quadruplets that defeat cross-group connectivity.

    Draws structured interleaved starting pairs and locally perturbs one
    point at a time, keeping changes that shrink the total remaining
    cross-pair coverage, until all sixteen pairs fail mutual coverage by
    at least ``_SLACK`` (in length units).  ``trials`` bounds the total
    number of candidate evaluations across restarts.  A returned pair is
    re-verified from scratch: both groups orient successfully, no mutual
    cover pair exists, and the groups are not weakly separable by any
    line.  Returns None if the budget runs out.
    """
    rng = SplitMix64(seed)
    evals = 0
    while evals < trials:
        a, b = _seed_configuration(rng)
        score = _dead_pair_score(a, b, _SLACK)
        evals += 1
        sigma = 0.4
        stall = 0
        while evals < trials and stall < 160:
            which = rng.randrange(8)
            side, idx = (a, which) if which < 4 else (b, which - 4)
            old = side[idx]
            side[idx] = Point(old.x + sigma * rng.gauss(), old.y + sigma * rng.gauss())
            new_score = _dead_pair_score(a, b, _SLACK)
            evals += 1
            if new_score < score:
                score = new_score
                stall = 0
            else:
                side[idx] = old
                stall += 1
            sigma = max(0.02, sigma * 0.995)
            if score == 0.0:
                a_t, b_t = tuple(a), tuple(b)
                if weakly_separable(a_t, b_t):
                    break  # a degenerate success; restart
                cfg_a = configs_from_assignment(orient_quadruplet(a_t))
                cfg_b = configs_from_assignment(orient_quadruplet(b_t))
                if find_mutual_cover_pair(cfg_a, cfg_b) is None:
                    return a_t, b_t
                break
    return None


# ---------------------------------------------------------------------------
# The path lemma
# ---------------------------------------------------------------------------


def cell_of(grid: GridPartition, p: Point) -> tuple[int, int]:
    """The index of the half-open 7x7 cell of ``grid`` holding ``p``."""
    return (
        math.floor((p.x - grid.origin[0]) / CELL_SIDE),
        math.floor((p.y - grid.origin[1]) / CELL_SIDE),
    )


def block(index: tuple[int, int]) -> list[tuple[int, int]]:
    """The 3x3 block of grid cell indices centered on ``index``."""
    i, j = index
    return [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]


def path_hits_full_cell(path: Sequence[Point], grid: GridPartition) -> bool:
    """Does a unit-step path leaving its starting block visit a full cell?

    ``path`` must be a walk in the unit-disk graph (consecutive points
    at distance at most 1) that starts in some cell C and ends outside
    the 3x3 block around C; anything else raises ``ValueError``.  Returns
    True iff some vertex of the path lies in a full cell of the block
    other than C itself.  For grids built from a connected point set
    this always holds; it is the reason served full cells border the
    cells they serve.
    """
    if len(path) < 2:
        raise ValueError("path too short")
    for p, q in zip(path, path[1:]):
        if squared_distance(p, q) > 1.0 + DIST_SQ_TOL:
            raise ValueError("not a unit-disk path: step longer than 1")
    start = cell_of(grid, path[0])
    cells = set(block(start))
    if cell_of(grid, path[-1]) in cells:
        raise ValueError("path does not leave the starting block")
    for p in path:
        cell = cell_of(grid, p)
        if cell in cells and cell != start and len(grid.points_in(cell)) >= FULL_CELL_MIN:
            return True
    return False


# ---------------------------------------------------------------------------
# Coverage by sampling
# ---------------------------------------------------------------------------


def coverage_sample_check(
    wedges: Sequence[AntennaConfig],
    grid_points: int = 100_000,
    ring_points: int = 10_000,
) -> CoverageReport:
    """Sampling-based coverage check, used to cross-validate the exact one.

    Samples a dense grid over the apex bounding box inflated by the largest
    pairwise apex distance, plus directions on a far ring.  Can only refute
    coverage; agreement with :func:`plane_coverage_verify` on robust inputs
    is checked in the test suite.
    """
    if not wedges:
        return CoverageReport(False, witness_direction=0.0)
    xs = [w.location.x for w in wedges]
    ys = [w.location.y for w in wedges]
    spread = max(
        max(math.hypot(a.x - b.x, a.y - b.y) for a in (w.location for w in wedges) for b in (v.location for v in wedges)),
        1.0,
    )
    lo_x, hi_x = min(xs) - spread, max(xs) + spread
    lo_y, hi_y = min(ys) - spread, max(ys) + spread
    side = max(1, int(math.sqrt(grid_points)))
    gx, gy = np.meshgrid(np.linspace(lo_x, hi_x, side), np.linspace(lo_y, hi_y, side))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    cx, cy = (lo_x + hi_x) / 2.0, (lo_y + hi_y) / 2.0
    radius = 4.0 * spread + 1.0
    theta = np.linspace(0.0, TAU, ring_points, endpoint=False)
    ring = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    pts = np.vstack([grid, ring])
    return _first_uncovered(pts, containment_matrix(wedges, pts))


def _first_uncovered(pts: np.ndarray, hit: np.ndarray) -> CoverageReport:
    """Covered, or else the lexicographically smallest row of ``pts``
    that no row of the containment matrix ``hit`` contains, as the
    witness."""
    miss = ~hit.any(axis=0)
    if not miss.any():
        return CoverageReport(True)
    wx, wy = min(map(tuple, pts[miss]))
    return CoverageReport(False, witness_point=Point(float(wx), float(wy)))


# ---------------------------------------------------------------------------
# Prim's tree and its tour, tie rules spelled out
# ---------------------------------------------------------------------------


def prim_reference(points: Sequence[Point]) -> list[tuple[int, int]]:
    """(parent, child) pairs in join order, grown from vertex 0.

    The next vertex is the lowest-numbered one at the least squared
    distance to the tree; its parent is the earliest-added tree vertex at
    that distance.  Cubic time, for small inputs.
    """
    joined = [0]
    rest = set(range(1, len(points)))
    edges = []
    while rest:
        _, v, k = min(
            (squared_distance(points[u], points[v]), v, k)
            for v in rest
            for k, u in enumerate(joined)
        )
        edges.append((joined[k], v))
        joined.append(v)
        rest.remove(v)
    return edges


def prim_dense_reference(points: Sequence[Point] | np.ndarray) -> list[tuple[int, int]]:
    """Prim's tree by the tie rules of :func:`prim_reference`, on points or
    an (n, 2) coordinate array: each joining vertex adds one row of float
    squared distances (x0 - x)**2 + (y0 - y)**2, so memory is O(n).

    A joined vertex is marked by a NaN x coordinate, so its entry in
    every later row is NaN, which never tests ``<`` and which ``np.fmin``
    passes over.  A step whose least distance is not finite raises
    ``ValueError``.
    """
    if isinstance(points, np.ndarray):  # a copy: x is overwritten below
        xs, ys = np.array(points, dtype=float).reshape(-1, 2).T.copy()
    else:
        xs, ys = _coords(points)
    _lex_order(xs, ys)  # raises on duplicate points
    n = len(xs)
    if n < 2:
        return []
    best = np.full(n, np.inf)  # joined vertices stay at inf
    parent = np.zeros(n, dtype=np.intp)
    dx = np.empty(n)
    dy = np.empty(n)
    closer = np.empty(n, dtype=bool)
    joined: list[int] = []
    nxt = 0
    with np.errstate(over="ignore"):  # an overflowed distance raises below
        for _ in range(n - 1):
            x0 = xs[nxt]
            xs[nxt] = np.nan
            np.subtract(x0, xs, out=dx)
            np.multiply(dx, dx, out=dx)
            np.subtract(ys[nxt], ys, out=dy)
            np.multiply(dy, dy, out=dy)
            np.add(dx, dy, out=dx)
            np.less(dx, best, out=closer)
            parent[closer] = nxt
            np.fmin(best, dx, out=best)
            nxt = int(best.argmin())
            if not best[nxt] < np.inf:
                raise ValueError("squared distances overflow: the tree cannot be ranked")
            best[nxt] = np.inf
            joined.append(nxt)
    return list(zip(parent[joined].tolist(), joined))


def tour_reference(points: Sequence[Point]) -> list[Point]:
    """The preorder walk of :func:`prim_reference` over the points in
    (x, y) order, children in (x, y) order, flipped so that the second
    point precedes the last."""
    pts = sorted(points, key=Point.as_tuple)
    return [pts[i] for i in _sorted_preorder(len(pts), prim_reference(pts))]


def walk_reference(points: np.ndarray) -> list[int]:
    """The walk of ``tsp_tour_approx`` over lexicographic ranks, for an
    (n, 2) coordinate array: the preorder of :func:`prim_dense_reference`
    over the points in (x, y) order, children in ascending rank order,
    flipped so that the second rank is below the last."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return _sorted_preorder(len(pts), prim_dense_reference(pts))


def _sorted_preorder(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """The preorder from 0 of the tree of (parent, child) ``edges``, each
    vertex's children in ascending order, flipped so that the second
    vertex is below the last."""
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        children[u].append(v)
    walk: list[int] = []
    stack = [0]
    while stack:
        u = stack.pop()
        walk.append(u)
        stack += sorted(children[u], reverse=True)
    if len(walk) >= 3 and walk[1] > walk[-1]:
        walk = [walk[0]] + walk[:0:-1]
    return walk


# ---------------------------------------------------------------------------
# Breadth-first search on Python lists
# ---------------------------------------------------------------------------


def neighbor_lists(g: CommGraph) -> list[list[int]]:
    """Ascending adjacency lists of Python ints, read off ``g.edges``."""
    adj: list[list[int]] = [[] for _ in g.vertices]
    for i, j in g.edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    return [sorted(nbrs) for nbrs in adj]


def bfs(adj: list[list[int]], sources: Iterable[int], dist: list[float]) -> list[int]:
    """Breadth-first search from ``sources`` through the vertices whose
    ``dist`` is still infinite.

    Writes into ``dist`` each reached vertex's hop count from the nearest
    source and returns the reached vertices in FIFO discovery order:
    the sources in increasing order, then each vertex as it is first
    reached, so distances never decrease along the list.  A vertex the
    caller marks with a finite ``dist`` beforehand is never entered.
    """
    order = sorted(sources)
    for s in order:
        dist[s] = 0
    for u in order:
        for w in adj[u]:
            if dist[w] == math.inf:
                dist[w] = dist[u] + 1
                order.append(w)
    return order


# ---------------------------------------------------------------------------
# Instance and config files, one dict per row
# ---------------------------------------------------------------------------


def instance_doc(points: Sequence[Point], metadata: Optional[dict]) -> dict:
    return {"kind": "instance", "points": [{"x": p.x, "y": p.y} for p in points], "metadata": metadata or {}}


def config_doc(configs: Sequence[AntennaConfig], mode: str, metadata: Optional[dict]) -> dict:
    return {
        "kind": "config",
        "mode": mode,
        "antennas": [
            {
                "x": c.location.x,
                "y": c.location.y,
                "orientation_radians": c.orientation,
                "aperture_radians": c.aperture,
                "range": "inf" if math.isinf(c.range) else c.range,
            }
            for c in configs
        ],
        "metadata": metadata or {},
    }


def dump_reference(doc: dict) -> str:
    """``doc`` as an instance or config file: sorted keys, two-space
    indent, floats by ``repr``, every value through the pure-Python
    encoder."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# One antenna and one point
# ---------------------------------------------------------------------------


def wedge_contains(w: AntennaConfig, p: Point) -> bool:
    """True iff ``p`` lies in the closed sector of ``w`` and within range."""
    return bool(containment_matrix([w], [p])[0, 0])


# ---------------------------------------------------------------------------
# The perpendicular fan, slot by slot
# ---------------------------------------------------------------------------


def vec_dot_sign(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    """Exact sign of dot(p2 - p1, q2 - q1)."""
    return _cross_sign(p1.x, p1.y, p2.x, p2.y, q2.y, q1.x, q1.y, q2.x)


def dot_sign(a: Point, b: Point, c: Point) -> int:
    """Exact sign of dot(b - a, c - a); 0 means a right angle at ``a``."""
    return vec_dot_sign(a, b, a, c)


def _pair_far_points(a: Point, b: Point, p: Point, q: Point) -> tuple[Point, Point]:
    """Order the two points off the base (a, b) as (far-left-facing,
    far-right-facing): the larger projection on the base direction faces
    back over ``a``, and a tie puts the lexicographically larger first."""
    s = vec_dot_sign(p, q, a, b)  # sign of proj(q) - proj(p) on the base
    if s > 0:
        return q, p
    if s < 0:
        return p, q
    return max(p, q, key=Point.as_tuple), min(p, q, key=Point.as_tuple)


def _fan(slots: Sequence[Point], case: str) -> OrientationAssignment:
    """The perpendicular fan over four slots: base start, base end, then
    the two far points facing back over the base start and the base end."""
    a, b = slots[0], slots[1]
    theta = math.atan2(b.y - a.y, b.x - a.x)
    offsets = (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 1.75 * math.pi)
    entries = tuple((p, normalize_angle(theta + off)) for p, off in zip(slots, offsets))
    return OrientationAssignment(entries=entries, case=case)


# ---------------------------------------------------------------------------
# Refined hubs by their definition
# ---------------------------------------------------------------------------


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """The hull vertices of the distinct points, as the package's
    ``_sorted_hull`` gives them: counterclockwise from the least."""
    return _sorted_hull(sorted(set(points), key=Point.as_tuple), orientation_sign)


def hubs_refined_reference(cell_points: Sequence[Point]) -> OrientationAssignment:
    """Refined hubs from the whole strip: the supporting pair is the
    lexicographically least longest hull edge, the third hub the least
    point of the closed strip over it, the fourth the least other point."""
    pts = sorted(set(cell_points), key=Point.as_tuple)
    if len(pts) < FULL_CELL_MIN or len(pts) != len(list(cell_points)):
        raise ValueError("hub selection needs a full cell of distinct points")
    hull = convex_hull(pts)
    if len(hull) == 2:
        edges = [(hull[0], hull[1])]
    else:
        edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    best = max(squared_distance(*e) for e in edges)
    tied = [e for e in edges if squared_distance(*e) == best]
    a1, a2 = min(tied, key=lambda e: (e[0].as_tuple(), e[1].as_tuple()))

    rest = [p for p in pts if p != a1 and p != a2]
    strip = [
        p
        for p in rest
        if vec_dot_sign(a1, p, a1, a2) >= 0
        and vec_dot_sign(a2, p, a1, a2) <= 0
        and orientation_sign(a1, a2, p) >= 0
    ]
    if not strip:
        raise ValueError("no point over the longest hull edge; cell is not full")
    a3 = min(strip, key=Point.as_tuple)
    a4 = min((p for p in rest if p != a3), key=Point.as_tuple)
    return _fan((a1, a2, *_pair_far_points(a1, a2, a3, a4)), "refined")


# ---------------------------------------------------------------------------
# Quadruplets by one construction per hull shape
# ---------------------------------------------------------------------------


def _convex_slots(hull: list[Point]) -> tuple[Point, Point, Point, Point]:
    """Distribute four convex-position points over the fan slots.

    A directed hull edge (a, b) qualifies when the diagonal out of each
    endpoint makes an angle of at most a quarter turn with the edge; at
    least one of the four edges qualifies because the eight diagonal-split
    angles sum to one full turn, so at most three can exceed a quarter
    turn and each edge is charged two of them.  The hull vertex after b
    takes the orientation opposite a, and the vertex before a takes the
    one opposite b; qualification makes both containments (and hence both
    diagonal edges of the graph) mutual.
    """
    candidates = []
    for i in range(4):
        a, b, c, d = (hull[(i + k) % 4] for k in range(4))
        if dot_sign(a, b, c) >= 0 and dot_sign(b, a, d) >= 0:
            candidates.append((a, b, c, d))
    if not candidates:
        raise AssertionError("no qualifying hull edge on a convex quadrilateral")
    return min(candidates, key=lambda t: (t[0].as_tuple(), t[1].as_tuple()))


def _triangle_slots(hull: list[Point], pts: Sequence[Point]) -> tuple[Point, Point, Point, Point]:
    """Slot assignment when the hull is a triangle with one inner point.

    The base is a hull edge whose two adjacent triangle angles are at most
    a quarter turn (the edge opposite the largest angle always works).
    Both remaining points project onto the closed base segment, so either
    can take either opposite orientation as far as connectivity goes; the
    pairing rule in :func:`_pair_far_points` settles coverage.
    """
    interior = next(p for p in pts if p not in set(hull))
    candidates = []
    for i in range(3):
        a, b, v = hull[i], hull[(i + 1) % 3], hull[(i + 2) % 3]
        if dot_sign(a, b, v) >= 0 and dot_sign(b, a, v) >= 0:
            candidates.append((a, b, v))
    if not candidates:
        raise AssertionError("triangle with two angles above a quarter turn")
    a, b, v = min(candidates, key=lambda t: (t[0].as_tuple(), t[1].as_tuple()))
    c, d = _pair_far_points(a, b, v, interior)
    return a, b, c, d


def _collinear_slots(hull: list[Point], pts: Sequence[Point]) -> tuple[Point, Point, Point, Point]:
    """Slot assignment for four collinear points: the two extremes form
    the base and the inner points pair like the triangle case."""
    a, b = hull
    inner = [p for p in pts if p != a and p != b]
    c, d = _pair_far_points(a, b, inner[0], inner[1])
    return a, b, c, d


def orient_quadruplet_reference(points: Sequence[Point]) -> OrientationAssignment:
    """The quadruplet fan with its slots chosen by the hull's size: a
    convex quadrilateral, a triangle around one point, or a segment."""
    pts = list(points)
    if len(pts) != 4 or len(set(pts)) != 4:
        raise ValueError("degenerate quadruplet: four distinct points required")
    hull = convex_hull(pts)
    if len(hull) == 4:
        slots, case = _convex_slots(hull), "convex"
    elif len(hull) == 3:
        slots, case = _triangle_slots(hull, pts), "triangle"
    else:
        slots, case = _collinear_slots(hull, pts), "collinear"
    return _fan(slots, case)


# ---------------------------------------------------------------------------
# The couple lemma
# ---------------------------------------------------------------------------

#: Tolerance when validating that four orientations form a quarter-turn fan.
_FAN_TOL = 1e-9


@dataclass(frozen=True)
class CouplePair:
    """Two points whose wedge orientations differ by a quarter turn,
    counterclockwise from ``first`` to ``second``."""

    first: Point
    second: Point


def couples(assignment: OrientationAssignment) -> list[CouplePair]:
    """The four pairs of points with counterclockwise-adjacent orientations.

    Pairs are listed starting from the point with the smallest normalized
    orientation; each point appears in exactly two pairs (once as first,
    once as second).  Raises ``ValueError`` unless the four orientations
    form a quarter-turn fan.
    """
    if len(assignment.entries) != 4:
        raise ValueError("malformed assignment: exactly four entries required")
    ordered = sorted(assignment.entries, key=lambda e: (e[1], e[0].as_tuple()))
    lowest = ordered[0][1]
    for k, (_, ang) in enumerate(ordered):
        if abs((ang - lowest) - k * QUARTER_TURN) > _FAN_TOL:
            raise ValueError("malformed assignment: orientations must form a quarter-turn fan")
    return [CouplePair(ordered[i][0], ordered[(i + 1) % 4][0]) for i in range(4)]


def couple_halfplane(assignment: OrientationAssignment, couple: CouplePair) -> HalfPlane:
    """The closed half-plane that a couple's two wedges jointly cover.

    Its boundary runs parallel to the right bounding ray of the first
    wedge, through whichever of the two apexes lies deeper inside the
    half-plane (for the base couple that is the first apex itself, making
    the boundary the right bounding line of the first wedge).
    """
    oris = dict(assignment.entries)
    first_ori, second_ori = oris[couple.first], oris[couple.second]
    if abs(normalize_angle(second_ori - first_ori) - QUARTER_TURN) > _FAN_TOL:
        raise ValueError("not a counterclockwise-adjacent couple of this assignment")
    u = first_ori - 0.5 * QUARTER_TURN
    nx, ny = -math.sin(u), math.cos(u)
    p, q = couple.first, couple.second
    anchor = p if nx * p.x + ny * p.y >= nx * q.x + ny * q.y else q
    return HalfPlane(nx, ny, nx * anchor.x + ny * anchor.y)


def halfplane_covered(wedges: Sequence[AntennaConfig], hp: HalfPlane) -> CoverageReport:
    """Decide whether the union of unbounded wedges covers a half-plane."""
    if not wedges:
        # Any point of the half-plane witnesses non-coverage.
        norm = math.hypot(hp.nx, hp.ny)
        return CoverageReport(False, witness_point=Point(hp.nx * hp.c / norm**2, hp.ny * hp.c / norm**2))
    ants = _antennas(wedges)
    if any(map(math.isfinite, ants.range.tolist())):
        raise ValueError("half-plane coverage needs unbounded ranges")
    return _first_uncovered(*_coverage_hits(ants, hp))


# ---------------------------------------------------------------------------
# Tree and tour weights
# ---------------------------------------------------------------------------


def mst_cost(points: Sequence[Point], beta: float) -> float:
    """Total r**beta weight of the minimum spanning tree."""
    _check_beta(beta)
    pts = list(points)
    return sum(distance(pts[i], pts[j]) ** beta for i, j in mst_edges(pts))


def tour_power_cost(tour: Tour, beta: float) -> float:
    """Sum of r**beta over the cyclic tour edges (including the closing one)."""
    _check_beta(beta)
    if len(tour) < 2:
        return 0.0
    return sum(s**beta for s in _steps(*_coords(tour.order)))


# ---------------------------------------------------------------------------
# Exact signs in rational arithmetic
# ---------------------------------------------------------------------------


def rational_signs(p1: Point, p2: Point, q1: Point, q2: Point) -> tuple[int, int]:
    """The signs of cross(p2 - p1, q2 - q1) and dot(p2 - p1, q2 - q1),
    computed in rational arithmetic."""
    f = Fraction
    ux, uy = f(p2.x) - f(p1.x), f(p2.y) - f(p1.y)
    vx, vy = f(q2.x) - f(q1.x), f(q2.y) - f(q1.y)
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return (cross > 0) - (cross < 0), (dot > 0) - (dot < 0)


# ---------------------------------------------------------------------------
# Seeded draws
# ---------------------------------------------------------------------------


def choice(rng: SplitMix64, seq):
    """One element of ``seq``, drawn by ``rng.randrange``."""
    if not seq:
        raise ValueError("choice from an empty sequence")
    return seq[rng.randrange(len(seq))]


def shuffle(rng: SplitMix64, items: list) -> None:
    """In-place Fisher-Yates shuffle driven by ``rng``."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
