"""Replacing omnidirectional unit-range antennas by quarter-wedge antennas.

Given points whose unit-disk graph is connected, every point receives a
quarter-aperture wedge with range exactly ``14*sqrt(2)`` such that the
resulting symmetric graph is connected and every unit-disk edge is
bridged by a short path: at most 9 hops in "basic" mode, at most 8 in
"refined" mode.

The construction tiles the plane with 7x7 grid cells.  Cells holding at
least four points are *full*; each full cell elects four of its points
as hubs and orients them as a perpendicular fan, so the hub wedges cover
the plane and the hubs form a connected cluster that also reaches the
hub clusters of nearby full cells.  Everyone else aims at a hub that
covers them.  The range is what makes this work: a point in a non-full
cell is served by a full cell bordering its own, and two points in
bordering cells are at most ``14*sqrt(2)`` apart.  The grid geometry
guarantees such a bordering full cell exists, because a unit-step path
cannot cross the three-cell band around its starting cell without
dropping four consecutive points into one cell on the way.

The unit-disk graph is built once per call and serves both the
connectivity check and the grouping of points outside full cells.
Graph building and traversal come from :mod:`sectornet.scg`; scipy is
imported only when :func:`verify_hop_spanner` first runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import (
    DIST_SQ_TOL,
    Point,
    convex_hull,
    orientation_sign,
    squared_distance,
    vec_dot_sign,
)
from .orientation import (
    OrientationAssignment,
    _fan,
    _pair_far_points,
    aim_at_fan,
    orient_cluster,
    orient_toward,
    orient_quadruplet,
)
from .scg import AntennaConfig, CommGraph, _graph_from_matrix, bfs, components, is_connected

CELL_SIDE = 7.0
REPLACEMENT_RANGE = 14.0 * math.sqrt(2.0)
FULL_CELL_MIN = 4

FULL = "full"
NON_FULL = "non_full"
EMPTY = "empty"


@dataclass(frozen=True)
class GridPartition:
    """Partition of the plane into half-open 7x7 cells.

    A point with offset (dx, dy) from ``origin`` lands in cell
    (floor(dx/7), floor(dy/7)); cell boundaries belong to the cell on
    their upper-right side.
    """

    origin: tuple[float, float]
    cells: dict[tuple[int, int], tuple[Point, ...]]

    def cell_of(self, p: Point) -> tuple[int, int]:
        return (
            math.floor((p.x - self.origin[0]) / CELL_SIDE),
            math.floor((p.y - self.origin[1]) / CELL_SIDE),
        )

    def points_in(self, index: tuple[int, int]) -> tuple[Point, ...]:
        return self.cells.get(index, ())

    def status(self, index: tuple[int, int]) -> str:
        count = len(self.cells.get(index, ()))
        if count >= FULL_CELL_MIN:
            return FULL
        return NON_FULL if count else EMPTY

    def full_cells(self) -> list[tuple[int, int]]:
        return sorted(c for c, pts in self.cells.items() if len(pts) >= FULL_CELL_MIN)

    def block(self, index: tuple[int, int]) -> list[tuple[int, int]]:
        """The 3x3 block of cell indices centered on ``index``."""
        i, j = index
        return [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]


def grid_partition(
    points: Sequence[Point], origin: Optional[tuple[float, float]] = None
) -> GridPartition:
    if not points:
        raise ValueError("empty point set")
    if origin is None:
        origin = (
            float(math.floor(min(p.x for p in points))),
            float(math.floor(min(p.y for p in points))),
        )
    buckets: dict[tuple[int, int], list[Point]] = {}
    for p in points:
        idx = (
            math.floor((p.x - origin[0]) / CELL_SIDE),
            math.floor((p.y - origin[1]) / CELL_SIDE),
        )
        buckets.setdefault(idx, []).append(p)
    return GridPartition(origin, {c: tuple(pts) for c, pts in sorted(buckets.items())})


def build_udg(points: Sequence[Point]) -> CommGraph:
    """Unit-disk graph: an edge wherever two points are at distance <= 1."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    return _graph_from_matrix(pts, dx * dx + dy * dy <= 1.0 + DIST_SQ_TOL)


# ---------------------------------------------------------------------------
# Hub selection inside a full cell
# ---------------------------------------------------------------------------


def select_hubs_basic(cell_points: Sequence[Point]) -> OrientationAssignment:
    """Four hubs for basic mode: the lexicographically smallest four."""
    if len(cell_points) < FULL_CELL_MIN:
        raise ValueError("hub selection needs a full cell")
    return orient_quadruplet(sorted(cell_points, key=Point.as_tuple)[:4])


def select_hubs_refined(cell_points: Sequence[Point]) -> OrientationAssignment:
    """Four hubs whose first two ("supporting") jointly cover the cell.

    The supporting pair spans a longest hull edge, so its aimed wedges
    cover the closed half-plane containing the hull, hence every point
    of the cell.  The other two hubs take the opposite orientations and
    sit inside the closed strip over the base (a point there always
    exists, else some hull edge would beat the longest), ordered so that
    the one further along the base faces back over the base start; that
    ordering is what keeps all four hubs mutually connected.
    """
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
# Closest full cell along the unit-disk graph
# ---------------------------------------------------------------------------


def full_cell_labels(grid: GridPartition, udg: CommGraph) -> dict[Point, tuple[int, int]]:
    """For every reachable point, the cell of its nearest full-cell point.

    Distance is hop count in the unit-disk graph; among all full-cell
    points at minimal distance the smallest cell index wins, so the
    result is independent of traversal order.
    """
    cells = [grid.cell_of(p) for p in udg.vertices]
    sources = [i for i, cell in enumerate(cells) if grid.status(cell) == FULL]
    if not sources:
        raise ValueError("no full cell")
    adj = udg.neighbor_lists()
    dist = [math.inf] * len(adj)
    label: dict[int, tuple[int, int]] = {}
    for w in bfs(adj, sources, dist):
        if dist[w] == 0:
            label[w] = cells[w]
        else:
            label[w] = min(label[u] for u in adj[w] if dist[u] == dist[w] - 1)
    return {udg.vertices[i]: cell for i, cell in label.items()}


def closest_full_cell(p: Point, grid: GridPartition, udg: CommGraph) -> tuple[int, int]:
    """Cell index of the full cell nearest to ``p`` in unit-disk hops."""
    labels = full_cell_labels(grid, udg)
    if p not in labels:
        raise ValueError("point cannot reach any full cell")
    return labels[p]


# ---------------------------------------------------------------------------
# The replacement itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplacementResult:
    """One antenna per input point (same order), plus how it was built."""

    configs: tuple[AntennaConfig, ...]
    mode: str
    grid: GridPartition
    small_instance: bool = False

    def config_of(self, p: Point) -> AntennaConfig:
        for c in self.configs:
            if c.location == p:
                return c
        raise KeyError(f"no antenna at {p}")


def orient_small_instance(
    points: Sequence[Point], grid: Optional[GridPartition] = None
) -> ReplacementResult:
    """Replacement for instances with no full cell.

    A connected unit-disk graph without a full cell fits in a 14x14
    square (leaving the starting cell's block would create one), so the
    replacement range spans every pairwise distance and a single
    connected cluster orientation suffices.
    """
    oris = orient_cluster(points)
    configs = tuple(
        AntennaConfig(p, oris[p], range=REPLACEMENT_RANGE) for p in points
    )
    return ReplacementResult(
        configs=configs,
        mode="small",
        grid=grid if grid is not None else grid_partition(points),
        small_instance=True,
    )


def replace(
    points: Sequence[Point],
    mode: str = "refined",
    origin: Optional[tuple[float, float]] = None,
) -> ReplacementResult:
    """Assign a wedge (range ``14*sqrt(2)``) to every point.

    Requires a connected unit-disk graph over distinct points.  In
    "basic" mode every full cell elects the lexicographically smallest
    four points as hubs and every non-full-cell point aims at a covering
    hub of the full cell nearest to itself; the symmetric graph then
    spans unit-disk edges within 9 hops.  In "refined" mode hubs are
    chosen around a longest hull edge and non-full-cell points are
    grouped into unit-disk components that share one target full cell,
    tightening the bound to 8 hops.
    """
    if mode not in ("basic", "refined"):
        raise ValueError(f"unknown replacement mode: {mode!r}")
    pts = list(points)
    udg = build_udg(pts)
    if not is_connected(udg):
        raise ValueError("unit-disk graph is not connected")
    grid = grid_partition(pts, origin)
    if not grid.full_cells():
        return orient_small_instance(pts, grid)

    hubs: dict[tuple[int, int], OrientationAssignment] = {}
    for cell in grid.full_cells():
        cell_pts = grid.points_in(cell)
        hubs[cell] = (
            select_hubs_basic(cell_pts) if mode == "basic" else select_hubs_refined(cell_pts)
        )

    orientation: dict[Point, float] = {}
    for cell, assignment in hubs.items():
        orientation.update(aim_at_fan(assignment, grid.points_in(cell)))

    stray = [i for i, p in enumerate(pts) if p not in orientation]
    if stray:
        labels = full_cell_labels(grid, udg)
        groups = [[i] for i in stray] if mode == "basic" else components(udg, stray)
        for comp in groups:
            rep = min((pts[i] for i in comp), key=Point.as_tuple)
            target = hubs[labels[rep]].entries
            for i in comp:
                orientation[pts[i]] = orient_toward(pts[i], target)

    configs = tuple(
        AntennaConfig(p, orientation[p], range=REPLACEMENT_RANGE) for p in pts
    )
    return ReplacementResult(configs=configs, mode=mode, grid=grid)


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------


class SpannerReport(NamedTuple):
    ok: bool
    worst_edge: Optional[tuple[Point, Point]]
    max_hops: float


def verify_hop_spanner(udg: CommGraph, scg: CommGraph, limit: float) -> SpannerReport:
    """Check every unit-disk edge is spanned by at most ``limit`` hops.

    Both graphs must share the same vertex tuple.  All-pairs hop counts
    come from breadth-first search over the symmetric graph, delegated
    to scipy's compiled graph routines; scipy is imported here, on first
    use, so that importing the package does not pay for it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    if udg.vertices != scg.vertices:
        raise ValueError("graphs disagree on vertices")
    n = len(scg.vertices)
    if not udg.edges:
        return SpannerReport(True, None, 0)
    rows, cols = [], []
    for i, j in scg.edges:
        rows += [i, j]
        cols += [j, i]
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    dist = shortest_path(mat, method="D", directed=False, unweighted=True)
    worst: Optional[tuple[Point, Point]] = None
    max_hops = 0.0
    for i, j in sorted(udg.edges):
        h = float(dist[i, j])
        if h > max_hops:
            max_hops = h
            worst = (udg.vertices[i], udg.vertices[j])
    ok = bool(max_hops <= limit)
    if math.isfinite(max_hops):
        max_hops = int(max_hops)
    return SpannerReport(ok, worst, max_hops)


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
    start = grid.cell_of(path[0])
    block = set(grid.block(start))
    if grid.cell_of(path[-1]) in block:
        raise ValueError("path does not leave the starting block")
    for p in path:
        cell = grid.cell_of(p)
        if cell in block and cell != start and grid.status(cell) == FULL:
            return True
    return False
