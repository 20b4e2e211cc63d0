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

The unit-disk graph, the SCG sweep's graph of full circles of range 1,
is built once per call and serves the connectivity check and the
grouping and labelling of points outside full cells.  Graph building
and traversal come from :mod:`sectornet.scg`, whose one level step also
drives the bit-parallel search of :func:`verify_hop_spanner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import (
    TAU,
    AntennaConfig,
    Point,
    _sector_arrays,
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
    orient_quadruplet,
)
from .scg import CommGraph, _level_step, _swept_edges, components, is_connected

CELL_SIDE = 7.0
REPLACEMENT_RANGE = 14.0 * math.sqrt(2.0)
FULL_CELL_MIN = 4


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

    def full_cells(self) -> list[tuple[int, int]]:
        return sorted(c for c, pts in self.cells.items() if len(pts) >= FULL_CELL_MIN)


def grid_partition(points: Sequence[Point]) -> GridPartition:
    """The 7x7 cells of ``points``, anchored at their floored minimum."""
    if not points:
        raise ValueError("empty point set")
    origin = (
        float(math.floor(min(p.x for p in points))),
        float(math.floor(min(p.y for p in points))),
    )
    cell_of = GridPartition(origin, {}).cell_of
    buckets: dict[tuple[int, int], list[Point]] = {}
    for p in points:
        buckets.setdefault(cell_of(p), []).append(p)
    return GridPartition(origin, {c: tuple(pts) for c, pts in sorted(buckets.items())})


def build_udg(points: Sequence[Point]) -> CommGraph:
    """Unit-disk graph: an edge wherever two points are at distance <= 1,
    found as the sweep's symmetric graph of full circles of range 1."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    ones = np.ones(len(pts))
    circles = _sector_arrays([p.x for p in pts], [p.y for p in pts], 0 * ones, TAU * ones, ones)
    return CommGraph(pts, _swept_edges(circles))


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
    ordering is what keeps all four hubs mutually connected.  The third
    hub is the first strip point in lexicographic order, so the scan of
    the sorted points stops there; the fourth is the least point left.
    """
    pts = sorted(set(cell_points), key=Point.as_tuple)
    if len(pts) < FULL_CELL_MIN or len(pts) != len(list(cell_points)):
        raise ValueError("hub selection needs a full cell of distinct points")
    hull = convex_hull(pts)
    edges = list(zip(hull, hull[1:] + hull[:1]))  # a segment gives both directions
    best = max(squared_distance(*e) for e in edges)
    tied = [e for e in edges if squared_distance(*e) == best]
    a1, a2 = min(tied, key=lambda e: (e[0].as_tuple(), e[1].as_tuple()))

    rest = [p for p in pts if p != a1 and p != a2]
    a3 = next(
        (
            p
            for p in rest
            if vec_dot_sign(a1, p, a1, a2) >= 0
            and vec_dot_sign(a2, p, a1, a2) <= 0
            and orientation_sign(a1, a2, p) >= 0
        ),
        None,
    )
    if a3 is None:
        raise ValueError("no point over the longest hull edge; cell is not full")
    a4 = rest[1] if rest[0] == a3 else rest[0]
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
    full = grid.full_cells()
    rank = {cell: k for k, cell in enumerate(full)}  # sorted: rank order is cell order
    unreached = len(full)
    word = np.array([rank.get(grid.cell_of(p), unreached) for p in udg.vertices], dtype=np.intp)
    if not (word < unreached).any():
        raise ValueError("no full cell")
    # a hop per step: a point first reached takes the least rank of the
    # neighbours reached a level before, and keeps it
    while True:
        new = np.where(word < unreached, word, _level_step(udg, word, np.minimum))
        if np.array_equal(new, word):
            break
        word = new
    return {udg.vertices[i]: full[k] for i, k in enumerate(word.tolist()) if k < unreached}


# ---------------------------------------------------------------------------
# The replacement itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplacementResult:
    """One antenna per input point (same order), plus how it was built."""

    configs: tuple[AntennaConfig, ...]
    mode: str
    grid: GridPartition


def replace(points: Sequence[Point], mode: str = "refined") -> ReplacementResult:
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
    grid = grid_partition(pts)
    full = grid.full_cells()
    if not full:
        # without a full cell a connected unit-disk graph stays in one
        # cell (a unit-step walk out of the first cell fills a cell on the
        # way), so at most three points, all in range of one another, and
        # one connected cluster suffices
        configs = tuple(
            AntennaConfig(p, a, range=REPLACEMENT_RANGE) for p, a in zip(pts, orient_cluster(pts))
        )
        return ReplacementResult(configs=configs, mode="small", grid=grid)

    select = select_hubs_basic if mode == "basic" else select_hubs_refined
    hubs = [select(grid.points_in(cell)) for cell in full]
    rank = {cell: k for k, cell in enumerate(full)}
    # each point's fan: its own full cell's, else (-1) its stray group's
    fan_of = np.array([rank.get(grid.cell_of(p), -1) for p in pts], dtype=np.intp)

    stray = np.flatnonzero(fan_of < 0).tolist()
    if stray:
        labels = full_cell_labels(grid, udg)
        groups = [[i] for i in stray] if mode == "basic" else components(udg, stray)
        for comp in groups:
            fan_of[comp] = rank[labels[min((pts[i] for i in comp), key=Point.as_tuple)]]

    configs = tuple(
        AntennaConfig(p, a, range=REPLACEMENT_RANGE)
        for p, a in zip(pts, aim_at_fan(hubs, pts, fan_of))
    )
    return ReplacementResult(configs=configs, mode=mode, grid=grid)


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------


class SpannerReport(NamedTuple):
    ok: bool
    worst_edge: Optional[tuple[Point, Point]]
    max_hops: float


# Sources per bit-parallel search in verify_hop_spanner: one 64-bit word
# of reach bits per vertex, so at most 64.  Wider, multi-word chunks were
# measured no faster.
_CHUNK = 64


def verify_hop_spanner(udg: CommGraph, scg: CommGraph, limit: float) -> SpannerReport:
    """Check every unit-disk edge is spanned by at most ``limit`` hops.

    Both graphs must share the same vertex tuple.  Hops come from a
    bit-parallel breadth-first search: ``_CHUNK`` sources, one bit each,
    advance one level per OR step over the symmetric graph's CSR rows
    until their unit-disk edges are all spanned or nothing new is
    reached, so ``max_hops`` is exact even when it exceeds ``limit``.
    """
    if udg.vertices != scg.vertices:
        raise ValueError("graphs disagree on vertices")
    e = udg.edges
    if not len(e):
        return SpannerReport(True, None, 0)
    n = len(scg.vertices)
    hops = np.full(len(e), math.inf)
    for lo in range(0, n, _CHUNK):
        # bit s - lo of reach[v] is set once v is within k hops of source
        # s; the chunk serves the edges whose first endpoint is a source
        size = min(_CHUNK, n - lo)
        bit = np.arange(size)
        reach = np.zeros(n, np.uint64)
        reach[lo + bit] = np.uint64(1) << bit.astype(np.uint64)
        todo = np.arange(*np.searchsorted(e[:, 0], [lo, lo + size]))
        mask = np.uint64(1) << (e[todo, 0] - lo).astype(np.uint64)
        for k in range(n):
            hit = (reach[e[todo, 1]] & mask) != 0
            hops[todo[hit]] = k
            todo, mask = todo[~hit], mask[~hit]
            if not len(todo):
                break
            new = _level_step(scg, reach, np.bitwise_or)
            if np.array_equal(new, reach):
                break
            reach = new
    # edges are in row-major order, so the first maximum is the
    # lexicographically smallest edge reaching it
    i, j = e[hops.argmax()]
    max_hops = float(hops.max())
    ok = bool(max_hops <= limit)
    if math.isfinite(max_hops):
        max_hops = int(max_hops)
    return SpannerReport(ok, (udg.vertices[i], udg.vertices[j]), max_hops)
