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

The unit-disk graph, whose edges :mod:`sectornet.geometry` finds, is
built once per call and serves the connectivity check and the
grouping and labelling of points outside full cells.  Graph building
and traversal come from :mod:`sectornet.scg`, whose one level step also
drives the bit-parallel search of :func:`verify_hop_spanner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import (
    QUARTER_TURN,
    Antennas,
    Point,
    _antennas_at,
    _coords,
    _cross_signs,
    _hull_candidates,
    _lex_order,
    _unit_disk_edges,
    convex_hull,
    orientation_sign,
    squared_distance,
    vec_dot_sign,
)
from .orientation import (
    OrientationAssignment,
    _aim_at,
    _fans,
    _quadruplet_fans,
    orient_cluster,
    orient_quadruplet,
)
from .scg import CommGraph, _level_step, components, is_connected

CELL_SIDE = 7.0
REPLACEMENT_RANGE = 14.0 * math.sqrt(2.0)
FULL_CELL_MIN = 4


@dataclass(frozen=True, eq=False)
class GridPartition:
    """Partition of the plane into half-open 7x7 cells.

    A point with offset (dx, dy) from ``origin`` lands in cell
    (floor(dx/7), floor(dy/7)); cell boundaries belong to the cell on
    their upper-right side.

    The cells of ``points`` are held as arrays: ``keys`` has one row
    (kx, ky) per occupied cell, in ascending order, as integral floats;
    ``cell`` gives each point's row of ``keys``; and ``order`` lists the
    point positions cell by cell, in input order within a cell, row k's
    at ``order[starts[k]:starts[k + 1]]``.
    """

    origin: tuple[float, float]
    points: tuple[Point, ...]
    keys: np.ndarray
    cell: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, GridPartition):
            return NotImplemented
        return self.origin == other.origin and self.points == other.points  # the arrays follow

    @cached_property
    def cells(self) -> dict[tuple[int, int], tuple[Point, ...]]:
        """The points of each occupied cell, cells in ascending order."""
        order = self.order.tolist()
        return {
            (int(kx), int(ky)): tuple(self.points[i] for i in order[a:b])
            for (kx, ky), a, b in zip(self.keys.tolist(), self.starts.tolist(), self.starts[1:].tolist())
        }

    def points_in(self, index: tuple[int, int]) -> tuple[Point, ...]:
        return self.cells.get(index, ())

    def full_cells(self) -> list[tuple[int, int]]:
        return [(int(kx), int(ky)) for kx, ky in self.keys[self._full_rank() >= 0].tolist()]

    def _full_rank(self) -> np.ndarray:
        """Per occupied cell, its rank among the full cells, else -1."""
        full = np.diff(self.starts) >= FULL_CELL_MIN
        return np.where(full, np.cumsum(full) - 1, -1)


def grid_partition(points: Sequence[Point]) -> GridPartition:
    """The 7x7 cells of ``points``, anchored at their floored minimum."""
    pts = tuple(points)
    return _grid(pts, *_coords(pts))


def _grid(pts: tuple[Point, ...], xs: np.ndarray, ys: np.ndarray) -> GridPartition:
    """:func:`grid_partition` of ``pts``, whose coordinates are xs, ys:
    each point's cell key by one floor of a division, (floor(dx / 7),
    floor(dy / 7)) for its offset from the origin, then one sort of the
    keys."""
    if not pts:
        raise ValueError("empty point set")
    origin = (float(math.floor(xs.min())), float(math.floor(ys.min())))
    kx = np.floor((xs - origin[0]) / CELL_SIDE)
    ky = np.floor((ys - origin[1]) / CELL_SIDE)
    order = np.lexsort((ky, kx))
    sx, sy = kx[order], ky[order]
    new = np.ones(len(pts), bool)
    new[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    cell = np.empty(len(pts), np.intp)
    cell[order] = np.cumsum(new) - 1
    keys = np.stack((sx[new], sy[new]), axis=1)
    starts = np.append(np.flatnonzero(new), len(pts))
    for a in (keys, cell, order, starts):
        a.flags.writeable = False
    return GridPartition(origin, pts, keys, cell, order, starts)


def build_udg(points: Sequence[Point]) -> CommGraph:
    """Unit-disk graph: an edge wherever two points are at distance <= 1,
    found as the sweep's symmetric graph of full circles of range 1."""
    pts = tuple(points)
    return _udg(pts, *_coords(pts))


def _udg(pts: tuple[Point, ...], xs: np.ndarray, ys: np.ndarray) -> CommGraph:
    _lex_order(xs, ys)  # raises on duplicate points
    return CommGraph(pts, _unit_disk_edges(xs, ys))


# ---------------------------------------------------------------------------
# Hub selection inside a full cell
# ---------------------------------------------------------------------------


def select_hubs_basic(cell_points: Sequence[Point]) -> OrientationAssignment:
    """Four hubs for basic mode: the lexicographically smallest four."""
    return _hubs_of_cell(cell_points, "basic")


def select_hubs_refined(cell_points: Sequence[Point]) -> OrientationAssignment:
    """Four hubs whose first two ("supporting") jointly cover the cell.

    The supporting pair spans a longest hull edge, so its aimed wedges
    cover the closed half-plane containing the hull, hence every point
    of the cell.  The other two hubs take the opposite orientations and
    sit inside the closed strip over the base (a point there always
    exists, else some hull edge would beat the longest), ordered so that
    the one further along the base faces back over the base start; that
    ordering is what keeps all four hubs mutually connected (on a tie the
    lexicographically larger).  The third hub is the first strip point in
    lexicographic order, so the scan of the sorted points stops there;
    the fourth is the least point left.  The hull is taken over the
    points that the array prefilter
    :func:`~sectornet.geometry._hull_candidates` keeps, which hold every
    hull vertex.
    """
    return _hubs_of_cell(cell_points, "refined")


def _hubs_of_cell(cell_points: Sequence[Point], mode: str) -> OrientationAssignment:
    """The hubs of one cell, which must hold at least ``FULL_CELL_MIN``
    distinct points."""
    pts = sorted(set(cell_points), key=Point.as_tuple)
    if len(pts) < FULL_CELL_MIN or len(pts) != len(list(cell_points)):
        raise ValueError("hub selection needs a full cell of distinct points")
    if mode == "basic":
        return orient_quadruplet(pts[:4])
    hubs = _refined_fans(pts, *_coords(pts), np.array([0, len(pts)]))
    return OrientationAssignment(tuple(zip(hubs.locations, hubs.orientation.tolist())), "refined")


def _refined_fans(pts: list[Point], xs: np.ndarray, ys: np.ndarray, starts: np.ndarray) -> Antennas:
    """The hubs of every full cell at once, as :func:`select_hubs_refined`
    picks them, as one set of unbounded quarter-wedge hubs, four per cell
    in entry order: the form :func:`aim_at_fan` reads.  ``pts`` holds the
    cells' points cell by cell, lexicographic within a cell, cell g's at
    ``starts[g]`` up to ``starts[g + 1]``, and xs, ys are their
    coordinates; the hull candidates of all cells are prefiltered in one
    pass, and one kernel call orders the far points of every cell."""
    keep = _hull_candidates(xs, ys, starts).tolist()
    quads = []
    for lo, hi in zip(starts.tolist(), starts[1:].tolist()):
        where = {id(pts[i]): i for i in range(lo, hi) if keep[i]}  # convex_hull returns the objects given
        hull = [where[id(p)] for p in convex_hull([pts[i] for i in where.values()])]
        edges = list(zip(hull, hull[1:] + hull[:1]))  # a segment gives both directions
        length = [squared_distance(pts[i], pts[j]) for i, j in edges]
        best = max(length)
        a, b = min(e for e, d in zip(edges, length) if d == best)  # positions order as their points
        pa, pb = pts[a], pts[b]
        for c in range(lo, hi):  # the first point of the closed strip over the base
            pc = pts[c]
            if c == a or c == b or vec_dot_sign(pa, pc, pa, pb) < 0 or vec_dot_sign(pb, pc, pa, pb) > 0:
                continue
            if orientation_sign(pa, pb, pc) >= 0:
                break
        else:
            raise ValueError("no point over the longest hull edge; cell is not full")
        d = next(i for i in range(lo, lo + 4) if i != a and i != b and i != c)
        quads.append((a, b, min(c, d), max(c, d)))
    a, b, p, q = np.array(quads, dtype=np.intp).T
    # dot(q - p, b - a); on a tie the lexicographically larger q goes first
    ahead = _cross_signs(xs[p], ys[p], xs[q], ys[q], ys[b], xs[a], ys[a], xs[b]) >= 0
    slots, orientation = _fans(xs, ys, a, b, p, q, ahead)
    at = slots.ravel()
    hubs = tuple([pts[i] for i in at.tolist()])
    return _antennas_at(hubs, xs[at], ys[at], orientation.ravel(), QUARTER_TURN, math.inf)


# ---------------------------------------------------------------------------
# Closest full cell along the unit-disk graph
# ---------------------------------------------------------------------------


def full_cell_labels(grid: GridPartition, udg: CommGraph) -> dict[Point, tuple[int, int]]:
    """For every reachable point, the cell of its nearest full-cell point.

    Distance is hop count in the unit-disk graph; among all full-cell
    points at minimal distance the smallest cell index wins, so the
    result is independent of traversal order.  The graph's vertices must
    be the grid's points, in the same order.
    """
    full = grid.full_cells()
    word = _label_ranks(grid, udg)
    return {p: full[k] for p, k in zip(udg.vertices, word.tolist()) if k < len(full)}


def _label_ranks(grid: GridPartition, udg: CommGraph) -> np.ndarray:
    """Per vertex, the rank among the full cells of its label in
    :func:`full_cell_labels`, or the number of full cells if unreached."""
    if udg.vertices != grid.points:
        raise ValueError("graph and grid disagree on the points")
    rank = grid._full_rank()
    unreached = int(rank.max()) + 1
    word = rank[grid.cell]
    if not unreached:
        raise ValueError("no full cell")
    word[word < 0] = unreached
    # a hop per step: a point first reached takes the least rank of the
    # neighbours reached a level before, and keeps it (rank order is cell
    # order, as the keys are sorted)
    while True:
        new = np.where(word < unreached, word, _level_step(udg, word, np.minimum))
        if np.array_equal(new, word):
            return word
        word = new


# ---------------------------------------------------------------------------
# The replacement itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplacementResult:
    """One antenna per input point (same order), plus how it was built."""

    configs: Antennas
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
    pts = tuple(points)
    xs, ys = _coords(pts)
    udg = _udg(pts, xs, ys)
    if not is_connected(udg):
        raise ValueError("unit-disk graph is not connected")
    grid = _grid(pts, xs, ys)
    # each point's fan: its own full cell's, else (-1) its stray group's
    fan_of = grid._full_rank()[grid.cell]
    if (fan_of < 0).all():
        # without a full cell a connected unit-disk graph stays in one
        # cell (a unit-step walk out of the first cell fills a cell on the
        # way), so at most three points, all in range of one another, and
        # one connected cluster suffices
        configs = Antennas(pts, orient_cluster(pts), QUARTER_TURN, REPLACEMENT_RANGE)
        return ReplacementResult(configs=configs, mode="small", grid=grid)

    size = np.diff(grid.starts)
    full = size >= FULL_CELL_MIN
    # the full cells' points cell by cell, lexicographic within a cell
    at = np.lexsort((ys, xs, grid.cell))[np.repeat(full, size)]
    starts = np.append(0, np.cumsum(size[full]))
    if mode == "basic":  # the fans of each cell's four least points
        hubs = _quadruplet_fans(pts, xs, ys, at[starts[:-1, None] + np.arange(4)])
    else:
        hubs = _refined_fans([pts[i] for i in at.tolist()], xs[at], ys[at], starts)
    stray = np.flatnonzero(fan_of < 0)
    if len(stray):
        word = _label_ranks(grid, udg)
        if mode == "basic":
            fan_of[stray] = word[stray]
        else:
            # a group takes the label of its lexicographically least point
            lex_rank = np.empty(len(pts), np.intp)
            lex_rank[_lex_order(xs, ys)] = np.arange(len(pts))
            for comp in components(udg, stray.tolist()):
                fan_of[comp] = word[comp[int(np.argmin(lex_rank[comp]))]]

    aims = _aim_at(hubs, xs, ys, fan_of)
    return ReplacementResult(Antennas(pts, aims, QUARTER_TURN, REPLACEMENT_RANGE), mode, grid)


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
