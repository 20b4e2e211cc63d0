"""Power assignment: wedges plus per-antenna ranges of bounded total cost.

The cost of transmitting to radius r grows like r**beta (beta >= 1, the
distance-power gradient).  The construction orders the points along a
traveling-salesman tour (preorder walk of a minimum spanning tree, a
classic 2-approximation), cuts the tour into consecutive sections of
eight, splits each section by a vertical line into two quadruplets plus
stragglers, orients each side as a perpendicular fan, and gives every
point enough range to reach everything in its own and the two adjacent
sections.  Adjacent sections then always attach to each other (one of
the two vertical separators separates a left half from a right half of
the neighbor), the graph is connected, and every range is bounded by a
fixed multiple of the longest tour edge in a three-section window --
which is what caps the total cost at a constant times the optimum for
connectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import Point, distance, squared_distance
from .orientation import aim_at_fan, orient_cluster, orient_quadruplet
from .scg import AntennaConfig


def beta_edge_weight(p: Point, q: Point, beta: float) -> float:
    """Cost of a direct link between p and q: distance to the power beta."""
    if beta < 1:
        raise ValueError("distance-power gradient must be at least 1")
    return distance(p, q) ** beta


# ---------------------------------------------------------------------------
# Minimum spanning tree and tour
# ---------------------------------------------------------------------------


def _squared_distance_matrix(points: Sequence[Point]) -> np.ndarray:
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    return dx * dx + dy * dy


def mst_edges(points: Sequence[Point]) -> list[tuple[int, int]]:
    """Prim's minimum spanning tree on the complete Euclidean graph.

    The tree does not depend on beta: raising distances to a fixed power
    is monotone, so the squared-distance tree is the r**beta tree for
    every beta.  Ties go to the lowest-numbered vertex, which pins the
    tree (and everything downstream of it) for equal inputs.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    n = len(pts)
    if n < 2:
        return []
    d2 = _squared_distance_matrix(pts)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d2[0].copy()
    parent = np.zeros(n, dtype=int)
    edges: list[tuple[int, int]] = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        nxt = int(np.argmin(masked))
        in_tree[nxt] = True
        edges.append((int(parent[nxt]), nxt))
        closer = ~in_tree & (d2[nxt] < best)
        parent[closer] = nxt
        best[closer] = d2[nxt][closer]
    return edges


def mst_cost(points: Sequence[Point], beta: float) -> float:
    """Total r**beta weight of the minimum spanning tree."""
    if beta < 1:
        raise ValueError("distance-power gradient must be at least 1")
    pts = list(points)
    return sum(distance(pts[i], pts[j]) ** beta for i, j in mst_edges(pts))


@dataclass(frozen=True)
class Tour:
    """A cyclic visiting order (each point exactly once)."""

    order: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.order)


def tour_power_cost(tour: Tour, beta: float) -> float:
    """Sum of r**beta over the cyclic tour edges (including the closing one)."""
    if beta < 1:
        raise ValueError("distance-power gradient must be at least 1")
    pts = tour.order
    n = len(pts)
    if n < 2:
        return 0.0
    return sum(distance(pts[i], pts[(i + 1) % n]) ** beta for i in range(n))


def tsp_tour_approx(points: Sequence[Point]) -> Tour:
    """Preorder walk of the minimum spanning tree (tour length at most
    twice optimal by the usual doubling argument).

    Canonical form: starts at the lexicographically smallest point,
    children explored in coordinate order, and the direction flipped if
    needed so the second point precedes the last one lexicographically.
    """
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    order_idx = sorted(range(len(pts)), key=lambda i: pts[i].as_tuple())
    pts = [pts[i] for i in order_idx]  # root (index 0) is the lex smallest
    adj: dict[int, list[int]] = {i: [] for i in range(len(pts))}
    for i, j in mst_edges(pts):
        adj[i].append(j)
        adj[j].append(i)
    for nbrs in adj.values():
        nbrs.sort(key=lambda i: pts[i].as_tuple(), reverse=True)
    walk: list[Point] = []
    seen = [False] * len(pts)
    stack = [0]
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        walk.append(pts[u])
        stack.extend(adj[u])
    if len(walk) >= 3 and walk[1].as_tuple() > walk[-1].as_tuple():
        walk = [walk[0]] + walk[:0:-1]
    return Tour(tuple(walk))


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """A consecutive run of tour points split by a vertical line.

    ``members`` keeps tour order; ``left`` and ``right`` are sorted by
    (x, y, tour position), with the left half taking the ceiling when
    the size is odd so both halves hold at least four points.
    """

    members: tuple[Point, ...]
    left: tuple[Point, ...]
    right: tuple[Point, ...]
    separator_x: float


def split_section(members: Sequence[Point]) -> Section:
    mem = tuple(members)
    if len(mem) < 8:
        raise ValueError("a section needs at least 8 points")
    ranked = sorted(range(len(mem)), key=lambda k: (mem[k].x, mem[k].y, k))
    half = (len(mem) + 1) // 2
    left = tuple(mem[k] for k in ranked[:half])
    right = tuple(mem[k] for k in ranked[half:])
    separator = 0.5 * (left[-1].x + right[0].x)
    return Section(mem, left, right, separator)


def make_sections(tour: Tour) -> list[Section]:
    """Cut the tour into floor(n/8) consecutive sections of eight, the
    last absorbing any remainder (size 8 to 15)."""
    n = len(tour)
    if n < 8:
        raise ValueError("instance too small: need at least 8 points")
    start = min(range(n), key=lambda i: tour.order[i].as_tuple())
    cyc = tour.order[start:] + tour.order[:start]
    m = n // 8
    sizes = [8] * m
    sizes[-1] += n % 8
    sections = []
    at = 0
    for s in sizes:
        sections.append(split_section(cyc[at : at + s]))
        at += s
    return sections


# ---------------------------------------------------------------------------
# The assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerAssignment:
    """Orientation and range per point; cost is always recomputed."""

    beta: float
    entries: tuple[tuple[Point, float, float], ...]  # (point, orientation, radius)

    @property
    def cost(self) -> float:
        return sum(r**self.beta for _, _, r in self.entries)

    def configs(self) -> list[AntennaConfig]:
        return [AntennaConfig(p, ang, range=r) for p, ang, r in self.entries]

    def radius_of(self, p: Point) -> float:
        for q, _, r in self.entries:
            if q == p:
                return r
        raise KeyError(f"no entry for {p}")


def orient_and_assign(points: Sequence[Point], beta: float) -> PowerAssignment:
    """Orientations plus ranges giving a connected symmetric graph.

    Each section's left half hangs off its four leftmost points and the
    right half off its four rightmost, oriented as perpendicular fans;
    the vertical separator keeps each pair of fans linked, and ranges
    reaching the whole three-section window link adjacent sections.
    Fewer than eight points fall back to a single cluster whose ranges
    span its diameter.
    """
    if beta < 1:
        raise ValueError("distance-power gradient must be at least 1")
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")

    if len(pts) < 8:
        oris = orient_cluster(pts)
        diameter = max(
            (distance(p, q) for p in pts for q in pts), default=0.0
        )
        return PowerAssignment(
            beta, tuple((p, oris[p], diameter) for p in pts)
        )

    tour = tsp_tour_approx(pts)
    sections = make_sections(tour)
    m = len(sections)

    orientation: dict[Point, float] = {}
    for sec in sections:
        orientation.update(aim_at_fan(orient_quadruplet(sec.left[:4]), sec.left))
        orientation.update(aim_at_fan(orient_quadruplet(sec.right[-4:]), sec.right))

    radius: dict[Point, float] = {}
    for i, sec in enumerate(sections):
        window = set(sections[(i - 1) % m].members) | set(sec.members) | set(
            sections[(i + 1) % m].members
        )
        for p in sec.members:
            radius[p] = max(distance(p, q) for q in window)

    return PowerAssignment(beta, tuple((p, orientation[p], radius[p]) for p in pts))


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


class CostChainReport(NamedTuple):
    ok: bool
    pointwise_ok: bool
    total_ok: bool
    max_index_gap: int
    cost: float
    tour_cost: float
    mst_cost: float
    cost_over_tour: float
    cost_over_mst: float


def cost_chain_check(pa: PowerAssignment, tour: Tour) -> CostChainReport:
    """Audit the two-step cost bound of an assignment against its tour.

    Pointwise: every radius is at most (window index gap) times the
    longest tour edge in its three-section window, where the index gap
    is the largest number of tour steps from the point to anything in
    the window -- exactly 15 when all sections have eight points.
    Total: the assignment cost is at most
    ``S * G**beta * 3 * tour_cost`` with S the largest section size and
    G the largest index gap (8 * 15**beta * 3 when n is a multiple of
    8), since every tour edge lands in at most three windows.
    """
    n = len(tour)
    sections = make_sections(tour)
    if {p for p, _, _ in pa.entries} != set(tour.order):
        raise ValueError("assignment and tour disagree on the points")
    radius = {p: r for p, _, r in pa.entries}
    m = len(sections)
    offsets = []
    at = 0
    for sec in sections:
        offsets.append(at)
        at += len(sec.members)
    cyc = []
    for sec in sections:
        cyc.extend(sec.members)

    def window_positions(i: int) -> list[int]:
        if m <= 2:
            start = offsets[(i - 1) % m]
            return [(start + t) % n for t in range(n)]
        start = offsets[(i - 1) % m]
        length = sum(
            len(sections[(i + d) % m].members) for d in (-1, 0, 1)
        )
        return [(start + t) % n for t in range(length)]

    pointwise_ok = True
    max_gap = 0
    eps = 1e-9
    for i, sec in enumerate(sections):
        pos = window_positions(i)
        max_edge = max(
            distance(cyc[pos[t]], cyc[pos[t + 1]]) for t in range(len(pos) - 1)
        )
        if len(pos) == n:  # window wraps the whole cycle
            max_edge = max(max_edge, distance(cyc[pos[-1]], cyc[pos[0]]))
        where = {cyc[q]: t for t, q in enumerate(pos)}
        for p in sec.members:
            gap = max(where[p], len(pos) - 1 - where[p])
            max_gap = max(max_gap, gap)
            if radius[p] > gap * max_edge + eps:
                pointwise_ok = False

    if n % 8 == 0 and max_gap > 15:
        pointwise_ok = False  # the fixed-size argument must give exactly 15

    tour_cost = tour_power_cost(tour, pa.beta)
    tree_cost = mst_cost(list(tour.order), pa.beta)
    biggest = max(len(sec.members) for sec in sections)
    if n % 8 == 0:
        bound = 8 * 15**pa.beta * 3 * tour_cost
    else:
        bound = biggest * max_gap**pa.beta * 3 * tour_cost
    cost = pa.cost
    total_ok = cost <= bound * (1 + 1e-12) + eps
    return CostChainReport(
        ok=pointwise_ok and total_ok,
        pointwise_ok=pointwise_ok,
        total_ok=total_ok,
        max_index_gap=max_gap,
        cost=cost,
        tour_cost=tour_cost,
        mst_cost=tree_cost,
        cost_over_tour=cost / tour_cost if tour_cost else math.inf,
        cost_over_mst=cost / tree_cost if tree_cost else math.inf,
    )
