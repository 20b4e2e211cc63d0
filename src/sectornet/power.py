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
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import AntennaConfig, Point, distance
from .orientation import aim_at_fan, orient_cluster, orient_quadruplet


# ---------------------------------------------------------------------------
# Minimum spanning tree and tour
# ---------------------------------------------------------------------------


def mst_edges(points: Sequence[Point]) -> list[tuple[int, int]]:
    """Prim's minimum spanning tree on the complete Euclidean graph.

    (parent, child) pairs in the order the tree grows from vertex 0;
    each joining vertex adds one row of squared distances, so memory is
    O(n).  The tree does not depend on beta: raising distances to a fixed
    power is monotone.  Ties go to the lowest-numbered vertex, which pins
    the tree (and everything downstream of it) for equal inputs.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    n = len(pts)
    if n < 2:
        return []
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)  # in-tree vertices stay at inf
    parent = np.zeros(n, dtype=int)
    edges: list[tuple[int, int]] = []
    nxt = 0
    for _ in range(n - 1):
        in_tree[nxt] = True
        dx = xs[nxt] - xs
        dy = ys[nxt] - ys
        row = dx * dx + dy * dy
        closer = ~in_tree & (row < best)
        parent[closer] = nxt
        best[closer] = row[closer]
        nxt = int(np.argmin(best))
        best[nxt] = np.inf
        edges.append((int(parent[nxt]), nxt))
    return edges


def mst_cost(points: Sequence[Point], beta: float) -> float:
    """Total r**beta weight of the minimum spanning tree."""
    if beta < 1:
        raise ValueError("distance-power gradient must be at least 1")
    pts = list(points)
    return sum(distance(pts[i], pts[j]) ** beta for i, j in mst_edges(pts))


@dataclass(frozen=True)
class Tour:
    """A cyclic visiting order (each point exactly once) and the minimum
    spanning tree it was walked from: (parent, child) pairs in Prim order."""

    order: tuple[Point, ...]
    tree: tuple[tuple[Point, Point], ...]

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
    edges = mst_edges(pts)
    for i, j in edges:
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
    return Tour(tuple(walk), tuple((pts[i], pts[j]) for i, j in edges))


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _sections(tour: Tour) -> list[tuple[Point, ...]]:
    """The tour cut, from its lexicographically smallest point, into
    max(1, floor(n/8)) consecutive runs of eight, the last taking the
    remainder (a single run below 16 points)."""
    n = len(tour)
    start = min(range(n), key=lambda i: tour.order[i].as_tuple())
    cyc = tour.order[start:] + tour.order[:start]
    m = max(1, n // 8)
    return [cyc[8 * i : 8 * i + 8] for i in range(m - 1)] + [cyc[8 * (m - 1) :]]


def _windows(groups: Sequence[tuple[Point, ...]]) -> list[tuple[Point, ...]]:
    """Each section's window, in cyclic tour order from the previous
    section through the next (the whole cycle for at most two)."""
    m = len(groups)
    steps = (-1, 0, 1) if m >= 3 else range(-1, m - 1)
    return [tuple(p for d in steps for p in groups[(i + d) % m]) for i in range(m)]


# ---------------------------------------------------------------------------
# The assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerAssignment:
    """Orientation and range per point; cost is always recomputed."""

    beta: float
    entries: tuple[tuple[Point, float, float], ...]  # (point, orientation, radius)

    def __post_init__(self) -> None:
        if self.beta < 1:
            raise ValueError("distance-power gradient must be at least 1")

    @property
    def cost(self) -> float:
        return sum(r**self.beta for _, _, r in self.entries)

    def configs(self) -> list[AntennaConfig]:
        return [AntennaConfig(p, ang, range=r) for p, ang, r in self.entries]


def orient_and_assign(points: Sequence[Point], beta: float) -> PowerAssignment:
    """Orientations plus ranges giving a connected symmetric graph.

    Each section is sorted by (x, y) and split into a left half, which
    takes the ceiling so both halves hold at least four points, and a
    right half.  The left half hangs off its four leftmost points and
    the right half off its four rightmost, oriented as perpendicular
    fans; a vertical line between the halves keeps each pair of fans
    linked, and ranges reaching the whole three-section window link
    adjacent sections.  Fewer than eight points fall back to a single
    cluster whose ranges span its diameter.  At least two distinct
    points are needed: a lone antenna would get range 0.
    """
    if beta < 1:
        raise ValueError("distance-power gradient must be at least 1")
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("power assignment needs at least two points")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")

    if len(pts) < 8:
        oris = orient_cluster(pts)
        diameter = max(distance(p, q) for p in pts for q in pts)
        return PowerAssignment(
            beta, tuple((p, oris[p], diameter) for p in pts)
        )

    sections = _sections(tsp_tour_approx(pts))
    orientation: dict[Point, float] = {}
    for members in sections:
        ranked = sorted(members, key=Point.as_tuple)
        half = (len(ranked) + 1) // 2
        left, right = ranked[:half], ranked[half:]
        orientation.update(aim_at_fan(orient_quadruplet(left[:4]), left))
        orientation.update(aim_at_fan(orient_quadruplet(right[-4:]), right))
    radius = _window_radii(sections, _windows(sections))

    return PowerAssignment(beta, tuple((p, orientation[p], radius[p]) for p in pts))


#: Rows whose largest squared distance lies outside [2**-900, 2**900]
#: may have lost entries to underflow or overflow; they skip the filter.
_D2_SAFE = (2.0**-900, 2.0**900)


def _window_radii(
    sections: Sequence[tuple[Point, ...]], windows: Sequence[tuple[Point, ...]]
) -> dict[Point, float]:
    """Each member's largest ``distance`` to its section's window.

    The squared distances of all (member, window point) pairs come in one
    array pass, each window padded to the longest by repeating its first
    point.  ``math.hypot`` then runs on the same float dx, dy, but only
    for the entries whose squared distance is at least (1 - 1e-12) times
    the row's largest: hypot errs by under 1 ulp and the float square by
    a few, so no entry below that cut can hold the maximum.
    """
    width = max(map(len, windows))
    wx = np.array([[q.x for q in w] + [w[0].x] * (width - len(w)) for w in windows])
    wy = np.array([[q.y for q in w] + [w[0].y] * (width - len(w)) for w in windows])
    members = [p for group in sections for p in group]
    row = np.repeat(np.arange(len(sections)), [len(group) for group in sections])
    dx = np.array([p.x for p in members])[:, None] - wx[row]
    dy = np.array([p.y for p in members])[:, None] - wy[row]
    d2 = dx * dx + dy * dy
    top = d2.max(axis=1)
    keep = d2 >= (top * (1 - 1e-12))[:, None]
    keep[(top < _D2_SAFE[0]) | (top > _D2_SAFE[1])] = True
    rows, cols = np.nonzero(keep)
    hyp = np.array(list(map(math.hypot, dx[rows, cols].tolist(), dy[rows, cols].tolist())))
    starts = np.searchsorted(rows, np.arange(len(members)))
    return dict(zip(members, np.maximum.reduceat(hyp, starts).tolist()))


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
    the window.  The largest gap G depends only on the section sizes: it
    is n - 1 below 16 points (one section, whose window is the cycle),
    so 7 at n = 8, and 15 + (n mod 8) from 16 points on, so 15 when all
    sections have eight points.  Total: the assignment cost
    is at most ``S * G**beta * 3 * tour_cost`` with S the largest
    section size, since every tour edge lands in at most three windows
    (8 * 15**beta * 3 when n >= 16 is a multiple of 8).

    Under eight points the one cluster gets the diameter, which is at
    most floor(n/2), the least gap, times the longest tour edge.
    ``mst_cost`` sums over ``tour.tree``; without tied distances that is
    ``mst_cost(tour.order)`` bit for bit, with ties possibly another
    tree of equal weight.
    """
    n = len(tour)
    if n < 2:
        raise ValueError("cost chain needs at least two points")
    if {p for p, _, _ in pa.entries} != set(tour.order):
        raise ValueError("assignment and tour disagree on the points")
    radius = {p: r for p, _, r in pa.entries}
    sections = _sections(tour)

    pointwise_ok = True
    max_gap = 0
    eps = 1e-9
    for members, window in zip(sections, _windows(sections)):
        steps = [distance(p, q) for p, q in zip(window, window[1:])]
        if len(window) == n:  # window wraps the whole cycle
            steps.append(distance(window[-1], window[0]))
        max_edge = max(steps)
        where = {q: t for t, q in enumerate(window)}
        for p in members:
            gap = max(where[p], len(window) - 1 - where[p])
            max_gap = max(max_gap, gap)
            if radius[p] > gap * max_edge + eps:
                pointwise_ok = False

    tour_cost = tour_power_cost(tour, pa.beta)
    tree_cost = sum(distance(p, q) ** pa.beta for p, q in tour.tree)
    biggest = max(len(members) for members in sections)
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
