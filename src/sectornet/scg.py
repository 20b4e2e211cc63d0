"""Symmetric communication graphs of sector antennas.

An antenna hears another only if each lies inside the other's wedge, so
the graph is undirected by construction.  This module builds that graph,
owns the graph core the package shares (turning a symmetric adjacency
matrix into edges, and one breadth-first search behind connectivity,
hop distances and components), and provides the two analysis tools
used throughout: finding a mutually-covering pair across two antenna
groups, and searching for point sets witnessing that such a pair can
fail to exist once the two groups are not linearly separable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .geometry import (
    QUARTER_TURN,
    HalfPlane,
    Point,
    Wedge,
    containment_matrix,
    halfplane_covered,
    weakly_separable,
)
from .orientation import OrientationAssignment, orient_quadruplet
from .rng import SplitMix64


@dataclass(frozen=True)
class AntennaConfig:
    """A placed antenna: location plus the wedge parameters."""

    location: Point
    orientation: float
    aperture: float = QUARTER_TURN
    range: float = math.inf

    def wedge(self) -> Wedge:
        return Wedge(self.location, self.orientation, self.aperture, self.range)


def configs_from_assignment(
    assignment: OrientationAssignment, range: float = math.inf
) -> list[AntennaConfig]:
    return [
        AntennaConfig(p, ang, assignment.aperture, range)
        for p, ang in assignment.entries
    ]


@dataclass(frozen=True)
class CommGraph:
    """Undirected graph over antenna locations, edges as index pairs (i < j)."""

    vertices: tuple[Point, ...]
    edges: frozenset[tuple[int, int]]

    def neighbor_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def index_of(self, p: Point) -> int:
        for i, q in enumerate(self.vertices):
            if q == p:
                return i
        raise KeyError(f"point {p} is not a vertex")


def _graph_from_matrix(vertices: Sequence[Point], adjacent: np.ndarray) -> CommGraph:
    """The graph whose edges are the true entries of a symmetric boolean
    matrix, as pairs of Python ints (i < j) in row-major order."""
    rows, cols = np.nonzero(np.triu(adjacent, 1))
    return CommGraph(tuple(vertices), frozenset(zip(rows.tolist(), cols.tolist())))


def build_scg(configs: Sequence[AntennaConfig]) -> CommGraph:
    """The symmetric graph: an edge wherever coverage is mutual."""
    locations = [c.location for c in configs]
    if len(set(locations)) != len(locations):
        raise ValueError("duplicate antenna locations")
    wedges = [c.wedge() for c in configs]
    M = containment_matrix(wedges, locations)
    return _graph_from_matrix(locations, M & M.T)


VertexRef = Union[int, Point]


def _as_index(g: CommGraph, v: VertexRef) -> int:
    return g.index_of(v) if isinstance(v, Point) else v


def bfs(adj: list[list[int]], sources: Iterable[int], dist: list[float]) -> list[int]:
    """Breadth-first search from ``sources`` through the vertices whose
    ``dist`` is still infinite.

    Writes into ``dist`` each reached vertex's hop count from the nearest
    source and returns the reached vertices, sources first, in discovery
    order.  Every layer is scanned in increasing vertex order, so that
    order depends only on the graph and the source set.  A vertex the
    caller marks with a finite ``dist`` beforehand is never entered.
    """
    layer = sorted(sources)
    for s in layer:
        dist[s] = 0
    order = list(layer)
    while layer:
        nxt = []
        for u in layer:
            for w in adj[u]:
                if dist[w] == math.inf:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        order += nxt
        layer = sorted(nxt)
    return order


def is_connected(g: CommGraph) -> bool:
    if not g.vertices:
        return True
    n = len(g.vertices)
    return len(bfs(g.neighbor_lists(), [0], [math.inf] * n)) == n


def hop_distance(g: CommGraph, u: VertexRef, v: VertexRef) -> Union[int, float]:
    """Minimum number of edges between two vertices, ``inf`` if disconnected."""
    ui, vi = _as_index(g, u), _as_index(g, v)
    dist = [math.inf] * len(g.vertices)
    bfs(g.neighbor_lists(), [ui], dist)
    d = dist[vi]
    return int(d) if math.isfinite(d) else math.inf


def components(g: CommGraph, members: Sequence[int]) -> list[list[int]]:
    """Connected components of the subgraph induced on ``members``, as
    sorted index lists in order of their first member."""
    dist = [0.0] * len(g.vertices)  # non-members count as already reached
    for i in members:
        dist[i] = math.inf
    adj = g.neighbor_lists()
    return [sorted(bfs(adj, [s], dist)) for s in members if dist[s] == math.inf]


def find_mutual_cover_pair(
    side_a: Sequence[AntennaConfig], side_b: Sequence[AntennaConfig]
) -> Optional[tuple[Point, Point]]:
    """First pair (a, b), scanning in input order, with mutual coverage.

    These are exactly the cross-group edges of the symmetric graph, so a
    ``None`` means the two groups sit in different components when no
    other antennas exist.
    """
    for ca in side_a:
        wa = ca.wedge()
        for cb in side_b:
            if ca.location == cb.location:
                continue
            if containment_matrix([wa, cb.wedge()], [cb.location, ca.location]).diagonal().all():
                return ca.location, cb.location
    return None


def halfplane_cover_number(
    configs: Sequence[AntennaConfig], hp: HalfPlane, max_size: int = 4
) -> Optional[int]:
    """Size of the smallest sub-group whose wedges cover the half-plane."""
    for k in range(1, max_size + 1):
        for subset in itertools.combinations(configs, k):
            if halfplane_covered([c.wedge() for c in subset], hp).covered:
                return k
    return None


#: Slack when checking which side of the separator each antenna is on.
_SEPARATOR_TOL = 1e-9


def classify_separated_pair(
    side_a: Sequence[AntennaConfig],
    side_b: Sequence[AntennaConfig],
    separator: HalfPlane,
) -> tuple[int, int, int]:
    """Which of the two cross-coverage regimes a separated pair is in.

    ``separator`` is the closed half-plane containing side B.  Let x_a be
    the least number of side-A antennas that jointly cover it, and x_b
    the same for side B against the complementary half-plane.  Both
    numbers are always 2 or 3 for oriented quadruplets; the pair is
    "case 1" when either equals 2 (a couple already reaches across) and
    "case 2" when both are 3.  Returns (case, x_a, x_b).
    """
    for c in side_a:
        if separator.value(c.location.x, c.location.y) > _SEPARATOR_TOL:
            raise ValueError("separator does not have side A outside it")
    for c in side_b:
        if separator.value(c.location.x, c.location.y) < -_SEPARATOR_TOL:
            raise ValueError("separator does not contain side B")
    flipped = HalfPlane(-separator.nx, -separator.ny, -separator.c)
    x_a = halfplane_cover_number(side_a, separator)
    x_b = halfplane_cover_number(side_b, flipped)
    if x_a not in (2, 3) or x_b not in (2, 3):
        raise ValueError(f"unexpected cover numbers ({x_a}, {x_b})")
    return (1 if 2 in (x_a, x_b) else 2), x_a, x_b


# ---------------------------------------------------------------------------
# Searching for a non-separated pair with no cross edge
# ---------------------------------------------------------------------------


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
    trials: int, seed: int, slack: float = 1e-6
) -> Optional[tuple[tuple[Point, ...], tuple[Point, ...]]]:
    """Hunt for two quadruplets that defeat cross-group connectivity.

    Draws structured interleaved starting pairs and locally perturbs one
    point at a time, keeping changes that shrink the total remaining
    cross-pair coverage, until all sixteen pairs fail mutual coverage by
    at least ``slack`` (in length units).  ``trials`` bounds the total
    number of candidate evaluations across restarts.  A returned pair is
    re-verified from scratch: both groups orient successfully, no mutual
    cover pair exists, and the groups are not weakly separable by any
    line.  Returns None if the budget runs out.
    """
    rng = SplitMix64(seed)
    evals = 0
    while evals < trials:
        a, b = _seed_configuration(rng)
        score = _dead_pair_score(a, b, slack)
        evals += 1
        sigma = 0.4
        stall = 0
        while evals < trials and stall < 160:
            which = rng.randrange(8)
            side, idx = (a, which) if which < 4 else (b, which - 4)
            old = side[idx]
            side[idx] = Point(old.x + sigma * rng.gauss(), old.y + sigma * rng.gauss())
            new_score = _dead_pair_score(a, b, slack)
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
