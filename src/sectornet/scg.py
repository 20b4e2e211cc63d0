"""Symmetric communication graphs of sector antennas.

An antenna hears another only if each lies inside the other's wedge, so
the graph is undirected by construction.  This module builds that graph,
owns the graph core the package shares (turning a symmetric adjacency
matrix into a sorted edge array, cached neighbour lists, and one
breadth-first search behind connectivity and components), and provides
the analysis of two antenna groups: finding a mutually-covering pair
across them, and classifying a linearly separated pair by how many
antennas of each side cover the other side.  The search for
non-separated pairs with no such edge is a test oracle and lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import (
    QUARTER_TURN,
    HalfPlane,
    Point,
    Wedge,
    _halfplane_test_points,
    containment_matrix,
)
from .orientation import OrientationAssignment


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


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Undirected graph over antenna locations.

    ``edges`` is a read-only (E, 2) integer array of vertex indices with
    i < j on every row, the rows in row-major (lexicographic) order.
    """

    vertices: tuple[Point, ...]
    edges: np.ndarray

    @cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Ascending adjacency lists of Python ints, built on first use;
        callers must not mutate them."""
        adj: list[list[int]] = [[] for _ in self.vertices]
        for i, j in self.edges.tolist():
            adj[i].append(j)
            adj[j].append(i)
        return adj


def _graph_from_matrix(vertices: Sequence[Point], adjacent: np.ndarray) -> CommGraph:
    """The graph whose edges are the true entries of a symmetric boolean
    matrix, as a read-only array of index pairs (i < j) in row-major order."""
    edges = np.argwhere(np.triu(adjacent, 1))
    edges.flags.writeable = False
    return CommGraph(tuple(vertices), edges)


def build_scg(configs: Sequence[AntennaConfig]) -> CommGraph:
    """The symmetric graph: an edge wherever coverage is mutual."""
    locations = [c.location for c in configs]
    if len(set(locations)) != len(locations):
        raise ValueError("duplicate antenna locations")
    wedges = [c.wedge() for c in configs]
    M = containment_matrix(wedges, locations)
    return _graph_from_matrix(locations, M & M.T)


def bfs(adj: list[list[int]], sources: Iterable[int], dist: list[float]) -> list[int]:
    """Breadth-first search from ``sources`` through the vertices whose
    ``dist`` is still infinite.

    Writes into ``dist`` each reached vertex's hop count from the nearest
    source and returns the reached vertices in FIFO discovery order:
    the sources in increasing order, then each vertex as it is first
    reached, so distances never decrease along the list.  With ascending
    neighbour lists that order depends only on the graph and the source
    set.  A vertex the caller marks with a finite ``dist`` beforehand is
    never entered.
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


def is_connected(g: CommGraph) -> bool:
    if not g.vertices:
        return True
    n = len(g.vertices)
    return len(bfs(g.neighbor_lists, [0], [math.inf] * n)) == n


def components(g: CommGraph, members: Sequence[int]) -> list[list[int]]:
    """Connected components of the subgraph induced on ``members``, as
    sorted index lists in order of their first member."""
    dist = [0.0] * len(g.vertices)  # non-members count as already reached
    for i in members:
        dist[i] = math.inf
    return [sorted(bfs(g.neighbor_lists, [s], dist)) for s in members if dist[s] == math.inf]


def find_mutual_cover_pair(
    side_a: Sequence[AntennaConfig], side_b: Sequence[AntennaConfig]
) -> Optional[tuple[Point, Point]]:
    """First pair (a, b), scanning in input order, with mutual coverage.

    These are exactly the cross-group edges of the symmetric graph, so a
    ``None`` means the two groups sit in different components when no
    other antennas exist.  Coincident locations never pair up.
    """
    locs_a = [c.location for c in side_a]
    locs_b = [c.location for c in side_b]
    mutual = (
        containment_matrix([c.wedge() for c in side_a], locs_b)
        & containment_matrix([c.wedge() for c in side_b], locs_a).T
    )
    mutual &= np.array([[a != b for b in locs_b] for a in locs_a], bool).reshape(mutual.shape)
    hits = np.argwhere(mutual)  # row-major: the input-order scan
    if not len(hits):
        return None
    i, j = hits[0]
    return locs_a[i], locs_b[j]


#: Largest sub-group :func:`halfplane_cover_number` tries.
_MAX_COVER_SIZE = 4


def halfplane_cover_number(
    configs: Sequence[AntennaConfig], hp: HalfPlane
) -> Optional[int]:
    """Size of the smallest sub-group whose wedges cover the half-plane,
    each decided on the test points of the whole group's arrangement."""
    wedges = [c.wedge() for c in configs]
    hit = containment_matrix(wedges, _halfplane_test_points(wedges, hp))
    for k in range(1, _MAX_COVER_SIZE + 1):
        for subset in itertools.combinations(range(len(wedges)), k):
            if hit[list(subset)].any(axis=0).all():
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
