"""Symmetric communication graphs of sector antennas.

An antenna hears another only if each lies inside the other's wedge, so
the graph is undirected by construction.  Antennas come as a
:class:`~sectornet.geometry.Antennas` set, or as a sequence of
:class:`~sectornet.geometry.AntennaConfig` rows that is turned into one
on entry; both are validated and normalized when they are built, so
their columns are used as they are.  This module wraps the edges that
:mod:`~sectornet.geometry` decides into that graph, over the antennas'
coordinate columns.  It owns the graph core the package shares (a
sorted, read-only edge array; connectivity and components hooked
straight off that array; its CSR rows and one array level step behind
the package's breadth-first traversals), and provides the analysis of
two antenna groups: finding a mutually-covering pair across them, and
classifying a linearly separated pair by how many antennas of each side
cover the other side, counted over the coverage hits geometry returns.
The search for non-separated pairs with no such edge is a test oracle
and lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import (
    AntennaConfig,
    HalfPlane,
    Point,
    _antennas,
    _coords,
    _coverage_hits,
    _lex_order,
    _mutual_edges,
    _points,
    containment_matrix,
)


class CommGraph:
    """Immutable undirected graph over points.

    ``x`` and ``y`` are read-only float arrays of the vertex coordinates,
    ``vertices`` their points (those given, else built on first use), and
    ``edges`` a read-only (E, 2) integer array of vertex indices with
    i < j on every row, the rows in row-major (lexicographic) order.
    """

    def __init__(self, vertices: Iterable[Point], edges: np.ndarray) -> None:
        vertices = tuple(vertices)
        self.__dict__.update(_graph(*_coords(vertices), edges).__dict__, vertices=vertices)

    def __setattr__(self, name, value):
        raise AttributeError("CommGraph is immutable")

    __delattr__ = __setattr__

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return _points(self.x, self.y)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices)``, built on first use: vertex v's row
        ``indices[indptr[v]:indptr[v + 1]]`` is v and its neighbours, ascending."""
        n = len(self.x)
        i, j = self.edges.T
        keys = np.sort(np.concatenate((i * n + j, j * n + i, np.arange(n) * (n + 1))))
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)  # keys are source * n + target
        indices = keys % n
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices


def _graph(xs: np.ndarray, ys: np.ndarray, edges: np.ndarray) -> CommGraph:
    """The column constructor: the graph over the points (xs, ys)."""
    for a in (xs, ys, edges):
        a.flags.writeable = False
    g = object.__new__(CommGraph)
    g.__dict__.update(x=xs, y=ys, edges=edges)
    return g


def build_scg(configs: Sequence[AntennaConfig]) -> CommGraph:
    """The symmetric graph: an edge wherever coverage is mutual."""
    ants = _antennas(configs)
    _lex_order(ants.x, ants.y)  # raises on duplicate locations
    return _graph(ants.x, ants.y, _mutual_edges(ants))


def _level_step(g: CommGraph, word: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """One level of a breadth-first search on arrays: each vertex's word
    combined by ``ufunc`` with its neighbours', one ``reduceat`` over the
    CSR rows (never empty, as each row holds its own vertex)."""
    indptr, indices = g.csr
    return ufunc.reduceat(word[indices], indptr[:-1])


def _roots(g: CommGraph, inside: np.ndarray) -> np.ndarray:
    """Each vertex's least vertex in its component of the subgraph induced
    on the vertices ``inside`` (a mask), read off the edge list: every
    round hooks the larger of two roots an edge still joins under the
    smaller (``np.minimum.at``), then jumps pointers until each vertex
    points at its root.  Pointers only fall, so they never cycle, and an
    edge whose ends share a root is dropped for good."""
    i, j = g.edges.T
    keep = inside[i] & inside[j]
    i, j = i[keep], j[keep]
    root = np.arange(len(g.x))
    while True:
        ri, rj = root[i], root[j]
        apart = ri != rj
        if not apart.any():
            return root
        i, j, ri, rj = i[apart], j[apart], ri[apart], rj[apart]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def is_connected(g: CommGraph) -> bool:
    return not _roots(g, np.ones(len(g.x), dtype=bool)).any()


def components(g: CommGraph, members: Sequence[int]) -> list[list[int]]:
    """Connected components of the subgraph induced on ``members``, as
    sorted index lists in order of their first member."""
    m = np.asarray(members, dtype=np.intp)
    inside = np.zeros(len(g.x), bool)
    inside[m] = True
    verts = np.flatnonzero(inside)
    root = _roots(g, inside)
    found: dict[int, list[int]] = {}
    for v, k in zip(verts.tolist(), root[verts].tolist()):
        found.setdefault(k, []).append(v)
    return [found[k] for k in dict.fromkeys(root[m].tolist())]


def find_mutual_cover_pair(
    side_a: Sequence[AntennaConfig], side_b: Sequence[AntennaConfig]
) -> Optional[tuple[Point, Point]]:
    """First pair (a, b), scanning in input order, with mutual coverage.

    These are exactly the cross-group edges of the symmetric graph, so a
    ``None`` means the two groups sit in different components when no
    other antennas exist.  Coincident locations never pair up.
    """
    a, b = _antennas(side_a), _antennas(side_b)
    at_a, at_b = np.stack((a.x, a.y), axis=1), np.stack((b.x, b.y), axis=1)
    mutual = containment_matrix(a, at_b) & containment_matrix(b, at_a).T
    mutual &= (at_a[:, None, :] != at_b[None, :, :]).any(axis=2)
    hits = np.argwhere(mutual)  # row-major: the input-order scan
    if not len(hits):
        return None
    i, j = hits[0]
    return a.locations[i], b.locations[j]


#: Largest sub-group :func:`halfplane_cover_number` tries.
_MAX_COVER_SIZE = 4


def halfplane_cover_number(
    configs: Sequence[AntennaConfig], hp: HalfPlane
) -> Optional[int]:
    """Size of the smallest sub-group whose wedges cover the half-plane,
    each decided on the test points of the whole group's arrangement."""
    ants = _antennas(configs)
    if any(map(math.isfinite, ants.range.tolist())):
        raise ValueError("half-plane coverage needs unbounded ranges")
    hit = _coverage_hits(ants, hp)[1]
    for k in range(1, _MAX_COVER_SIZE + 1):
        for subset in itertools.combinations(range(len(configs)), k):
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
    a, b = _antennas(side_a), _antennas(side_b)
    if (separator.value(a.x, a.y) > _SEPARATOR_TOL).any():
        raise ValueError("separator does not have side A outside it")
    if (separator.value(b.x, b.y) < -_SEPARATOR_TOL).any():
        raise ValueError("separator does not contain side B")
    flipped = HalfPlane(-separator.nx, -separator.ny, -separator.c)
    x_a = halfplane_cover_number(a, separator)
    x_b = halfplane_cover_number(b, flipped)
    if x_a not in (2, 3) or x_b not in (2, 3):
        raise ValueError(f"unexpected cover numbers ({x_a}, {x_b})")
    return (1 if 2 in (x_a, x_b) else 2), x_a, x_b
