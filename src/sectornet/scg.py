"""Symmetric communication graphs of sector antennas.

An antenna hears another only if each lies inside the other's wedge, so
the graph is undirected by construction.  Antennas come as a
:class:`~sectornet.geometry.Antennas` set, or as a sequence of
:class:`~sectornet.geometry.AntennaConfig` rows that is turned into one
on entry; both are validated and normalized when they are built, so
their columns are used as they are.  This module builds that graph:
from one containment matrix when every wedge is unbounded, and from the
candidate pairs of an x-sorted sweep when some range is finite.  Both
decide a pair with the same angular test and range test of
:mod:`~sectornet.geometry`; the sweep runs the range test once per
pair and reuses its displacement for the angles.  The unit-disk graph
is that sweep's graph of full circles of range 1.  It
owns the graph core the package shares (a sorted, read-only edge array,
its CSR rows, and one array level step behind every traversal in the
package), and provides the analysis of two antenna groups: finding a
mutually-covering pair across them, and classifying a linearly
separated pair by how many antennas of each side cover the other
side.  The search for non-separated pairs with no such edge is a test
oracle and lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    _FULL_FROM,
    AntennaConfig,
    HalfPlane,
    Point,
    _angles_ok,
    _antennas,
    _aperture_branches,
    _containment_core,
    _halfplane_test_points,
    _lex_order,
    _WedgeArrays,
    containment_matrix,
)


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Undirected graph over antenna locations.

    ``edges`` is a read-only (E, 2) integer array of vertex indices with
    i < j on every row, the rows in row-major (lexicographic) order.
    """

    vertices: tuple[Point, ...]
    edges: np.ndarray

    def __post_init__(self) -> None:
        self.edges.flags.writeable = False

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices)``, built on first use: vertex v's row
        ``indices[indptr[v]:indptr[v + 1]]`` is v and its neighbours, ascending."""
        n = len(self.vertices)
        i, j = self.edges.T
        keys = np.sort(np.concatenate((i * n + j, j * n + i, np.arange(n) * (n + 1))))
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)  # keys are source * n + target
        indices = keys % n
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices


def build_scg(configs: Sequence[AntennaConfig]) -> CommGraph:
    """The symmetric graph: an edge wherever coverage is mutual.

    When every wedge is unbounded every pair is tested, as one
    containment matrix.  Otherwise an edge needs d <= min(r_i, r_j), so
    only the pairs an x-sorted sweep finds within reach are tested
    (:func:`_swept_edges`), and a pair one finite range rules out is
    never asked about its angles; both paths give the same edges.
    """
    ants = _antennas(configs)
    _lex_order(ants.x, ants.y)  # raises on duplicate locations
    if np.isinf(ants.range).all():
        M = _containment_core(ants.wedges.take((slice(None), None)), ants.x, ants.y)
        edges = np.argwhere(np.triu(M & M.T, 1))
    else:
        edges = _swept_edges(ants.wedges)
    return CommGraph(ants.locations, edges)


#: Candidate pairs the sweep tests at once.  This bounds its working
#: memory; on 300- and 512-antenna graphs 2**13 also ran faster than
#: 2**11 or 2**16, its arrays staying in cache.
_PAIR_CHUNK = 1 << 13


def _swept_edges(w: _WedgeArrays) -> np.ndarray:
    """Mutual-containment edges of finite-range wedges whose apexes are
    the vertices, as an (E, 2) array in row-major order.

    Walking the apexes by x, the pair of positions a < b is a candidate
    when x_b <= fl(x_a + reach_a).  The reach is the square root of a's
    squared-range limit, rounded up until its float square exceeds that
    limit.  A float x_b beyond the threshold then has x_b - x_a > reach_a,
    so fl(x_b - x_a) >= reach_a and the pair's float d2 fails the range
    test: the sweep may over-include but never trims an edge.

    Candidates are decided in chunks of ``_PAIR_CHUNK``.  The range step
    computes each pair's displacement (dx, dy) from a to b and its d2,
    and keeps the pairs within both limits.  The angular test
    (:func:`~sectornet.geometry._angles_ok`) then runs once per direction
    on that displacement: a -> b on (dx, dy, d2), then b -> a on
    (-dx, -dy, d2) for the pairs left.  Rounding is sign-symmetric, so
    -fl(x_b - x_a) = fl(x_a - x_b) (a zero may change sign, which no
    comparison sees) and the squares are unchanged: every answer is the
    one the containment matrix gives from the coordinates.  Whether any
    wedge is reflex or a full circle is decided once per call, from the
    apertures.  When all wedges are full circles the range step alone
    decides, unless a squared range overflowed to inf: a d2 that
    overflowed would then pass it, and the angular test raises on it.
    """
    n = len(w.ax)
    reflex, full = _aperture_branches(w.aperture)
    circles = bool((w.aperture >= _FULL_FROM).all() and np.isfinite(w.limit).all())
    order = np.argsort(w.ax, kind="stable")
    s = w.take(order)
    rays = np.stack((s.rx, s.ry, s.lx, s.ly))
    reach = np.sqrt(s.limit)
    short = np.isfinite(reach) & (reach * reach <= s.limit)
    while short.any():
        reach[short] = np.nextafter(reach[short], np.inf)
        short &= reach * reach <= s.limit
    counts = np.searchsorted(s.ax, s.ax + reach, side="right") - np.arange(1, n + 1)
    done = np.concatenate(([0], np.cumsum(counts)))
    keys = [np.zeros(0, dtype=np.int64)]
    a0 = 0
    while a0 < n:
        a1 = max(int(np.searchsorted(done, done[a0] + _PAIR_CHUNK, side="right")) - 1, a0 + 1)
        c = counts[a0:a1]
        a = np.repeat(np.arange(a0, a1), c)
        b = np.arange(len(a)) + np.repeat(np.arange(a0 + 1, a1 + 1) - (done[a0:a1] - done[a0]), c)
        xa, ya, la = (np.repeat(v[a0:a1], c) for v in (s.ax, s.ay, s.limit))
        with np.errstate(over="ignore"):  # an inf d2 is decided below
            dx = s.ax.take(b) - xa
            dy = s.ay.take(b) - ya
            d2 = dx * dx + dy * dy
        # gathers by index run faster here than boolean masks
        near = np.flatnonzero((d2 <= la) & (d2 <= s.limit.take(b)))
        a, b = a.take(near), b.take(near)
        if not circles:
            dx, dy, d2 = dx.take(near), dy.take(near), d2.take(near)
            ape = s.aperture.take(a) if reflex or full else None
            ok = np.flatnonzero(_angles_ok(rays.take(a, axis=1), ape, reflex, full, dx, dy, d2))
            a, b, dx, dy, d2 = (v.take(ok) for v in (a, b, dx, dy, d2))
            ape = s.aperture.take(b) if reflex or full else None
            ok = np.flatnonzero(_angles_ok(rays.take(b, axis=1), ape, reflex, full, -dx, -dy, d2))
            a, b = a.take(ok), b.take(ok)
        i, j = order[a], order[b]
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
        a0 = a1
    keys = np.sort(np.concatenate(keys))
    return np.stack((keys // n, keys % n), axis=1)


def _level_step(g: CommGraph, word: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """One level of a breadth-first search on arrays: each vertex's word
    combined by ``ufunc`` with its neighbours', one ``reduceat`` over the
    CSR rows (never empty, as each row holds its own vertex)."""
    indptr, indices = g.csr
    return ufunc.reduceat(word[indices], indptr[:-1])


def is_connected(g: CommGraph) -> bool:
    return len(components(g, range(len(g.vertices)))) <= 1


def components(g: CommGraph, members: Sequence[int]) -> list[list[int]]:
    """Connected components of the subgraph induced on ``members``, as
    sorted index lists in order of their first member.

    Each member's label falls, a level step at a time, to the least member
    index it reaches; non-members stay pinned above every index.  A label
    also takes its own label's label, so long chains settle in few steps.
    """
    n = len(g.vertices)
    m = np.asarray(members, dtype=np.intp)
    inside = np.zeros(n, bool)
    inside[m] = True
    verts = np.flatnonzero(inside)
    label = np.where(inside, np.arange(n), n)
    while True:
        new = np.where(inside, _level_step(g, label, np.minimum), n)
        new[verts] = new[new[verts]]
        if np.array_equal(new, label):
            break
        label = new
    found: dict[int, list[int]] = {}
    for v, k in zip(verts.tolist(), label[verts].tolist()):
        found.setdefault(k, []).append(v)
    return [found[k] for k in dict.fromkeys(label[m].tolist())]


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
    hit = containment_matrix(ants, _halfplane_test_points(ants, hp))
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
    for p in a.locations:
        if separator.value(p.x, p.y) > _SEPARATOR_TOL:
            raise ValueError("separator does not have side A outside it")
    for p in b.locations:
        if separator.value(p.x, p.y) < -_SEPARATOR_TOL:
            raise ValueError("separator does not contain side B")
    flipped = HalfPlane(-separator.nx, -separator.ny, -separator.c)
    x_a = halfplane_cover_number(a, separator)
    x_b = halfplane_cover_number(b, flipped)
    if x_a not in (2, 3) or x_b not in (2, 3):
        raise ValueError(f"unexpected cover numbers ({x_a}, {x_b})")
    return (1 if 2 in (x_a, x_b) else 2), x_a, x_b
