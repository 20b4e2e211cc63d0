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

from .geometry import QUARTER_TURN, Antennas, Point, _coords, _lex_order, distance
from .orientation import _aim_at, _quadruplet_fans, orient_cluster


# ---------------------------------------------------------------------------
# Minimum spanning tree and tour
# ---------------------------------------------------------------------------


def mst_edges(points: Sequence[Point] | np.ndarray) -> list[tuple[int, int]]:
    """Prim's minimum spanning tree on the complete Euclidean graph, of
    points given as :class:`Point` objects or as an (n, 2) float array of
    their coordinates.

    (parent, child) pairs in the order the tree grows from vertex 0;
    each joining vertex adds one row of squared distances, so memory is
    O(n).  The tree does not depend on beta: raising distances to a fixed
    power is monotone.  Two tie rules pin the tree (and everything
    downstream of it) for equal inputs: the next vertex is the
    lowest-numbered one at the least distance from the tree, and its
    parent is the earliest-added tree vertex at that distance.

    A joined vertex is marked by a NaN x coordinate, so its entry in
    every later row is NaN, which never tests ``<`` and which
    ``np.fmin`` passes over.  Squared distances that overflow to inf
    cannot be ranked: a step whose least distance is not finite raises
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


def _check_beta(beta: float) -> None:
    if not 1 <= beta < math.inf:  # NaN fails both comparisons
        raise ValueError("distance-power gradient must be finite and at least 1")


def _cost_overflow(beta: float) -> ValueError:
    """The error for a beta-power cost beyond the float range, which
    Python's ``**`` raises as ``OverflowError``."""
    return ValueError(f"beta-power costs overflow the float range (beta={beta})")


@dataclass(frozen=True)
class Tour:
    """A cyclic visiting order (each point exactly once) and the minimum
    spanning tree it was walked from: (parent, child) pairs in Prim order."""

    order: tuple[Point, ...]
    tree: tuple[tuple[Point, Point], ...]

    def __len__(self) -> int:
        return len(self.order)


def _steps(xs: np.ndarray, ys: np.ndarray) -> list[float]:
    """The ``distance`` from each point of a cycle to the next, the
    closing step last."""
    dx = (xs - np.roll(xs, -1)).tolist()
    dy = (ys - np.roll(ys, -1)).tolist()
    return list(map(math.hypot, dx, dy))


def _walk(xs: np.ndarray, ys: np.ndarray) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The tour of :func:`tsp_tour_approx` over lexicographic ranks, for
    points with coordinates xs, ys: the input positions in rank order, the
    walk, and the tree it was walked from.  With a point's index its rank,
    the walk compares ints."""
    lex = _lex_order(xs, ys)
    edges = mst_edges(np.stack((xs[lex], ys[lex]), axis=1))
    lex = lex.tolist()
    children: list[list[int]] = [[] for _ in lex]
    for i, j in edges:  # Prim grows from rank 0, so i is j's parent
        children[i].append(j)
    walk: list[int] = []
    stack = [0]
    while stack:
        u = stack.pop()
        walk.append(u)
        stack += sorted(children[u], reverse=True)
    if len(walk) >= 3 and walk[1] > walk[-1]:
        walk = [walk[0]] + walk[:0:-1]
    return lex, walk, edges


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
    lex, walk, edges = _walk(*_coords(pts))
    ranked = [pts[i] for i in lex]
    return Tour(
        tuple(ranked[i] for i in walk), tuple((ranked[i], ranked[j]) for i, j in edges)
    )


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _cut(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sections of an n-point tour, as positions along the cycle read
    from its lexicographically smallest point, and their windows.

    Sections are max(1, floor(n/8)) consecutive runs of eight, the last
    taking the remainder (a single run below 16 points), given by their
    start positions followed by n.  A section's window runs in cycle
    order from the previous section through the next (the whole cycle
    for at most three sections), given by its start and its length.
    """
    m = max(1, n // 8)
    bounds = np.append(np.arange(0, 8 * m, 8), n)
    sizes = np.diff(bounds)
    start = np.roll(bounds[:-1], 1)
    length = sizes + np.roll(sizes, 1) + np.roll(sizes, -1) if m >= 3 else np.full(m, n)
    return bounds, start, length


# ---------------------------------------------------------------------------
# The assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerAssignment:
    """Orientation and range per point; cost is always recomputed, and
    one beyond the float range raises ``ValueError``."""

    beta: float
    entries: tuple[tuple[Point, float, float], ...]  # (point, orientation, radius)

    def __post_init__(self) -> None:
        _check_beta(self.beta)

    @property
    def cost(self) -> float:
        try:
            return sum(r**self.beta for _, _, r in self.entries)
        except OverflowError:
            raise _cost_overflow(self.beta) from None

    def configs(self) -> Antennas:
        """One quarter-wedge antenna per entry, in entry order."""
        points, aims, radii = zip(*self.entries) if self.entries else ((), (), ())
        return Antennas(points, aims, QUARTER_TURN, radii)


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
    _check_beta(beta)
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("power assignment needs at least two points")

    if len(pts) < 8:
        aims = orient_cluster(pts)  # raises on duplicate points
        diameter = max(distance(p, q) for p in pts for q in pts)
        return PowerAssignment(beta, tuple((p, a, diameter) for p, a in zip(pts, aims)))

    xs, ys = _coords(pts)
    lex, walk, _ = _walk(xs, ys)  # raises on duplicate points
    n = len(pts)
    bounds, start, length = _cut(n)
    sizes = np.diff(bounds)
    section = np.repeat(np.arange(len(sizes)), sizes)
    # each section's input positions by rank, so by (x, y): a section is
    # a block of the keys, and a rank is under n
    block = section * n
    members = np.asarray(lex)[np.sort(block + walk) - block]
    fan_of = np.empty(n, dtype=np.intp)
    fan_of[members] = 2 * section + (np.arange(n) - bounds[section] >= (sizes[section] + 1) // 2)
    # a section of at least eight points: the left half's first four,
    # then the right half's last four
    quads = members[np.stack((bounds[:-1, None] + np.arange(4), bounds[1:, None] - 4 + np.arange(4)), axis=1)]

    along = [lex[r] for r in walk]  # input positions in tour order
    radius = np.empty(n)
    radius[along] = _window_radii(xs[along], ys[along], bounds, start, length)
    fans = _quadruplet_fans(pts, xs, ys, quads.reshape(-1, 4))
    return PowerAssignment(beta, tuple(zip(pts, _aim_at(fans, xs, ys, fan_of), radius.tolist())))


#: Rows whose largest squared distance lies outside [2**-900, 2**900]
#: may have lost entries to underflow or overflow; they skip the filter.
_D2_SAFE = (2.0**-900, 2.0**900)


def _window_radii(
    xs: np.ndarray, ys: np.ndarray, bounds: np.ndarray, start: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """Each tour point's largest ``distance`` to its section's window,
    with the points in cycle order and the sections as :func:`_cut`
    gives them.

    The squared distances of all (point, window point) pairs come in one
    array pass, each window padded to the longest by repeating its first
    point.  ``math.hypot`` then runs on the same float dx, dy, but only
    for the entries whose squared distance is at least (1 - 1e-12) times
    the row's largest: hypot errs by under 1 ulp and the float square by
    a few, so no entry below that cut can hold the maximum.
    """
    n = len(xs)
    step = np.arange(length.max())
    window = np.where(step < length[:, None], (start[:, None] + step) % n, start[:, None])
    row = window[np.repeat(np.arange(len(start)), np.diff(bounds))]
    dx = xs[:, None] - xs[row]
    dy = ys[:, None] - ys[row]
    d2 = dx * dx + dy * dy
    top = d2.max(axis=1)
    keep = d2 >= (top * (1 - 1e-12))[:, None]
    keep[(top < _D2_SAFE[0]) | (top > _D2_SAFE[1])] = True
    rows, cols = np.nonzero(keep)
    hyp = np.array(list(map(math.hypot, dx[rows, cols].tolist(), dy[rows, cols].tolist())))
    return np.maximum.reduceat(hyp, np.searchsorted(rows, np.arange(n)))


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
    The report's ``mst_cost`` sums over ``tour.tree``; without tied
    distances that is the r**beta weight of ``mst_edges(tour.order)``
    bit for bit, with ties possibly another tree of equal weight.

    The assignment must list every tour point exactly once, and the tour
    visit each point once; anything else raises ``ValueError``, as does
    a beta-power cost beyond the float range.
    """
    n = len(tour)
    if n < 2:
        raise ValueError("cost chain needs at least two points")
    tx, ty = _coords(tour.order)
    px, py = _coords(p for p, _, _ in pa.entries)
    if len(px) != n:
        raise ValueError("assignment and tour disagree on the points")
    at = _lex_order(tx, ty)  # raises if the tour repeats a point
    by = np.lexsort((py, px))
    if not (np.array_equal(px[by], tx[at]) and np.array_equal(py[by], ty[at])):
        raise ValueError("assignment and tour disagree on the points")
    radius = np.empty(n)
    radius[at] = np.array([r for _, _, r in pa.entries])[by]

    # positions along the cycle read from the lexicographically smallest
    # point, the cut of orient_and_assign; steps[k] leaves position k
    first = int(at[0])
    steps = _steps(tx, ty)
    ring = steps[first:] + steps[:first]
    ring += ring
    bounds, start, length = _cut(n)
    max_edge = np.array([
        max(ring[a : a + size - 1]) if size < n else max(steps)
        for a, size in zip(start.tolist(), length.tolist())
    ])
    section = np.repeat(np.arange(len(start)), np.diff(bounds))
    offset = (np.arange(n) - start[section]) % n  # index in the window
    gap = np.maximum(offset, length[section] - 1 - offset)
    max_gap = int(gap.max())
    eps = 1e-9
    pointwise_ok = not (np.roll(radius, -first) > gap * max_edge[section] + eps).any()

    biggest = int(np.diff(bounds).max())
    try:
        tour_cost = sum(s**pa.beta for s in steps)
        tree_cost = sum(distance(p, q) ** pa.beta for p, q in tour.tree)
        bound = biggest * max_gap**pa.beta * 3 * tour_cost
    except OverflowError:
        raise _cost_overflow(pa.beta) from None
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
