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

The tree is Prim's from the first point, with its tie rules, found
without a loop over vertices: candidate pairs within a distance set by
a sample's nearest neighbours, listed from horizontal strips of the
limit's reach, each neighbouring pair of strips swept in x; Borůvka
rounds over them in array passes; a second sweep, from the points
outside the largest component only; a component-level Prim for what is
still apart.  The assignment walks a tree certified unique straight from
its edges.  Where the join order matters (``mst_edges``, and so the tree
a :class:`Tour` keeps) or ties may have picked another tree, a heap walk
reads Prim's order off the tree, or off every pair that can tie (see
:func:`mst_edges`).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import QUARTER_TURN, Antennas, Point, _coords, _lex_order, distance
from .orientation import _aim_at, _quadruplet_fans, orient_cluster


# ---------------------------------------------------------------------------
# Minimum spanning tree and tour
# ---------------------------------------------------------------------------


#: Array entries in one pass of the candidate sweep, the radius sample and
#: the component stage, so that memory stays O(n + candidate pairs).
_CHUNK = 1 << 14
#: Points, evenly spaced in x order, whose exact squared distance to
#: their _KTH-nearest point sets the candidate limit: _REACH times the
#: median of those distances, so twice the median _KTH-nearest distance.
#: The limit is lowered, where it must be, so that the sample points have
#: at most _CAP other points within it on average: a dense blob among
#: sparse points must not make every pair in the blob a candidate.
_SAMPLE = 32
_KTH = 4
_REACH = 4.0
_CAP = 64
#: Points per bounding box when a large component's distances are pruned.
_BLOCK = 32
_EMPTY = np.empty(0, dtype=np.intp)


def _sections(rows: int, width: int) -> int:
    """How many runs to cut ``rows`` rows of ``width`` entries into, so
    that a run holds about _CHUNK entries (and at least one row)."""
    return max(1, min(rows, -(-rows * width // _CHUNK)))


def mst_edges(points: Sequence[Point] | np.ndarray) -> list[tuple[int, int]]:
    """Prim's minimum spanning tree on the complete Euclidean graph, of
    points given as :class:`Point` objects or as an (n, 2) float array of
    their coordinates.

    (parent, child) pairs in the order the tree grows from vertex 0.  The
    tree does not depend on beta: raising distances to a fixed power is
    monotone.  Two tie rules pin the tree (and everything downstream of
    it) for equal inputs: the next vertex is the lowest-numbered one at
    the least squared distance from the tree, and its parent is the
    earliest-added tree vertex at that distance.  Distances are the float
    squares d2 = (x0 - x)**2 + (y0 - y)**2 throughout.

    Prim's choice at each step depends only on the pairs at the least d2
    across the cut, so a walk over any pair set that holds those pairs at
    every step gives the same list.  The tree is found without a loop
    over vertices (:func:`_tree`, on the points in lexicographic order):

    * Candidates: the pairs with d2 at most a limit that follows local
      density, four times the median squared distance from a fixed sample
      of points to its fourth-nearest point (found exactly), lowered
      where the sample points would have more than 64 others within it
      on average.  They are listed from horizontal strips at least the
      limit's reach tall, each pair of neighbouring strips swept in x
      order, so O(n) entries on points of even density.  The tests are
      d2 <= limit, and for the strips and windows the squared float gap
      in y or in x against the limit, all exact.
    * Borůvka rounds, one array pass each, join every component to its
      lightest candidate pair, its lightest pair overall as every other
      pair is above the limit.  If that leaves components apart, one more
      sweep, at four times the limit, lists the pairs between them, from
      the points outside the largest component only, and the rounds go
      on over those.
    * A component-level Prim joins what is left, one chunked array pass
      of exact distances per component joined, pruned by bounding boxes
      (a lone point takes one row, as in the dense loop).

    The tree is certified when each edge was the unique lightest pair
    across the cut that chose it: then it is the only minimum tree, every
    lightest crossing pair of every Prim step is a tree edge, and a heap
    walk over the n - 1 edges, keyed (d2, v) with an equal d2 keeping the
    earlier parent, gives the join order and the parents.  Otherwise the
    same walk runs over every pair that can be a lightest crossing pair
    (see :func:`_tie_pairs`).  Memory is O(n + candidate pairs).  The
    assignment's tour needs no join order: :func:`_walk` walks a certified
    tree straight from its edges, with no heap.

    Squared distances that overflow to inf cannot be ranked: a tree that
    needs one raises ``ValueError``.
    """
    if isinstance(points, np.ndarray):
        xs, ys = np.asarray(points, dtype=float).reshape(-1, 2).T
    else:
        xs, ys = _coords(points)
    lex = _lex_order(xs, ys)  # raises on duplicate points
    if len(lex) < 2:
        return []
    a, b, w, _ = _tree(xs[lex], ys[lex])
    parent, child = _prim_walk(len(lex), lex[a], lex[b], w)
    return list(zip(parent.tolist(), child.tolist()))


def _tree(sx: np.ndarray, sy: np.ndarray):
    """The tree core of :func:`mst_edges`, on the coordinates of distinct
    points in lexicographic order: pairs (a, b) of positions with their
    squared distances w, holding every lightest crossing pair of every
    Prim step, and whether the tree is certified, in which case the pairs
    are exactly its n - 1 edges."""
    n = len(sx)
    if n < 2:
        return _EMPTY, _EMPTY, np.empty(0), True
    with np.errstate(over="ignore"):  # an overflowed distance raises in _join
        limit = _candidate_limit(sx, sy)
        comp = np.arange(n)
        found, tree, unique = [], [], True
        # the second sweep, at four times the limit, lists the pairs
        # between the components the first leaves
        for reach in (limit, min(4 * limit, sys.float_info.max)):
            a, b, w = _pairs(sx, sy, reach, comp)
            comp, edges, certified = _boruvka(comp, a, b, w)
            found.append((a, b, w))
            tree.append(edges)
            unique = unique and certified
            if (comp == comp[0]).all():
                break
        joins, certified = _join(sx, sy, comp)
        if unique and certified:
            return *_concat(tree + [joins]), True
        return *_tie_pairs(sx, sy, comp, _concat(found), _concat(tree), joins), False


def _concat(parts):
    """Arrays (a, b, w) of pairs, from a list of them."""
    return tuple(np.concatenate(e) for e in zip(*parts))


def _tie_pairs(sx, sy, comp, found, tree, joins):
    """Every pair that can be a lightest crossing pair of a Prim step, for
    a minimum tree that ties may have made one of several: a lightest
    crossing pair weighs no more than the heaviest tree edge on the path
    between its ends.

    Inside one component ``comp`` of the candidates ``found`` that path
    stays in the component, so a candidate there is kept up to the
    heaviest edge of ``tree`` (the Borůvka edges) in its component.
    Between components, every pair up to the heaviest of the ``joins`` is
    listed by one more sweep.
    """
    a, b, w = found
    top = np.zeros(len(comp))
    np.maximum.at(top, comp[tree[0]], tree[2])
    keep = w <= top[comp[a]]
    pairs = [(a[keep], b[keep], w[keep])]
    if len(joins[2]):
        pairs.append(_pairs(sx, sy, joins[2].max(), comp))
    return _concat(pairs)


def _sq(xa, ya, xb, yb):
    """The float squared distance of the dense Prim loop, elementwise."""
    dx = xa - xb
    dy = ya - yb
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _pair_sq(sx, sy, p, q):
    """:func:`_sq` of the pairs (p, q) of positions, with one temporary
    per coordinate."""
    dx = sx[q]
    dx -= sx[p]
    dx *= dx
    dy = sy[q]
    dy -= sy[p]
    dy *= dy
    dx += dy
    return dx


def _candidate_limit(sx: np.ndarray, sy: np.ndarray) -> float:
    """The candidate limit for points sorted by x: _REACH times the median
    squared distance from _SAMPLE points, evenly spaced in x order, to
    their _KTH-nearest other point, lowered to the (_CAP * _SAMPLE)-th
    least of the sample's squared distances when more of them are
    within it, and capped at the largest float, so that an overflowed
    distance is never a candidate."""
    n = len(sx)
    pick = np.linspace(0, n - 1, min(n, _SAMPLE)).astype(np.intp)
    k = min(_KTH, n - 1)
    many = _CAP * len(pick)  # the many least of all rows are among each row's many least
    kth, least = [], []
    for rows in np.array_split(pick, _sections(len(pick), n)):
        d = _sq(sx[rows, None], sy[rows, None], sx, sy)
        d[np.arange(len(rows)), rows] = np.inf
        d.partition((k - 1, min(many, n) - 1), axis=1)
        kth.append(d[:, k - 1].copy())  # copies, so that d can go
        least.append(d[:, :many].copy())
    kth = np.sort(np.concatenate(kth))
    limit = float(kth[len(kth) // 2]) * _REACH
    least = np.concatenate(least, axis=None)
    if np.count_nonzero(least <= limit) > many:
        limit = float(np.partition(least, many - 1)[many - 1])
    return min(limit, sys.float_info.max)


def _reach_ends(x, at, lo, hi, guess, limit) -> np.ndarray:
    """For each query i, the first e in [lo[i], hi[i]), a run over which x
    ascends, with x[e] > at[i] and a squared float gap (x[e] - at[i])**2
    above limit, or hi[i]: a bisection on that exact test, which rounding
    keeps monotone along the run, started from the guess."""
    a, b = lo - 1, np.array(hi)  # a passes (or is lo - 1), b fails (or is hi)
    probes = [guess - 1, guess]
    while True:
        for q in probes:
            i = np.flatnonzero((a < q) & (q < b))
            q = q[i]
            gap = x[q] - at[i]
            far = (gap > 0) & (gap * gap > limit)
            b[i[far]] = q[far]
            a[i[~far]] = q[~far]
        if (b - a <= 1).all():
            return b
        probes = [(a + b) // 2]


def _pairs(sx: np.ndarray, sy: np.ndarray, limit: float, comp: np.ndarray):
    """Every pair p < q of lexicographically sorted positions in different
    components ``comp`` (a label per point, itself a point of the
    component) whose squared distance is at most limit, as arrays
    (p, q, d2).

    Strips: the points in y order are cut greedily, each strip starting
    at the first point whose squared float y gap from the last start
    exceeds limit.  A pair two or more strips apart then has a squared y
    gap, and so a squared distance, above limit, as rounding is monotone.
    Band k, strips k and k + 1 in x order, lists the pairs with a point
    in strip k, so every pair once; a point's window in its band ends
    where the squared x gap alone exceeds limit.  When a component has
    two or more points, the largest one's points open no window: windows
    run forward and backward from the other points, which meet every pair
    between components.  About _CHUNK window entries at a time.
    """
    n = len(sx)
    reach = math.sqrt(limit)
    ly = np.argsort(sy, kind="stable")
    ty = sy[ly].tolist()
    starts = [0]
    while True:
        y0 = ty[starts[-1]]
        s = bisect.bisect_left(ty, True, starts[-1] + 1, n, key=lambda y: (y - y0) * (y - y0) > limit)
        if s == n:
            break
        starts.append(s)
    mark = np.zeros(n, dtype=np.intp)
    mark[starts] = 1
    strip = np.empty(n, dtype=np.intp)
    strip[ly] = np.cumsum(mark) - 1
    # band entries, by band and then position, so x ascends along a band
    pos = np.arange(n)
    key = np.concatenate((strip * n + pos, (strip - 1) * n + pos))
    key = np.sort(key[key >= 0])
    band, at = np.divmod(key, n)
    edge = np.searchsorted(key, np.arange(len(starts) + 1) * n)
    x, y = sx[at], sy[at]
    lower = strip[at] == band
    label = comp[at]
    size = np.bincount(comp)  # which entries open windows, as above
    src = ((comp != size.argmax()) | (size.max() < 2))[at]
    e = np.flatnonzero(src)
    # the first band entry past the reach, a guess at each window's end
    past = np.searchsorted(key, band[e] * n + np.searchsorted(sx, sx + reach, "right")[at[e]])
    query, lo, hi = [e], [e + 1], [_reach_ends(x, x[e], e + 1, edge[band[e] + 1], past, limit)]
    both = not src.all()
    if both:  # backward windows: forward ones over the band entries mirrored
        m = len(key) - 1 - e
        back = np.searchsorted(key, band[e] * n + np.searchsorted(sx, sx - reach, "left")[at[e]])
        mx = -x[::-1]
        query.append(e)
        lo.append(len(key) - _reach_ends(mx, mx[m], m + 1, len(key) - edge[band[e]], len(key) - back, limit))
        hi.append(e)
    query, lo, hi = np.concatenate(query), np.concatenate(lo), np.concatenate(hi)
    count = hi - lo
    cum = np.concatenate(([0], np.cumsum(count)))
    cuts = np.unique(np.searchsorted(cum, np.arange(0, cum[-1], _CHUNK), "right") - 1).tolist()
    found = [(_EMPTY, _EMPTY, np.empty(0))]
    for c0, c1 in zip(cuts, cuts[1:] + [len(query)]):
        i = np.repeat(query[c0:c1], count[c0:c1])
        j = np.arange(cum[c1] - cum[c0])
        j += np.repeat(lo[c0:c1] - cum[c0:c1] + cum[c0], count[c0:c1])
        if both:  # each pair by its entries in band order, p first
            i, j, first = np.minimum(i, j), np.maximum(i, j), i
        w = _pair_sq(x, y, i, j)
        keep = (w <= limit) & (lower[i] | lower[j]) & (label[i] != label[j])
        if both:  # a pair of two sources is kept from the earlier
            keep &= (first == i) | ~src[i]
        k = np.flatnonzero(keep)
        found.append((at[i[k]], at[j[k]], w[k]))
    return _concat(found)


def _boruvka(comp: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """Borůvka rounds over candidate pairs (a, b) of squared distance w,
    from the components ``comp`` (a label per point, itself a point of
    the component).

    Pairs are ranked by their position once sorted by w, a strict order,
    so each round's choices form a forest.  A round joins every component
    to its lightest crossing pair.  Returns the component label per point
    (a point of the component) once no pair crosses, the tree edges as
    (a, b, w) arrays, and whether each edge was the unique lightest
    crossing pair of a component that chose it, which holds at once when
    no two candidates weigh the same.
    """
    by = np.argsort(w)
    a, b, w = a[by], b[by], w[by]
    tree = (a, b, w)
    chosen = np.zeros(len(w), dtype=bool)
    unique = True
    tied = bool((w[1:] == w[:-1]).any())
    at = np.arange(len(w))  # the rank of each pair left
    n = len(comp)
    while True:
        ca, cb = comp[a], comp[b]
        cross = ca != cb
        if not cross.all():
            a, b, w, at, ca, cb = a[cross], b[cross], w[cross], at[cross], ca[cross], cb[cross]
        m = len(a)
        if not m:
            return comp, tuple(e[chosen] for e in tree), unique
        first = np.full(n, m)
        np.minimum.at(first, ca, np.arange(m))
        np.minimum.at(first, cb, np.arange(m))
        chooser = np.flatnonzero(first < m)
        pick = first[chooser]
        if tied and unique:
            least = np.full(n, np.inf)
            least[chooser] = w[pick]
            ties = np.bincount(ca[w == least[ca]], minlength=n) + np.bincount(cb[w == least[cb]], minlength=n)
            certified = np.zeros(m, dtype=bool)
            certified[pick[ties[chooser] == 1]] = True
            unique = bool(certified[pick].all())
        chosen[at[pick]] = True
        # each component points at the one across its pick; of two that
        # pick each other, the smaller label is the root
        other = ca[pick] + cb[pick] - chooser
        to = np.arange(n)
        to[chooser] = other
        root = chooser[(to[other] == chooser) & (chooser < other)]
        to[root] = root
        while True:
            up = to[to]
            if np.array_equal(up, to):
                break
            to = up
        comp = to[comp]


def _join(sx: np.ndarray, sy: np.ndarray, comp: np.ndarray):
    """Prim over the components of the candidate pairs, grown from point
    0's, on exact squared distances: the tree edges between components as
    (a, b, w) arrays, and whether each was the unique lightest pair
    between the joined components and the rest, read off the tie flags
    :func:`_fold` keeps.

    A joined point gets a NaN x, so its distances are NaN and never win.
    Raises ``ValueError`` when the lightest pair left has overflowed.
    """
    n = len(sx)
    if (comp == comp[0]).all():
        return (_EMPTY, _EMPTY, np.empty(0)), True
    _, label = np.unique(comp, return_inverse=True)
    members = np.argsort(label, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(label))))
    free_x = sx.copy()
    best = np.full(n, np.inf)
    near = np.zeros(n, dtype=np.intp)
    tie = np.zeros(n, dtype=bool)
    edges = []
    unique = True
    c = label[0]
    for _ in range(len(ptr) - 2):
        new = members[ptr[c] : ptr[c + 1]]
        free_x[new] = np.nan
        best[new] = np.inf
        _fold(sx, sy, free_x, new, best, near, tie)
        v = int(best.argmin())
        least = best[v]
        if not least < np.inf:
            raise ValueError("squared distances overflow: the tree cannot be ranked")
        if unique:
            unique = not tie[v] and np.count_nonzero(best == least) == 1
        edges.append((near[v], v, least))
        c = label[v]
    a, b, w = zip(*edges)
    return (np.array(a, dtype=np.intp), np.array(b, dtype=np.intp), np.array(w)), unique


def _box_gap(x0, x1, y0, y1, px, py):
    """A float lower bound on the squared distance from the points (px, py)
    to any point of the box [x0, x1] x [y0, y1]: the float gaps to the box
    are at most the float gaps to its points, as rounding is monotone.
    A NaN coordinate gives NaN."""
    gx = np.maximum(np.maximum(x0 - px, px - x1), 0.0)
    gy = np.maximum(np.maximum(y0 - py, py - y1), 0.0)
    return gx * gx + gy * gy


def _fold(sx, sy, free_x, new, best, near, tie) -> None:
    """Lower ``best`` (for each point not joined, its least squared
    distance to the joined ones) by the distances from the points ``new``,
    x-sorted, keep in ``near`` a joined point at that distance, and in
    ``tie`` whether more than one is.  No pruning below drops a point at
    a distance equal to the least, so the flag is exact.

    A lone point takes one row over every point, the joined ones NaN.
    Otherwise only the points that the bounding box of ``new`` may bring
    closer are visited.  A small component takes whole rows of them, _CHUNK
    entries at a time.  A large one is cut into boxes of _BLOCK points,
    and a point's distances to a box are computed only when the box's
    bound is at most the least of its current best and its distances to
    the boxes' first points, as no other box can hold its new least
    distance.
    """
    k = len(new)
    if k == 1:
        d = _sq(sx[new[0]], sy[new[0]], free_x, sy)
        lt = d < best
        tie |= d == best
        tie &= ~lt
        np.copyto(best, d, where=lt)
        near[lt] = new[0]
        return
    ny = sy[new]
    col = np.flatnonzero(_box_gap(sx[new[0]], sx[new[-1]], ny.min(), ny.max(), free_x, sy) <= best)
    if not len(col):
        return
    cx, cy = sx[col], sy[col]
    if k <= 4 * _BLOCK:
        for rows in np.array_split(new, _sections(k, len(col))):
            d = _sq(sx[rows, None], sy[rows, None], cx, cy)
            j = d.argmin(axis=0)
            low = np.take_along_axis(d, j[None], axis=0)[0]
            old = best[col]
            lt = low < old
            tie[col[lt]] = np.count_nonzero(d[:, lt] == low[lt], axis=0) > 1
            tie[col[low == old]] = True
            best[col[lt]] = low[lt]
            near[col[lt]] = rows[j[lt]]
        return
    # about sqrt(boxes) strips of x, each sorted by y and cut into boxes
    boxes = -(-k // _BLOCK)
    strip = _BLOCK * -(-boxes // (math.isqrt(boxes - 1) + 1))
    new = new[np.lexsort((ny, np.arange(k) // strip))]
    starts = np.arange(0, k, _BLOCK)
    bx, by = sx[new], sy[new]
    x0, x1 = np.minimum.reduceat(bx, starts), np.maximum.reduceat(bx, starts)
    y0, y1 = np.minimum.reduceat(by, starts), np.maximum.reduceat(by, starts)
    first = new[starts]
    groups = np.array_split(np.arange(len(starts)), _sections(len(starts), len(col)))
    cap = best[col]
    for g in groups:
        np.minimum(cap, _sq(sx[first[g], None], sy[first[g], None], cx, cy).min(axis=0), out=cap)
    box, at = [], []
    for g in groups:
        i, j = np.nonzero(_box_gap(x0[g, None], x1[g, None], y0[g, None], y1[g, None], cx, cy) <= cap)
        box.append(g[i])
        at.append(j)
    box, at = np.concatenate(box), np.concatenate(at)
    size = np.diff(np.append(starts, k))[box]
    cum = np.concatenate(([0], np.cumsum(size)))
    cuts = np.unique(np.searchsorted(cum, np.arange(0, cum[-1], _CHUNK), "right") - 1).tolist()
    for lo, hi in zip(cuts, cuts[1:] + [len(box)]):
        j = col[np.repeat(at[lo:hi], size[lo:hi])]
        u = new[np.repeat(starts[box[lo:hi]] - cum[lo:hi] + cum[lo], size[lo:hi]) + np.arange(cum[hi] - cum[lo])]
        d = _pair_sq(sx, sy, u, j)
        old = best[j]
        np.minimum.at(best, j, d)
        low = best[j]
        hit = d == low
        near[j[hit]] = u[hit]
        up = low < old
        tie[j[up]] = False
        # a hit at a distance reached before, or a second hit of a target
        tie[j[hit & (~up | (near[j] != u))]] = True


def _prim_walk(n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's (parent, child) pairs from vertex 0, as two arrays in join
    order, over the pairs (a, b) of squared distance w, which must hold
    every lightest crossing pair of every step.

    A heap of keys (rank of d2, v), one per improvement of v's least
    distance to the tree: the least key is the lowest-numbered vertex at
    the least distance, and as an equal distance does not improve, its
    parent is the earliest-added tree vertex at that distance.
    """
    rank = np.unique(w, return_inverse=True)[1]
    src = np.concatenate((a, b))
    by = np.argsort(src)
    keys = ((np.concatenate((rank, rank)) * n + np.concatenate((b, a)))[by]).tolist()
    ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))).tolist()
    joined = -1
    cur = [len(keys) * n + n] * n  # each vertex's key, above every key until reached
    cur[0] = joined
    parent = [0] * n
    order = []
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    v = 0
    for _ in range(n - 1):
        for e in keys[ptr[v] : ptr[v + 1]]:
            t = e % n
            if e < cur[t]:
                cur[t] = e
                parent[t] = v
                push(heap, e)
        while True:
            k = pop(heap)
            v = k % n
            if cur[v] == k:  # else v joined or was reached closer since
                break
        cur[v] = joined
        order.append(v)
    return np.array([parent[v] for v in order], dtype=np.intp), np.array(order, dtype=np.intp)


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


def _preorder(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The preorder walk from 0 of the tree on n vertices with edges
    (a, b), each vertex's children in ascending order, reversed past its
    first vertex if needed so that the second is below the last.

    One sort lists every vertex's neighbours in descending order; a
    vertex stacks them all but its parent, so its least child is popped
    first."""
    key = np.sort(np.concatenate((a, b)) * n + (n - 1 - np.concatenate((b, a))))
    ptr = np.searchsorted(key, np.arange(n + 1) * n).tolist()
    desc = (n - 1 - key % n).tolist()
    up = [0] * n
    walk, stack = [0], desc[ptr[0] : ptr[1]]
    while stack:
        u = stack.pop()
        walk.append(u)
        kids = desc[ptr[u] : ptr[u + 1]]
        kids.remove(up[u])
        for v in kids:
            up[v] = u
        stack += kids
    walk = np.array(walk, dtype=np.intp)
    if n >= 3 and walk[1] > walk[-1]:
        walk[1:] = walk[:0:-1]
    return walk


def _walk(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """The walk of :func:`tsp_tour_approx` over lexicographic ranks, for
    distinct points with coordinates sx, sy in that order.  A certified
    tree is walked from its edges: its preorder needs no join order.
    Otherwise Prim's walk picks the tree out of the pairs that can tie."""
    a, b, w, certified = _tree(sx, sy)
    if not certified:
        a, b = _prim_walk(len(sx), a, b, w)
    return _preorder(len(sx), a, b)


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
    xs, ys = _coords(pts)
    lex = _lex_order(xs, ys)  # raises on duplicate points
    edges = mst_edges(np.stack((xs[lex], ys[lex]), axis=1))  # the tour keeps them in join order
    parent, child = np.fromiter(itertools.chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2).T
    ranked = [pts[i] for i in lex.tolist()]
    return Tour(
        tuple(ranked[i] for i in _preorder(len(pts), parent, child).tolist()),
        tuple((ranked[i], ranked[j]) for i, j in edges),
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
    lex = _lex_order(xs, ys)  # raises on duplicate points
    walk = _walk(xs[lex], ys[lex])
    n = len(pts)
    bounds, start, length = _cut(n)
    sizes = np.diff(bounds)
    section = np.repeat(np.arange(len(sizes)), sizes)
    # each section's input positions by rank, so by (x, y): a section is
    # a block of the keys, and a rank is under n
    block = section * n
    members = lex[np.sort(block + walk) - block]
    fan_of = np.empty(n, dtype=np.intp)
    fan_of[members] = 2 * section + (np.arange(n) - bounds[section] >= (sizes[section] + 1) // 2)
    # a section of at least eight points: the left half's first four,
    # then the right half's last four
    quads = members[np.stack((bounds[:-1, None] + np.arange(4), bounds[1:, None] - 4 + np.arange(4)), axis=1)]

    along = lex[walk]  # input positions in tour order
    radius = np.empty(n)
    radius[along] = _window_radii(xs[along], ys[along], bounds, start, length)
    fans = _quadruplet_fans(xs, ys, quads.reshape(-1, 4))
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
