"""Orienting quarter-plane antennas.

The centerpiece is :func:`orient_quadruplet`: any four distinct points can
be assigned orientations (one quarter-wedge each, mutually perpendicular)
so that the induced symmetric communication graph on the four points is
connected and the four unbounded wedges cover the whole plane.

One rule serves every hull shape (quadrilateral, triangle or segment): it
picks a directed hull edge (a, b) whose two adjacent angles are at most a
quarter turn, aims the wedges of ``a`` and ``b`` at each other so they
jointly cover the closed half-plane left of the line a-b, and gives the
other two points the opposite orientations, paired so that the other
half-plane is covered as well.  Opposite wedges have the property that if
one apex lies in the other's wedge, the containment is automatically
mutual, which is what produces the graph edges.

The rule is written once, as the lookup tables of :func:`_fan_tables`,
indexed by the exact signs of the quadruplet sorted lexicographically.
Two readers apply it, as the input size decides: :func:`orient_quadruplet`
to one quadruplet, sign by sign, and :func:`_orient_fans` to many at once
(the power sections and the basic-mode hubs), every sign from one array
kernel call.  Every batched fan, the refined hubs' too, ends in :func:`_fans`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .geometry import (
    QUARTER_TURN,
    AntennaConfig,
    Antennas,
    Point,
    _antennas,
    _antennas_at,
    _contains_at,
    _coords,
    _cross_sign,
    _cross_signs,
    _normalize_angles,
    _sorted_hull,
    normalize_angle,
    squared_distance,
)

#: Orientation offsets, relative to the base edge direction, of the four
#: wedges in entry order: base start, base end, then the two far points.
_FAN_OFFSETS = (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 1.75 * math.pi)
#: The names of the hull shapes by hull size k = 2, 3, 4.
_CASES = ("collinear", "triangle", "convex")


@dataclass(frozen=True)
class OrientationAssignment:
    """An orientation per point, each the axis of a quarter-wedge.

    ``entries`` preserves construction order: the two base points first
    (offsets +1/8 and +3/8 turn from the base direction, so the first two
    entries are the directed edge that frames the construction), then the
    two points carrying the opposite orientations.  ``case`` records which
    hull shape was handled ("convex", "triangle" or "collinear").
    """

    entries: tuple[tuple[Point, float], ...]
    case: str = ""


def configs_from_assignment(assignment: OrientationAssignment) -> list[AntennaConfig]:
    """One unbounded quarter-wedge antenna per entry, in entry order."""
    return [AntennaConfig(p, ang) for p, ang in assignment.entries]


def _sign_columns() -> tuple[np.ndarray, dict, dict]:
    """What the readers of :func:`_fan_tables` evaluate on a quadruplet
    sorted lexicographically, p0 < p1 < p2 < p3: each sign as the eight
    :func:`~sectornet.geometry._cross_sign` arguments, given as columns of
    (x0, y0, ..., x3, y3), one sign a column.

    Columns 0-3 are the orientation signs of (0, 1, 2), (0, 1, 3),
    (0, 2, 3) and (1, 2, 3), which fix the hull; then the 12 dot signs
    dot(p_u - p_v, p_w - p_v) (keyed ``(v, {u, w})``, as the sign is
    exact and so symmetric in u and w); then the 3 projection signs
    dot(p_j - p_0, p_l - p_k) of the splits {0, j} | {k, l} (keyed by
    the split), which is all the pairing of the far points reads.
    """

    def vec_dot(p1: int, p2: int, q1: int, q2: int) -> tuple:  # the sign of dot(p2 - p1, q2 - q1)
        return (2 * p1, 2 * p1 + 1, 2 * p2, 2 * p2 + 1, 2 * q2 + 1, 2 * q1, 2 * q1 + 1, 2 * q2)

    columns = [
        (2 * i, 2 * i + 1, 2 * j, 2 * j + 1, 2 * i, 2 * i + 1, 2 * k, 2 * k + 1)
        for i, j, k in itertools.combinations(range(4), 3)
    ]
    dots, splits = {}, {}
    for v in range(4):
        for u, w in itertools.combinations([i for i in range(4) if i != v], 2):
            dots[v, frozenset((u, w))] = len(columns)
            columns.append(vec_dot(v, u, v, w))
    for j in (1, 2, 3):
        k, l = (i for i in (1, 2, 3) if i != j)
        splits[frozenset((0, j))] = splits[frozenset((k, l))] = len(columns)
        columns.append(vec_dot(0, j, k, l))
    return np.array(columns, dtype=np.intp).T, dots, splits


def _fan_tables() -> tuple:
    """The quadruplet rule, as lookup tables on the signs of
    :func:`_sign_columns`.

    Per hull code (the four orientation signs, each + 1, as base-3
    digits): the hull size, and the hull's directed edges (a, b) sorted
    by (a, b), with the columns of the two dot signs that qualify each
    and whether it exists (padded to four).  Per directed base
    a * 4 + b: the other two indices p < q and the column and sign by
    which dot(q - p, b - a) is read.  The hull comes from the package's
    one monotone chain, run on indices with the code's signs as its turns.

    The rule: the hull is a cycle of k = 4, 3 or 2 vertices, indices mod
    k, so a segment yields both directions.  A directed edge (a, b)
    qualifies when dot(b - a, next(b) - a) >= 0 and dot(a - b, prev(a) - b)
    >= 0 (on a segment a test against the edge's own endpoint is 0 and
    reads the zero column, the last); the base is the least qualifying
    edge.  On a triangle next(b) = prev(a), and the edge opposite the
    largest angle qualifies; on a segment both directions qualify, and
    the least is (hull[0], hull[1]).  On a quadrilateral an edge
    qualifies, as the eight angles the diagonals split off the corners
    sum to a full turn.

    Of the two far points, the one with the larger projection on the base
    direction takes the orientation opposite ``a`` (it faces down-left in
    base frame and must reach back over ``a``), the other the one
    opposite ``b``; a tie puts the lexicographically larger point first.
    The down-left wedge covers frame x below its apex and the down-right
    wedge x above its apex, so this ordering is what closes the coverage
    of the half-plane right of a -> b.  On a quadrilateral the tests put
    c = next(b) at or past a along a -> b, and d = prev(a) at or before
    b; projection along a convex boundary rises to one maximum and falls
    to one minimum, so c lies strictly past d (a tie needs three
    collinear hull vertices).  The pairing thus keeps hull order (c, d),
    which makes both diagonal containments mutual.  Every sign is exact,
    so this holds bit for bit.
    """
    args, dots, splits = _sign_columns()
    zero = args.shape[1]
    triples = list(itertools.combinations(range(4), 3))
    size = np.zeros(81, dtype=np.intp)
    edges = np.zeros((81, 4, 4), dtype=np.intp)
    valid = np.zeros((81, 4), dtype=bool)
    for code, signs in enumerate(itertools.product((-1, 0, 1), repeat=4)):

        def turn(i: int, j: int, k: int) -> int:
            odd = (i > j) + (i > k) + (j > k)  # inversions: the parity of the sort
            return signs[triples.index(tuple(sorted((i, j, k))))] * (-1) ** odd

        hull = _sorted_hull(list(range(4)), turn)
        k = len(hull)
        if k > 4:
            continue  # signs no four points have: never looked up
        rows = []
        for i in range(k):
            a, b, c, d = hull[i], hull[(i + 1) % k], hull[(i + 2) % k], hull[i - 1]
            qualify_a = zero if c == a else dots[a, frozenset((b, c))]
            qualify_b = zero if d == b else dots[b, frozenset((a, d))]
            rows.append((a, b, qualify_a, qualify_b))
        rows.sort()
        size[code] = k
        edges[code, :k] = rows
        valid[code, :k] = True
    far = np.zeros((16, 4), dtype=np.intp)
    for a, b in itertools.permutations(range(4), 2):
        p, q = (i for i in range(4) if i != a and i != b)
        far[4 * a + b] = (p, q, splits[frozenset((a, b))], 1 if a < b else -1)
    return args, size, edges, valid, far


_ARGS, _HULL_SIZE, _EDGES, _VALID, _FAR = _fan_tables()
# the tables as lists for the scalar reader: a sign column as the getter of
# its eight coordinates, and the zero column (the last) crossing zero vectors
_COLUMNS = [itemgetter(*column) for column in _ARGS.T.tolist()] + [itemgetter(*[0] * 8)]
_BASES = [rows[ok].tolist() for rows, ok in zip(_EDGES, _VALID)]
_FAR_ROWS = _FAR.tolist()


def orient_quadruplet(points: Sequence[Point]) -> OrientationAssignment:
    """Orient four antennas for a connected graph and full plane coverage.

    Accepts any four distinct points (collinear allowed).  The returned
    orientations always form a perpendicular fan {t, t+pi/2, t+pi,
    t+3pi/2}.  With unbounded ranges, the induced symmetric graph on the
    four points is connected and the four wedges cover the plane.

    The hull, the base and the pairing of the far points are read from
    :func:`_fan_tables`, which also holds the proof, on the points sorted
    lexicographically.  Each exact sign is taken when the tables first
    need it: the four hull signs, two per base tried, one for the pairing.
    """
    pts = sorted(points, key=Point.as_tuple)
    if len(pts) != 4 or len(set(pts)) != 4:
        raise ValueError("degenerate quadruplet: four distinct points required")
    xy = [v for p in pts for v in (p.x, p.y)]

    def sign(column: int) -> int:
        return _cross_sign(*_COLUMNS[column](xy))

    code = 27 * sign(0) + 9 * sign(1) + 3 * sign(2) + sign(3) + 40  # each digit + 1
    base = next(((a, b) for a, b, qa, qb in _BASES[code] if sign(qa) >= 0 and sign(qb) >= 0), None)
    if base is None:
        raise AssertionError("no qualifying hull edge")
    a, b = base
    p, q, column, flip = _FAR_ROWS[4 * a + b]
    if sign(column) * flip >= 0:  # q projects at or past p along a -> b
        p, q = q, p
    theta = math.atan2(pts[b].y - pts[a].y, pts[b].x - pts[a].x)
    entries = tuple((pts[i], normalize_angle(theta + off)) for i, off in zip((a, b, p, q), _FAN_OFFSETS))
    return OrientationAssignment(entries, _CASES[_HULL_SIZE[code] - 2])


def _orient_fans(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`orient_quadruplet` on m quadruplets at once, given as the
    rows of the (m, 4) coordinate arrays xs, ys: per row, the columns of
    its points in entry order, their orientations and the hull size k
    (the case is ``_CASES[k - 2]``), every one equal to the scalar rule's.

    Each row is sorted lexicographically, every sign the rule can read
    comes from one call of the exact array kernel, and the hull, the
    base (its least qualifying directed edge) and the pairing of the far
    points are read from :func:`_fan_tables`.
    """
    m = len(xs)
    row = np.arange(m)
    r = row[:, None]
    order = np.lexsort((ys, xs), axis=1)
    sx, sy = xs[r, order], ys[r, order]
    if ((sx[:, 1:] == sx[:, :-1]) & (sy[:, 1:] == sy[:, :-1])).any():
        raise ValueError("degenerate quadruplet: four distinct points required")
    xy = np.stack((sx, sy), axis=2).reshape(m, 8)
    signs = np.zeros((m, _ARGS.shape[1] + 1), dtype=np.int8)  # the last column stays 0
    signs[:, :-1] = _cross_signs(*(xy[:, c] for c in _ARGS))
    code = (signs[:, :4] + 1) @ np.array([27, 9, 3, 1])
    edges = _EDGES[code]
    qualify = _VALID[code] & (signs[r, edges[:, :, 2]] >= 0) & (signs[r, edges[:, :, 3]] >= 0)
    first = qualify.argmax(axis=1)
    if not qualify[row, first].all():
        raise AssertionError("no qualifying hull edge")
    a, b = edges[row, first, 0], edges[row, first, 1]
    p, q, column, flip = _FAR[4 * a + b].T
    ahead = signs[row, column] * flip >= 0  # q projects at or past p along a -> b
    at = 4 * row  # row-major positions into the sorted coordinates
    slots, orientation = _fans(sx.ravel(), sy.ravel(), at + a, at + b, at + p, at + q, ahead)
    return order.ravel()[slots], orientation, _HULL_SIZE[code]


def _fans(
    xs: np.ndarray, ys: np.ndarray, a: np.ndarray, b: np.ndarray, p: np.ndarray, q: np.ndarray, ahead: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Perpendicular fans, one a row, over the bases (a, b) and the far
    points p, q, positions into the coordinate arrays xs, ys: per row its
    four positions in entry order and their orientations.  The entries
    are the base start, the base end, then the far point facing back over
    the base start, which is q where ``ahead`` (q projects at or past p
    along a -> b), else p.  The angles are :func:`orient_quadruplet`'s
    float operations."""
    slots = np.stack((a, b, np.where(ahead, q, p), np.where(ahead, p, q)), axis=1)
    # math.atan2, not np.arctan2, whose last bit differs on some inputs
    dx, dy = (xs[b] - xs[a]).tolist(), (ys[b] - ys[a]).tolist()
    theta = np.array(list(map(math.atan2, dy, dx)))
    return slots, _normalize_angles(theta[:, None] + _FAN_OFFSETS)


def _quadruplet_fans(xs: np.ndarray, ys: np.ndarray, quads: np.ndarray) -> Antennas:
    """The fans of :func:`orient_quadruplet` on the quadruplets whose
    rows of positions into the coordinates xs, ys are ``quads``, as one
    set of unbounded quarter-wedge hubs, four per fan in entry order: the
    form :func:`_aim_at` reads."""
    slots, orientation, _ = _orient_fans(xs[quads], ys[quads])
    at = np.take_along_axis(quads, slots, axis=1).ravel()
    return _antennas_at(xs[at], ys[at], orientation.ravel(), QUARTER_TURN, math.inf)


def _aim_at(hubs: Antennas, px: np.ndarray, py: np.ndarray, fan_of: Sequence[int]) -> list[float]:
    """One orientation per point (px, py), in input order: point k is
    served by the perpendicular fan ``fan_of[k]`` of the quarter-wedges
    ``hubs``, four per fan in entry order.

    A point equal to one of its fan's apexes keeps that entry's
    orientation; any other point aims at the apex of the first wedge of
    its fan, in entry order, that contains it (else ``ValueError``).
    Only the points that are not an apex of their own fan are tested.
    """
    rows = 4 * np.asarray(fan_of, dtype=np.intp)[:, None] + np.arange(4)  # each point's fan wedges
    apex = (hubs.x[rows] == px[:, None]) & (hubs.y[rows] == py[:, None])
    aims = hubs.orientation[rows[:, 0] + np.argmax(apex, axis=1)]
    other = np.flatnonzero(~apex.any(axis=1))
    if len(other):
        rows, px, py = rows[other], px[other], py[other]
        inside = _contains_at(hubs, rows, px[:, None], py[:, None])
        if not inside.any(axis=1).all():
            raise ValueError("uncovered point: no hub wedge contains it")
        pick = rows[:, 0] + np.argmax(inside, axis=1)
        # math.atan2, not np.arctan2, whose last bit differs on some inputs
        dx, dy = (hubs.x[pick] - px).tolist(), (hubs.y[pick] - py).tolist()
        aims[other] = _normalize_angles(np.array(list(map(math.atan2, dy, dx))))
    return aims.tolist()


def orient_cluster(points: Sequence[Point]) -> list[float]:
    """Orient a small group so its symmetric graph is connected: one
    orientation per point, in input order.

    Intended for instances that fit in one neighborhood, where every
    pairwise distance is within range.  Four or more points: the four
    lexicographically smallest form an oriented quadruplet and everyone
    else aims at a quadruplet point that covers them (hop diameter at
    most 5: at most one hop to the quadruplet, three inside, one out).
    Three points: the vertex opposite the shortest side has an angle of
    at most a third of a turn, so a wedge along its bisector covers both
    others, which aim back at it.  Two points face each other.
    """
    pts = list(points)
    ranked = sorted(set(pts), key=Point.as_tuple)
    if len(ranked) != len(pts):
        raise ValueError("duplicate points")
    if not pts:
        raise ValueError("empty point set")
    if len(pts) >= 4:
        hubs = _antennas(configs_from_assignment(orient_quadruplet(ranked[:4])))
        return _aim_at(hubs, *_coords(pts), [0] * len(pts))
    if len(pts) == 1:
        return [0.0]
    if len(pts) == 2:
        p, q = pts
        return [
            normalize_angle(math.atan2(q.y - p.y, q.x - p.x)),
            normalize_angle(math.atan2(p.y - q.y, p.x - q.x)),
        ]
    pairs = [(ranked[i], ranked[j]) for i in range(3) for j in range(i + 1, 3)]
    u, w = min(
        pairs, key=lambda pr: (squared_distance(*pr), pr[0].as_tuple(), pr[1].as_tuple())
    )
    (v,) = [p for p in ranked if p != u and p != w]
    du = math.hypot(u.x - v.x, u.y - v.y)
    dw = math.hypot(w.x - v.x, w.y - v.y)
    bx = (u.x - v.x) / du + (w.x - v.x) / dw
    by = (u.y - v.y) / du + (w.y - v.y) / dw
    return [
        normalize_angle(math.atan2(by, bx) if p == v else math.atan2(v.y - p.y, v.x - p.x))
        for p in pts
    ]
