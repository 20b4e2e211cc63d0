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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    QUARTER_TURN,
    AntennaConfig,
    Antennas,
    Point,
    _contains_at,
    _coords,
    _normalize_angles,
    convex_hull,
    dot_sign,
    normalize_angle,
    squared_distance,
    vec_dot_sign,
)

#: Orientation offsets, relative to the base edge direction, of the four
#: wedges in entry order: base start, base end, then the two far points.
_FAN_OFFSETS = (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 1.75 * math.pi)


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


def _pair_far_points(a: Point, b: Point, p: Point, q: Point) -> tuple[Point, Point]:
    """Order the two points off the base as (far-left-facing, far-right-facing).

    The point with the larger projection on the base direction receives
    the orientation opposite ``a`` (it faces down-left in base frame and
    must reach back over ``a``); the smaller projection faces down-right.
    This ordering is what makes the lower half-plane coverage close: the
    down-left wedge covers frame x below its apex, the down-right wedge
    covers x above its apex, and the split point orders correctly exactly
    when the larger projection faces left.  Ties fall back to coordinate
    order.  The same rule serves every hull shape; on a quadrilateral it
    keeps hull order (see :func:`orient_quadruplet`).
    """
    s = vec_dot_sign(p, q, a, b)  # sign of proj(q) - proj(p) on the base
    if s > 0:
        return q, p
    if s < 0:
        return p, q
    return max(p, q, key=Point.as_tuple), min(p, q, key=Point.as_tuple)


def orient_quadruplet(points: Sequence[Point]) -> OrientationAssignment:
    """Orient four antennas for a connected graph and full plane coverage.

    Accepts any four distinct points (collinear allowed).  The returned
    orientations always form a perpendicular fan {t, t+pi/2, t+pi,
    t+3pi/2}.  With unbounded ranges, the induced symmetric graph on the
    four points is connected and the four wedges cover the plane.

    The hull is walked as a cycle of k = 4, 3 or 2 vertices, indices mod
    k, so a segment yields both directions.  A directed edge (a, b)
    qualifies when ``dot_sign(a, b, next(b)) >= 0`` and
    ``dot_sign(b, a, prev(a)) >= 0``; the base is the least qualifying
    edge, and :func:`_pair_far_points` orders the other two points.  On a
    triangle next(b) = prev(a), and the edge opposite the largest angle
    qualifies; on a segment both directions qualify, and the least is
    (hull[0], hull[1]).  On a quadrilateral an edge qualifies, as the
    eight angles the diagonals split off the corners sum to a full turn.
    The tests put c = next(b) at or past a along a->b, and d = prev(a) at
    or before b; projection along a convex boundary rises to one maximum
    and falls to one minimum, so c lies strictly past d (a tie needs three
    collinear hull vertices).  The pairing thus keeps hull order (c, d),
    which makes both diagonal containments mutual.  Every predicate is
    exact, so this holds bit for bit.
    """
    pts = list(points)
    if len(pts) != 4 or len(set(pts)) != 4:
        raise ValueError("degenerate quadruplet: four distinct points required")
    hull = convex_hull(pts)
    k = len(hull)
    bases = [
        (a, b)
        for i, (a, b) in enumerate(zip(hull, hull[1:] + hull[:1]))
        if dot_sign(a, b, hull[(i + 2) % k]) >= 0 and dot_sign(b, a, hull[i - 1]) >= 0
    ]
    if not bases:
        raise AssertionError("no qualifying hull edge")
    a, b = min(bases, key=lambda e: (e[0].as_tuple(), e[1].as_tuple()))
    p, q = (v for v in pts if v != a and v != b)
    return _fan((a, b, *_pair_far_points(a, b, p, q)), ("collinear", "triangle", "convex")[k - 2])


def _fan(slots: Sequence[Point], case: str) -> OrientationAssignment:
    """The perpendicular fan over four slots: base start, base end, then
    the two far points facing back over the base start and the base end."""
    a, b = slots[0], slots[1]
    theta = math.atan2(b.y - a.y, b.x - a.x)
    entries = tuple(
        (p, normalize_angle(theta + off)) for p, off in zip(slots, _FAN_OFFSETS)
    )
    return OrientationAssignment(entries=entries, case=case)


def aim_at_fan(
    fans: Sequence[OrientationAssignment], points: Sequence[Point], fan_of: Sequence[int]
) -> list[float]:
    """One orientation per point, in input order: ``points[k]`` is served
    by the perpendicular fan ``fans[fan_of[k]]`` of four quarter-wedges.

    A point equal to one of its fan's apexes keeps that entry's
    orientation; any other point aims at the apex of the first wedge of
    its fan, in entry order, that contains it (else ``ValueError``).
    """
    entries = [e for fan in fans for e in fan.entries]
    hubs = Antennas([q for q, _ in entries], [a for _, a in entries], QUARTER_TURN, math.inf)
    rows = 4 * np.asarray(fan_of, dtype=np.intp)[:, None] + np.arange(4)  # each point's fan wedges
    px, py = _coords(points)
    inside = _contains_at(hubs, rows, px[:, None], py[:, None])
    if not inside.any(axis=1).all():
        raise ValueError("uncovered point: no hub wedge contains it")
    # an apex entry scores 3 (its wedge holds its apex), any other hit 1
    apex = (hubs.x[rows] == px[:, None]) & (hubs.y[rows] == py[:, None])
    pick = rows[:, 0] + np.argmax(2 * apex + inside, axis=1)
    # math.atan2, not np.arctan2, whose last bit differs on some inputs
    dx, dy = hubs.x[pick] - px, hubs.y[pick] - py
    aims = _normalize_angles(np.array(list(map(math.atan2, dy.tolist(), dx.tolist()))))
    return np.where((dx == 0.0) & (dy == 0.0), hubs.orientation[pick], aims).tolist()


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
        return aim_at_fan([orient_quadruplet(ranked[:4])], pts, [0] * len(pts))
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
