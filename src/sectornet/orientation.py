"""Orienting quarter-plane antennas.

The centerpiece is :func:`orient_quadruplet`: any four distinct points can
be assigned orientations (one quarter-wedge each, mutually perpendicular)
so that the induced symmetric communication graph on the four points is
connected and the four unbounded wedges cover the whole plane.

The construction picks a directed hull edge (a, b) whose two adjacent
"split" angles are at most a quarter turn, aims the wedges of ``a`` and
``b`` at each other so they jointly cover the closed half-plane left of
the line a-b, and gives the remaining two points the opposite
orientations, paired so that the other half-plane is covered as well.
Opposite wedges have the property that if one apex lies in the other's
wedge, the containment is automatically mutual, which is what produces
the graph edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    QUARTER_TURN,
    AntennaConfig,
    Point,
    _containment_core,
    _sector_arrays,
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


def _convex_slots(hull: list[Point]) -> tuple[Point, Point, Point, Point]:
    """Distribute four convex-position points over the fan slots.

    A directed hull edge (a, b) qualifies when the diagonal out of each
    endpoint makes an angle of at most a quarter turn with the edge; at
    least one of the four edges qualifies because the eight diagonal-split
    angles sum to one full turn, so at most three can exceed a quarter
    turn and each edge is charged two of them.  The hull vertex after b
    takes the orientation opposite a, and the vertex before a takes the
    one opposite b; qualification makes both containments (and hence both
    diagonal edges of the graph) mutual.
    """
    candidates = []
    for i in range(4):
        a, b, c, d = (hull[(i + k) % 4] for k in range(4))
        if dot_sign(a, b, c) >= 0 and dot_sign(b, a, d) >= 0:
            candidates.append((a, b, c, d))
    if not candidates:
        raise AssertionError("no qualifying hull edge on a convex quadrilateral")
    return min(candidates, key=lambda t: (t[0].as_tuple(), t[1].as_tuple()))


def _pair_far_points(a: Point, b: Point, p: Point, q: Point) -> tuple[Point, Point]:
    """Order two base-strip points as (far-left-facing, far-right-facing).

    The point with the larger projection on the base direction receives
    the orientation opposite ``a`` (it faces down-left in base frame and
    must reach back over ``a``); the smaller projection faces down-right.
    This ordering is what makes the lower half-plane coverage close: the
    down-left wedge covers frame x below its apex, the down-right wedge
    covers x above its apex, and the split point orders correctly exactly
    when the larger projection faces left.  Ties fall back to coordinate
    order.
    """
    s = vec_dot_sign(p, q, a, b)  # sign of proj(q) - proj(p) on the base
    if s > 0:
        return q, p
    if s < 0:
        return p, q
    return max(p, q, key=Point.as_tuple), min(p, q, key=Point.as_tuple)


def _triangle_slots(hull: list[Point], pts: Sequence[Point]) -> tuple[Point, Point, Point, Point]:
    """Slot assignment when the hull is a triangle with one inner point.

    The base is a hull edge whose two adjacent triangle angles are at most
    a quarter turn (the edge opposite the largest angle always works).
    Both remaining points project onto the closed base segment, so either
    can take either opposite orientation as far as connectivity goes; the
    pairing rule in :func:`_pair_far_points` settles coverage.
    """
    interior = next(p for p in pts if p not in set(hull))
    candidates = []
    for i in range(3):
        a, b, v = hull[i], hull[(i + 1) % 3], hull[(i + 2) % 3]
        if dot_sign(a, b, v) >= 0 and dot_sign(b, a, v) >= 0:
            candidates.append((a, b, v))
    if not candidates:
        raise AssertionError("triangle with two angles above a quarter turn")
    a, b, v = min(candidates, key=lambda t: (t[0].as_tuple(), t[1].as_tuple()))
    c, d = _pair_far_points(a, b, v, interior)
    return a, b, c, d


def _collinear_slots(hull: list[Point], pts: Sequence[Point]) -> tuple[Point, Point, Point, Point]:
    """Slot assignment for four collinear points: the two extremes form
    the base and the inner points pair like the triangle case."""
    a, b = hull
    inner = [p for p in pts if p != a and p != b]
    c, d = _pair_far_points(a, b, inner[0], inner[1])
    return a, b, c, d


def orient_quadruplet(points: Sequence[Point]) -> OrientationAssignment:
    """Orient four antennas for a connected graph and full plane coverage.

    Accepts any four distinct points (collinear allowed).  The returned
    orientations always form a perpendicular fan {t, t+pi/2, t+pi,
    t+3pi/2}.  With unbounded ranges, the induced symmetric graph on the
    four points is connected and the four wedges cover the plane.
    """
    pts = list(points)
    if len(pts) != 4 or len(set(pts)) != 4:
        raise ValueError("degenerate quadruplet: four distinct points required")
    hull = convex_hull(pts)
    if len(hull) == 4:
        slots, case = _convex_slots(hull), "convex"
    elif len(hull) == 3:
        slots, case = _triangle_slots(hull, pts), "triangle"
    else:
        slots, case = _collinear_slots(hull, pts), "collinear"
    return _fan(slots, case)


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
    its fan, in entry order, that contains it (else ``ValueError``).  One
    broadcast containment pass tests each point against its fan's four
    wedges.
    """
    hubs = [e for fan in fans for e in fan.entries]
    first = 4 * np.asarray(fan_of, dtype=np.intp)  # each point's first fan wedge
    wedges = _sector_arrays(
        [q.x for q, _ in hubs],
        [q.y for q, _ in hubs],
        [normalize_angle(a) for _, a in hubs],
        [QUARTER_TURN] * len(hubs),
        [math.inf] * len(hubs),
    ).take(first[:, None] + np.arange(4))
    px = np.array([p.x for p in points])[:, None]
    py = np.array([p.y for p in points])[:, None]
    inside = _containment_core(wedges, px, py)
    if not inside.any(axis=1).all():
        raise ValueError("uncovered point: no hub wedge contains it")
    # an apex entry scores 3 (its wedge holds its apex), any other hit 1
    apex = (wedges.ax == px) & (wedges.ay == py)
    pick = first + np.argmax(2 * apex + inside, axis=1)
    aimed = []
    for p, k in zip(points, pick.tolist()):
        q, a = hubs[k]
        aimed.append(a if q == p else normalize_angle(math.atan2(q.y - p.y, q.x - p.x)))
    return aimed


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
