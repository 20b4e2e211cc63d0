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
from typing import Iterable, Iterator, Optional, Sequence

from .geometry import (
    QUARTER_TURN,
    HalfPlane,
    Point,
    Wedge,
    convex_hull,
    dot_sign,
    normalize_angle,
    squared_distance,
    vec_dot_sign,
    wedge_contains,
)

#: Orientation offsets, relative to the base edge direction, of the four
#: wedges in entry order: base start, base end, then the two far points.
_FAN_OFFSETS = (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 1.75 * math.pi)

#: Tolerance when validating that four orientations form a quarter-turn fan.
_FAN_TOL = 1e-9


@dataclass(frozen=True)
class OrientationAssignment:
    """An orientation per point, all apertures equal.

    ``entries`` preserves construction order: the two base points first
    (offsets +1/8 and +3/8 turn from the base direction), then the two
    points carrying the opposite orientations.  ``base`` is the directed
    edge that frames the construction and ``case`` records which hull
    shape was handled ("convex", "triangle" or "collinear").
    """

    entries: tuple[tuple[Point, float], ...]
    aperture: float = QUARTER_TURN
    base: Optional[tuple[Point, Point]] = None
    case: str = ""

    def points(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.entries)

    def orientation_of(self, p: Point) -> float:
        for q, ang in self.entries:
            if q == p:
                return ang
        raise KeyError(f"point {p} not in assignment")

    def wedges(self, range: float = math.inf) -> list[Wedge]:
        return [Wedge(p, ang, self.aperture, range) for p, ang in self.entries]

    def __iter__(self) -> Iterator[tuple[Point, float]]:
        return iter(self.entries)


@dataclass(frozen=True)
class CouplePair:
    """Two points whose wedge orientations differ by a quarter turn,
    counterclockwise from ``first`` to ``second``."""

    first: Point
    second: Point


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
    return OrientationAssignment(entries=entries, base=(a, b), case=case)


def couples(assignment: OrientationAssignment) -> list[CouplePair]:
    """The four pairs of points with counterclockwise-adjacent orientations.

    Pairs are listed starting from the point with the smallest normalized
    orientation; each point appears in exactly two pairs (once as first,
    once as second).  Raises ``ValueError`` unless the four orientations
    form a quarter-turn fan.
    """
    if len(assignment.entries) != 4:
        raise ValueError("malformed assignment: exactly four entries required")
    ordered = sorted(assignment.entries, key=lambda e: (e[1], e[0].as_tuple()))
    lowest = ordered[0][1]
    for k, (_, ang) in enumerate(ordered):
        if abs((ang - lowest) - k * QUARTER_TURN) > _FAN_TOL:
            raise ValueError("malformed assignment: orientations must form a quarter-turn fan")
    return [CouplePair(ordered[i][0], ordered[(i + 1) % 4][0]) for i in range(4)]


def couple_halfplane(assignment: OrientationAssignment, couple: CouplePair) -> HalfPlane:
    """The closed half-plane that a couple's two wedges jointly cover.

    Its boundary runs parallel to the right bounding ray of the first
    wedge, through whichever of the two apexes lies deeper inside the
    half-plane (for the base couple that is the first apex itself, making
    the boundary the right bounding line of the first wedge).
    """
    first_ori = assignment.orientation_of(couple.first)
    second_ori = assignment.orientation_of(couple.second)
    if abs(normalize_angle(second_ori - first_ori) - QUARTER_TURN) > _FAN_TOL:
        raise ValueError("not a counterclockwise-adjacent couple of this assignment")
    u = first_ori - 0.5 * assignment.aperture
    nx, ny = -math.sin(u), math.cos(u)
    p, q = couple.first, couple.second
    anchor = p if nx * p.x + ny * p.y >= nx * q.x + ny * q.y else q
    return HalfPlane(nx, ny, nx * anchor.x + ny * anchor.y)


def orient_toward(p: Point, hubs: Sequence[tuple[Point, float]]) -> float:
    """Orientation for ``p`` centered on the first hub that covers it.

    Hubs are (location, orientation) pairs with unbounded quarter wedges.
    The chosen hub is the first in input order whose wedge contains ``p``;
    a hub coincident with ``p`` counts as covering but cannot define a
    direction, so it is used only if no later hub covers ``p`` (any
    orientation then contains it, and 0 is returned).
    """
    coincident_covers = False
    for hub, ori in hubs:
        if not wedge_contains(Wedge(hub, ori), p):
            continue
        if hub == p:
            coincident_covers = True
            continue
        return normalize_angle(math.atan2(hub.y - p.y, hub.x - p.x))
    if coincident_covers:
        return 0.0
    raise ValueError("uncovered point: no hub wedge contains it")


def aim_at_fan(fan: OrientationAssignment, points: Iterable[Point]) -> dict[Point, float]:
    """The fan's own orientations, then every other point aimed at the
    first fan wedge that covers it (see :func:`orient_toward`)."""
    oris = dict(fan.entries)
    for p in points:
        if p not in oris:
            oris[p] = orient_toward(p, fan.entries)
    return oris


def orient_cluster(points: Sequence[Point]) -> dict[Point, float]:
    """Orient a small group so its symmetric graph is connected.

    Intended for instances that fit in one neighborhood, where every
    pairwise distance is within range.  Four or more points: the four
    lexicographically smallest form an oriented quadruplet and everyone
    else aims at a quadruplet point that covers them (hop diameter at
    most 5: at most one hop to the quadruplet, three inside, one out).
    Three points: the vertex opposite the shortest side has an angle of
    at most a third of a turn, so a wedge along its bisector covers both
    others, which aim back at it.  Two points face each other.
    """
    pts = sorted(set(points), key=Point.as_tuple)
    if len(pts) != len(list(points)):
        raise ValueError("duplicate points")
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return {pts[0]: 0.0}
    if len(pts) == 2:
        p, q = pts
        return {
            p: normalize_angle(math.atan2(q.y - p.y, q.x - p.x)),
            q: normalize_angle(math.atan2(p.y - q.y, p.x - q.x)),
        }
    if len(pts) == 3:
        pairs = [(pts[i], pts[j]) for i in range(3) for j in range(i + 1, 3)]
        u, w = min(
            pairs, key=lambda pr: (squared_distance(*pr), pr[0].as_tuple(), pr[1].as_tuple())
        )
        (v,) = [p for p in pts if p != u and p != w]
        du = math.hypot(u.x - v.x, u.y - v.y)
        dw = math.hypot(w.x - v.x, w.y - v.y)
        bx = (u.x - v.x) / du + (w.x - v.x) / dw
        by = (u.y - v.y) / du + (w.y - v.y) / dw
        return {
            v: normalize_angle(math.atan2(by, bx)),
            u: normalize_angle(math.atan2(v.y - u.y, v.x - u.x)),
            w: normalize_angle(math.atan2(v.y - w.y, v.x - w.x)),
        }
    result = aim_at_fan(orient_quadruplet(pts[:4]), pts[4:])
    return {p: result[p] for p in sorted(result, key=Point.as_tuple)}
