"""Planar primitives: points, antenna sectors, hulls and coverage tests.

Conventions used throughout the package:

* An antenna (:class:`AntennaConfig`) is one closed circular sector, its
  wedge: a location, an orientation, an aperture and a range.  It is
  validated and its orientation normalized when it is constructed, so
  every geometry function takes antennas as they are.
* A set of antennas (:class:`Antennas`) holds the same fields as
  columns, validated and normalized in bulk; its items are
  :class:`AntennaConfig` rows.  Functions that take several antennas
  accept either form and turn a plain sequence into a set once, on
  entry; after that they read the columns.
* Angles are radians.  Stored orientations are normalized to ``[0, tau)``.
  A wedge's ``orientation`` is the direction of its bisector; the two
  bounding rays sit at ``orientation +/- aperture / 2``.
* Wedges are closed: points on a bounding ray (and the location itself)
  are contained, and a point exactly at distance ``range`` is in range.
* Sign predicates (``orientation_sign``, ``vec_dot_sign``) are exact for
  any float inputs.  Each is one call of one cross-product sign: a
  floating-point filter decides the easy cases, the rest fall back to
  exact integer arithmetic.  The quadruplet rule of ``orientation`` reads that
  sign directly, one quadruplet at a time.  Its array form runs the same
  filter on whole arrays and the scalar sign on what it leaves open; the
  hull prefilter, the batched fans of ``orientation`` and the refined
  hubs of ``replacement`` call it.
* Containment cannot be made exact in the same sense because
  orientations pass through ``atan2``/``cos``/``sin``.  Instead the
  angular test grants ``ANGLE_TOL`` radians of slack on both bounding
  rays, so a point constructed to lie on a ray stays inside after the
  orientation is rounded, serialized and re-read.  Squared-distance
  comparisons get an absolute ``DIST_SQ_TOL`` of slack.
* This module alone runs containment and tests arrangement points; the
  graph, replacement and orientation modules ask it for edges, fan
  containment and coverage hits.
* Plane and half-plane coverage are decided by testing the vertices of
  the wedges' line arrangement and one point inside each of its faces.
  The sampling oracle the tests cross-check that decision against lives
  in ``tests/oracles.py``, with the scalar ``wedge_contains`` and the
  half-plane checker ``halfplane_covered`` that only the tests call.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

TAU = 2.0 * math.pi
QUARTER_TURN = math.pi / 2.0

#: Angular slack (radians) granted on wedge boundaries; see module docstring.
ANGLE_TOL = 1e-12
#: Absolute slack for squared-distance comparisons against a squared range.
DIST_SQ_TOL = 1e-9
#: An aperture above ``_REFLEX_ABOVE`` is reflex, and one from ``_FULL_FROM``
#: on is the full circle: the two thresholds every aperture branch reads.
_REFLEX_ABOVE = math.pi + ANGLE_TOL
_FULL_FROM = TAU - ANGLE_TOL

# Floating-point filter threshold for the sign predicates: a difference
# of two products larger than this share of their magnitudes is trusted;
# the rest is recomputed in exact integer arithmetic.
_SIGN_FILTER = 4e-15
# Below this magnitude of the terms a product may have lost bits to
# underflow, which the relative filter does not bound: exact arithmetic
# decides.  Above it an underflowed term errs by at most 2**-1075, far
# under the filter's margin.
_SIGN_TINY = 2.0**-960


def normalize_angle(radians: float) -> float:
    """Map an angle to the canonical interval [0, tau)."""
    a = math.fmod(radians, TAU)
    if a < 0.0:
        a += TAU
    if a >= TAU:  # fmod can land exactly on tau after the correction
        a -= TAU
    return a


@dataclass(frozen=True)
class Point:
    """A point in the plane with finite float coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def squared_distance(p: Point, q: Point) -> float:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


@dataclass(frozen=True)
class AntennaConfig:
    """A placed antenna: the closed circular sector it covers, given by
    its ``location``, bisector ``orientation``, ``aperture`` and ``range``.

    ``range`` is ``math.inf`` for an unbounded sector.  The default aperture
    is a quarter turn (pi/2), the only aperture the constructions in this
    package ever emit, but containment supports any aperture in (0, tau].
    Construction rejects a non-finite orientation, any other aperture
    and a range that is not positive, and stores the orientation
    normalized to [0, tau).
    """

    location: Point
    orientation: float
    aperture: float = QUARTER_TURN
    range: float = math.inf

    def __post_init__(self) -> None:
        if not math.isfinite(self.orientation):
            raise ValueError(f"orientation must be finite, got {self.orientation}")
        if not (0.0 < self.aperture <= TAU):
            raise ValueError(f"aperture must be in (0, tau], got {self.aperture}")
        if not (self.range > 0.0):
            raise ValueError(f"range must be positive, got {self.range}")
        object.__setattr__(self, "orientation", normalize_angle(self.orientation))

    def wedge(self) -> AntennaConfig:
        """The antenna itself: it is its own sector.  Kept only because the
        benchmark's workloads (``perfbench/workloads.py``) still call it."""
        return self


def _normalize_angles(radians: np.ndarray) -> np.ndarray:
    """:func:`normalize_angle` elementwise, bit for bit: ``np.fmod`` is
    exact like ``math.fmod``, and the two corrections are the same float
    operations."""
    a = np.fmod(radians, TAU)
    a = np.where(a < 0.0, a + TAU, a)
    return np.where(a >= TAU, a - TAU, a)


def _points(xs: list, ys: list) -> list[Point]:
    """Points from coordinate lists of floats the caller has checked to
    be finite: no ``__init__`` and no ``__post_init__`` per point."""
    new = object.__new__
    out = []
    for x, y in zip(xs, ys):
        p = new(Point)
        d = p.__dict__
        d["x"] = x
        d["y"] = y
        out.append(p)
    return out


class Antennas(SequenceABC):
    """An immutable set of antennas held as columns.

    ``x``, ``y``, ``orientation``, ``aperture`` and ``range`` are
    read-only float64 arrays with one entry per antenna, and
    ``locations`` is the tuple of their points.  The constructor takes
    the locations and the three sector columns (a scalar stands for a
    constant column), rejects what :class:`AntennaConfig` rejects, with
    the same messages, and stores the orientations normalized to
    [0, tau) bit for bit as :func:`normalize_angle` does.  Indexing and
    iteration give :class:`AntennaConfig` rows, built on first use.
    """

    def __init__(self, locations: Iterable[Point], orientation, aperture, range) -> None:
        locations = tuple(locations)
        self._check(locations, *_coords(locations), orientation, aperture, range)

    def _check(self, locations: tuple[Point, ...], xs, ys, orientation, aperture, range) -> None:
        """The constructor's checks and columns, for ``locations`` whose
        coordinates are already the float arrays xs, ys."""
        n = len(locations)
        o, a, r = (
            np.array(np.broadcast_to(np.asarray(v, dtype=float), (n,))) for v in (orientation, aperture, range)
        )
        for rule, column, bad in (
            ("orientation must be finite", o, ~np.isfinite(o)),
            ("aperture must be in (0, tau]", a, ~((0.0 < a) & (a <= TAU))),
            ("range must be positive", r, ~(r > 0.0)),
        ):
            if bad.any():
                raise ValueError(f"{rule}, got {column[bad][0].item()}")
        self._fill(locations, np.stack((xs, ys, _normalize_angles(o), a, r)))

    def _fill(self, locations: tuple[Point, ...], columns: np.ndarray) -> None:
        """Hold ``locations`` and the rows of ``columns``, a (5, n) array
        of x, y, orientation, aperture and range, read-only."""
        columns.flags.writeable = False
        d = self.__dict__
        d["x"], d["y"], d["orientation"], d["aperture"], d["range"] = columns
        d["locations"] = locations

    def __setattr__(self, name, value):
        raise AttributeError("Antennas is immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.locations)

    def __getitem__(self, index):
        return self._rows[index]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other):
        if not isinstance(other, Antennas):
            return NotImplemented
        return self.locations == other.locations and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in ("orientation", "aperture", "range")
        )

    @cached_property
    def _rows(self) -> tuple[AntennaConfig, ...]:
        """The rows, from values the constructor has already checked."""
        new = object.__new__
        rows = []
        for p, o, a, r in zip(
            self.locations, self.orientation.tolist(), self.aperture.tolist(), self.range.tolist()
        ):
            c = new(AntennaConfig)
            d = c.__dict__
            d["location"] = p
            d["orientation"] = o
            d["aperture"] = a
            d["range"] = r
            rows.append(c)
        return tuple(rows)

    @cached_property
    def wedges(self) -> "_WedgeArrays":
        """The containment arrays, with the trigonometry done once."""
        return _sector_arrays(self.x, self.y, self.orientation, self.aperture, self.range)


def _antennas_at(locations: tuple[Point, ...], xs, ys, orientation, aperture, range) -> Antennas:
    """``Antennas(locations, orientation, aperture, range)``, checked the
    same way, for locations whose coordinates the caller already holds
    as the float arrays xs, ys."""
    ants = object.__new__(Antennas)
    ants._check(locations, xs, ys, orientation, aperture, range)
    return ants


def _antennas(configs: Sequence[AntennaConfig]) -> Antennas:
    """``configs`` as a set: itself when it is one, else the columns of
    its rows, which their construction has already checked."""
    if isinstance(configs, Antennas):
        return configs
    rows = tuple(configs)
    locations = tuple([c.location for c in rows])
    values = [v for p, c in zip(locations, rows) for v in (p.x, p.y, c.orientation, c.aperture, c.range)]
    ants = object.__new__(Antennas)
    ants._fill(locations, np.array(values, dtype=float).reshape(-1, 5).T.copy())
    ants.__dict__["_rows"] = rows
    return ants


# ---------------------------------------------------------------------------
# Exact sign predicates
# ---------------------------------------------------------------------------


def _decided(left, right, det):
    """Whether the float filter trusts the sign of ``det``, the float
    difference of the products ``left`` and ``right``, for floats or
    arrays alike."""
    scale = abs(left) + abs(right)
    return (abs(det) > _SIGN_FILTER * scale) & (scale >= _SIGN_TINY)


def _cross_sign(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """Exact sign of cross(b - a, d - c) for float coordinates: the float
    filter, then integer arithmetic on what it leaves open.  A dot is the
    cross with the second vector turned a quarter: dot(u, v2 - v1) is
    cross(u, (v1.y, v2.x) - (v2.y, v1.x)), and as negating a float
    difference is exact, the filter and fallback see the dot's products."""
    left = (bx - ax) * (dy - cy)
    right = (by - ay) * (dx - cx)
    det = left - right
    if _decided(left, right, det):
        return 1 if det > 0 else -1
    if (bx == ax or dy == cy) and (by == ay or dx == cx):
        return 0  # both products are zero: a float difference is zero only for equal floats
    # each float is an int over a power of two: scaled to the largest of
    # those powers, the coordinates are ints and det keeps its sign
    ratios = [v.as_integer_ratio() for v in (ax, ay, bx, by, cx, cy, dx, dy)]
    top = max(den.bit_length() for _, den in ratios)
    ax, ay, bx, by, cx, cy, dx, dy = (num << (top - den.bit_length()) for num, den in ratios)
    det = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    return (det > 0) - (det < 0)


def _cross_signs(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """:func:`_cross_sign` elementwise over float arrays, as int8 over
    their broadcast shape.  The float filter runs on every entry; of the
    entries it leaves open, those with both products zero are 0, and the
    rest go to the scalar predicate.  Numpy's float operations are
    Python's, so a decided entry has the scalar's det, and a difference
    or product that overflows leaves its entry open."""
    with np.errstate(over="ignore", invalid="ignore"):
        left = (bx - ax) * (dy - cy)
        right = (by - ay) * (dx - cx)
        det = left - right
        sign = (det > 0).astype(np.int8) - (det < 0)
        open_ = np.flatnonzero(~_decided(left, right, det))
    if len(open_):
        v = [np.broadcast_to(c, sign.shape).flat[open_] for c in (ax, ay, bx, by, cx, cy, dx, dy)]
        zero = ((v[2] == v[0]) | (v[7] == v[5])) & ((v[3] == v[1]) | (v[6] == v[4]))
        sign.flat[open_] = 0
        rest = np.flatnonzero(~zero)
        if len(rest):
            sign.flat[open_[rest]] = list(map(_cross_sign, *(c[rest].tolist() for c in v)))
    return sign


def orientation_sign(a: Point, b: Point, c: Point) -> int:
    """+1 if a->b->c turns left, -1 if right, 0 if collinear.  Exact."""
    return _cross_sign(a.x, a.y, b.x, b.y, a.x, a.y, c.x, c.y)


def vec_dot_sign(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    """Exact sign of dot(p2 - p1, q2 - q1)."""
    return _cross_sign(p1.x, p1.y, p2.x, p2.y, q2.y, q1.x, q1.y, q2.x)


# ---------------------------------------------------------------------------
# Convex hull
# ---------------------------------------------------------------------------


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Convex hull vertices in counterclockwise order.

    Starts at the lexicographically smallest vertex.  Collinear interior
    points of hull edges are dropped; fully collinear input yields the two
    extreme points, and a single distinct point yields itself.
    """
    if not points:
        raise ValueError("convex_hull requires at least one point")
    return _sorted_hull(sorted(set(points), key=Point.as_tuple), orientation_sign)


def _sorted_hull(pts: list, turn: Callable) -> list:
    """:func:`convex_hull` of points already distinct and sorted
    lexicographically (monotone chain).  ``turn(a, b, c)`` is the
    orientation sign of three of them, which is all the chain reads."""
    if len(pts) == 1:
        return [pts[0]]

    def chain(seq: list) -> list:
        out: list = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    # each chain runs from one extreme to the other, so collinear points
    # leave just the two extremes
    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def _hull_candidates(xs: np.ndarray, ys: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Which points may be hull vertices of their group: the Akl-Toussaint
    prefilter, all groups at once.

    The points come group by group, group g at ``starts[g]`` up to
    ``starts[g + 1]`` and sorted lexicographically within it.  A group's
    quadrilateral joins its first (leftmost) point, its first lowest, its
    last (rightmost) and its first highest point, in counterclockwise
    order along the hull.  A point is dropped only when it lies strictly
    left of every directed side, which puts it strictly inside the hull.
    A side whose two corners coincide is skipped: the sides left bound
    the convex polygon of the distinct corners, and with two of them (the
    first and last point) no point is left of both.  The corners are
    always kept.  Each side's sign for every other point is
    :func:`orientation_sign`'s, all from one call of the array kernel
    :func:`_cross_signs`.
    """
    size = np.diff(starts)
    group = np.repeat(np.arange(len(size)), size)
    first, last = starts[:-1], starts[1:] - 1

    def first_at(extreme: np.ufunc) -> np.ndarray:
        hits = np.flatnonzero(ys == np.repeat(extreme.reduceat(ys, first), size))
        return hits[np.searchsorted(hits, first)]

    corners = [first, first_at(np.minimum), last, first_at(np.maximum)]
    keep = np.zeros(len(xs), bool)
    for c in corners:
        keep[c] = True
    rest = np.flatnonzero(~keep)
    owner = group[rest]
    # every other point against each side of its group with two corners
    sides = []
    for start, end in zip(corners, corners[1:] + corners[:1]):
        start, end = start[owner], end[owner]
        proper = start != end
        sides.append((start[proper], end[proper], rest[proper]))
    a, b, p = (np.concatenate(v) for v in zip(*sides))
    keep[p[_cross_signs(xs[a], ys[a], xs[b], ys[b], xs[a], ys[a], xs[p], ys[p]) <= 0]] = True
    return keep


def _coords(points: Iterable[Point]) -> tuple[np.ndarray, np.ndarray]:
    """The x and the y coordinates of the points, as float arrays."""
    pts = list(points)
    return np.array([p.x for p in pts], dtype=float), np.array([p.y for p in pts], dtype=float)


def _lex_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The positions of the points (xs, ys) in lexicographic order, the
    order of ``Point.as_tuple``; a repeated point (``-0.0`` equals
    ``0.0``, as for points) raises ``ValueError``."""
    order = np.lexsort((ys, xs))
    sx, sy = xs[order], ys[order]
    if ((sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])).any():
        raise ValueError("duplicate points")
    return order


# ---------------------------------------------------------------------------
# Containment (scalar and vectorized share one formula)
# ---------------------------------------------------------------------------


class _WedgeArrays(NamedTuple):
    """Per-wedge arrays for the containment test: location, unit directions
    of the right and left bounding rays and aperture (which the angular
    test :func:`_angles_ok` reads), and the squared range plus
    ``DIST_SQ_TOL`` (``inf`` for an unbounded wedge) that the range test
    compares d2 with."""

    ax: np.ndarray
    ay: np.ndarray
    rx: np.ndarray
    ry: np.ndarray
    lx: np.ndarray
    ly: np.ndarray
    aperture: np.ndarray
    limit: np.ndarray

    def take(self, idx) -> "_WedgeArrays":
        """The wedges at ``idx``: a gather, or a reshape such as
        ``(slice(None), None)`` for a column of wedges."""
        return _WedgeArrays(*(a[idx] for a in self))


def _sector_arrays(ax, ay, orientations, apertures, ranges) -> _WedgeArrays:
    """Wedge arrays from per-wedge apex coordinates, orientation (already
    normalized, as :class:`AntennaConfig` stores it), aperture and range,
    for callers that hold these without the antennas.  This is where
    radians become the bounding rays that containment and the coverage
    arrangement (:func:`_ray_lines`) both read.  A squared range
    that overflows is inf, an unbounded limit; the range test then
    passes a d2 that overflowed too, and the angular test raises on it."""
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    ori = np.asarray(orientations, dtype=float)
    ape = np.asarray(apertures, dtype=float)
    rng = np.asarray(ranges, dtype=float)
    half = 0.5 * ape
    tr = ori - half
    tl = ori + half
    with np.errstate(over="ignore"):
        limit = rng**2 + DIST_SQ_TOL
    return _WedgeArrays(ax, ay, np.cos(tr), np.sin(tr), np.cos(tl), np.sin(tl), ape, limit)


def containment_matrix(
    wedges: Sequence[AntennaConfig], points: Sequence[Point] | np.ndarray
) -> np.ndarray:
    """Boolean matrix M with M[i, j] true iff wedges[i] contains points[j]."""
    if not isinstance(points, np.ndarray):
        points = [(p.x, p.y) for p in points]
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return _contains_at(_antennas(wedges), (slice(None), None), pts[:, 0], pts[:, 1])


def _contains_at(ants: Antennas, rows, px, py) -> np.ndarray:
    """Whether the wedges of ``ants`` at ``rows`` contain the points
    (px, py), elementwise over the broadcast: ``rows`` is a gather, or
    ``(slice(None), None)`` for a column of every wedge."""
    return _containment_core(ants.wedges.take(rows), px, py)


def _containment_core(w: _WedgeArrays, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The closed-wedge test, elementwise over the broadcast of the wedge
    arrays with the point coordinates: a (k, 1) column against m points
    gives the (k, m) matrix, equal-length gathers give one answer per pair.
    Both forms compute each entry with the same float operations: the
    displacement from the apex, :func:`_angles_ok`, then the range test.
    A d2 that overflowed to inf beyond a finite range is decided by the
    range test alone; within range the angular test raises on it."""
    with np.errstate(over="ignore"):  # an inf d2 raises below instead
        dx = px - w.ax
        dy = py - w.ay
        d2 = dx * dx + dy * dy
    near = d2 <= w.limit
    seen = np.where(near, d2, 0.0) if d2.max(initial=0.0) == np.inf else d2
    reflex, full = _aperture_branches(w.aperture)
    return _angles_ok((w.rx, w.ry, w.lx, w.ly), w.aperture, reflex, full, dx, dy, seen) & near


def _aperture_branches(aperture: np.ndarray) -> tuple[bool, bool]:
    """Whether some wedge is reflex (wider than a half-turn, past the
    slack) and whether some wedge is a full circle: the two branches of
    :func:`_angles_ok` that its caller's wedges need."""
    widest = float(aperture.max(initial=0.0))
    return widest > _REFLEX_ABOVE, widest >= _FULL_FROM


def _angles_ok(rays, aperture, reflex: bool, full: bool, dx, dy, d2) -> np.ndarray:
    """The angular half of the closed-wedge test, elementwise: is the
    displacement ``(dx, dy)``, of squared length ``d2``, from each apex
    within its wedge's bounding rays ``rays = (rx, ry, lx, ly)``?

    ``reflex`` and ``full`` say whether any wedge of the call is reflex or
    a full circle (:func:`_aperture_branches`); without them those
    branches, and ``aperture``, are not read, and every element's answer
    is the same.  A d2 that overflowed to inf would make the slack
    infinite and pass every angle, so it raises ``ValueError`` instead.
    """
    if d2.max(initial=0.0) == np.inf:
        raise ValueError("squared distances overflow: containment cannot be decided")
    rx, ry, lx, ly = rays
    tol = ANGLE_TOL * np.sqrt(d2)
    cr = rx * dy - ry * dx
    cl = lx * dy - ly * dx
    ok = (cr >= -tol) & (cl <= tol)
    if reflex:
        ok = np.where(aperture <= _REFLEX_ABOVE, ok, ~((cl > tol) & (cr < -tol)))
    if full:
        ok |= aperture >= _FULL_FROM
    ok |= d2 == 0.0  # the apex belongs to its own wedge
    return ok


# ---------------------------------------------------------------------------
# Mutual containment: graph edges
# ---------------------------------------------------------------------------


def _mutual_edges(ants: Antennas) -> np.ndarray:
    """The pairs i < j whose wedges contain each other's apex, as an (E, 2)
    array in row-major order.  When every wedge is unbounded every pair is
    tested, as one containment matrix.  Otherwise :func:`_swept_edges`
    tests only the pairs within reach whose displacement lies in a
    quadrant that both wedges meet, with the same answers: the pairs it
    skips are pairs the angular test rejects."""
    if np.isinf(ants.range).all():
        M = _contains_at(ants, (slice(None), None), ants.x, ants.y)
        return np.argwhere(np.triu(M & M.T, 1))
    return _swept_edges(ants.wedges)


def _unit_disk_edges(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The pairs of points (xs, ys) at distance at most 1, as
    :func:`_mutual_edges` gives them: the sweep's edges of full circles of
    range 1."""
    ones = np.ones(len(xs))
    return _swept_edges(_sector_arrays(xs, ys, 0 * ones, TAU * ones, ones))


#: Candidate pairs the sweep tests at once.  This bounds its working
#: memory; on 300- and 512-antenna graphs 2**13 also ran faster than
#: 2**11 or 2**16, its arrays staying in cache.
_PAIR_CHUNK = 1 << 13

#: How far past its bounding rays a wedge is taken to reach when the
#: quadrants it meets are found: far above ``ANGLE_TOL``, and far above
#: the rounding of the rays, of ``arctan2`` and of the quadrant bounds.
_QUADRANT_MARGIN = 1e-6
#: Distinct apexes whose d2 underflows to 0 are under 2**-537 apart in
#: both coordinates and differ in one.  Two distinct floats that close
#: both lie below this magnitude, as from 2**-481 on floats are
#: multiples of 2**-533.
_TINY = 2.0**-480


def _quadrants_met(w: _WedgeArrays) -> np.ndarray:
    """Whether each wedge can contain a displacement in each closed
    quadrant of directions, quadrant k spanning k to k + 1 quarter turns:
    an (n, 4) boolean array.

    A wedge meets the quadrants that its arc of directions meets: from
    its right ray's ``arctan2`` over its aperture, widened at both ends by
    ``_QUADRANT_MARGIN``.  The angular test passes only directions within
    about ``ANGLE_TOL`` of that arc, but for the apex itself and a sliver
    straight behind a hairline wedge.  These wedges meet every quadrant:

    * an arc that covers the full turn once widened;
    * an aperture under the margin: the hairline's sliver;
    * a limit of inf, unbounded or a squared range that overflowed, so
      that a pair whose d2 overflowed still reaches the angular test,
      which raises on it;
    * an apex with a coordinate below ``_TINY``, once some apex holds such
      a coordinate that is not zero: only these can be distinct apexes
      whose d2 underflows to 0, which the apex rule passes in any
      direction.
    """
    wide = w.aperture + 2 * _QUADRANT_MARGIN
    start = np.arctan2(w.ry, w.rx) - _QUADRANT_MARGIN
    first = np.floor(start / QUARTER_TURN)
    turns = np.floor((start + wide) / QUARTER_TURN) - first
    met = (np.arange(4) - first.astype(np.intp)[:, None]) % 4 <= turns[:, None]
    every = (wide >= TAU) | (w.aperture < _QUADRANT_MARGIN) | np.isinf(w.limit)
    for c in (w.ax, w.ay):
        tiny = np.abs(c) < _TINY
        if (tiny & (c != 0.0)).any():
            every |= tiny
    met[every] = True
    return met


def _swept_edges(w: _WedgeArrays) -> np.ndarray:
    """:func:`_mutual_edges` of wedges some of which have a finite range.

    The apexes are walked by x, so the pair of positions a < b has a
    rightward displacement (dx, dy) = b - a, with dx >= 0.  It lies in
    quadrant 0 when dy >= 0 and in quadrant 3 when dy < 0, so in exactly
    one of the two: each is one pass, and no pair is decided twice.  A
    pass over quadrant q takes its sources from the wedges that meet q
    and its targets from those that meet the opposite quadrant q + 2
    (:func:`_quadrants_met`).  A source a pairs with the targets b > a
    with x_b <= fl(x_a + reach_a), the reach being the square root of a's
    limit rounded up until its float square exceeds it; a pair past that
    fails the range test, so no edge is trimmed.  Candidates are decided
    in chunks of ``_PAIR_CHUNK``: the pass keeps the pairs whose
    displacement lies in q and whose d2 is within both limits, then
    :func:`_angles_ok` runs a -> b on (dx, dy, d2) and b -> a on (-dx,
    -dy, d2).  Rounding is sign-symmetric, so every answer is the
    containment matrix's.

    The quadrant filter is conservative.  When the angular test passes
    (dx, dy) for a, a meets the closed quadrant q holding it; when it
    passes (-dx, -dy) for b, b meets q + 2, which holds that.  A pair the
    pass leaves out therefore fails the test one way.  When every wedge
    meets every quadrant (full circles, the unit-disk graph) one pass of
    all directions takes every pair; when all wedges are also full
    circles of finite range the range step alone decides.
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
    if circles or (met := _quadrants_met(s)).all():
        everyone = np.arange(n)
        passes = [(None, everyone, everyone)]
    else:  # (whether dy < 0, sources, targets) of quadrants 0 and 3
        passes = [(q == 3, np.flatnonzero(met[:, q]), np.flatnonzero(met[:, (q + 2) % 4])) for q in (0, 3)]
    keys = [np.zeros(0, dtype=np.int64)]
    for below, src, dst in passes:
        first = np.searchsorted(dst, src, side="right")
        counts = np.searchsorted(s.ax.take(dst), s.ax.take(src) + reach.take(src), side="right") - first
        done = np.concatenate(([0], np.cumsum(counts)))
        a0 = 0
        while a0 < len(src):
            a1 = max(int(np.searchsorted(done, done[a0] + _PAIR_CHUNK, side="right")) - 1, a0 + 1)
            c = counts[a0:a1]
            a = np.repeat(src[a0:a1], c)
            b = dst.take(np.arange(len(a)) + np.repeat(first[a0:a1] - (done[a0:a1] - done[a0]), c))
            with np.errstate(over="ignore"):  # an inf d2 is decided below
                dx = s.ax.take(b) - s.ax.take(a)
                dy = s.ay.take(b) - s.ay.take(a)
                d2 = dx * dx + dy * dy
            keep = (d2 <= s.limit.take(a)) & (d2 <= s.limit.take(b))
            if below is not None:
                keep &= (dy < 0.0) == below
            # gathers by index run faster here than boolean masks
            near = np.flatnonzero(keep)
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


# ---------------------------------------------------------------------------
# Half-planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfPlane:
    """The closed set {p : nx * p.x + ny * p.y >= c}, for finite
    coefficients and a nonzero normal."""

    nx: float
    ny: float
    c: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.nx, self.ny, self.c))):
            raise ValueError(f"half-plane coefficients must be finite, got ({self.nx}, {self.ny}, {self.c})")
        if self.nx == 0.0 and self.ny == 0.0:
            raise ValueError("half-plane normal must be nonzero")

    def value(self, x: float, y: float) -> float:
        return self.nx * x + self.ny * y - self.c


# ---------------------------------------------------------------------------
# Coverage verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of a coverage check.

    When ``covered`` is false, exactly one witness field is set: an
    uncovered ``witness_point``, or a ``witness_direction`` meaning that all
    sufficiently distant points in that direction are uncovered.
    """

    covered: bool
    witness_point: Optional[Point] = None
    witness_direction: Optional[float] = None


def _direction_gap(wedges: Sequence[AntennaConfig]) -> Optional[float]:
    """A direction not covered by any wedge's closed angular interval.

    Returns None when the (slightly fattened) closed intervals cover the
    full circle of directions.  Covering directions is necessary for plane
    coverage, so a gap is a certificate of non-coverage.  Arcs wrapping
    past zero are split at the seam, so the union is computed on a plain
    interval and the two seam-touching gaps are rejoined at the end.
    """
    segments: list[tuple[float, float]] = []
    for w in wedges:
        half = 0.5 * w.aperture + ANGLE_TOL
        if 2.0 * half >= TAU:
            # every direction: the union below would round this arc's wrapped
            # end, start + 2 * half - tau, and could leave a sliver before start
            return None
        start = normalize_angle(w.orientation - half)
        end = start + 2.0 * half
        if end <= TAU:
            segments.append((start, end))
        else:
            segments.append((start, TAU))
            segments.append((0.0, end - TAU))
    segments.sort()
    gaps: list[tuple[float, float]] = []
    reach = 0.0
    for start, end in segments:
        if start > reach:
            gaps.append((reach, start))
        reach = max(reach, end)
    if reach < TAU:
        gaps.append((reach, TAU))
    if not gaps:
        return None
    if len(gaps) >= 2 and gaps[0][0] == 0.0 and gaps[-1][1] == TAU:
        head = gaps.pop(0)
        tail = gaps.pop()
        gaps.append((tail[0], head[1] + TAU))
    lo, hi = max(gaps, key=lambda g: g[1] - g[0])
    return normalize_angle(0.5 * (lo + hi))


def _canonical_line(nx: float, ny: float, c: float) -> tuple[float, float, float]:
    norm = math.hypot(nx, ny)
    nx, ny, c = nx / norm, ny / norm, c / norm
    if nx < 0.0 or (nx == 0.0 and ny < 0.0):
        nx, ny, c = -nx, -ny, -c
    return nx, ny, c


def _ray_lines(w: _WedgeArrays) -> list[tuple[float, float, float]]:
    """The lines through each wedge's right and then left bounding ray,
    the rays that containment tests against."""
    lines = []
    for x, y, rx, ry, lx, ly in zip(*(v.tolist() for v in (w.ax, w.ay, w.rx, w.ry, w.lx, w.ly))):
        lines.append(_canonical_line(-ry, rx, -ry * x + rx * y))
        lines.append(_canonical_line(-ly, lx, -ly * x + lx * y))
    return lines


def _dedupe_lines(lines: Iterable[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    uniq: list[tuple[float, float, float]] = []
    for a, b, c in lines:
        for ua, ub, uc in uniq:
            if abs(a - ua) < 1e-9 and abs(b - ub) < 1e-9 and abs(c - uc) <= 1e-9 * (1.0 + abs(uc)):
                break
        else:
            uniq.append((a, b, c))
    return uniq


def _coverage_candidates(lines: Sequence[tuple[float, float, float]]) -> np.ndarray:
    """The vertices of the lines' arrangement and a point inside each face,
    as the rows of an array.

    The wedges are closed, so the uncovered set is open: if not empty, it
    meets an open face, on which coverage is constant.  An open set meeting
    a closed half-plane bounded by one of the lines meets its interior, a
    union of faces.  A point on each edge (``far`` past the end vertex on a
    ray) moves to both sides by half its distance to the nearest other line,
    into the incident faces.  ``far`` scales with the box of the vertices,
    or of the lines' feet when all are parallel.  Vertices stay because
    ``_dedupe_lines`` merges lines an ulp apart, and only a rounded vertex
    can land in the sliver between them.  The steps of all edge points
    are one array pass over the lines, with the float operations of a
    point-by-point loop.
    """
    vertices: list[tuple[float, float]] = []
    on_line: list[list[tuple[float, float]]] = [[] for _ in lines]
    for i, j in itertools.combinations(range(len(lines)), 2):
        (ai, bi, ci), (aj, bj, cj) = lines[i], lines[j]
        det = ai * bj - aj * bi
        if abs(det) <= 1e-12:
            continue
        x = (ci * bj - cj * bi) / det
        y = (ai * cj - aj * ci) / det
        vertices.append((x, y))
        on_line[i].append((x, y))
        on_line[j].append((x, y))

    xs, ys = zip(*(vertices or [(a * c, b * c) for a, b, c in lines]))
    far = 1.0 + 2.0 * (max(xs) - min(xs) + max(ys) - min(ys))
    owner: list[int] = []
    along: list[float] = []
    for i, (a, b, c) in enumerate(lines):
        anchor = (a * c, b * c)  # foot of the origin perpendicular
        ts = sorted((v[0] - anchor[0]) * -b + (v[1] - anchor[1]) * a for v in on_line[i])
        reps = [0.5 * (s + t) for s, t in zip(ts, ts[1:])]
        reps += [ts[0] - far, ts[-1] + far] if ts else [0.0]
        owner += [i] * len(reps)
        along += reps
    ka, kb, kc = np.array(lines, dtype=float).T
    k = np.array(owner, dtype=np.intp)
    t = np.array(along, dtype=float)
    with np.errstate(all="ignore"):  # as in float arithmetic, inf and nan pass silently
        a, b, c = ka[k], kb[k], kc[k]
        mx = a * c + t * -b  # the point on its own line
        my = b * c + t * a
        # half the distance to each other line not parallel to the own
        # one, along the own line's normal: the nearest sets the step
        val = ka[:, None] * mx + kb[:, None] * my - kc[:, None]
        denom = ka[:, None] * a + kb[:, None] * b
        other = (np.abs(denom) > 1e-12) & (np.abs(val) > 1e-12)
        other[k, np.arange(len(k))] = False
        steps = np.full(val.shape, far)
        np.divide(0.5 * np.abs(val), np.abs(denom), out=steps, where=other)
        step = steps.min(axis=0, initial=far)
        faces = np.empty((2 * len(k), 2))
        faces[0::2, 0], faces[0::2, 1] = mx + step * a, my + step * b
        faces[1::2, 0], faces[1::2, 1] = mx - step * a, my - step * b
    return np.concatenate((np.array(vertices, dtype=float).reshape(-1, 2), faces))


def _frame(xs: list, ys: list) -> tuple[float, float]:
    """The frame of the apexes (xs, ys): apex 0 rounded to a multiple of
    s, the least power of two above 16 times their spread (a spread below
    1 counts as 1, as lines that close merge at any offset).  A coordinate
    under s in size gives 0, and so do both with no apexes or too wide a
    spread.  Moving an apex by the frame is exact: a coordinate that moves
    is at least s / 2 in size for every apex, and lands less than s from 0."""
    if not xs or (abs(xs[0]) < 32.0 and abs(ys[0]) < 32.0):  # s is at least 32
        return 0.0, 0.0
    m, e = math.frexp(16.0 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0))
    if not (m < 1.0 and e < 1000):  # m < 1.0 fails on an inf or nan spread
        return 0.0, 0.0
    s = math.ldexp(1.0, e)
    x, y = xs[0], ys[0]
    return (x - math.remainder(x, s) if abs(x) >= s else 0.0), (y - math.remainder(y, s) if abs(y) >= s else 0.0)


def _coverage_hits(ants: Antennas, hp: Optional[HalfPlane]) -> tuple[np.ndarray, np.ndarray]:
    """The test points of the arrangement of every unbounded wedge's
    boundary lines, and of ``hp``'s boundary when given, as rows (those in
    ``hp`` only), and the (k, m) matrix of which wedge contains which.

    The arrangement refines any sub-group's, so the points decide coverage
    for each sub-group.  It is built and tested in the frame of
    :func:`_frame`, and its points are moved back: a set far from the
    origin decides as it would near it, where the frame is the origin and
    nothing moves.
    """
    w = ants.wedges
    x0, y0 = _frame(ants.x.tolist(), ants.y.tolist())
    moved = x0 != 0.0 or y0 != 0.0
    if moved:
        w = w._replace(ax=w.ax - x0, ay=w.ay - y0)
    lines = _ray_lines(w)
    if hp is not None:
        c = hp.c - hp.nx * x0 - hp.ny * y0 if moved else hp.c  # as it is, a -0.0 too
        lines.insert(0, _canonical_line(hp.nx, hp.ny, c))
    pts = _coverage_candidates(_dedupe_lines(lines))
    if hp is not None:
        pts = pts[hp.nx * pts[:, 0] + hp.ny * pts[:, 1] - c >= -1e-9]
    hit = _containment_core(w.take((slice(None), None)), pts[:, 0], pts[:, 1])
    return (pts + (x0, y0) if moved else pts), hit


def plane_coverage_verify(wedges: Sequence[AntennaConfig]) -> CoverageReport:
    """Decide whether the union of unbounded wedges covers the whole plane.

    Two stages: a circle-of-directions check (a direction missing from
    every wedge's closed angular interval certifies non-coverage), then an
    arrangement test: coverage is constant on each open face of the
    wedges' boundary-line arrangement, so its vertices and one point per
    face decide exactly for the represented wedges.  The witness point is
    the lexicographically smallest uncovered one.
    """
    ants = _antennas(wedges)  # a few antennas: Python reads their columns fastest
    if any(map(math.isfinite, ants.range.tolist())):
        raise ValueError("plane_coverage_verify requires unbounded wedges")
    if not ants:
        return CoverageReport(False, witness_direction=0.0)

    gap = _direction_gap(ants)
    if gap is not None:
        return CoverageReport(False, witness_direction=gap)

    pts, hit = _coverage_hits(ants, None)
    miss = ~hit.any(axis=0)
    if not miss.any():
        return CoverageReport(True)
    wx, wy = min(map(tuple, pts[miss]))
    return CoverageReport(False, witness_point=Point(float(wx), float(wy)))


# ---------------------------------------------------------------------------
# Linear separability
# ---------------------------------------------------------------------------


def weakly_separable(group_a: Sequence[Point], group_b: Sequence[Point]) -> bool:
    """True iff some line has all of ``group_a`` on its closed left side and
    all of ``group_b`` on its closed right side (or vice versa).

    If a weak separating line exists, one exists through two input points,
    so scanning all point pairs with exact predicates is a complete test.
    """
    if not group_a or not group_b:
        return True
    pts = list(group_a) + list(group_b)
    if len(set(pts)) < 2:
        return True  # a single location: any line through it separates weakly
    for p, q in itertools.permutations(pts, 2):
        if p == q:
            continue
        if all(orientation_sign(p, q, a) >= 0 for a in group_a) and all(
            orientation_sign(p, q, b) <= 0 for b in group_b
        ):
            return True
    return False
