"""Planar primitives: points, antenna sectors, hulls and coverage tests.

Conventions used throughout the package:

* An antenna (:class:`AntennaConfig`) is one closed circular sector, its
  wedge: a location, an orientation, an aperture and a range.  It is
  validated and its orientation normalized when it is constructed, so
  every geometry function takes antennas as they are.
* Angles are radians.  Stored orientations are normalized to ``[0, tau)``.
  A wedge's ``orientation`` is the direction of its bisector; the two
  bounding rays sit at ``orientation +/- aperture / 2``.
* Wedges are closed: points on a bounding ray (and the location itself)
  are contained, and a point exactly at distance ``range`` is in range.
* Sign predicates (``orientation_sign``, ``dot_sign``) are exact for any
  float inputs: a floating-point filter decides the easy cases and the
  rest fall back to rational arithmetic.
* Containment cannot be made exact in the same sense because
  orientations pass through ``atan2``/``cos``/``sin``.  Instead the
  angular test grants ``ANGLE_TOL`` radians of slack on both bounding
  rays, so a point constructed to lie on a ray stays inside after the
  orientation is rounded, serialized and re-read.  Squared-distance
  comparisons get an absolute ``DIST_SQ_TOL`` of slack.
* Plane and half-plane coverage are decided by testing the vertices of
  the wedges' line arrangement and one point inside each of its faces.
  The sampling oracle the tests cross-check that decision against lives
  in ``tests/oracles.py``, with the scalar ``wedge_contains`` and the
  half-plane checker ``halfplane_covered`` that only the tests call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

TAU = 2.0 * math.pi
QUARTER_TURN = math.pi / 2.0

#: Angular slack (radians) granted on wedge boundaries; see module docstring.
ANGLE_TOL = 1e-12
#: Absolute slack for squared-distance comparisons against a squared range.
DIST_SQ_TOL = 1e-9

# Floating-point filter threshold for the sign predicates.  Anything with
# |result| above _SIGN_FILTER * (magnitude of the terms) is trusted; the
# rest is recomputed in exact rational arithmetic.
_SIGN_FILTER = 4e-15


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


# ---------------------------------------------------------------------------
# Exact sign predicates
# ---------------------------------------------------------------------------


def _exact_cross(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    f = Fraction
    det = (f(p2.x) - f(p1.x)) * (f(q2.y) - f(q1.y)) - (f(p2.y) - f(p1.y)) * (f(q2.x) - f(q1.x))
    return (det > 0) - (det < 0)


def _exact_dot(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    f = Fraction
    dot = (f(p2.x) - f(p1.x)) * (f(q2.x) - f(q1.x)) + (f(p2.y) - f(p1.y)) * (f(q2.y) - f(q1.y))
    return (dot > 0) - (dot < 0)


def vec_cross_sign(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    """Exact sign of cross(p2 - p1, q2 - q1)."""
    left = (p2.x - p1.x) * (q2.y - q1.y)
    right = (p2.y - p1.y) * (q2.x - q1.x)
    det = left - right
    scale = abs(left) + abs(right)
    if abs(det) > _SIGN_FILTER * scale:
        return 1 if det > 0 else -1
    if scale == 0.0:
        return 0
    return _exact_cross(p1, p2, q1, q2)


def vec_dot_sign(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    """Exact sign of dot(p2 - p1, q2 - q1)."""
    left = (p2.x - p1.x) * (q2.x - q1.x)
    right = (p2.y - p1.y) * (q2.y - q1.y)
    dot = left + right
    scale = abs(left) + abs(right)
    if abs(dot) > _SIGN_FILTER * scale:
        return 1 if dot > 0 else -1
    if scale == 0.0:
        return 0
    return _exact_dot(p1, p2, q1, q2)


def orientation_sign(a: Point, b: Point, c: Point) -> int:
    """+1 if a->b->c turns left, -1 if right, 0 if collinear.  Exact."""
    return vec_cross_sign(a, b, a, c)


def dot_sign(a: Point, b: Point, c: Point) -> int:
    """Exact sign of dot(b - a, c - a); 0 means a right angle at ``a``."""
    return vec_dot_sign(a, b, a, c)


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
    pts = sorted(set(points), key=Point.as_tuple)
    if len(pts) == 1:
        return [pts[0]]

    def chain(seq: list[Point]) -> list[Point]:
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and orientation_sign(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        return [pts[0], pts[-1]]
    return hull


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


def _wedge_arrays(wedges: Sequence[AntennaConfig]) -> _WedgeArrays:
    """The wedges as arrays, with the trigonometry done once per wedge."""
    return _sector_arrays(
        [w.location.x for w in wedges],
        [w.location.y for w in wedges],
        [w.orientation for w in wedges],
        [w.aperture for w in wedges],
        [w.range for w in wedges],
    )


def _sector_arrays(ax, ay, orientations, apertures, ranges) -> _WedgeArrays:
    """Wedge arrays from per-wedge apex coordinates, orientation (already
    normalized, as :class:`AntennaConfig` stores it), aperture and range,
    for callers that hold these without the antennas."""
    ax = np.array(ax, dtype=float)
    ay = np.array(ay, dtype=float)
    ori = np.array(orientations, dtype=float)
    ape = np.array(apertures, dtype=float)
    rng = np.array(ranges, dtype=float)
    half = 0.5 * ape
    tr = ori - half
    tl = ori + half
    return _WedgeArrays(
        ax, ay, np.cos(tr), np.sin(tr), np.cos(tl), np.sin(tl), ape, rng**2 + DIST_SQ_TOL
    )


def containment_matrix(
    wedges: Sequence[AntennaConfig], points: Sequence[Point] | np.ndarray
) -> np.ndarray:
    """Boolean matrix M with M[i, j] true iff wedges[i] contains points[j]."""
    k = len(wedges)
    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=float)
    else:
        pts = np.array([(p.x, p.y) for p in points], dtype=float)
    m = pts.shape[0]
    if k == 0 or m == 0:
        return np.zeros((k, m), dtype=bool)
    column = _wedge_arrays(wedges).take((slice(None), None))
    return _containment_core(column, pts[:, 0], pts[:, 1])


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
    return bool((aperture > math.pi + ANGLE_TOL).any()), bool((aperture >= TAU - ANGLE_TOL).any())


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
        ok = np.where(aperture <= math.pi + ANGLE_TOL, ok, ~((cl > tol) & (cr < -tol)))
    if full:
        ok |= aperture >= TAU - ANGLE_TOL
    ok |= d2 == 0.0  # the apex belongs to its own wedge
    return ok


# ---------------------------------------------------------------------------
# Half-planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfPlane:
    """The closed set {p : nx * p.x + ny * p.y >= c}."""

    nx: float
    ny: float
    c: float

    def __post_init__(self) -> None:
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
            return None
        start = normalize_angle(w.orientation - half)
        end = start + 2.0 * half
        if end <= TAU:
            segments.append((start, end))
        else:
            segments.append((start, TAU))
            segments.append((0.0, end - TAU))
    if not segments:
        return 0.0
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


def _wedge_boundary_lines(w: AntennaConfig) -> list[tuple[float, float, float]]:
    """The lines through the right and left bounding rays."""
    half = 0.5 * w.aperture
    x, y = w.location.x, w.location.y
    lines = []
    for t in (w.orientation - half, w.orientation + half):
        dx, dy = math.cos(t), math.sin(t)
        lines.append(_canonical_line(-dy, dx, -dy * x + dx * y))
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


def _coverage_candidates(lines: Sequence[tuple[float, float, float]]) -> list[tuple[float, float]]:
    """The vertices of the lines' arrangement and a point inside each face.

    The wedges are closed, so the uncovered set is open: if not empty, it
    meets an open face, on which coverage is constant.  An open set meeting
    a closed half-plane bounded by one of the lines meets its interior, a
    union of faces.  A point on each edge (``far`` past the end vertex on a
    ray) moves to both sides by half its distance to the nearest other line,
    into the incident faces.  ``far`` scales with the box of the vertices,
    or of the lines' feet when all are parallel.  Vertices stay because
    ``_dedupe_lines`` merges lines an ulp apart, and only a rounded vertex
    can land in the sliver between them.
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
    candidates: list[tuple[float, float]] = list(vertices)
    for i, (a, b, c) in enumerate(lines):
        anchor = (a * c, b * c)  # foot of the origin perpendicular
        dx, dy = -b, a
        ts = sorted((v[0] - anchor[0]) * dx + (v[1] - anchor[1]) * dy for v in on_line[i])
        reps = [0.5 * (s + t) for s, t in zip(ts, ts[1:])]
        reps += [ts[0] - far, ts[-1] + far] if ts else [0.0]
        for t in reps:
            mx, my = anchor[0] + t * dx, anchor[1] + t * dy
            step = far
            for k, (ka, kb, kc) in enumerate(lines):
                if k == i:
                    continue
                val = ka * mx + kb * my - kc
                denom = ka * a + kb * b
                if abs(denom) > 1e-12 and abs(val) > 1e-12:
                    step = min(step, 0.5 * abs(val) / abs(denom))
            candidates.append((mx + step * a, my + step * b))
            candidates.append((mx - step * a, my - step * b))
    return candidates


def _first_uncovered(wedges: Sequence[AntennaConfig], pts: np.ndarray) -> CoverageReport:
    """Covered, or else the lexicographically smallest row of ``pts``
    that no wedge contains, as the witness."""
    hit = containment_matrix(wedges, pts).any(axis=0)
    if hit.all():
        return CoverageReport(True)
    wx, wy = min(map(tuple, pts[~hit]))
    return CoverageReport(False, witness_point=Point(float(wx), float(wy)))


def plane_coverage_verify(wedges: Sequence[AntennaConfig]) -> CoverageReport:
    """Decide whether the union of unbounded wedges covers the whole plane.

    Two stages: a circle-of-directions check (a direction missing from
    every wedge's closed angular interval certifies non-coverage), then an
    arrangement test: coverage is constant on each open face of the
    wedges' boundary-line arrangement, so its vertices and one point per
    face decide exactly for the represented wedges.
    """
    for w in wedges:
        if math.isfinite(w.range):
            raise ValueError("plane_coverage_verify requires unbounded wedges")
    if not wedges:
        return CoverageReport(False, witness_direction=0.0)
    if any(w.aperture >= TAU - ANGLE_TOL for w in wedges):
        return CoverageReport(True)

    gap = _direction_gap(wedges)
    if gap is not None:
        return CoverageReport(False, witness_direction=gap)

    lines = _dedupe_lines(ln for w in wedges for ln in _wedge_boundary_lines(w))
    pts = np.array(_coverage_candidates(lines), dtype=float)
    return _first_uncovered(wedges, pts)


def _halfplane_test_points(wedges: Sequence[AntennaConfig], hp: HalfPlane) -> np.ndarray:
    """Rows: the test points in ``hp`` of the arrangement of its boundary
    and every wedge's boundary lines.  That arrangement refines any
    sub-group's, so the points decide coverage for each sub-group."""
    for w in wedges:
        if math.isfinite(w.range):
            raise ValueError("half-plane coverage needs unbounded ranges")
    lines = [_canonical_line(hp.nx, hp.ny, hp.c)]
    lines.extend(ln for w in wedges for ln in _wedge_boundary_lines(w))
    lines = _dedupe_lines(lines)
    candidates = _coverage_candidates(lines)
    return np.array([c for c in candidates if hp.value(c[0], c[1]) >= -1e-9], dtype=float)


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
