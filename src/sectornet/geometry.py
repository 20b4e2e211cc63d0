"""Planar primitives: points, quarter-plane wedges, hulls and coverage tests.

Conventions used throughout the package:

* Angles are radians.  Stored orientations are normalized to ``[0, tau)``.
  A wedge's ``orientation`` is the direction of its bisector; the two
  bounding rays sit at ``orientation +/- aperture / 2``.
* Wedges are closed: points on a bounding ray (and the apex itself) are
  contained, and a point exactly at distance ``range`` is in range.
* Sign predicates (``orientation_sign``, ``dot_sign``) are exact for any
  float inputs: a floating-point filter decides the easy cases and the
  rest fall back to rational arithmetic.
* Wedge containment cannot be made exact in the same sense because
  orientations pass through ``atan2``/``cos``/``sin``.  Instead the
  angular test grants ``ANGLE_TOL`` radians of slack on both bounding
  rays, so a point constructed to lie on a ray stays inside after the
  orientation is rounded, serialized and re-read.  Squared-distance
  comparisons get an absolute ``DIST_SQ_TOL`` of slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
class Wedge:
    """A closed circular sector: apex, bisector orientation, aperture, range.

    ``range`` is ``math.inf`` for an unbounded wedge.  The default aperture
    is a quarter turn (pi/2), the only aperture the constructions in this
    package ever emit, but containment supports any aperture in (0, tau].
    """

    apex: Point
    orientation: float
    aperture: float = QUARTER_TURN
    range: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 < self.aperture <= TAU):
            raise ValueError(f"aperture must be in (0, tau], got {self.aperture}")
        if not (self.range > 0.0):
            raise ValueError(f"range must be positive, got {self.range}")
        object.__setattr__(self, "orientation", normalize_angle(self.orientation))

    def boundary_directions(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Unit direction vectors of the right and left bounding rays."""
        half = 0.5 * self.aperture
        tr = self.orientation - half
        tl = self.orientation + half
        return (math.cos(tr), math.sin(tr)), (math.cos(tl), math.sin(tl))


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
# Wedge containment (scalar and vectorized share one formula)
# ---------------------------------------------------------------------------


def containment_matrix(wedges: Sequence[Wedge], points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """Boolean matrix M with M[i, j] true iff wedges[i] contains points[j]."""
    k = len(wedges)
    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=float)
    else:
        pts = np.array([(p.x, p.y) for p in points], dtype=float)
    m = pts.shape[0]
    if k == 0 or m == 0:
        return np.zeros((k, m), dtype=bool)
    ax = np.array([w.apex.x for w in wedges])
    ay = np.array([w.apex.y for w in wedges])
    ori = np.array([w.orientation for w in wedges])
    ape = np.array([w.aperture for w in wedges])
    rng = np.array([w.range for w in wedges])
    return _containment_core(ax, ay, ori, ape, rng, pts[:, 0], pts[:, 1])


def _containment_core(
    ax: np.ndarray,
    ay: np.ndarray,
    orientation: np.ndarray,
    aperture: np.ndarray,
    rng: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
) -> np.ndarray:
    """Core of the closed-wedge test on (k wedges) x (m points) arrays."""
    half = 0.5 * aperture
    tr = orientation - half
    tl = orientation + half
    rx, ry = np.cos(tr), np.sin(tr)
    lx, ly = np.cos(tl), np.sin(tl)

    dx = px[None, :] - ax[:, None]
    dy = py[None, :] - ay[:, None]
    d2 = dx * dx + dy * dy
    tol = ANGLE_TOL * np.sqrt(d2)

    cr = rx[:, None] * dy - ry[:, None] * dx
    cl = lx[:, None] * dy - ly[:, None] * dx
    convex_ok = (cr >= -tol) & (cl <= tol)
    reflex_ok = ~((cl > tol) & (cr < -tol))
    is_convex = (aperture <= math.pi + ANGLE_TOL)[:, None]
    ang_ok = np.where(is_convex, convex_ok, reflex_ok)
    ang_ok |= (aperture >= TAU - ANGLE_TOL)[:, None]
    ang_ok |= d2 == 0.0  # the apex belongs to its own wedge

    finite = np.isfinite(rng)
    range_ok = np.ones_like(ang_ok)
    if finite.any():
        limit = np.where(finite, rng, 0.0) ** 2 + DIST_SQ_TOL
        range_ok = ~finite[:, None] | (d2 <= limit[:, None])
    return ang_ok & range_ok


def wedge_contains(w: Wedge, p: Point) -> bool:
    """True iff ``p`` lies in the closed sector of ``w`` and within range."""
    return bool(containment_matrix([w], [p])[0, 0])


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

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        return self.value(p.x, p.y) >= -tol


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


def _direction_gap(wedges: Sequence[Wedge]) -> Optional[float]:
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


def _wedge_boundary_lines(w: Wedge) -> list[tuple[float, float, float]]:
    lines = []
    for dx, dy in w.boundary_directions():
        lines.append(_canonical_line(-dy, dx, -dy * w.apex.x + dx * w.apex.y))
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


def _coverage_candidates(
    lines: Sequence[tuple[float, float, float]],
    anchors: Sequence[Point],
) -> list[tuple[float, float]]:
    """Test points hitting every vertex, edge and face of the arrangement.

    For each line we take the midpoints of consecutive intersection points
    (edge representatives) plus a representative on each unbounded ray, and
    offset each representative to both sides by less than the distance to
    the nearest other line, which lands inside the two incident faces.
    """
    n = len(lines)
    vertices: list[tuple[float, float]] = []
    on_line: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        (ai, bi, ci), (aj, bj, cj) = lines[i], lines[j]
        det = ai * bj - aj * bi
        if abs(det) <= 1e-12:
            continue
        x = (ci * bj - cj * bi) / det
        y = (ai * cj - aj * ci) / det
        vertices.append((x, y))
        on_line[i].append((x, y))
        on_line[j].append((x, y))

    hub = [(p.x, p.y) for p in anchors] + vertices
    span = 1.0
    for (x1, y1), (x2, y2) in itertools.combinations(hub, 2):
        span = max(span, math.hypot(x1 - x2, y1 - y2))
    far = 2.0 * span + 1.0

    candidates: list[tuple[float, float]] = list(vertices)
    candidates.extend((p.x, p.y) for p in anchors)
    for i, (a, b, c) in enumerate(lines):
        anchor = (a * c, b * c)  # foot of the origin perpendicular
        dx, dy = -b, a
        ts = sorted((v[0] - anchor[0]) * dx + (v[1] - anchor[1]) * dy for v in on_line[i])
        reps = []
        if ts:
            reps.extend([ts[0] - far, ts[-1] + far])
            reps.extend(0.5 * (ts[k] + ts[k + 1]) for k in range(len(ts) - 1))
        else:
            reps.append(0.0)
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
            candidates.append((mx, my))
            candidates.append((mx + step * a, my + step * b))
            candidates.append((mx - step * a, my - step * b))
    return candidates


def _first_uncovered(wedges: Sequence[Wedge], pts: np.ndarray) -> CoverageReport:
    """Covered, or else the lexicographically smallest row of ``pts``
    that no wedge contains, as the witness."""
    hit = containment_matrix(wedges, pts).any(axis=0)
    if hit.all():
        return CoverageReport(True)
    wx, wy = min(map(tuple, pts[~hit]))
    return CoverageReport(False, witness_point=Point(float(wx), float(wy)))


def plane_coverage_verify(wedges: Sequence[Wedge]) -> CoverageReport:
    """Decide whether the union of unbounded wedges covers the whole plane.

    Two stages: a circle-of-directions check (a direction missing from
    every wedge's closed angular interval certifies non-coverage), then an
    arrangement test.  Coverage is constant on every cell of the
    arrangement of the wedges' boundary lines, so testing one point per
    vertex, edge and face is an exact decision for the represented wedges.
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
    candidates = _coverage_candidates(lines, [w.apex for w in wedges])
    pts = np.array(candidates, dtype=float)
    return _first_uncovered(wedges, pts)


def halfplane_covered(wedges: Sequence[Wedge], hp: HalfPlane) -> CoverageReport:
    """Decide whether the union of unbounded wedges covers a half-plane."""
    for w in wedges:
        if math.isfinite(w.range):
            raise ValueError("halfplane_covered requires unbounded wedges")
    if not wedges:
        # Any point of the half-plane witnesses non-coverage.
        norm = math.hypot(hp.nx, hp.ny)
        return CoverageReport(False, witness_point=Point(hp.nx * hp.c / norm**2, hp.ny * hp.c / norm**2))
    lines = [_canonical_line(hp.nx, hp.ny, hp.c)]
    lines.extend(ln for w in wedges for ln in _wedge_boundary_lines(w))
    lines = _dedupe_lines(lines)
    candidates = _coverage_candidates(lines, [w.apex for w in wedges])
    pts = np.array([c for c in candidates if hp.value(c[0], c[1]) >= -1e-9], dtype=float)
    if pts.size == 0:
        return CoverageReport(True)
    return _first_uncovered(wedges, pts)


def coverage_sample_check(
    wedges: Sequence[Wedge],
    grid_points: int = 100_000,
    ring_points: int = 10_000,
) -> CoverageReport:
    """Sampling-based coverage check, used to cross-validate the exact one.

    Samples a dense grid over the apex bounding box inflated by the largest
    pairwise apex distance, plus directions on a far ring.  Can only refute
    coverage; agreement with :func:`plane_coverage_verify` on robust inputs
    is checked in the test suite.
    """
    if not wedges:
        return CoverageReport(False, witness_direction=0.0)
    xs = [w.apex.x for w in wedges]
    ys = [w.apex.y for w in wedges]
    spread = max(
        max(math.hypot(a.x - b.x, a.y - b.y) for a in (w.apex for w in wedges) for b in (v.apex for v in wedges)),
        1.0,
    )
    lo_x, hi_x = min(xs) - spread, max(xs) + spread
    lo_y, hi_y = min(ys) - spread, max(ys) + spread
    side = max(1, int(math.sqrt(grid_points)))
    gx, gy = np.meshgrid(np.linspace(lo_x, hi_x, side), np.linspace(lo_y, hi_y, side))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    cx, cy = (lo_x + hi_x) / 2.0, (lo_y + hi_y) / 2.0
    radius = 4.0 * spread + 1.0
    theta = np.linspace(0.0, TAU, ring_points, endpoint=False)
    ring = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    pts = np.vstack([grid, ring])
    return _first_uncovered(wedges, pts)


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
