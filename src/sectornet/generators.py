"""Seeded instance generators with verified guarantees.

Every family re-checks its promise after generation (connectivity,
separation, exact collinearity, ...) so downstream experiments can rely
on the advertised structure instead of probabilistic luck.  All
randomness flows through :class:`~sectornet.rng.SplitMix64`, making each
(family, n, seed) triple fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .geometry import HalfPlane, Point, orientation_sign, weakly_separable
from .orientation import configs_from_assignment, orient_quadruplet
from .rng import SplitMix64
from .replacement import build_udg
from .scg import classify_separated_pair, is_connected

RANDOM_SQUARE = "random_square"
CONNECTED_UDG = "connected_udg"
SEPARATED_QUADS = "separated_quads"
STRATIFIED_QUADS = "stratified_quads"
CLUSTERED = "clustered"
COLLINEAR = "collinear"

FAMILIES = (
    RANDOM_SQUARE,
    CONNECTED_UDG,
    SEPARATED_QUADS,
    STRATIFIED_QUADS,
    CLUSTERED,
    COLLINEAR,
)


@dataclass(frozen=True)
class GenSpec:
    """What to generate: family name, point count and seed.

    ``side`` scales the uniform families, ``gap`` is the margin between
    the two groups of the separated families, ``case`` picks the
    coverage regime for the stratified family (1 or 2) and ``clusters``
    the number of blobs for the clustered family.
    """

    family: str
    n: int
    seed: int
    side: float = 100.0
    gap: float = 10.0
    case: Optional[int] = None
    clusters: int = 5


@dataclass(frozen=True)
class GeneratedInstance:
    points: tuple[Point, ...]
    metadata: dict = field(default_factory=dict)


#: Repeated draws in a row after which :func:`_distinct` gives up: a side
#: too small to hold n distinct floats (a subnormal one, say) would be
#: redrawn forever, while on a normal side one repeat is already rare.
_MAX_REPEATS = 10_000


def _distinct(draw: Callable[[], Point], n: int) -> list[Point]:
    """The first n distinct points that ``draw`` returns, in draw order."""
    pts: list[Point] = []
    taken = set()
    repeats = 0
    while len(pts) < n:
        p = draw()
        if p not in taken:
            taken.add(p)
            pts.append(p)
            repeats = 0
            continue
        repeats += 1
        if repeats == _MAX_REPEATS:
            raise ValueError(f"the side is too small for {n} distinct points")
    return pts


def _distinct_uniform(rng: SplitMix64, n: int, x0: float, x1: float, y0: float, y1: float) -> list[Point]:
    if not (0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf):  # else one point, redrawn forever
        raise ValueError(f"points need a finite positive side, got {x1 - x0!r} by {y1 - y0!r}")
    return _distinct(lambda: Point(rng.uniform(x0, x1), rng.uniform(y0, y1)), n)


def _rotate_translate(p: Point, ang: float, tx: float, ty: float) -> Point:
    c, s = math.cos(ang), math.sin(ang)
    return Point(tx + c * p.x - s * p.y, ty + s * p.x + c * p.y)


def _gen_random_square(spec: GenSpec, rng: SplitMix64) -> GeneratedInstance:
    pts = _distinct_uniform(rng, spec.n, 0.0, spec.side, 0.0, spec.side)
    return GeneratedInstance(tuple(pts))


def _gen_connected_udg(spec: GenSpec, rng: SplitMix64) -> GeneratedInstance:
    pts = [Point(0.0, 0.0)]
    taken = {pts[0]}
    while len(pts) < spec.n:
        base = pts[rng.randrange(len(pts))]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.05, 1.0)
        q = Point(base.x + rad * math.cos(ang), base.y + rad * math.sin(ang))
        if q not in taken:
            taken.add(q)
            pts.append(q)
    if not is_connected(build_udg(pts)):
        raise AssertionError("generator failed its connectivity guarantee")
    return GeneratedInstance(tuple(pts))


def _place_separated(rng: SplitMix64, side_a: list[Point], side_b: list[Point]) -> GeneratedInstance:
    """Apply a seeded rigid motion to a pair built around the y-axis."""
    ang = rng.uniform(0.0, 2.0 * math.pi)
    tx, ty = rng.uniform(-50, 50), rng.uniform(-50, 50)
    a = [_rotate_translate(p, ang, tx, ty) for p in side_a]
    b = [_rotate_translate(p, ang, tx, ty) for p in side_b]
    nx, ny = math.cos(ang), math.sin(ang)  # image of the +x direction
    separator = HalfPlane(nx, ny, nx * tx + ny * ty)
    if not weakly_separable(a, b):
        raise AssertionError("generator failed its separation guarantee")
    meta = {
        "separator": {"nx": separator.nx, "ny": separator.ny, "c": separator.c},
        "rotation": ang,
        "sides": [list(range(4)), list(range(4, 8))],
    }
    return GeneratedInstance(tuple(a + b), meta)


def _separated_frame(spec: GenSpec) -> tuple[float, float]:
    """Half the gap and the width of each side of a separated pair.  A
    negative gap would overlap the two sides, so it is refused, as are
    NaN and infinity, before anything is drawn."""
    if spec.n != 8:
        raise ValueError("separated quadruplet families need n = 8")
    if not 0.0 <= spec.gap < math.inf:
        raise ValueError(f"separated pairs need a finite gap of at least 0, got {spec.gap!r}")
    return 0.5 * spec.gap, max(spec.side, 1.0)


def _gen_separated_quads(spec: GenSpec, rng: SplitMix64) -> GeneratedInstance:
    half, w = _separated_frame(spec)
    side_a = _distinct_uniform(rng, 4, -half - w, -half, -w, w)
    side_b = _distinct_uniform(rng, 4, half, half + w, -w, w)
    return _place_separated(rng, side_a, side_b)


def _gen_stratified_quads(spec: GenSpec, rng: SplitMix64) -> GeneratedInstance:
    """A separated pair conditioned on its coverage regime.

    Case 1 needs a couple whose covered half-plane already contains the
    opposite side, which happens exactly when the fan aligns with the
    separator; an axis-aligned rectangle pins that alignment before the
    rigid motion.  Case 2 is the generic regime; random pairs are drawn
    until the classifier agrees (rejection is rare).
    """
    half, w = _separated_frame(spec)
    if spec.case not in (1, 2):
        raise ValueError("stratified family needs case 1 or 2")
    for _ in range(256):
        if spec.case == 1:
            rw = rng.uniform(0.3 * w, w)
            rh = rng.uniform(0.3 * w, w)
            ox = -half - rw - rng.uniform(0.0, 0.5 * w)
            oy = rng.uniform(-w, w)
            side_a = [
                Point(ox, oy),
                Point(ox + rw, oy),
                Point(ox + rw, oy + rh),
                Point(ox, oy + rh),
            ]
        else:
            side_a = _distinct_uniform(rng, 4, -half - w, -half, -w, w)
        side_b = _distinct_uniform(rng, 4, half, half + w, -w, w)
        inst = _place_separated(rng, side_a, side_b)
        sep = HalfPlane(**inst.metadata["separator"])
        cfg_a = configs_from_assignment(orient_quadruplet(inst.points[:4]))
        cfg_b = configs_from_assignment(orient_quadruplet(inst.points[4:]))
        case, x_a, x_b = classify_separated_pair(cfg_a, cfg_b, sep)
        if case == spec.case:
            inst.metadata["case"] = case
            inst.metadata["cover_numbers"] = [x_a, x_b]
            return inst
    raise AssertionError(f"could not hit case {spec.case} within the retry budget")


def _gen_clustered(spec: GenSpec, rng: SplitMix64) -> GeneratedInstance:
    k = max(1, spec.clusters)
    centers = _distinct_uniform(rng, k, 0.0, spec.side, 0.0, spec.side)
    spread = spec.side / (4.0 * k)

    def draw() -> Point:
        c = centers[rng.randrange(k)]
        return Point(c.x + spread * rng.gauss(), c.y + spread * rng.gauss())

    return GeneratedInstance(tuple(_distinct(draw, spec.n)))


def _gen_collinear(spec: GenSpec, rng: SplitMix64) -> GeneratedInstance:
    """Exactly collinear points: dyadic direction times integer steps,
    so the collinearity survives floating point untouched.  One or two
    points are collinear by definition; more are checked against the
    line through the first two."""
    while True:
        dx = rng.randrange(17) - 8
        dy = rng.randrange(17) - 8
        if dx or dy:
            break
    x0 = (rng.randrange(161) - 80) / 8.0
    y0 = (rng.randrange(161) - 80) / 8.0
    steps: list[int] = []
    seen = set()
    while len(steps) < spec.n:
        t = rng.randrange(8 * spec.n) - 4 * spec.n
        if t not in seen:
            seen.add(t)
            steps.append(t)
    pts = [Point(x0 + t * dx / 8.0, y0 + t * dy / 8.0) for t in steps]
    for p in pts[2:]:
        if orientation_sign(pts[0], pts[1], p) != 0:
            raise AssertionError("generator failed its collinearity guarantee")
    return GeneratedInstance(tuple(pts))


_GENERATORS = {
    RANDOM_SQUARE: _gen_random_square,
    CONNECTED_UDG: _gen_connected_udg,
    SEPARATED_QUADS: _gen_separated_quads,
    STRATIFIED_QUADS: _gen_stratified_quads,
    CLUSTERED: _gen_clustered,
    COLLINEAR: _gen_collinear,
}


def gen(spec: GenSpec) -> GeneratedInstance:
    """Generate an instance; same spec, same points, guarantee verified."""
    if spec.family not in _GENERATORS:
        raise ValueError(f"unknown family: {spec.family!r}")
    if spec.n < 1:
        raise ValueError("need at least one point")
    out = _GENERATORS[spec.family](spec, SplitMix64(spec.seed))
    if len(set(out.points)) != len(out.points):
        raise AssertionError("generator produced duplicate points")
    return out
