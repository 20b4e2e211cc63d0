"""Geometry layer: predicates, hulls, containment, coverage decisions."""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull as QhullHull

from sectornet.geometry import (
    ANGLE_TOL,
    DIST_SQ_TOL,
    QUARTER_TURN,
    TAU,
    AntennaConfig,
    Antennas,
    HalfPlane,
    Point,
    containment_matrix,
    distance,
    normalize_angle,
    orientation_sign,
    plane_coverage_verify,
    squared_distance,
    weakly_separable,
)
from sectornet import geometry
from sectornet.orientation import configs_from_assignment, orient_quadruplet
from sectornet.power import orient_and_assign
from sectornet.replacement import REPLACEMENT_RANGE, replace

from oracles import (
    choice,
    convex_hull,
    coverage_sample_check,
    dot_sign,
    halfplane_covered,
    rational_signs,
    vec_dot_sign,
    wedge_contains,
)
from sectornet.rng import SplitMix64


def test_point_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Point(bad, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, bad)


def test_point_basics():
    p = Point(3.0, -4.0)
    assert p.as_tuple() == (3.0, -4.0)
    assert distance(Point(0.0, 0.0), p) == 5.0
    assert squared_distance(Point(0.0, 0.0), p) == 25.0
    assert Point(1.0, 2.0) == Point(1.0, 2.0)
    assert len({Point(1.0, 2.0), Point(1.0, 2.0)}) == 1


def test_normalize_angle_range_and_values():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(TAU) == 0.0
    assert normalize_angle(-0.5) == pytest.approx(TAU - 0.5)
    assert normalize_angle(7.0 * math.pi) == pytest.approx(math.pi)
    rng = SplitMix64(5)
    for _ in range(200):
        a = rng.uniform(-50.0, 50.0)
        v = normalize_angle(a)
        assert 0.0 <= v < TAU
        assert math.isclose(math.cos(v), math.cos(a), abs_tol=1e-12)
        assert math.isclose(math.sin(v), math.sin(a), abs_tol=1e-12)


def test_orientation_sign_matches_rational_arithmetic():
    rng = SplitMix64(11)
    pts = []
    for _ in range(60):
        base = rng.uniform(-5.0, 5.0)
        pts.append(Point(base + rng.gauss() * 1e-13, base + rng.gauss() * 1e-13))
    pts += [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(60)]
    checked = degenerate = 0
    for _ in range(4000):
        a, b, c = (pts[rng.randrange(len(pts))] for _ in range(3))
        got = orientation_sign(a, b, c)
        want = rational_signs(a, b, a, c)[0]
        assert got == want, (a, b, c)
        checked += 1
        degenerate += want == 0
    assert checked == 4000 and degenerate > 0


def test_orientation_sign_exact_on_scaled_integer_grid():
    # Exactly collinear inputs (dyadic coordinates) must give sign 0.
    s = 2.0**-30
    a = Point(3 * s, 5 * s)
    b = Point(7 * s, 13 * s)
    c = Point(11 * s, 21 * s)  # b - a == c - b
    assert orientation_sign(a, b, c) == 0
    assert orientation_sign(a, c, b) == 0
    assert orientation_sign(a, b, Point(11 * s, 21 * s + s)) == 1
    assert orientation_sign(a, b, Point(11 * s, 21 * s - s)) == -1


def test_signs_stay_exact_where_products_underflow():
    # both products underflow to zero, though the turn is a left turn
    assert orientation_sign(Point(3.0, 0.0), Point(3.0000000000000004, 0.0), Point(3.0, 5e-324)) == 1
    assert dot_sign(Point(0.0, 0.0), Point(1e-200, 0.0), Point(1e-200, 5.0)) == 1
    rng = SplitMix64(12)
    tiny = [0.0, 5e-324, -5e-324, 1e-320, 2.0**-1022, 1e-300, 1e-160, 3e-160, 1.0, 3.0]
    pts = [Point(choice(rng, tiny) * (1 + rng.randrange(3)), choice(rng, tiny)) for _ in range(80)]
    pts += [Point(3.0 + choice(rng, tiny), choice(rng, tiny)) for _ in range(40)]
    for _ in range(6000):
        a, b, c = (pts[rng.randrange(len(pts))] for _ in range(3))
        assert (orientation_sign(a, b, c), dot_sign(a, b, c)) == rational_signs(a, b, a, c), (a, b, c)


def _adversarial_point(rng, scale: float) -> Point:
    """A point whose coordinates stress the float filter: a signed zero
    or a subnormal, or else a half-integer lattice value at ``scale``
    nudged by up to two ulps."""

    def coord() -> float:
        if rng.randrange(4) == 0:
            return choice(rng, [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.0**-1022])
        v = 0.5 * (rng.randrange(9) - 4) * scale
        for _ in range(rng.randrange(3)):
            v = math.nextafter(v, choice(rng, [-math.inf, math.inf]))
        return v

    return Point(coord(), coord())


def test_vec_dot_sign_matches_rational_arithmetic():
    # lattices at unit scale, in the subnormals, and near 1e155, where the
    # products overflow to inf and only the exact fallback can decide
    rng = SplitMix64(14)
    seen = {-1: 0, 0: 0, 1: 0}
    for _ in range(6000):
        scale = choice(rng, [1.0, 2.0**-1060, 2.0**514])
        p1, p2, q1, q2 = (_adversarial_point(rng, scale) for _ in range(4))
        want = rational_signs(p1, p2, q1, q2)[1]
        assert vec_dot_sign(p1, p2, q1, q2) == want, (p1, p2, q1, q2)
        assert dot_sign(p1, p2, q2) == rational_signs(p1, p2, p1, q2)[1], (p1, p2, q2)
        seen[want] += 1
    assert min(seen.values()) > 40, seen  # right angles are rarer once nudged


def test_array_signs_match_rational_arithmetic():
    # the cross and the dot of each quadruple, all in one kernel call, on
    # the lattices above: overflowing and underflowing products included
    rng = SplitMix64(15)
    quads = []
    for _ in range(3000):
        scale = choice(rng, [1.0, 2.0**-1060, 2.0**514])
        quads.append([_adversarial_point(rng, scale) for _ in range(4)])
    (p1x, p1y), (p2x, p2y), (q1x, q1y), (q2x, q2y) = (
        (np.array([q[k].x for q in quads]), np.array([q[k].y for q in quads])) for k in range(4)
    )
    # row 0 the cross, row 1 the dot: the cross with the second vector
    # turned a quarter, as vec_dot_sign passes it
    pairs = [(p1x, p1x), (p1y, p1y), (p2x, p2x), (p2y, p2y), (q1x, q2y), (q1y, q1x), (q2x, q1y), (q2y, q2x)]
    got = geometry._cross_signs(*(np.stack(pair) for pair in pairs))
    assert got.dtype == np.int8 and got.shape == (2, len(quads))
    assert list(zip(*got.tolist())) == [rational_signs(*q) for q in quads]


def test_dot_sign_basic():
    o, x, y = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)
    assert dot_sign(o, x, y) == 0  # perpendicular
    assert dot_sign(o, x, Point(2.0, 5.0)) == 1
    assert dot_sign(o, x, Point(-1e-300, 1.0)) == -1


def test_convex_hull_hand_case():
    pts = [
        Point(0.0, 0.0),
        Point(2.0, 0.0),
        Point(2.0, 2.0),
        Point(0.0, 2.0),
        Point(1.0, 1.0),  # interior
        Point(1.0, 0.0),  # edge midpoint
        Point(0.0, 0.0),  # duplicate
    ]
    hull = convex_hull(pts)
    assert hull == [Point(0.0, 0.0), Point(2.0, 0.0), Point(2.0, 2.0), Point(0.0, 2.0)]


def test_convex_hull_collinear_returns_extremes():
    pts = [Point(float(k), 2.0 * k) for k in (3, 0, 1, 4, 2)]
    assert convex_hull(pts) == [Point(0.0, 0.0), Point(4.0, 8.0)]
    assert convex_hull([Point(1.0, 1.0)]) == [Point(1.0, 1.0)]


def test_convex_hull_matches_qhull_on_random_sets():
    rng = SplitMix64(23)
    for _ in range(40):
        pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(30)]
        ours = convex_hull(pts)
        arr = np.array([p.as_tuple() for p in pts])
        theirs = {tuple(arr[i]) for i in QhullHull(arr).vertices}
        assert {p.as_tuple() for p in ours} == theirs
        # counterclockwise, starting at the lexicographic minimum
        assert ours[0] == min(ours, key=lambda p: (p.x, p.y))
        area2 = sum(
            ours[i].x * ours[(i + 1) % len(ours)].y - ours[(i + 1) % len(ours)].x * ours[i].y
            for i in range(len(ours))
        )
        assert area2 > 0


def test_wedge_validation():
    apex = Point(0.0, 0.0)
    with pytest.raises(ValueError):
        AntennaConfig(apex, 0.0, 0.0)
    with pytest.raises(ValueError):
        AntennaConfig(apex, 0.0, TAU + 1e-6)
    with pytest.raises(ValueError):
        AntennaConfig(apex, 0.0, QUARTER_TURN, 0.0)
    with pytest.raises(ValueError):
        AntennaConfig(apex, 0.0, QUARTER_TURN, math.nan)
    w = AntennaConfig(apex, -QUARTER_TURN, QUARTER_TURN)
    assert 0.0 <= w.orientation < TAU
    # the orientation is stored normalized, so equal sectors compare equal
    assert AntennaConfig(apex, -0.5) == AntennaConfig(apex, TAU - 0.5)
    assert w.wedge() is w


def _bench_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its data classes look their module up
    spec.loader.exec_module(module)
    return module


class _Untraced:
    def call(self, name, f, *args):
        return f(*args)


def _row_bits(c):
    return (c.location.x.hex(), c.location.y.hex(), c.orientation.hex(), c.aperture.hex(), c.range.hex())


def _antenna_columns():
    """(locations, orientations, apertures, ranges) from the benchmark's
    UDG and power pools, with the orientations turned by whole turns and
    negated so that normalizing has work to do, plus hand-picked angles
    and random sectors."""
    bench, t, rng = _bench_workloads(), _Untraced(), np.random.default_rng(20)
    cases = []
    for make, n in ((bench.make_udg_dense, 300), (bench.make_udg_web, 285)):
        for pts, mode in make(1, {"n": n, "pool": 3}, t):
            aims = replace(pts, mode).configs.orientation
            cases.append((pts, aims, QUARTER_TURN, np.full(len(pts), REPLACEMENT_RANGE)))
    for pts, beta in bench.make_power_chain(1, {"n": 512, "pool": 2}, t):
        points, aims, radii = zip(*orient_and_assign(pts, beta).entries)
        cases.append((points, np.array(aims), QUARTER_TURN, np.array(radii)))
    special = [-0.0, 0.0, -TAU, TAU, -1e-300, 1e-300, 7 * TAU, -7 * TAU, -math.pi, 1e300, -5e-324, TAU - 1e-16]
    points = [Point(float(k), 0.0) for k in range(len(special))]
    cases.append((points, np.array(special), QUARTER_TURN, math.inf))
    n = 500
    points = [Point(float(k), float(-k)) for k in range(n)]
    apertures = TAU * (1.0 - rng.random(n))  # in (0, tau]
    ranges = np.where(rng.random(n) < 0.3, math.inf, rng.exponential(10.0, n))
    cases.append((points, rng.normal(0.0, 50.0, n), apertures, ranges))
    for points, aims, apertures, ranges in cases:
        turns = rng.integers(-3, 4, len(aims)) * TAU
        sign = rng.choice([-1.0, 1.0], len(aims))
        yield points, aims, apertures, ranges
        yield points, sign * aims + turns, apertures, ranges


def test_antennas_rows_equal_per_row_construction():
    seen = 0
    for points, aims, apertures, ranges in _antenna_columns():
        ants = Antennas(points, aims, apertures, ranges)
        n = len(points)
        columns = (aims, np.broadcast_to(apertures, n), np.broadcast_to(ranges, n))
        rows = [AntennaConfig(p, o, a, r) for p, o, a, r in zip(points, *(c.tolist() for c in columns))]
        assert len(ants) == n and ants.locations == tuple(points)
        assert [_row_bits(c) for c in ants] == [_row_bits(c) for c in rows]
        assert [o.hex() for o in ants.orientation.tolist()] == [c.orientation.hex() for c in rows]
        assert list(ants) == rows
        seen += n
    assert seen > 5000


def test_normalize_angles_matches_normalize_angle_bit_for_bit():
    rng = np.random.default_rng(7)
    angles = np.concatenate(
        (
            rng.uniform(-4 * TAU, 4 * TAU, 40_000),
            rng.normal(0.0, 1.0, 20_000) * 10.0 ** rng.integers(-300, 300, 20_000),
            np.arange(-40, 41) * (TAU / 8),
            [-0.0, 0.0, -TAU, TAU, -1e-300, 7 * TAU, -5e-324, 5e-324, np.nextafter(TAU, 0), np.nextafter(-TAU, 0)],
        )
    )
    got = geometry._normalize_angles(angles).tolist()
    assert [a.hex() for a in got] == [normalize_angle(a).hex() for a in angles.tolist()]


@pytest.mark.parametrize(
    "orientation, aperture, range_",
    [
        (math.nan, QUARTER_TURN, 1.0),
        (math.inf, QUARTER_TURN, 1.0),
        (-math.inf, QUARTER_TURN, 1.0),
        (0.0, 0.0, 1.0),
        (0.0, -1.0, 1.0),
        (0.0, TAU + 1e-6, 1.0),
        (0.0, math.nan, 1.0),
        (0.0, QUARTER_TURN, 0.0),
        (0.0, QUARTER_TURN, -1.0),
        (0.0, QUARTER_TURN, math.nan),
        (0.0, QUARTER_TURN, -math.inf),
    ],
)
def test_antennas_reject_what_an_antenna_rejects(orientation, aperture, range_):
    apex = Point(1.0, 2.0)
    with pytest.raises(ValueError) as one:
        AntennaConfig(apex, orientation, aperture, range_)
    good = AntennaConfig(Point(0.0, 0.0), 1.0)
    with pytest.raises(ValueError) as many:
        Antennas([good.location, apex], [1.0, orientation], [QUARTER_TURN, aperture], [math.inf, range_])
    assert str(many.value) == str(one.value)


def test_antennas_is_an_immutable_sequence_of_rows():
    configs = [AntennaConfig(Point(float(k), 1.0), 0.5 * k, QUARTER_TURN, 2.0 + k) for k in range(5)]
    ants = Antennas([c.location for c in configs], [0.5 * k for k in range(5)], QUARTER_TURN, [2.0, 3.0, 4.0, 5.0, 6.0])
    assert len(ants) == 5 and ants[0] == configs[0] and ants[-1] == configs[-1]
    assert ants[1:3] == tuple(configs[1:3]) and list(ants) == configs
    assert ants.index(configs[2]) == 2 and configs[3] in ants
    assert ants == Antennas(ants.locations, ants.orientation, ants.aperture, ants.range)
    assert ants != Antennas(ants.locations, ants.orientation + 0.5, ants.aperture, ants.range)
    # an x of -0.0 equals 0.0, as for points; a point moved by an ulp does not
    for x, equal in ((-0.0, True), (5e-324, False)):
        locations = [Point(x, 1.0), *ants.locations[1:]]
        assert (ants == Antennas(locations, ants.orientation, ants.aperture, ants.range)) is equal
    for name in ("x", "y", "orientation", "aperture", "range"):
        column = getattr(ants, name)
        assert column.dtype == np.float64 and column.shape == (5,)
        with pytest.raises(ValueError):
            column[0] = 1.0
    with pytest.raises(AttributeError):
        ants.x = np.zeros(5)
    # a plain sequence becomes a set once, and its rows stay the same objects
    converted = geometry._antennas(configs)
    assert converted == ants and all(a is b for a, b in zip(converted, configs))
    assert geometry._antennas(converted) is converted
    with pytest.raises(ValueError):
        Antennas(ants.locations, [0.0, 1.0], QUARTER_TURN, 1.0)  # a column of the wrong length
    empty = Antennas([], [], QUARTER_TURN, 1.0)
    assert len(empty) == 0 and list(empty) == [] and empty.x.shape == (0,)


def test_configs_from_assignment_is_one_antenna_per_entry():
    asg = orient_quadruplet([Point(0.0, 0.0), Point(4.0, 1.0), Point(1.0, 5.0), Point(-2.0, 2.0)])
    got = configs_from_assignment(asg)
    assert got == [AntennaConfig(p, a, QUARTER_TURN) for p, a in asg.entries]
    assert all(math.isinf(c.range) for c in got)


def test_wedge_contains_quarter_wedge():
    w = AntennaConfig(Point(0.0, 0.0), math.pi / 4.0, QUARTER_TURN)  # spans [0, pi/2]
    assert wedge_contains(w, Point(0.0, 0.0))  # apex belongs
    assert wedge_contains(w, Point(1.0, 0.0))  # right boundary ray
    assert wedge_contains(w, Point(0.0, 1.0))  # left boundary ray
    assert wedge_contains(w, Point(5.0, 3.0))
    assert not wedge_contains(w, Point(-1.0, 0.5))
    assert not wedge_contains(w, Point(1.0, -1e-6))
    assert not wedge_contains(w, Point(-1e-6, 1.0))


def test_wedge_range_uses_squared_distance_tolerance():
    w = AntennaConfig(Point(0.0, 0.0), math.pi / 4.0, QUARTER_TURN, range=5.0)
    assert wedge_contains(w, Point(3.0, 4.0))  # exactly at range
    assert not wedge_contains(w, Point(3.0, 4.1))
    # squared distance within DIST_SQ_TOL of range**2 still counts
    r = math.sqrt(25.0 + 0.5 * DIST_SQ_TOL)
    assert wedge_contains(w, Point(r / math.sqrt(2.0), r / math.sqrt(2.0)))


def _contains_reference(w, p):
    """Angle-interval membership, written independently of the vector route."""
    dx, dy = p.x - w.location.x, p.y - w.location.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return True
    if math.isfinite(w.range) and d * d > w.range * w.range + DIST_SQ_TOL:
        return False
    theta = math.atan2(dy, dx) % TAU
    half = 0.5 * w.aperture
    off = (theta - w.orientation) % TAU
    slack = ANGLE_TOL  # comparable to the vector-form tolerance at unit scale
    return off <= half + slack or off >= TAU - half - slack


def test_containment_matrix_matches_angle_interval_reference():
    rng = SplitMix64(37)
    for _ in range(30):
        wedges = [
            AntennaConfig(
                Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                rng.uniform(0, TAU),
                choice(rng, [QUARTER_TURN, 1.0, math.pi, 5.0]),
                choice(rng, [math.inf, 3.0, 8.0]),
            )
            for _ in range(6)
        ]
        pts = [Point(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(40)]
        got = containment_matrix(wedges, pts)
        assert got.shape == (6, 40) and got.dtype == bool
        for i, w in enumerate(wedges):
            for j, p in enumerate(pts):
                assert got[i, j] == _contains_reference(w, p), (w, p)
                assert got[i, j] == wedge_contains(w, p)


def test_containment_matrix_accepts_ndarray():
    w = AntennaConfig(Point(0.0, 0.0), 0.0, math.pi)
    arr = np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, 2.0]])
    got = containment_matrix([w], arr)
    assert got.tolist() == [[True, False, True]]


def test_halfplane_value_and_contains():
    hp = HalfPlane(0.0, 1.0, 2.0)  # y >= 2
    assert hp.value(10.0, 5.0) == 3.0
    assert hp.value(0.0, 2.0) >= 0
    assert not hp.value(0.0, 1.999) >= 0


def test_halfplane_rejects_non_finite_coefficients():
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                HalfPlane(*args)
    with pytest.raises(ValueError, match="nonzero"):
        HalfPlane(0.0, -0.0, 1.0)


def test_plane_coverage_rejects_bounded_wedges():
    with pytest.raises(ValueError):
        plane_coverage_verify([AntennaConfig(Point(0.0, 0.0), 0.0, QUARTER_TURN, 5.0)])


def test_plane_coverage_empty_and_direction_gap():
    rep = plane_coverage_verify([])
    assert not rep.covered and rep.witness_direction is not None
    # all wedges aimed the same way: a direction certificate must appear
    wedges = [AntennaConfig(Point(float(i), 0.0), 1.0, QUARTER_TURN) for i in range(4)]
    rep = plane_coverage_verify(wedges)
    assert not rep.covered
    assert rep.witness_direction is not None
    half = QUARTER_TURN / 2.0 + 1e-6
    off = (rep.witness_direction - 1.0) % TAU
    assert half < off < TAU - half  # genuinely outside every angular interval


def test_a_wedge_whose_slack_closes_the_circle_covers_every_direction():
    # the aperture is below the full-circle threshold, but with its slack
    # the arc is a whole turn; its wrapped end, start + 2 * half - tau,
    # rounds short of its start, so a plain union of the arcs would report
    # a sliver of directions as a gap
    w = AntennaConfig(Point(0.0, 0.0), 5.324583204732311, 6.283185307177586)
    half = 0.5 * w.aperture + ANGLE_TOL
    start = normalize_angle(w.orientation - half)
    assert w.aperture < TAU - ANGLE_TOL and 2.0 * half >= TAU
    assert start + 2.0 * half - TAU < start
    assert plane_coverage_verify([w]) == geometry.CoverageReport(True)


def test_plane_coverage_hole_despite_full_direction_circle():
    # Four quarter wedges pointing outward from a square leave the middle bare.
    corners = [Point(-10.0, -10.0), Point(10.0, -10.0), Point(10.0, 10.0), Point(-10.0, 10.0)]
    outward = [1.25 * math.pi, 1.75 * math.pi, 0.25 * math.pi, 0.75 * math.pi]
    wedges = [AntennaConfig(c, o, QUARTER_TURN) for c, o in zip(corners, outward)]
    rep = plane_coverage_verify(wedges)
    assert not rep.covered
    assert rep.witness_point is not None
    assert not any(wedge_contains(w, rep.witness_point) for w in wedges)


def test_plane_coverage_two_halfplane_wedges():
    # apex height decides: facing down from y=1 overlaps the upward half,
    # facing down from y=-1 leaves the slab -1 < y < 0 bare
    up = AntennaConfig(Point(0.0, 0.0), math.pi / 2.0, math.pi)
    overlap = AntennaConfig(Point(3.0, 1.0), 3.0 * math.pi / 2.0, math.pi)
    assert plane_coverage_verify([up, overlap]).covered
    touching = AntennaConfig(Point(3.0, 0.0), 3.0 * math.pi / 2.0, math.pi)
    assert plane_coverage_verify([up, touching]).covered
    apart = AntennaConfig(Point(3.0, -1.0), 3.0 * math.pi / 2.0, math.pi)
    rep = plane_coverage_verify([up, apart])
    assert not rep.covered and rep.witness_point is not None
    assert -1.0 < rep.witness_point.y < 0.0
    # parallel boundaries 1e9 apart and 1e13 along them from the origin:
    # with no vertex, the lines' spread sets how far the test points move
    right = AntennaConfig(Point(0.0, 1e13), 0.0, math.pi)
    left = AntennaConfig(Point(-1e9, 1e13), math.pi, math.pi)
    rep = plane_coverage_verify([right, left])
    assert not rep.covered and rep.witness_point is not None
    assert -1e9 < rep.witness_point.x < 0.0


def test_full_circle_wedge_covers():
    # alone and among other wedges; no shortcut decides these: the circle
    # of directions is closed, and the full wedge contains every test point
    rng = SplitMix64(29)
    for at in (Point(1.0, 1.0), Point(-3.0, 2.5), Point(1e12, -1e12)):
        for ori in (0.0, 2.0, 5.5):
            full = AntennaConfig(at, ori, TAU)
            assert plane_coverage_verify([full]).covered
            for k in range(1, 5):
                others = [
                    AntennaConfig(Point(at.x + rng.uniform(-3, 3), at.y + rng.uniform(-3, 3)), rng.uniform(0, TAU), a)
                    for a in (QUARTER_TURN, 2.0, math.pi, 4.5)[:k]
                ]
                assert plane_coverage_verify(others + [full]).covered
                assert plane_coverage_verify([full] + others).covered


def test_the_coverage_frame_moves_apexes_exactly():
    # apexes near the edges of their frame cell, from the origin to 1e300
    rng = SplitMix64(31)
    moved = 0
    for _ in range(4000):
        base = choice(rng, [0.0, 40.0, 2.0**40, -1e12, 1e300]) * rng.uniform(-1.0, 1.0)
        spread = choice(rng, [0.5, 7.0, 300.0, 1e9])
        xs = [base + rng.uniform(-spread, spread) for _ in range(1 + rng.randrange(5))]
        ys = [-base + rng.uniform(-spread, spread) for _ in xs]
        x0, y0 = geometry._frame(xs, ys)
        moved += x0 != 0.0
        assert all(Fraction(v - x0) == Fraction(v) - Fraction(x0) for v in xs)
        assert all(Fraction(v - y0) == Fraction(v) - Fraction(y0) for v in ys)
    assert moved > 1000
    assert geometry._frame([3.0, 4.0], [-2.0, 1.0]) == (0.0, 0.0)  # near the origin nothing moves


def test_halfplane_covered_cases():
    hp = HalfPlane(0.0, 1.0, 0.0)  # upper half-plane
    up = AntennaConfig(Point(0.0, 0.0), math.pi / 2.0, math.pi)
    assert halfplane_covered([up], hp).covered
    # one quarter wedge can never cover a half-plane
    q = AntennaConfig(Point(0.0, 0.0), math.pi / 2.0, QUARTER_TURN)
    rep = halfplane_covered([q], hp)
    assert not rep.covered
    assert rep.witness_point is not None
    assert hp.value(rep.witness_point.x, rep.witness_point.y) >= -1e-9
    assert not wedge_contains(q, rep.witness_point)
    # two quarter wedges with apexes on the boundary line, fanned to split it
    left = AntennaConfig(Point(0.0, 0.0), 0.25 * math.pi, QUARTER_TURN)
    right = AntennaConfig(Point(0.0, 0.0), 0.75 * math.pi, QUARTER_TURN)
    assert halfplane_covered([left, right], hp).covered
    rep = halfplane_covered([], hp)
    assert not rep.covered and rep.witness_point is not None


def test_sampling_check_agrees_with_exact_decision():
    rng = SplitMix64(41)
    agree = 0
    for _ in range(20):
        wedges = [
            AntennaConfig(Point(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, TAU), math.pi)
            for _ in range(3)
        ]
        exact = plane_coverage_verify(wedges)
        sampled = coverage_sample_check(wedges, grid_points=4000, ring_points=720)
        if exact.covered:
            # sampling can only refute; on robust inputs it must not
            assert sampled.covered
            agree += 1
    assert agree > 0


def test_weakly_separable_cases():
    a = [Point(0.0, 0.0), Point(1.0, 0.5)]
    b = [Point(5.0, 0.0), Point(6.0, -0.5)]
    assert weakly_separable(a, b)
    # crossing segments cannot be separated
    a = [Point(0.0, 0.0), Point(2.0, 2.0)]
    b = [Point(0.0, 2.0), Point(2.0, 0.0)]
    assert not weakly_separable(a, b)
    # sharing a point is fine for *weak* separation
    a = [Point(0.0, 0.0), Point(-1.0, 0.0)]
    b = [Point(0.0, 0.0), Point(1.0, 0.0)]
    assert weakly_separable(a, b)
    assert weakly_separable([], [Point(0.0, 0.0)])
    # one group surrounding the other
    ring = [Point(math.cos(t), math.sin(t)) for t in (0.1, 2.2, 4.3)]
    assert not weakly_separable(ring, [Point(0.0, 0.0)])
