"""Quadruplet and cluster orientation: frozen hand cases plus invariants."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from sectornet import geometry
from sectornet.generators import GenSpec, gen
from sectornet.geometry import (
    QUARTER_TURN,
    TAU,
    AntennaConfig,
    Antennas,
    Point,
    normalize_angle,
    plane_coverage_verify,
)
from sectornet.orientation import (
    _CASES,
    OrientationAssignment,
    _aim_at,
    _orient_fans,
    configs_from_assignment,
    orient_cluster,
    orient_quadruplet,
)
from sectornet.rng import SplitMix64
from sectornet.scg import build_scg, is_connected

from oracles import (
    couple_halfplane,
    couples,
    halfplane_covered,
    orient_quadruplet_reference,
    shuffle,
    wedge_contains,
)

PI = math.pi


def _as_dict(assignment):
    return dict(assignment.entries)


def test_unit_square_frozen_fan():
    # Hand-derived: base edge (0,0)-(1,0), theta = 0, fan at odd multiples
    # of a quarter of pi walking a=(0,0), b=(1,0), c=(1,1), d=(0,1).
    quad = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
    asg = orient_quadruplet(quad)
    got = _as_dict(asg)
    assert got[Point(0.0, 0.0)] == pytest.approx(0.25 * PI)
    assert got[Point(1.0, 0.0)] == pytest.approx(0.75 * PI)
    assert got[Point(1.0, 1.0)] == pytest.approx(1.25 * PI)
    assert got[Point(0.0, 1.0)] == pytest.approx(1.75 * PI)
    assert asg.case == "convex"
    assert all(c.aperture == QUARTER_TURN for c in configs_from_assignment(asg))


def test_obtuse_triangle_frozen_fan():
    # Obtuse apex disqualifies both slanted hull edges, so the base must
    # be (0,0)-(6,0); the two middle points tie on projection and the
    # lexicographically larger one takes the third slot.
    quad = [Point(0.0, 0.0), Point(6.0, 0.0), Point(3.0, 2.0), Point(3.0, 1.0)]
    asg = orient_quadruplet(quad)
    got = _as_dict(asg)
    assert asg.case == "triangle"
    assert got[Point(0.0, 0.0)] == pytest.approx(0.25 * PI)
    assert got[Point(6.0, 0.0)] == pytest.approx(0.75 * PI)
    assert got[Point(3.0, 2.0)] == pytest.approx(1.25 * PI)
    assert got[Point(3.0, 1.0)] == pytest.approx(1.75 * PI)


def test_collinear_frozen_fan():
    quad = [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0), Point(3.0, 0.0)]
    asg = orient_quadruplet(quad)
    got = _as_dict(asg)
    assert asg.case == "collinear"
    assert got[Point(0.0, 0.0)] == pytest.approx(0.25 * PI)  # lex-min extreme
    assert got[Point(3.0, 0.0)] == pytest.approx(0.75 * PI)  # other extreme
    assert got[Point(2.0, 0.0)] == pytest.approx(1.25 * PI)  # farther inner
    assert got[Point(1.0, 0.0)] == pytest.approx(1.75 * PI)


def test_slanted_collinear_fan_follows_the_line():
    # A collinear run along direction atan2(1, 2): the whole fan shifts
    # by that slope relative to the axis-aligned case.
    theta = math.atan2(1.0, 2.0)
    quad = [Point(2.0 * k, 1.0 * k) for k in range(4)]
    got = _as_dict(orient_quadruplet(quad))
    assert got[Point(0.0, 0.0)] == pytest.approx(theta + 0.25 * PI)
    assert got[Point(6.0, 3.0)] == pytest.approx(theta + 0.75 * PI)
    assert got[Point(4.0, 2.0)] == pytest.approx(theta + 1.25 * PI)
    assert got[Point(2.0, 1.0)] == pytest.approx(theta + 1.75 * PI)


def test_degenerate_quadruplets_raise():
    p = Point(0.0, 0.0)
    with pytest.raises(ValueError):
        orient_quadruplet([p, p, Point(1.0, 0.0), Point(0.0, 1.0)])
    with pytest.raises(ValueError):
        orient_quadruplet([p, Point(1.0, 0.0), Point(0.0, 1.0)])
    with pytest.raises(ValueError):
        orient_quadruplet([])


def _verify_guarantees(points):
    asg = orient_quadruplet(points)
    assert sorted((p for p, _ in asg.entries), key=lambda p: (p.x, p.y)) == sorted(
        points, key=lambda p: (p.x, p.y)
    )
    configs = configs_from_assignment(asg)
    assert plane_coverage_verify(configs).covered
    assert is_connected(build_scg(configs))
    return asg


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_quadruplets_cover_and_connect(seed):
    rng = SplitMix64(seed)
    for _ in range(50):
        pts = []
        while len(set(pts)) < 4:
            pts = [Point(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(4)]
        _verify_guarantees(pts)


def _reference_quadruplets():
    """Every 4-subset of the 5x5 lattice in both input orders, lattice
    quadruplets with coordinates moved by an ulp, and seeded random_square
    and collinear instances."""
    lattice = [Point(float(x), float(y)) for x in range(5) for y in range(5)]
    for quad in itertools.combinations(lattice, 4):
        yield list(quad)
        yield list(quad[::-1])
    rng = SplitMix64(19)

    def nudge(v):
        k = rng.randrange(3)
        return v if k == 0 else math.nextafter(v, math.inf if k == 1 else -math.inf)

    made = 0
    while made < 2000:
        quad = [Point(nudge(float(rng.randrange(5))), nudge(float(rng.randrange(5)))) for _ in range(4)]
        if len(set(quad)) == 4:
            made += 1
            yield quad
    for seed in range(1, 301):
        yield list(gen(GenSpec("random_square", 4, seed=seed)).points)
        yield list(gen(GenSpec("collinear", 4, seed=seed)).points)


def test_orient_quadruplet_matches_the_per_shape_reference():
    cases = Counter()
    for quad in _reference_quadruplets():
        asg = orient_quadruplet(quad)
        assert asg == orient_quadruplet_reference(quad), quad
        cases[asg.case] += 1
    assert sum(cases.values()) == 2 * 12650 + 2000 + 600
    assert min(cases[c] for c in ("convex", "triangle", "collinear")) > 400, cases


def _batched(quads):
    """The assignments of :func:`_orient_fans` on ``quads``, in one call."""
    xs = np.array([[p.x for p in q] for q in quads]).reshape(-1, 4)
    ys = np.array([[p.y for p in q] for q in quads]).reshape(-1, 4)
    slots, orientation, size = _orient_fans(xs, ys)
    return [
        OrientationAssignment(tuple((q[c], a) for c, a in zip(cols, angs)), _CASES[k - 2])
        for q, cols, angs, k in zip(quads, slots.tolist(), orientation.tolist(), size.tolist())
    ]


def _bits(asg):
    return [(p, a.hex()) for p, a in asg.entries], asg.case


def test_batched_fans_match_orient_quadruplet(monkeypatch):
    # the reference corpus, triangles with three collinear hull points,
    # and a quadruplet whose signs only exact arithmetic decides
    quads = list(_reference_quadruplets())
    quads += [
        [Point(0.0, 0.0), Point(2.0, 0.0), Point(4.0, 0.0), Point(2.0, 3.0)],
        [Point(0.0, 0.0), Point(2.0, 0.0), Point(4.0, 0.0), Point(1.0, 1.0)],
        [Point(0.0, 0.0), Point(0.0, 2.0), Point(0.0, 4.0), Point(-1.0, 1.0)],
    ]
    near = [Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0 + 2.0**-51), Point(3.0, 0.0)]
    want = [_bits(orient_quadruplet(q)) for q in quads + [near]]
    # the array kernel passes only the entries its filter leaves open,
    # with a nonzero product, to the scalar sign's exact fallback
    exact = []
    scalar = geometry._cross_sign

    def counted_sign(*args):
        exact.append(args)
        return scalar(*args)

    monkeypatch.setattr(geometry, "_cross_sign", counted_sign)
    assert [_bits(a) for a in _batched(quads + [near])] == want
    assert exact
    exact.clear()
    assert _bits(_batched([near])[0]) == want[-1] and exact
    for i in range(0, len(quads), 997):  # one quadruplet a call
        assert _bits(_batched([quads[i]])[0]) == want[i]
    assert len(quads) > 10**4
    assert set(case for _, case in want) == {"convex", "triangle", "collinear"}


def test_batched_fans_reject_a_repeated_point():
    p = Point(1.0, 2.0)
    good = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0), Point(1.0, 1.0)]
    with pytest.raises(ValueError, match="four distinct points"):
        _batched([good, [p, Point(0.0, 0.0), p, Point(3.0, 0.0)]])
    with pytest.raises(ValueError, match="four distinct points"):
        _batched([[Point(-0.0, 1.0), Point(0.0, 1.0), Point(2.0, 0.0), Point(3.0, 0.0)]])


def test_triangle_case_right_angle_base_is_allowed():
    # Right angle at the apex keeps both slanted edges qualified; whatever
    # base is chosen, the guarantees must hold.
    quad = [Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0), Point(1.0, 1.0)]
    asg = _verify_guarantees(quad)
    assert asg.case == "triangle"


def test_translation_equivariance():
    rng = SplitMix64(7)
    shift = (103.25, -41.5)
    for _ in range(25):
        pts = []
        while len(set(pts)) < 4:
            pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4)]
        base = _as_dict(orient_quadruplet(pts))
        moved = _as_dict(
            orient_quadruplet([Point(p.x + shift[0], p.y + shift[1]) for p in pts])
        )
        for p, ang in base.items():
            q = Point(p.x + shift[0], p.y + shift[1])
            assert moved[q] == pytest.approx(ang, abs=1e-9)


def test_rigid_motion_preserves_guarantees():
    rng = SplitMix64(8)
    for _ in range(25):
        pts = []
        while len(set(pts)) < 4:
            pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4)]
        phi = rng.uniform(0.0, TAU)
        tx, ty = rng.uniform(-100, 100), rng.uniform(-100, 100)
        c, s = math.cos(phi), math.sin(phi)
        moved = [Point(c * p.x - s * p.y + tx, s * p.x + c * p.y + ty) for p in pts]
        _verify_guarantees(moved)


def test_couples_structure_on_square():
    quad = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
    asg = orient_quadruplet(quad)
    pairs = couples(asg)
    # every cyclically adjacent orientation pair forms a couple
    assert [(cp.first, cp.second) for cp in pairs] == [
        (Point(0.0, 0.0), Point(1.0, 0.0)),
        (Point(1.0, 0.0), Point(1.0, 1.0)),
        (Point(1.0, 1.0), Point(0.0, 1.0)),
        (Point(0.0, 1.0), Point(0.0, 0.0)),
    ]


def test_couples_reject_malformed_fan():
    from sectornet.orientation import OrientationAssignment

    entries = (
        (Point(0.0, 0.0), 0.0),
        (Point(1.0, 0.0), 0.3),  # not a quarter turn apart
        (Point(2.0, 0.0), PI),
        (Point(3.0, 0.0), 1.5 * PI),
    )
    bad = OrientationAssignment(entries, "convex")
    with pytest.raises(ValueError):
        couples(bad)


def test_couple_halfplane_covers_and_anchors():
    rng = SplitMix64(9)
    for _ in range(40):
        pts = []
        while len(set(pts)) < 4:
            pts = [Point(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(4)]
        asg = orient_quadruplet(pts)
        oris = dict(asg.entries)
        for cp in couples(asg):
            hp = couple_halfplane(asg, cp)
            wedges = [
                AntennaConfig(cp.first, oris[cp.first]),
                AntennaConfig(cp.second, oris[cp.second]),
            ]
            assert halfplane_covered(wedges, hp).covered
            # boundary anchored at the apex deeper along the normal, so
            # that apex scores zero and the other cannot score higher
            vals = [hp.value(w.location.x, w.location.y) for w in wedges]
            assert max(vals) == pytest.approx(0.0, abs=1e-9)


def aim_at_fan(hubs, points, fan_of):
    """The aims at the fans ``hubs`` of ``points``, given as points."""
    return _aim_at(hubs, *geometry._coords(points), fan_of)


def _hub_set(fans):
    """The wedges of the fans' entries, four per fan: the hub set that
    :func:`aim_at_fan` reads."""
    entries = [e for fan in fans for e in fan.entries]
    return Antennas([p for p, _ in entries], [a for _, a in entries], QUARTER_TURN, math.inf)


def test_aim_at_fan_prefers_first_covering_hub():
    hubs = (
        (Point(10.0, 0.0), PI),  # covers the origin (aims left)
        (Point(0.0, 10.0), 1.5 * PI),  # also covers it (aims down)
        (Point(20.0, 20.0), 0.0),  # these two face away from it
        (Point(-20.0, 20.0), 0.5 * PI),
    )
    p = Point(0.0, 0.0)
    points = [p] + [h for h, _ in hubs]
    got = aim_at_fan(_hub_set([OrientationAssignment(hubs)]), points, [0] * 5)
    assert got[0] == pytest.approx(0.0)  # aims at the first hub
    assert got[1:] == [PI, 1.5 * PI, 0.0, 0.5 * PI]  # hubs keep their own
    swapped = (hubs[1], hubs[0]) + hubs[2:]
    got = aim_at_fan(_hub_set([OrientationAssignment(swapped)]), points, [0] * 5)
    assert got[0] == pytest.approx(0.5 * PI)
    assert got[1:] == [PI, 1.5 * PI, 0.0, 0.5 * PI]


def test_aim_at_fan_rejects_uncovered_point():
    # four wedges, each facing away from the origin
    away = OrientationAssignment(
        (
            (Point(10.0, 0.0), 0.0),
            (Point(0.0, 10.0), 0.5 * PI),
            (Point(-10.0, 0.0), PI),
            (Point(0.0, -10.0), 1.5 * PI),
        )
    )
    with pytest.raises(ValueError, match="uncovered"):
        aim_at_fan(_hub_set([away]), [Point(0.0, 0.0)], [0])
    # one uncovered point fails the whole batch
    quad = orient_quadruplet([Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)])
    with pytest.raises(ValueError, match="uncovered"):
        aim_at_fan(_hub_set([quad, away]), [Point(5.0, 5.0), Point(0.0, 0.0)], [0, 1])


def _aim_one_by_one(fan, p):
    """A point's aim at one fan, a wedge at a time."""
    own = dict(fan.entries)
    if p in own:
        return own[p]
    hub = next(q for q, a in fan.entries if wedge_contains(AntennaConfig(q, a), p))
    return normalize_angle(math.atan2(hub.y - p.y, hub.x - p.x))


def test_aim_at_fan_batches_like_one_fan_at_a_time():
    # points of several fans interleave; a hub served by its own fan keeps
    # its entry, served by another fan it is aimed like any point
    rng = SplitMix64(103)

    def spot(cx, cy, k):
        return [Point(cx + rng.uniform(-2, 2), cy + rng.uniform(-2, 2)) for _ in range(k)]

    fans = [orient_quadruplet(spot(cx, cy, 4)) for cx, cy in ((0.0, 0.0), (8.0, 3.0), (-6.0, 5.0))]
    served = [(q, k) for k, fan in enumerate(fans) for q, _ in fan.entries]
    served += [(q, 0) for q, _ in fans[1].entries]
    served += [(p, rng.randrange(3)) for p in spot(1.0, 2.0, 30)]
    shuffle(rng, served)
    points = [p for p, _ in served]
    fan_of = [k for _, k in served]
    assert aim_at_fan(_hub_set(fans), points, fan_of) == [_aim_one_by_one(fans[k], p) for p, k in served]
    assert aim_at_fan(_hub_set(fans), [], []) == []


def test_orient_cluster_singleton_and_pair():
    p, q = Point(2.0, 3.0), Point(5.0, 7.0)
    assert orient_cluster([p]) == [0.0]
    got = orient_cluster([p, q])
    assert got[0] == pytest.approx(math.atan2(4.0, 3.0))
    assert got[1] == pytest.approx(math.atan2(-4.0, -3.0) % TAU)
    assert orient_cluster([q, p]) == got[::-1]


def test_orient_cluster_triangle_frozen():
    # 3-4-5 triangle: shortest side is (0,0)-(3,0), so (0,4) takes the
    # bisector of its angle and the base points aim back at it.
    a, b, c = Point(0.0, 0.0), Point(3.0, 0.0), Point(0.0, 4.0)
    ga, gb, gc = orient_cluster([a, b, c])
    assert gc == pytest.approx(math.atan2(-1.8, 0.6) % TAU)
    assert ga == pytest.approx(0.5 * PI)
    assert gb == pytest.approx(math.atan2(4.0, -3.0))
    assert orient_cluster([c, a, b]) == [gc, ga, gb]
    # the bisector wedge reaches both base points
    w = AntennaConfig(c, gc, QUARTER_TURN)
    assert wedge_contains(w, a) and wedge_contains(w, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12])
def test_orient_cluster_connects_every_size(n):
    rng = SplitMix64(100 + n)
    for _ in range(20):
        pts = []
        while len(set(pts)) < n:
            pts = [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
        got = orient_cluster(pts)
        assert len(got) == n
        # one orientation per input position, whatever the input order
        assert orient_cluster(pts[::-1]) == got[::-1]
        configs = [AntennaConfig(p, ang) for p, ang in zip(pts, got)]
        assert is_connected(build_scg(configs))


#: sha256 of the orientations below, by input position, recorded while
#: the cluster still returned a point-keyed dict; sizes 1 to 12 reach
#: every branch, the collinear family the degenerate quadruplet.
CLUSTER_ORIENTATIONS_SHA256 = "25171dd1bfffc94ec3ec1a5bc4e9f997f49a18b111490dab1cb0392b04503fd9"


def test_orient_cluster_output_is_pinned():
    lines = []
    for family in ("random_square", "collinear"):
        for n in range(1 if family == "random_square" else 2, 13):
            for seed in (1, 2, 3):
                pts = list(gen(GenSpec(family, n, seed=seed, side=10.0)).points)
                lines += [f"{family} {n} {seed} {a.hex()}" for a in orient_cluster(pts)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CLUSTER_ORIENTATIONS_SHA256


def test_orient_cluster_rejects_bad_input():
    with pytest.raises(ValueError):
        orient_cluster([])
    with pytest.raises(ValueError):
        orient_cluster([Point(0.0, 0.0), Point(0.0, 0.0)])
