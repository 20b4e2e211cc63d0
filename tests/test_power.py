"""Power assignment: trees, tours, sections, ranges, and cost bounds."""

import bisect
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sectornet import power
from sectornet.generators import GenSpec, gen
from sectornet.geometry import Point, distance, normalize_angle
from sectornet.orientation import orient_quadruplet
from sectornet.power import (
    PowerAssignment,
    Tour,
    _cut,
    cost_chain_check,
    mst_edges,
    orient_and_assign,
    tsp_tour_approx,
)
from sectornet.rng import SplitMix64
from sectornet.scg import build_scg, is_connected

from oracles import (
    mst_cost,
    prim_dense_reference,
    prim_reference,
    shuffle,
    tour_power_cost,
    tour_reference,
)


def _sections(tour):
    """The tour's sections as runs of points, by the package's cut."""
    start = min(range(len(tour)), key=lambda i: tour.order[i].as_tuple())
    cyc = tour.order[start:] + tour.order[:start]
    bounds = _cut(len(tour))[0].tolist()
    return [cyc[a:b] for a, b in zip(bounds, bounds[1:])]


def _random_distinct(rng, n, lo=-10.0, hi=10.0):
    pts = []
    while len(set(pts)) < n:
        pts = [Point(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]
    return pts


def _prufer_tree_edges(seq, n):
    """Decode a length n-2 label sequence into tree edges."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    u, w = leaves
    edges.append((u, w))
    return edges


def _brute_mst_cost(points, beta):
    """Minimum over every spanning tree, enumerated by label sequences."""
    n = len(points)
    if n == 2:
        return distance(points[0], points[1]) ** beta
    best = math.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = _prufer_tree_edges(list(seq), n)
        cost = sum(distance(points[i], points[j]) ** beta for i, j in edges)
        best = min(best, cost)
    return best


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_mst_cost_matches_spanning_tree_enumeration(beta):
    rng = SplitMix64(60 + beta)
    for _ in range(8):
        pts = _random_distinct(rng, 6)
        assert mst_cost(pts, beta) == pytest.approx(_brute_mst_cost(pts, beta))


def test_mst_edges_do_not_depend_on_beta():
    # edge weights are strictly monotone in distance for every exponent,
    # so the tree itself is exponent-free
    rng = SplitMix64(64)
    pts = _random_distinct(rng, 40)
    edges = mst_edges(pts)
    assert len(edges) == 39
    for beta in (1, 2, 5):
        assert mst_cost(pts, beta) == pytest.approx(
            sum(distance(pts[i], pts[j]) ** beta for i, j in edges)
        )


def test_tour_cost_square():
    square = Tour(
        (Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)), ()
    )
    assert tour_power_cost(square, 1) == pytest.approx(4.0)
    assert tour_power_cost(square, 2) == pytest.approx(4.0)
    assert tour_power_cost(Tour((Point(0.0, 0.0),), ()), 3) == 0.0


def _brute_best_tour_length(points):
    n = len(points)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        length = sum(
            distance(points[order[i]], points[order[(i + 1) % n]]) for i in range(n)
        )
        best = min(best, length)
    return best


def test_tsp_tour_within_twice_optimal():
    rng = SplitMix64(70)
    worst = 0.0
    for _ in range(6):
        pts = _random_distinct(rng, 8)
        tour = tsp_tour_approx(pts)
        assert sorted(tour.order, key=lambda p: p.as_tuple()) == sorted(
            pts, key=lambda p: p.as_tuple()
        )
        ratio = tour_power_cost(tour, 1) / _brute_best_tour_length(pts)
        worst = max(worst, ratio)
        assert ratio <= 2.0 + 1e-9
    assert worst > 0.0


def test_tsp_tour_canonical_form():
    rng = SplitMix64(71)
    pts = _random_distinct(rng, 12)
    tour = tsp_tour_approx(pts)
    assert tour.order[0] == min(pts, key=lambda p: p.as_tuple())
    assert tour.order[1].as_tuple() < tour.order[-1].as_tuple()
    # deterministic under input shuffling
    shuffled = list(pts)
    shuffle(rng, shuffled)
    assert tsp_tour_approx(shuffled).order == tour.order
    with pytest.raises(ValueError):
        tsp_tour_approx([])
    with pytest.raises(ValueError):
        tsp_tour_approx([pts[0], pts[0]])


def test_one_section_splits_by_x_with_the_ceiling_on_the_left():
    # nine points are one section: the four leftmost and the four
    # rightmost by (x, y) are the two fans, and the middle point joins
    # the left half, so it aims at a left hub
    pts = _random_distinct(SplitMix64(74), 9)
    ranked = sorted(pts, key=Point.as_tuple)
    ori = {p: a for p, a, _ in orient_and_assign(pts, 2).entries}
    for quad in (ranked[:4], ranked[5:]):
        for p, a in orient_quadruplet(quad).entries:
            assert ori[p] == a
    mid = ranked[4]
    aims = {q: normalize_angle(math.atan2(q.y - mid.y, q.x - mid.x)) for q in ranked}
    assert ori[mid] in {aims[q] for q in ranked[:4]}
    assert ori[mid] not in {aims[q] for q in ranked[5:]}


def test_sections_sizes():
    rng = SplitMix64(75)
    cases = [(2, [2]), (7, [7]), (8, [8]), (15, [15]), (16, [8, 8]), (17, [8, 9]), (100, [8] * 11 + [12])]
    for n, expect in cases:
        pts = _random_distinct(rng, n)
        tour = tsp_tour_approx(pts)
        secs = _sections(tour)
        assert [len(s) for s in secs] == expect
        assert [p for s in secs for p in s] == list(tour.order)


def test_power_assignment_cost_is_sum_of_radius_powers():
    pa = PowerAssignment(2, ((Point(0.0, 0.0), 0.0, 3.0), (Point(1.0, 0.0), 1.0, 4.0)))
    assert pa.cost == pytest.approx(25.0)
    cfgs = pa.configs()
    assert [c.range for c in cfgs] == [3.0, 4.0]
    with pytest.raises(ValueError, match="gradient"):
        PowerAssignment(0.5, ())


def test_small_instances_use_cluster_with_diameter_range():
    rng = SplitMix64(80)
    pts = _random_distinct(rng, 5, lo=0.0, hi=2.0)
    pa = orient_and_assign(pts, 2)
    diam = max(distance(p, q) for p in pts for q in pts)
    assert all(r == pytest.approx(diam) for _, _, r in pa.entries)
    assert is_connected(build_scg(pa.configs()))


@pytest.mark.parametrize("n,beta", [(8, 1), (16, 2), (24, 3), (40, 2), (61, 4)])
def test_orient_and_assign_connects_and_passes_cost_chain(n, beta):
    rng = SplitMix64(90 + n + beta)
    pts = _random_distinct(rng, n, lo=0.0, hi=30.0)
    pa = orient_and_assign(pts, beta)
    assert len(pa.entries) == n
    assert is_connected(build_scg(pa.configs()))
    tour = tsp_tour_approx(pts)
    rep = cost_chain_check(pa, tour)
    assert rep.ok and rep.pointwise_ok and rep.total_ok
    assert rep.cost == pytest.approx(pa.cost)
    assert rep.mst_cost <= rep.cost + 1e-9
    assert rep.cost_over_tour == pytest.approx(rep.cost / rep.tour_cost)
    # the gap depends only on the section sizes
    assert rep.max_index_gap == (n - 1 if n < 16 else 15 + n % 8)
    if n % 8 == 0:
        assert rep.cost <= 8 * 15**beta * 3 * rep.tour_cost + 1e-6


def _radius_instance(name):
    kind, _, arg = name.partition(" ")
    if kind == "random_square":
        return list(gen(GenSpec("random_square", int(arg), seed=int(arg))).points)
    if kind == "random_distinct":
        return _random_distinct(SplitMix64(95), 32, lo=0.0, hi=20.0)
    if kind == "lattice":  # many tied window maxima
        return [Point(0.7 * i, 0.7 * j) for i in range(6) for j in range(9)]
    if kind == "inverted":
        # seen from (0, 0) the first far point has the larger float
        # squared distance, the second the larger hypot
        far = [Point(4.098550258761337, 5.8404543708081365), Point(7.107827200910363, 0.6227471100561147)]
        return far + [Point(0.1 * k, 0.05 * k * k) for k in range(6)]
    # every squared distance outside [2**-900, 2**900], so no row is
    # filtered; at 2**-539 they are subnormal and the float squares of
    # seven rows rank another entry first
    scale = 2.0 ** int(arg)
    square = gen(GenSpec("random_square", 40, seed=5, side=4.0)).points
    return [Point(scale * p.x, scale * p.y) for p in square]


@pytest.mark.parametrize(
    "name",
    [f"random_square {n}" for n in [*range(8, 18), 24, 100, 2000]]
    + ["random_distinct", "lattice", "inverted", "scaled 500", "scaled -539"],
)
def test_every_radius_is_its_window_maximum(name):
    # bit for bit the largest distance(p, q) over the window
    pts = _radius_instance(name)
    secs = _sections(tsp_tour_approx(pts))
    m = len(secs)
    want = {}
    for i, sec in enumerate(secs):
        window = set(secs[(i - 1) % m]) | set(sec) | set(secs[(i + 1) % m])
        for p in sec:
            want[p] = max(distance(p, q) for q in window)
    pa = orient_and_assign(pts, 2)
    assert [r.hex() for _, _, r in pa.entries] == [want[p].hex() for p, _, _ in pa.entries]


def test_cost_scales_exactly_with_beta_power_under_doubling():
    rng = SplitMix64(97)
    pts = _random_distinct(rng, 24, lo=0.0, hi=10.0)
    doubled = [Point(2.0 * p.x, 2.0 * p.y) for p in pts]
    for beta in (1, 2, 3):
        base = orient_and_assign(pts, beta)
        scaled = orient_and_assign(doubled, beta)
        assert scaled.cost == pytest.approx(2.0**beta * base.cost, rel=1e-12)


def _pointwise_by_window_walk(pa, tour):
    """(pointwise_ok, max_index_gap), a window and a point at a time."""
    radius = {p: r for p, _, r in pa.entries}
    secs = _sections(tour)
    m, n = len(secs), len(tour)
    ok, worst = True, 0
    for i, sec in enumerate(secs):
        around = (-1, 0, 1) if m >= 3 else range(-1, m - 1)
        window = [p for d in around for p in secs[(i + d) % m]]
        steps = [distance(p, q) for p, q in zip(window, window[1:])]
        if len(window) == n:
            steps.append(distance(window[-1], window[0]))
        for p in sec:
            t = window.index(p)
            gap = max(t, len(window) - 1 - t)
            worst = max(worst, gap)
            ok = ok and radius[p] <= gap * max(steps) + 1e-9
    return ok, worst


@pytest.mark.parametrize("n", [8, 15, 16, 23, 24, 40, 131])
def test_pointwise_audit_matches_a_window_walk(n):
    # entries in any order, the tour rotated or reversed, and radii grown
    # past their bound or not: the position arithmetic agrees with a walk
    rng = SplitMix64(104 + n)
    pts = _random_distinct(rng, n, lo=0.0, hi=30.0)
    tour = tsp_tour_approx(pts)
    entries = list(orient_and_assign(pts, 2).entries)
    verdicts = set()
    for k, scale in enumerate([1.0, 1.5, 3.0, 30.0] * 2):
        grown = list(entries)
        p, a, r = grown[k % n]
        grown[k % n] = (p, a, r * scale)
        shuffle(rng, grown)
        pa = PowerAssignment(2, tuple(grown))
        order = tour.order[k:] + tour.order[:k]
        for t in (Tour(order, tour.tree), Tour(order[::-1], tour.tree)):
            rep = cost_chain_check(pa, t)
            assert (rep.pointwise_ok, rep.max_index_gap) == _pointwise_by_window_walk(pa, t)
            verdicts.add(rep.pointwise_ok)
    assert verdicts == {True, False}


def test_cost_chain_check_rejects_foreign_tour():
    rng = SplitMix64(98)
    pts = _random_distinct(rng, 16)
    pa = orient_and_assign(pts, 2)
    other = tsp_tour_approx(_random_distinct(rng, 16))
    with pytest.raises(ValueError):
        cost_chain_check(pa, other)


def test_costs_beyond_the_float_range_raise_a_value_error():
    # Python's ** raises OverflowError where numpy would give inf; every
    # cost sum and the bound's G**beta report it as a ValueError instead
    pts = list(gen(GenSpec("random_square", 40, seed=1)).points)
    pa = orient_and_assign(pts, 400)  # assigning reads no power
    tour = tsp_tour_approx(pts)
    with pytest.raises(ValueError, match="overflow"):
        pa.cost
    with pytest.raises(ValueError, match="overflow"):
        cost_chain_check(pa, tour)
    # in a unit square every power is small, but 15**300 is not
    small = [Point(p.x / 100.0, p.y / 100.0) for p in pts]
    with pytest.raises(ValueError, match="overflow"):
        cost_chain_check(orient_and_assign(small, 300), tsp_tour_approx(small))
    # an int beta keeps G**beta an exact int; the bound's float product overflows
    pa = PowerAssignment(300, orient_and_assign(small, 300).entries)
    assert 0.0 < pa.cost < math.inf
    with pytest.raises(ValueError, match="overflow"):
        cost_chain_check(pa, tsp_tour_approx(small))


def test_orient_and_assign_input_validation():
    with pytest.raises(ValueError):
        orient_and_assign([], 2)
    with pytest.raises(ValueError):
        orient_and_assign([Point(0.0, 0.0)], 0.9)
    with pytest.raises(ValueError, match="at least two points"):
        orient_and_assign([Point(0.0, 0.0)], 2)
    with pytest.raises(ValueError):
        orient_and_assign([Point(0.0, 0.0), Point(0.0, 0.0)], 2)


def _tree_over_order(tour):
    order = list(tour.order)
    return tuple((order[i], order[j]) for i, j in mst_edges(order))


def test_tour_keeps_the_tree_it_was_walked_from():
    # without tied distances, Prim over the tour's order starts at the
    # same lexicographically smallest point and adds the same edges in
    # the same order, so the audit's tree sum is mst_cost bit for bit
    rng = SplitMix64(99)
    for n, beta in [(8, 1), (17, 2), (64, 3), (131, 2)]:
        pts = _random_distinct(rng, n, lo=0.0, hi=30.0)
        tour = tsp_tour_approx(pts)
        assert tour.tree == _tree_over_order(tour)
        rep = cost_chain_check(orient_and_assign(pts, beta), tour)
        assert rep.mst_cost == mst_cost(tour.order, beta)


def test_tied_distances_may_give_another_tree_of_equal_weight():
    # on a lattice the tour's own point order breaks ties differently, so
    # the audit may sum a different minimum tree; only the weight agrees
    pts = [Point(0.7 * i, 0.7 * j) for i in range(6) for j in range(9)]
    tour = tsp_tour_approx(pts)
    assert {frozenset(e) for e in tour.tree} != {frozenset(e) for e in _tree_over_order(tour)}
    for beta in (1, 2, 3):
        rep = cost_chain_check(orient_and_assign(pts, beta), tour)
        assert rep.ok
        assert rep.mst_cost == pytest.approx(mst_cost(tour.order, beta), rel=1e-12)


def _tied_instance(name, rng):
    """Inputs with exactly tied distances, in a shuffled order."""
    if name == "square lattice":
        pts = [Point(float(i), float(j)) for i in range(7) for j in range(6)]
    elif name == "half-step lattice":
        pts = [Point(0.5 * i - 1.0, 0.5 * j) for i in range(5) for j in range(8)]
    elif name == "collinear run":
        pts = [Point(float(i), 3.0) for i in range(30)]
    elif name == "diagonal run":
        pts = [Point(float(i), float(-i)) for i in range(25)]
    else:  # two parallel runs, one step apart
        pts = [Point(float(i), float(j)) for i in range(20) for j in (0, 1)]
    shuffle(rng, pts)
    return pts


@pytest.mark.parametrize(
    "name", ["square lattice", "half-step lattice", "collinear run", "diagonal run", "ladder"]
)
def test_prim_tie_rules_match_the_reference(name):
    rng = SplitMix64(102)
    for _ in range(3):
        pts = _tied_instance(name, rng)
        assert mst_edges(pts) == prim_reference(pts)
        assert list(tsp_tour_approx(pts).order) == tour_reference(pts)


def _array(points):
    return np.array([p.as_tuple() for p in points])


@pytest.mark.parametrize("family", ["random_square", "clustered", "collinear", "connected_udg"])
def test_mst_edges_match_the_dense_prim(family):
    for n in (2, 3, 8, 64, 512, 2000):
        pts = _array(gen(GenSpec(family, n, seed=n)).points)
        assert mst_edges(pts) == prim_dense_reference(pts)


def _lattice(name, rng):
    """A shuffled lattice whose distances tie exactly, or nearly."""
    if name == "square":
        pts = np.array([(i, j) for i in range(23) for j in range(19)], dtype=float)
    elif name == "half-step":  # rows shifted by half a step
        pts = np.array([(0.5 * i + 0.25 * (j % 2), 0.5 * j) for i in range(30) for j in range(12)])
    else:  # a square lattice with some x nudged one ulp up
        pts = np.array([(0.7 * i, 0.7 * j) for i in range(17) for j in range(17)])
        nudge = rng.integers(0, len(pts), 40)
        pts[nudge, 0] = np.nextafter(pts[nudge, 0], np.inf)
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("name", ["square", "half-step", "ulp-nudged"])
def test_mst_edges_match_the_dense_prim_on_lattices(name, monkeypatch):
    walked = []

    def counting_walk(n, a, b, w):
        walked.append(len(w))
        return walk(n, a, b, w)

    walk = power._prim_walk
    monkeypatch.setattr(power, "_prim_walk", counting_walk)
    rng = np.random.default_rng(7)
    for _ in range(3):
        pts = _lattice(name, rng)
        assert mst_edges(pts) == prim_dense_reference(pts)
    if name != "ulp-nudged":  # ties: the walk runs over more than the tree
        assert all(size > len(pts) - 1 for size in walked)


def test_mst_edges_join_far_clusters(monkeypatch):
    # no candidate pair spans the gap, so the component stage joins them
    folds = []

    def counting_fold(*args):
        folds.append(len(args[3]))
        return fold(*args)

    fold = power._fold
    monkeypatch.setattr(power, "_fold", counting_fold)
    for n in (5, 60, 700):
        near = _array(gen(GenSpec("random_square", n, seed=n, side=10.0)).points)
        for pts in (np.concatenate((near, near[: n // 2] + 1e4)), np.concatenate((near, near + 5e3, near - 3e4))):
            assert mst_edges(pts) == prim_dense_reference(pts)
    assert max(folds) >= 700  # a large component, pruned by boxes
    # a far point right under a lattice column: some box is then led by
    # the column's foot, its nearest point, and bounded at exactly that
    grid = np.array([(i, j) for i in range(20) for j in range(10)], dtype=float)
    for column in range(1, 20):
        pts = np.concatenate((grid, [(column, -10.0)]))
        assert mst_edges(pts) == prim_dense_reference(pts)
    # a blob and its mirror image: the two least pairs between them tie
    rng = np.random.default_rng(5)
    for _ in range(4):
        blob = rng.uniform(0.0, 3.0, (150, 2))
        blob[1, 0] = blob[0, 0] = blob[:, 0].max()
        pts = np.concatenate((blob, (40.0, 0.0) + blob * (-1.0, 1.0)))
        pts = pts[rng.permutation(len(pts))]
        assert mst_edges(pts) == prim_dense_reference(pts)


def test_candidate_sweep_lists_every_pair_within_the_limit():
    # limits taken from the squared distances themselves put pairs, some
    # with a zero y gap, exactly on the bound
    rng = np.random.default_rng(11)
    grid = np.array([(i, j) for i in range(9) for j in range(7)], dtype=float)
    scattered = rng.uniform(0.0, 5.0, (80, 2))
    for pts in (grid, grid * 0.1, scattered, scattered * 2.0**-537):
        sx, sy = pts[np.lexsort((pts[:, 1], pts[:, 0]))].T
        dx = sx[:, None] - sx
        dy = sy[:, None] - sy
        d2 = dx * dx + dy * dy
        p, q = np.triu_indices(len(sx), 1)
        values = np.unique(d2[p, q])
        for limit in values[[0, 3, len(values) // 8, len(values) // 3]]:
            a, b, w = power._pairs(sx, sy, float(limit), np.arange(len(sx)))
            want = {(i, j) for i, j in zip(p.tolist(), q.tolist()) if d2[i, j] <= limit}
            assert set(zip(a.tolist(), b.tolist())) == want
            assert np.array_equal(w, d2[a, b])


def test_mst_edges_candidates_follow_local_density(monkeypatch):
    # a dense blob among sparse points, and gaps that grow along a line:
    # a limit set by the sparse points alone would pair most of the blob
    sizes = []

    def counting_boruvka(comp, a, b, w):
        sizes.append(len(w))
        return boruvka(comp, a, b, w)

    boruvka = power._boruvka
    monkeypatch.setattr(power, "_boruvka", counting_boruvka)
    rng = np.random.default_rng(3)
    blob = np.concatenate((rng.normal(0.0, 0.01, (1000, 2)), rng.uniform(-100.0, 100.0, (1000, 2))))
    gaps = np.cumsum(1.01 ** np.arange(2000))
    for pts in (blob[rng.permutation(2000)], np.stack((gaps, 0.5 * gaps), axis=1)):
        sizes.clear()
        assert mst_edges(pts) == prim_dense_reference(pts)
        assert sum(sizes) <= 64 * len(pts)


@pytest.mark.parametrize("scale", [2.0**-539, 2.0**500], ids=["2**-539", "2**500"])
def test_mst_edges_match_the_dense_prim_when_scaled(scale):
    # at 2**-539 most squared distances underflow to tied subnormals or 0
    for family, n in [("random_square", 64), ("clustered", 300), ("collinear", 200), ("random_square", 1000)]:
        pts = _array(gen(GenSpec(family, n, seed=3)).points) * scale
        assert mst_edges(pts) == prim_dense_reference(pts)


def test_overflowing_squared_distances_raise():
    # every squared gap overflows to inf, so no nearest vertex can be
    # ranked: the ValueError alone, no numpy overflow warning
    pts = [Point(0.0, 0.0), Point(1e200, 0.0), Point(2e200, 0.0), Point(3e200, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            mst_edges(pts)
        with pytest.raises(ValueError, match="overflow"):
            tsp_tour_approx(pts)


def test_cost_chain_check_rejects_a_repeated_point():
    pts = _random_distinct(SplitMix64(101), 24, lo=0.0, hi=30.0)
    pa = orient_and_assign(pts, 2)
    tour = tsp_tour_approx(pts)
    p, ori, _ = pa.entries[0]
    # the point set agrees, but p comes twice, first with a huge radius
    twice = PowerAssignment(2, ((p, ori, 1e9),) + pa.entries)
    with pytest.raises(ValueError, match="disagree on the points"):
        cost_chain_check(twice, tour)
    # as many entries as points, one of them replaced by a repeat
    with pytest.raises(ValueError, match="disagree on the points"):
        cost_chain_check(PowerAssignment(2, (pa.entries[1],) + pa.entries[1:]), tour)
    with pytest.raises(ValueError, match="duplicate"):
        cost_chain_check(pa, Tour(tour.order[:-1] + tour.order[:1], tour.tree))


def test_mst_edges_memory_is_linear():
    # one distance row at a time: a 2000 x 2000 float matrix alone is 32 MB
    pts = list(gen(GenSpec("random_square", 2000, seed=1, side=60.0)).points)
    tracemalloc.start()
    try:
        edges = mst_edges(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(edges) == 1999
    assert peak < 4 * 2**20


def test_power_pipeline_runs_prim_twice(monkeypatch):
    # once in the assignment's tour, once in the audited tour; the audit
    # reads the tree the tour kept
    calls = []

    def counting_mst_edges(points):
        calls.append(len(points))
        return mst_edges(points)

    monkeypatch.setattr(power, "mst_edges", counting_mst_edges)
    pts = _random_distinct(SplitMix64(100), 40, lo=0.0, hi=30.0)
    pa = orient_and_assign(pts, 2)
    assert cost_chain_check(pa, tsp_tour_approx(pts)).ok
    assert calls == [40, 40]


#: sha256 of the entries below, recorded before fans were aimed by input
#: position; the sizes cover one section with and without a remainder
#: (the left half takes the ceiling) and the last of many sections
#: taking the remainder.
POWER_ENTRIES_SHA256 = "ad3c57caff4d272538eef8ec3ed683d03b3b1d6c4991ec7adbc3310cea979592"


def test_orient_and_assign_output_is_pinned():
    lines = []
    for n in (8, 9, 15, 16, 23, 517):
        pts = list(gen(GenSpec("random_square", n, seed=n, side=60.0)).points)
        for p, ang, r in orient_and_assign(pts, 2).entries:
            lines.append(f"{n} {p.x.hex()} {p.y.hex()} {ang.hex()} {r.hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == POWER_ENTRIES_SHA256


#: sha256 of the entries below, recorded while each section's two
#: quadruplets were still oriented by a scalar ``orient_quadruplet``
#: call each.  Their sections hold 37 collinear quadruplets and 6
#: triangles, some with three collinear hull points.
TIES_ENTRIES_SHA256 = "deae7278dcb39089025ddf13d4d1ae555bb023501c8346e2f549b6dbe900d17e"


def test_orient_and_assign_output_is_pinned_on_tie_heavy_inputs():
    inputs = [
        (f"collinear {n}", list(gen(GenSpec("collinear", n, seed=n)).points)) for n in (8, 16, 23, 64)
    ]
    lattice = [Point(float(i), float(j)) for i in range(7) for j in range(6)]
    shuffle(SplitMix64(42), lattice)
    inputs.append(("lattice", lattice))
    inputs.append(("ladder", [Point(float(i), float(j)) for i in range(20) for j in range(2)]))
    lines = []
    for name, pts in inputs:
        for p, ang, r in orient_and_assign(pts, 2).entries:
            lines.append(f"{name} {p.x.hex()} {p.y.hex()} {ang.hex()} {r.hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TIES_ENTRIES_SHA256


#: sha256 of the entries below, recorded while the cluster under eight
#: points still returned a point-keyed dict of orientations.
SMALL_ENTRIES_SHA256 = "f696fade4ffd9f410c34a0e3013964b8cf777f4f2b4c1288b86ea123716f608f"


def test_orient_and_assign_output_is_pinned_under_eight_points():
    lines = []
    for family in ("random_square", "collinear"):
        for n in range(2, 8):
            for seed in (1, 2, 3):
                pts = list(gen(GenSpec(family, n, seed=seed, side=10.0)).points)
                for p, ang, r in orient_and_assign(pts, 2).entries:
                    lines.append(f"{family} {n} {p.x.hex()} {p.y.hex()} {ang.hex()} {r.hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SMALL_ENTRIES_SHA256


@pytest.mark.parametrize("n", range(2, 8))
def test_cost_chain_audits_the_small_cluster(n):
    # under eight points the cluster is one section whose window is the
    # whole cycle; every index gap is at least floor(n/2)
    rng = SplitMix64(110 + n)
    pts = _random_distinct(rng, n, lo=0.0, hi=5.0)
    for beta in (1, 2, 3):
        rep = cost_chain_check(orient_and_assign(pts, beta), tsp_tour_approx(pts))
        assert rep.ok and rep.pointwise_ok and rep.total_ok
        assert rep.max_index_gap == n - 1
        assert rep.mst_cost == pytest.approx(mst_cost(pts, beta), rel=1e-12)
    with pytest.raises(ValueError, match="at least two points"):
        cost_chain_check(PowerAssignment(2, ((pts[0], 0.0, 1.0),)), Tour((pts[0],), ()))
