import math
import sys

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chp_pack import (
    CIRCLE,
    NoSolution,
    NotMultipleOfSix,
    chp_density,
    disk_count,
    solve_border,
)
from chp_pack import chp, geometry
from chp_pack.geometry import dist


def test_disk_count():
    assert [disk_count(k) for k in (1, 2, 3, 10)] == [7, 19, 37, 331]


def test_sigma_validation():
    with pytest.raises(NotMultipleOfSix):
        solve_border(13, 2)
    with pytest.raises(NotMultipleOfSix):
        solve_border(0, 2)
    with pytest.raises(NoSolution):
        solve_border(12, 0)


def test_hexagon_allowed():
    b = solve_border(6, 2)
    assert b.d == pytest.approx(0.5, abs=1e-14)


def test_angle_sums():
    for sigma in (6, 12, 18, 24, 36, 60, 96):
        for k in range(1, 11):
            b = solve_border(sigma, k)
            want = k * math.pi * (1.0 / 6.0 - 1.0 / sigma)
            assert sum(b.phi) == pytest.approx(want, abs=1e-10)
            xi = [v + math.pi / 3 for v in b.phi]
            assert sum(xi) == pytest.approx(k * math.pi * (0.5 - 1.0 / sigma), abs=1e-10)


def test_supplementary_ratio():
    # sum(sin phi)/sum(cos phi) is fixed by the border geometry alone
    for sigma in (12, 18, 30):
        for k in (2, 5, 9):
            b = solve_border(sigma, k)
            lhs = sum(math.sin(v) for v in b.phi) / sum(math.cos(v) for v in b.phi)
            rhs = 4.0 / (math.tan(math.pi / sigma) + math.sqrt(3.0)) - math.sqrt(3.0)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_chord_from_angles_identity():
    for sigma, k in ((12, 3), (18, 5), (24, 7), (48, 4)):
        b = solve_border(sigma, k)
        num = math.sin(math.pi / sigma) + math.cos(math.pi / sigma + math.pi / 6.0)
        assert b.d == pytest.approx(num / sum(math.cos(v) for v in b.phi), abs=1e-12)


def test_full_vertex_chord_length():
    # when the chain passes through every vertex the chords lie on the
    # edges, so d is the edge length divided by chords per edge
    for sigma, k in ((12, 2), (12, 4), (18, 3), (24, 4), (6, 5)):
        assert (6 * k) % sigma == 0
        b = solve_border(sigma, k)
        want = sigma * 2.0 * math.sin(math.pi / sigma) / (6.0 * k)
        assert b.d == pytest.approx(want, abs=1e-14)


def test_dodecagon_k3_chord_exact():
    # the middle chord straddles the interior corner symmetrically;
    # solving that two-edge geometry by hand gives
    # d = E*sqrt(2+sqrt(3))/(1+sqrt(2+sqrt(3)))
    s = math.sqrt(2.0 + math.sqrt(3.0))
    want = 2.0 * math.sin(math.pi / 12.0) * s / (1.0 + s)
    b = solve_border(12, 3)
    assert b.d == pytest.approx(want, abs=1e-13)
    # the only node on a corner is the starting one
    assert b.n_V == 1
    assert b.vertex_hits == (0,)


def test_vertex_hits_when_chain_rides_the_edges():
    b = solve_border(12, 2)
    assert b.n_V == 2
    assert b.vertex_hits == (0, 1)


def test_phi_ascending_and_mirror():
    for sigma, k in ((12, 5), (18, 7), (36, 6)):
        b = solve_border(sigma, k)
        assert all(b.phi[i] < b.phi[i + 1] + 1e-12 for i in range(k - 1))
        for j in range(k):
            mirror = math.pi / 3.0 - 2.0 * math.pi / sigma - b.phi[k - 1 - j]
            assert b.phi[j] == pytest.approx(mirror, abs=1e-10)


def test_chain_endpoints():
    for sigma, k in ((12, 4), (30, 7)):
        b = solve_border(sigma, k)
        # P1, and its image under sixfold's exact pi/3 rotation, to the last bit
        p1 = geometry.polygon_vertices(sigma)[0]
        assert b.chain[0] == p1
        assert b.chain[-1] == geometry.sixfold([p1])[1]
        assert len(b.chain) == k + 1
        for i in range(k):
            assert dist(b.chain[i], b.chain[i + 1]) == pytest.approx(b.d, abs=1e-11)


def test_circle_closed_forms():
    for k in (1, 2, 5, 8):
        b = solve_border(CIRCLE, k)
        assert b.d == pytest.approx(2.0 * math.sin(math.pi / (6.0 * k)), abs=1e-15)
        for j in range(k):
            assert b.phi[j] == pytest.approx((2 * j + 1) * math.pi / (6.0 * k), abs=1e-15)
        assert b.n_V == k
        assert b.eta == (1 if k <= 2 else 2)


def test_degeneracies_partition_k():
    for sigma in (12, 18, 24, 30, 36, 42, 48, 54, 60):
        for k in range(1, 9):
            b = solve_border(sigma, k)
            assert sum(b.degeneracies) == k
            assert tuple(reversed(b.degeneracies)) == b.degeneracies


def test_density_handles_huge_sigma():
    # the density formula takes any side count; at a million sides the
    # polygon is indistinguishable from a circle
    from chp_pack import chp_density
    v6 = chp_density(10**6, 4)
    vc = chp_density(CIRCLE, 4)
    assert abs(v6 - vc) < 1e-4
    with pytest.raises(NotMultipleOfSix):
        solve_border(10**6, 4)


def test_density_constants():
    assert chp_density(12, 23) == pytest.approx(0.8368374943, abs=1e-9)
    assert chp_density(12, 7) == pytest.approx(0.8272589, abs=1e-5)


def full_vertex_density(sigma, k):
    """The paper's closed-form density when every vertex is occupied (6k/sigma an integer)."""
    assert (6 * k) % sigma == 0, (sigma, k)
    cot = 1.0 / math.tan(math.pi / sigma)
    return math.pi * disk_count(k) * sigma * cot / (6.0 * k * cot + sigma) ** 2


def test_density_full_vertex_agrees():
    for sigma, k in ((12, 2), (12, 4), (12, 6), (18, 3), (24, 4), (6, 3)):
        assert full_vertex_density(sigma, k) == pytest.approx(chp_density(sigma, k), abs=1e-12)


@pytest.mark.parametrize("sigma", [CIRCLE, 12, 6, 15])
@pytest.mark.parametrize("k", [0, -1])
def test_density_rejects_k_below_one(sigma, k):
    with pytest.raises(NoSolution):
        chp_density(sigma, k)


def test_hexagon_density_closed_form():
    for k in range(1, 11):
        n = disk_count(k)
        cot = 1.0 / math.tan(math.pi / 6.0)
        want = math.pi * n * 6 * cot / (6.0 * k * cot + 6.0) ** 2
        assert chp_density(6, k) == pytest.approx(want, abs=1e-12)


def test_circle_density_closed_form():
    for k in range(1, 11):
        n = disk_count(k)
        s = math.sin(math.pi / (6.0 * k))
        want = n * s * s / (1.0 + s) ** 2
        assert chp_density(CIRCLE, k) == pytest.approx(want, abs=1e-12)


def test_density_increases_then_saturates():
    # for the dodecagon the packing fraction approaches the hexagonal
    # limit from below as k grows
    vals = [chp_density(12, k) for k in range(2, 24)]
    assert vals[-1] > vals[0]
    assert all(v < math.pi / math.sqrt(12.0) for v in vals)


def _reference_chain_arcs(sigma, k, d):
    """The chord march with capped bisections and bracket growth, kept as the reference."""
    point_at, _ = chp._perimeter(sigma)
    arcs = [0.0]
    s = 0.0
    px, py = point_at(0.0)
    for _ in range(k):
        lo = s + d * (1.0 - 1e-12)
        hi = s + 2.0 * d

        def chord_excess(t):
            qx, qy = point_at(t)
            return math.hypot(qx - px, qy - py) - d

        grow = 0
        while chord_excess(hi) < 0.0:
            hi = s + (hi - s) * 1.5
            grow += 1
            if grow > 60:
                raise NoSolution("chord bracket failed")
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if chord_excess(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * max(1.0, hi):
                break
        s = 0.5 * (lo + hi)
        arcs.append(s)
        px, py = point_at(s)
    return arcs


def _reference_polygon_border(sigma, k):
    """The border solve with a 100-step capped outer bisection and bracket repair."""
    edge = 2.0 * math.sin(math.pi / sigma)
    target = (sigma / 6.0) * edge
    step = 2.0 * math.pi / sigma
    point_at, _ = chp._perimeter(sigma)

    def travel_excess(d):
        return _reference_chain_arcs(sigma, k, d)[-1] - target

    hi = target / k
    lo = 0.5 * hi
    guard = 0
    while travel_excess(lo) >= 0.0:
        lo *= 0.5
        guard += 1
        if guard > 200:
            raise NoSolution("no bracket")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if travel_excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * hi:
            break
    d = 0.5 * (lo + hi)

    arcs = _reference_chain_arcs(sigma, k, d)
    chain = [point_at(s) for s in arcs]
    chain[0] = geometry.polygon_vertices(sigma)[0]
    chain[-1] = geometry.sixfold(chain[:1])[1] if sigma % 6 == 0 else point_at(target)
    phi = tuple(
        math.atan2(chain[j + 1][1] - chain[j][1], chain[j + 1][0] - chain[j][0]) for j in range(k)
    )
    hits, alphas = [], []
    for c, s in enumerate(arcs[:-1]):
        m = round(s / edge)
        if abs(s - m * edge) <= chp.GROUP_TOL:
            hits.append(c)
            alphas.append(m * step)
    return {"phi": phi, "d": d, "chain": tuple(chain), "hits": tuple(hits), "alphas": tuple(alphas)}


@pytest.mark.parametrize("sigma", [6, 7, 12, 18, 24, 30, 36, 42, 48, 54, 60, 96, 120])
def test_border_solver_matches_capped_reference(sigma):
    # the closed-form chain and the reference's bisected one put the same
    # chord ends on the same vertices; d lies within 16 ulps of the
    # reference's (12 at most measured on these cells, at (60, 5)) and every
    # chain point within 1e-14 (1.6e-15 measured)
    for k in (1, 2, 3, 5, 8, 13):
        got = chp._solve_polygon_border(sigma, k)
        want = _reference_polygon_border(sigma, k)
        assert (got["hits"], got["alphas"]) == (want["hits"], want["alphas"]), (sigma, k)
        assert chp._group_degeneracies(got["phi"]) == chp._group_degeneracies(want["phi"]), (sigma, k)
        assert abs(got["d"] - want["d"]) <= 16 * math.ulp(want["d"]), (sigma, k)
        assert max(dist(p, q) for p, q in zip(got["chain"], want["chain"])) <= 1e-14, (sigma, k)


@pytest.mark.parametrize("sigma, k", [(6, 1100), (12, 40), (36, 36), (48, 8), (30, 35), (60, 10), (7, 7)])
def test_edge_riding_borders_are_closed_form(sigma, k):
    # where 6k/sigma = m is an integer the chords ride the edges: d is one
    # sixth of the perimeter over k, and every m-th chain point is a vertex
    got = chp._solve_polygon_border(sigma, k)
    edge = 2.0 * math.sin(math.pi / sigma)
    m = 6 * k // sigma
    assert got["d"] == (sigma / 6.0) * edge / k
    assert got["hits"] == tuple(range(0, k, m))
    assert got["alphas"] == tuple(c // m * (2.0 * math.pi / sigma) for c in range(0, k, m))


@pytest.mark.parametrize("sigma", [6, 7, 12, 60, 360])
def test_perimeter_corners_are_the_polygon_vertices(sigma):
    # the march interpolates geometry's vertices to the last bit, from P1
    point_at, _ = chp._perimeter(sigma)
    vertices = geometry.polygon_vertices(sigma)
    assert vertices[0] == (-math.sin(math.pi / sigma), -math.cos(math.pi / sigma))
    assert point_at(0.0) == vertices[0]
    edge = 2.0 * math.sin(math.pi / sigma)
    for m in range(sigma):
        for frac in (0.0, 0.25, 0.5, 0.999):
            i, t = divmod((m + frac) * edge, edge)
            f = t / edge
            (ax, ay), (bx, by) = vertices[int(i)], vertices[(int(i) + 1) % sigma]
            assert point_at((m + frac) * edge) == ((1.0 - f) * ax + f * bx, (1.0 - f) * ay + f * by), (m, frac)


def test_border_solves_take_few_marches(monkeypatch):
    # a plain bisection of d's bracket takes about 53 marches; the secant
    # takes 15 in the median of this sweep and 31 at most
    counts = []
    root = chp._root

    def counted_root(f, lo, hi):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return f(x)

        out = root(counted, lo, hi)
        counts.append(calls[0])
        return out

    monkeypatch.setattr(chp, "_root", counted_root)
    for sigma in range(6, 121, 6):
        for k in range(1, 21):
            chp._solve_polygon_border(sigma, k)
    median = sorted(counts)[len(counts) // 2]
    assert max(counts) <= 40 and median <= 18, (max(counts), median)


def test_border_sweep_bisects_positive_brackets(monkeypatch):
    # _root serves only finite brackets with 0 < lo < hi: every border
    # solve of the sweep that searches for d gets one
    brackets = []
    root = chp._root

    def recorded_root(f, lo, hi):
        brackets.append((lo, hi))
        return root(f, lo, hi)

    monkeypatch.setattr(chp, "_root", recorded_root)
    for sigma in range(6, 121, 6):
        for k in range(1, 21):
            chp._solve_polygon_border(sigma, k)
    assert brackets
    bad = [(lo, hi) for lo, hi in brackets if not (0.0 < lo < hi < math.inf)]
    assert not bad, bad[:5]


# the floats _root serves
_positive = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)
_slope = st.floats(min_value=1.0, max_value=1e6)


@given(_positive, _positive, _positive)
def test_bisect_stops_at_the_float_fixed_point(a, b, c):
    # a step residual gives the secant nothing to weigh, so _root bisects
    # all the way down to the float fixed point at the flip
    lo, x0, hi = sorted((a, b, c))
    assume(lo < x0)
    got, _ = chp._root(lambda x: (-1.0 if x < x0 else 1.0, None), lo, hi)
    assert got == x0 or got == math.nextafter(x0, -math.inf)


@example(5e-324, 1e-323, 1.5e-323, "kink", 1.0, 1.0)
# a weighed value that halves to -0.0 against a residual of 0.0
@example(1.0, 1e-323, 5e-324, "kink", 1.0, 1.0)
@example(0.5, 0.6, 1.0, "step", 1.0, 1.0)
@given(_positive, _positive, _positive, st.sampled_from(["kink", "step", "cubic"]), _slope, _slope)
def test_root_pins_the_flip_to_adjacent_floats(a, b, c, shape, up, down):
    lo, x0, hi = sorted((a, b, c))
    assume(lo < x0)

    def residual(x):
        # x - x0 is exact in sign, and a slope of at least 1 keeps it off
        # zero, so the residual is negative exactly below x0
        t = x - x0
        if shape == "kink":
            return t * (up if t >= 0.0 else down)
        if shape == "step":
            return 1.0 if t >= 0.0 else -1.0
        return t * (1.0 + abs(t))

    asked = []

    def f(x):
        asked.append(x)
        return residual(x), x

    got, payload = chp._root(f, lo, hi)
    assert got in (math.nextafter(x0, 0.0), x0)
    assert payload == got
    # at most 2 + 4n evaluations, for the n steps of a plain bisection
    n, mid = 0, 0.5 * lo + 0.5 * hi
    while lo < mid < hi:
        lo, hi = (mid, hi) if mid < x0 else (lo, mid)
        n, mid = n + 1, 0.5 * lo + 0.5 * hi
    assert len(asked) <= 2 + 4 * n, (len(asked), n)
