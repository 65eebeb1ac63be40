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
from chp_pack.geometry import dist, fundamental_vertex, rotate


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
        assert dist(b.chain[0], fundamental_vertex(sigma)) == 0.0
        assert dist(b.chain[-1], rotate(fundamental_vertex(sigma), math.pi / 3)) < 1e-12
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
    chain[0] = geometry.fundamental_vertex(sigma)
    chain[-1] = geometry.rotate(chain[0], math.pi / 3.0) if sigma % 6 == 0 else point_at(target)
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


# cells where a careless replay of the bisection moves the last bits:
# (30, 2), in the sigma 30 row, without the window around the flip;
# (120, 8) with a chord-end estimate on an occupied vertex; (96, 5) moved
# in an earlier version of the replay without the window
_REPLAY_CELLS = {96: (5,), 120: (8,)}


@pytest.mark.parametrize("sigma", [6, 7, 12, 18, 24, 30, 36, 42, 48, 54, 60, 96, 120])
def test_border_solver_matches_capped_reference(sigma):
    for k in _REPLAY_CELLS.get(sigma, (1, 2, 3, 5, 8, 13)):
        got = chp._solve_polygon_border(sigma, k)
        want = _reference_polygon_border(sigma, k)
        for key in ("d", "chain", "phi", "hits", "alphas"):
            assert got[key] == want[key], (sigma, k, key)


def test_border_estimates_save_point_at_calls(monkeypatch):
    # the estimates leave the result as it is and cut the boundary
    # evaluations at least tenfold against plain bisection, vertex chords
    # included: every chord of (48, 8) ends on a vertex; (6, 29), (24, 20),
    # (30, 35) and (36, 36) ride the edges, where d lies up to 12 ulps
    # under the estimate's top of the bracket, and (108, 9) and (210, 35)
    # hold the widest ragged runs at a vertex
    calls = [0]
    perimeter = chp._perimeter
    bisect = chp._bisect

    def counted_perimeter(sigma):
        point_at, corner = perimeter(sigma)

        def counted_point_at(s):
            calls[0] += 1
            return point_at(s)

        return counted_point_at, corner

    def plain_bisect(below, lo, hi, tol=0.0, estimate=None, window=16):
        return bisect(below, lo, hi, tol)

    timed = ((12, 8), (48, 8), (12, 20))
    monkeypatch.setattr(chp, "_perimeter", counted_perimeter)
    for sigma, k in timed + ((6, 29), (24, 20), (30, 35), (36, 36), (108, 9), (210, 35)):
        calls[0] = 0
        got = chp._solve_polygon_border(sigma, k)
        fast = calls[0]
        with monkeypatch.context() as plain:
            plain.setattr(chp, "_bisect", plain_bisect)
            calls[0] = 0
            want = chp._solve_polygon_border(sigma, k)
        assert got == want, (sigma, k)
        if (sigma, k) in timed:
            assert 10 * fast <= calls[0], (sigma, k, fast, calls[0])


@pytest.mark.parametrize("sigma, k", [(48, 8), (12, 20)])
def test_every_chord_end_gets_an_estimate(monkeypatch, sigma, k):
    # every chord of (48, 8) ends on a vertex, and every tenth of (12, 20);
    # each chord's bisection (the only ones run with tol 1e-16) starts
    # from an estimate inside its bracket, the vertex ones with the wide window
    seen = []
    bisect = chp._bisect

    def recorded_bisect(below, lo, hi, tol=0.0, estimate=None, window=16):
        if tol == 1e-16:
            seen.append((estimate is not None and lo < estimate < hi, window))
        return bisect(below, lo, hi, tol, estimate, window)

    monkeypatch.setattr(chp, "_bisect", recorded_bisect)
    chp._solve_polygon_border(sigma, k)
    assert seen and all(estimated for estimated, _ in seen)
    assert {window for _, window in seen} == {16, chp._VERTEX_WINDOW} if sigma == 12 else {chp._VERTEX_WINDOW}


def _ragged_runs_at_vertices(sigma, k, span):
    """Length of the ragged run of ``short`` around each vertex chord end of the solved chain.

    The run goes from the first float where the chord is not short to the
    last where it is, 0 when ``short`` flips once; the scan covers ``span``
    floats on each side of the end and must see it true at its bottom and
    false at its top.
    """
    d = chp._solve_polygon_border(sigma, k)["d"]
    arcs = chp._chain_arcs(sigma, k, d)
    point_at, _ = chp._perimeter(sigma)
    edge = 2.0 * math.sin(math.pi / sigma)
    runs = []
    for s, end in zip(arcs, arcs[1:]):
        if chp._vertex_index(end, edge) is None:
            continue
        px, py = point_at(s)
        short = []
        for n in range(-span, span + 1):
            qx, qy = point_at(chp._float_steps(end, n))
            short.append(math.hypot(qx - px, qy - py) < d)
        assert short[0] and not short[-1], (sigma, k, end)
        first_long = short.index(False)
        last_short = len(short) - 1 - short[::-1].index(True)
        runs.append(max(0, last_short - first_long + 1))
    return runs


@pytest.mark.parametrize("sigma, k", [(48, 8), (108, 9), (210, 35), (276, 23)])
def test_vertex_chord_ends_are_ragged_well_inside_the_window(sigma, k):
    # the precondition of the vertex chords' replay: at the solved d the
    # chord length is ragged over at most 129 floats, at (210, 35) and
    # (276, 23), a quarter of the window or less on every vertex chord end
    runs = _ragged_runs_at_vertices(sigma, k, 400)
    assert runs, (sigma, k)
    assert max(runs) <= chp._VERTEX_WINDOW // 4, (sigma, k, runs)


def test_border_sweep_bisects_positive_brackets(monkeypatch):
    # _bisect and _float_steps serve only finite brackets with 0 < lo < hi:
    # every bisection of the border solves, the nested ones that pin a flip
    # included, gets one
    brackets = []
    bisect = chp._bisect

    def recorded_bisect(below, lo, hi, tol=0.0, estimate=None, window=16):
        brackets.append((lo, hi))
        return bisect(below, lo, hi, tol, estimate, window)

    monkeypatch.setattr(chp, "_bisect", recorded_bisect)
    for sigma in range(6, 121, 6):
        for k in range(1, 21):
            chp._solve_polygon_border(sigma, k)
    assert brackets
    bad = [(lo, hi) for lo, hi in brackets if not (0.0 < lo < hi < math.inf)]
    assert not bad, bad[:5]


# the floats _bisect serves; a bracket in [1e-300, 1e300] keeps every
# window of float steps around a flip positive and finite
_positive = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)
_bracketed = st.floats(min_value=1e-300, max_value=1e300)


@given(_positive, _positive, _positive)
def test_bisect_stops_at_the_float_fixed_point(a, b, c):
    lo, x0, hi = sorted((a, b, c))
    assume(lo < x0)
    got = chp._bisect(lambda x: x < x0, lo, hi)
    assert got == x0 or got == math.nextafter(x0, -math.inf)


def _steps(x, n):
    """The float n steps from x (down for negative n)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


@example(5e-324, 3)
@example(1e-320, 4096)
@example(sys.float_info.min, -1)
@example(sys.float_info.max, -2)
@given(_positive, st.integers(-2100, 2100))
def test_float_steps_walks_like_nextafter(x, n):
    # subnormals and the step between them and the normal floats included
    want = _steps(x, n)
    assume(0.0 < want < math.inf)
    assert chp._float_steps(x, n).hex() == want.hex()


@given(
    _bracketed,
    _bracketed,
    _bracketed,
    st.sampled_from([16, chp._VERTEX_WINDOW]),
    st.integers(0, 2**1023 - 1),
    st.sampled_from([0.0, 1e-16]),
    st.data(),
)
def test_bisect_with_estimate_replays_the_plain_path(a, b, c, window, ragged, tol, data):
    lo, x0, hi = sorted((a, b, c))
    assume(lo < x0)
    # x < x0, with arbitrary answers on the window - 1 floats strictly
    # within window / 2 ulps of x0: monotone outside a run narrower than
    # the window
    half = window // 2 - 1
    zone = {}
    x = _steps(x0, -half)
    for n in range(2 * half + 1):
        zone[x] = bool(ragged >> n & 1)
        x = math.nextafter(x, math.inf)

    asked = []

    def below(x):
        asked.append(x)
        return zone.get(x, x < x0)

    # the window's edges are whole float steps
    assert chp._float_steps(x0, -window).hex() == _steps(x0, -window).hex()
    assert chp._float_steps(x0, window).hex() == _steps(x0, window).hex()

    estimate = data.draw(
        st.one_of(
            st.none(),
            st.floats(min_value=lo, max_value=hi),
            st.integers(-2 * window, 2 * window).map(lambda n: _steps(x0, n)),
            _bracketed,
        ),
        label="estimate",
    )
    got = chp._bisect(below, lo, hi, tol, estimate, window)
    # what stepping out and pinning the flip learned, the replay does not ask again
    assert len(asked) == len(set(asked))
    assert got.hex() == chp._bisect(below, lo, hi, tol).hex()
