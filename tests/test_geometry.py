import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pair_oracles import PAIR_ORACLES, dense_min, dense_pairs, point_sets

from chp_pack import geometry, optimizer
from chp_pack.builder import PackingConfiguration
from chp_pack.geometry import CIRCLE


def test_fundamental_vertex_is_a_polygon_vertex():
    # vertex 0 is P1 = (-sin(pi/sigma), -cos(pi/sigma)) to the last bit
    for sigma in (6, 12, 30, 96):
        p1 = geometry.polygon_vertices(sigma)[0]
        assert p1 == (-math.sin(math.pi / sigma), -math.cos(math.pi / sigma))
        assert abs(math.hypot(*p1) - 1.0) < 1e-15


@pytest.mark.parametrize("sigma", [3, 6, 7, 12, 15, 60, 348, 360])
def test_polygon_table_is_exactly_mirror_symmetric(sigma):
    # u_m and u_(-m) are mirror images in the y axis, bit for bit; the axis
    # points u_0 and u_sigma are (0, -1) and (0, 1), and the vertices and
    # normals of the frame are the table's odd and even entries
    frame = geometry._frame(sigma)
    units = frame.units
    assert len(units) == 2 * sigma
    for m in range(2 * sigma):
        x, y = units[m]
        assert units[-m] == (-x, y), m
        assert abs(math.hypot(x, y) - 1.0) <= 2e-16, m
    assert units[0] == (0.0, -1.0) and units[sigma] == (0.0, 1.0)
    assert frame.vertices.tolist() == [list(units[2 * i - 1]) for i in range(sigma)]
    assert frame.normals.T.tolist() == [list(units[2 * i]) for i in range(sigma)]
    # vertex i mirrors onto vertex 1 - i
    verts = geometry.polygon_vertices(sigma)
    assert all(verts[i] == (-verts[1 - i][0], verts[1 - i][1]) for i in range(sigma))


def test_polygon_corners_sit_on_their_edges():
    # each vertex lies on the lines of its two edges to within 2.3e-16 of
    # the apothem over sigma 6..360 (2.2e-16 measured; vertices from the
    # polar angle near 3 pi/2 were off by up to 5.6e-16)
    for sigma in range(6, 361, 6):
        frame = geometry._frame(sigma)
        normals = frame.normals.T
        own = np.concatenate(((frame.vertices * normals).sum(1), (frame.vertices * np.roll(normals, 1, axis=0)).sum(1)))
        assert np.abs(own - frame.apothem).max() <= 2.3e-16, sigma


def _gamma(u, sigma):
    """Radial support of the boundary: the chart's radius at t = pi/2, where sin(t)**2 is 1."""
    return math.hypot(*geometry.interior_point(math.pi / 2, u, sigma))


def test_gamma_periodic_and_extremal():
    # support function of the boundary: cos(pi/sigma) at edge midlines,
    # 1 at vertices, periodic with 2*pi/sigma.
    sigma = 12
    u0 = geometry.vertex_angle(sigma)
    assert _gamma(u0, sigma) == pytest.approx(1.0, abs=1e-15)
    mid = u0 + math.pi / sigma
    assert _gamma(mid, sigma) == pytest.approx(math.cos(math.pi / sigma), abs=1e-15)
    for t in (0.0, 0.3, 2.0, 5.1):
        a = _gamma(t, sigma)
        b = _gamma(t + 2 * math.pi / sigma, sigma)
        assert a == pytest.approx(b, abs=1e-13)


def test_gamma_matches_boundary_radius():
    # at t = pi/2 the chart lands on the boundary, at polar angle u
    sigma = 18
    for t in (0.1, 1.0, 4.4):
        p = geometry.interior_point(math.pi / 2, t, sigma)
        assert abs(float(geometry.outside_by(sigma, np.array([p]))[0])) < 1e-14
        assert abs(math.atan2(p[1], p[0]) % (2 * math.pi) - t % (2 * math.pi)) < 1e-12
    assert geometry.interior_point(math.pi / 2, 0.7, CIRCLE) == (math.cos(0.7), math.sin(0.7))


def test_apothem():
    assert geometry.apothem(6, 0.0) == pytest.approx(math.cos(math.pi / 6), abs=1e-16)
    assert geometry.apothem(12, 0.25) == pytest.approx(math.cos(math.pi / 12) + 0.25, abs=1e-16)


def test_outside_by_and_project_into():
    sigma = 12
    assert geometry.outside_by(sigma, np.array([(0.0, 0.0)]))[0] <= 0.0
    assert geometry.outside_by(sigma, np.array([geometry.polygon_vertices(12)[0]]))[0] <= 1e-12
    outside = (2.0, 0.3)
    assert geometry.outside_by(sigma, np.array([outside]))[0] > 1e-9
    proj = geometry.project_into(sigma, np.array([outside]))
    assert geometry.outside_by(sigma, proj)[0] <= 1e-9
    # the optimizer's projection leaves interior rows and pinned rows as they are
    inside = (0.1, -0.2)
    rows = np.array([inside, outside, outside])
    got = optimizer._project_all(rows, sigma, np.array([1]))
    assert tuple(got[0]) == inside
    assert tuple(got[1]) == outside
    assert tuple(got[2]) == tuple(proj[0])
    # with no free row outside the rows come back as they are
    assert optimizer._project_all(rows, sigma, np.array([1, 2])) is rows


def test_projection_is_nearest_boundary_point():
    sigma = 6
    p = (1.5, 0.0)
    q = tuple(geometry.project_into(sigma, np.array([p]))[0])
    # brute force over dense boundary samples
    best = min(
        geometry.dist(p, geometry.interior_point(math.pi / 2, t, sigma))
        for t in [i * 2 * math.pi / 20000 for i in range(20000)]
    )
    assert geometry.dist(p, q) <= best + 1e-6


def test_interior_point_lands_inside():
    sigma = 12
    for t in (0.0, 0.4, 1.2, 1.5707):
        for u in (0.0, 1.0, 3.3, 6.2):
            p = geometry.interior_point(t, u, sigma)
            assert geometry.outside_by(sigma, np.array([p]))[0] <= 1e-12
            assert geometry.outside_by(CIRCLE, np.array([geometry.interior_point(t, u, CIRCLE)]))[0] <= 0.0


def test_polygon_area():
    # hexagon with unit circumradius
    assert geometry.polygon_area(6, 0.0) == pytest.approx(3 * math.sqrt(3) / 2, abs=1e-14)


def test_sigma_rule():
    # an int side count >= 3 or CIRCLE, checked before any geometry runs
    for sigma in (2, 2.5, True, -6, "foo"):
        with pytest.raises(ValueError, match="sigma must be an integer >= 3"):
            PackingConfiguration(sigma=sigma, centers=np.zeros((2, 2)), diameter=0.5)
        with pytest.raises(ValueError, match="sigma must be an integer >= 3"):
            optimizer.algorithm1(sigma, 5)


@pytest.mark.parametrize("sigma", [12, CIRCLE], ids=["sigma12", "circle"])
def test_vectorized_primitives_match_scalar_scans(sigma):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.2, 1.2, (300, 2))
    d, tol = 0.1, 0.2
    brute = [
        [i, j]
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if d * (1.0 - tol) <= float(np.hypot(*(pts[i] - pts[j]))) <= d * (1.0 + tol)
    ]
    assert brute
    pairs = geometry.contact_pairs(pts, d, tol)
    assert pairs.dtype == np.intp and pairs.shape == (len(brute), 2)
    assert pairs.tolist() == brute
    excess = geometry.outside_by(sigma, pts)
    for tol in (0.0, 1e-3):
        inside = [_scalar_inside(sigma, (x, y), tol) for x, y in pts]
        assert (excess <= tol).tolist() == inside
    assert 0 < sum(inside) < len(pts)


def _scalar_inside(sigma, point, tol=0.0):
    """Per-point reference containment: the unit circle for CIRCLE, else each edge's half-plane fattened by tol."""
    x, y = point
    if sigma == CIRCLE:
        return math.hypot(x, y) <= 1.0 + tol
    h = geometry.apothem(sigma) + tol
    base = geometry.vertex_angle(sigma) + math.pi / sigma
    angles = [base + 2 * math.pi * i / sigma for i in range(sigma)]
    return all(x * math.cos(a) + y * math.sin(a) <= h for a in angles)


def _scalar_projection(sigma, point):
    """Per-point reference: the point scaled to unit length for CIRCLE, else a scan over the edge segments."""
    x, y = point
    if sigma == CIRCLE:
        # libm hypot, as numpy calls it; math.hypot rounds about 0.6% of points differently
        scale = 1.0 / float(np.hypot(x, y))
        return x * scale, y * scale
    verts = geometry.polygon_vertices(sigma)
    best, best_d2 = verts[0], math.inf
    for i in range(sigma):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % sigma]
        ex, ey = bx - ax, by - ay
        t = min(1.0, max(0.0, ((x - ax) * ex + (y - ay) * ey) / (ex * ex + ey * ey)))
        qx, qy = ax + t * ex, ay + t * ey
        d2 = (x - qx) ** 2 + (y - qy) ** 2
        if d2 < best_d2:
            best, best_d2 = (qx, qy), d2
    return best


@pytest.mark.parametrize("sigma", [3, 6, 12, 60, CIRCLE])
def test_array_projection_matches_scalar_scan(sigma):
    # the rows outside_by puts outside, as the optimizer passes them
    rng = np.random.default_rng(0 if sigma == CIRCLE else sigma)
    if sigma == CIRCLE:
        u = rng.uniform(0.0, 2.0 * math.pi, 800)
        bases = (np.column_stack([np.cos(u), np.sin(u)]),)
    else:
        verts = np.array(geometry.polygon_vertices(sigma))
        edge = rng.integers(sigma, size=400)
        along = rng.uniform(0.0, 1.0, (400, 1))
        on_edges = verts[edge] + along * (verts[(edge + 1) % sigma] - verts[edge])
        bases = (on_edges, verts[rng.integers(sigma, size=400)])
    # random points, then points within 1e-3 .. 1e-15 of the boundary or a vertex
    near = [base + rng.normal(0.0, scale, base.shape) for base in bases for scale in (1e-3, 1e-9, 1e-15)]
    pts = np.vstack([rng.uniform(-1.5, 1.5, (800, 2))] + near)
    flagged = pts[geometry.outside_by(sigma, pts) > 0.0]
    assert 0 < len(flagged) < len(pts)
    got = geometry.project_into(sigma, flagged)
    want = np.array([_scalar_projection(sigma, (x, y)) for x, y in flagged.tolist()])
    assert got.shape == flagged.shape
    assert np.array_equal(got, want)


def test_min_distance_matches_difference_tensor():
    rng = np.random.default_rng(17)
    for n in (2, 3, 19, 91, 200, 201, 500):
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        assert geometry.min_distance(pts) == dense_min(pts)


@pytest.mark.parametrize("oracle", PAIR_ORACLES.values(), ids=PAIR_ORACLES.keys())
def test_contact_pairs_without_contacts(oracle):
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    pairs = geometry.contact_pairs(pts, 0.1, 1e-6)
    assert pairs.dtype == np.intp and pairs.shape == (0, 2)
    assert pairs.tolist() == oracle(pts, 0.1, 1e-6).tolist() == []


@pytest.mark.parametrize("oracle", PAIR_ORACLES.values(), ids=PAIR_ORACLES.keys())
def test_contact_pairs_keep_a_pair_at_the_upper_bound(oracle):
    # hypot puts this pair at d(1 + tol) to the bit, while a k-d tree's
    # squared-distance test alone puts it outside
    pts = np.array([[0.3, -0.2], [0.26927048491509153, -0.10483846941827606]])
    assert geometry.contact_pairs(pts, 0.1, 1e-6).tolist() == oracle(pts, 0.1, 1e-6).tolist() == [[0, 1]]
    # and a random scan of pairs at that distance agrees with the hypot test
    rng = np.random.default_rng(3)
    hi = 0.1 * (1.0 + 1e-6)
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0, 2)
        u = rng.uniform(0.0, 2.0 * math.pi)
        pair = np.array([a, a + hi * np.array([math.cos(u), math.sin(u)])])
        kept = float(np.hypot(*(pair[1] - pair[0]))) <= hi
        want = [[0, 1]] if kept else []
        assert geometry.contact_pairs(pair, 0.1, 1e-6).tolist() == oracle(pair, 0.1, 1e-6).tolist() == want


@settings(max_examples=300, deadline=None)
@given(case=point_sets(), tol=st.sampled_from([0.0, 1e-9, 1e-6, 0.1, 0.6]), shrink=st.sampled_from([False, True]))
def test_pair_scans_match_brute_force(case, tol, shrink):
    pts, step = case
    # d(1 + tol) equal to the step, or d itself the step
    d = step / (1.0 + tol) if shrink else step
    pairs = geometry.contact_pairs(pts, d, tol)
    assert pairs.dtype == np.intp and pairs.ndim == 2 and pairs.shape[1] == 2
    assert pairs.tolist() == dense_pairs(pts, d, tol).tolist()
    assert geometry.min_distance(pts) == dense_min(pts)


def test_pair_scans_of_centers_whose_differences_overflow():
    # coordinates up to the largest float: no floating-point warning, the
    # exact minimum (inf past the largest float) and every contact
    far = [[1e308, 0.0], [-1e308, 0.0]]
    cases = [
        (far, math.inf),
        (far + [[0.0, 0.0], [0.5, 0.0]], 0.5),
        (far + [[1e308, 1.0]], 1.0),
        ([[1e200, 1e200], [-1e200, -1e200]], math.hypot(2e200, 2e200)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts, want in cases:
            pts = np.array(pts)
            assert geometry.min_distance(pts) == want
            pairs = geometry.contact_pairs(pts, 0.5, 1e-6).tolist()
            assert pairs == ([[2, 3]] if want == 0.5 else [])
