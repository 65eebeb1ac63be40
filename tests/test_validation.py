import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pair_oracles import MATCHING_ORACLES, PAIR_ORACLES, dense_min, dense_pairs, min_sum_residual, nearest_dense, point_sets

from chp_pack import (
    CIRCLE,
    build_chp,
    chp_density,
    enumerate_dnas,
    solve_border,
)
from chp_pack import geometry, validation
from chp_pack.builder import PackingConfiguration
from chp_pack.geometry import polygon_area
from chp_pack.validation import (
    TOL,
    density,
    equivalent,
    packing_radius,
    symmetry_residual,
    validate_config,
)


def _cfg(centers, diameter, sigma=12):
    return PackingConfiguration(sigma=sigma, centers=np.asarray(centers, float), diameter=diameter, meta={})


def test_packing_radius_simple():
    assert packing_radius(np.array([[0.0, 0.0], [0.5, 0.0]])) == 0.5
    # hexagonal 7-point cluster at spacing d
    d = 0.37
    pts = [(0.0, 0.0)] + [(d * math.cos(a), d * math.sin(a)) for a in np.arange(6) * math.pi / 3]
    assert packing_radius(np.array(pts)) == pytest.approx(d, abs=1e-15)


def test_packing_radius_matches_solver():
    config = build_chp(12, 3)
    assert packing_radius(config.centers) == pytest.approx(solve_border(12, 3).d, abs=1e-10)


def test_packing_radius_large_uses_grid_path():
    # every size takes the cell list, which must give hypot's minimum to the bit
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (500, 2))
    for n in (120, 199, 200, 201, 500):
        brute = min(
            float(np.hypot(*(pts[i] - pts[j])))
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert packing_radius(pts[:n]) == pytest.approx(brute, abs=1e-15)
        assert packing_radius(pts[:n]) == brute
    # a gap that halves to zero: the reach must still grow from 0
    assert packing_radius(np.array([[0.0, 0.0], [5e-324, 0.0]])) == 5e-324
    # a nan coordinate ends the search with nan, as a dense scan would give
    with np.errstate(invalid="ignore"):
        assert math.isnan(packing_radius(np.array([[0.0, 0.0], [math.nan, 1.0], [2.0, 2.0]])))


def test_validate_reports_the_hypot_minimum():
    # a k-d tree's sqrt of the squared distance reads 0.05751534335611451 here
    config = build_chp(12, 18)
    assert validate_config(config).min_distance == dense_min(config.centers) == 0.0575153433561145


def test_density_matches_formula():
    # chp_density is the packing fraction of the CHP's own build, to the last bit
    for sigma in [*range(12, 61, 6), CIRCLE]:
        for k in range(1, 13):
            assert density(build_chp(sigma, k)) == chp_density(sigma, k), (sigma, k)


def test_density_single_disk_hexagon():
    # one disk of radius equal to the apothem, pinned at the center
    r = math.cos(math.pi / 6)
    config = _cfg([[0.0, 0.0]], diameter=2 * r, sigma=6)
    disk = math.pi * r * r
    total = polygon_area(6, r)
    assert density(config) == pytest.approx(disk / total, abs=1e-12)


def test_symmetry_residual_tiny_on_built():
    config = build_chp(12, 4, "abab")
    assert symmetry_residual(config) < 1e-12


def test_equivalent_rotation_reflection():
    config = build_chp(12, 3, "abc")
    theta = 2 * math.pi / 12
    c, s = math.cos(theta), math.sin(theta)
    rot = config.centers @ np.array([[c, s], [-s, c]])
    assert equivalent(config, _cfg(rot, config.diameter))
    mirrored = config.centers * np.array([1.0, -1.0])
    assert equivalent(config, _cfg(mirrored, config.diameter))


def test_equivalent_separates_classes():
    classes = [build_chp(12, 5, d.letters) for d in enumerate_dnas(12, 5)]
    assert len(classes) == 15
    for i in range(len(classes)):
        assert equivalent(classes[i], classes[i])
        for j in range(i + 1, len(classes)):
            assert not equivalent(classes[i], classes[j])


def test_contact_histogram_hexagon():
    config = build_chp(6, 3)
    hist = validate_config(config).contact_count_histogram
    # 19 interior disks with six touching neighbors, 12 edge disks with
    # four, 6 corner disks with three
    assert hist == {3: 6, 4: 12, 6: 19}


def _reference_histogram(config, oracle=dense_pairs):
    """The report's contact histogram as one loop over a reference scan's contact pairs."""
    counts = [0] * config.n_disks
    for i, j in oracle(config.centers, config.diameter, TOL).tolist():
        counts[i] += 1
        counts[j] += 1
    hist = {}
    for c in counts:
        hist[c] = hist.get(c, 0) + 1
    return dict(sorted(hist.items()))


@pytest.mark.parametrize("oracle", PAIR_ORACLES.values(), ids=PAIR_ORACLES.keys())
def test_contact_histogram_matches_the_counting_loop(oracle):
    configs = [
        _cfg([[0.1, -0.2]], diameter=0.5),
        _cfg([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], diameter=0.1),
        build_chp(12, 2),
        build_chp(12, 8, enumerate_dnas(12, 8)[-1].letters),
        build_chp(CIRCLE, 9),
        build_chp(12, 20),
    ]
    for config in configs:
        hist = validate_config(config).contact_count_histogram
        assert hist == _reference_histogram(config, oracle)
        assert list(hist) == sorted(hist)
        assert all(type(c) is int and type(n) is int for c, n in hist.items())
    assert validate_config(configs[1]).contact_count_histogram == {0: 3}


def test_report_of_271_disks_is_json():
    # past the 200 disks where the contact scan once switched to a k-d tree
    config = build_chp(12, 9)
    assert config.n_disks == 271
    text = json.dumps(validate_config(config).to_json_dict())
    assert json.loads(text)["contact_count_histogram"] == {
        str(c): n for c, n in _reference_histogram(config).items()
    }


def test_validate_config_report():
    config = build_chp(12, 3)
    report = validate_config(config)
    assert report.is_valid
    assert report.min_distance == pytest.approx(config.diameter, abs=1e-12)
    assert report.worst_containment_violation <= 1e-12
    assert report.density == pytest.approx(chp_density(12, 3), abs=1e-12)
    d = report.to_json_dict()
    assert set(d) == {
        "min_distance",
        "worst_containment_violation",
        "density",
        "is_valid",
        "symmetry_residual",
        "contact_count_histogram",
    }


def test_validate_config_overlap():
    pts = np.array([[0.0, 0.0], [0.3, 0.0], [-0.4, 0.1]])
    report = validate_config(_cfg(pts, diameter=0.35))
    assert not report.is_valid
    assert report.min_distance < 0.35


def test_validate_config_single_disk():
    # no pair to separate: the report says so and rests on containment
    report = validate_config(_cfg([[0.1, -0.2]], diameter=0.5))
    assert report.min_distance is None
    assert report.is_valid
    assert report.to_json_dict()["min_distance"] is None
    assert report.contact_count_histogram == {0: 1}
    outside = validate_config(_cfg([[1.2, 0.0]], diameter=0.5))
    assert outside.min_distance is None
    assert not outside.is_valid
    assert outside.worst_containment_violation > 0.0


def test_configuration_owns_the_centers_format():
    # list centers are stored as the (N, 2) float array every consumer reads;
    # any other shape is refused when the configuration is made
    config = build_chp(12, 2)
    listed = PackingConfiguration(sigma=12, centers=config.centers.tolist(), diameter=config.diameter, meta={})
    assert validate_config(listed).to_json_dict() == validate_config(config).to_json_dict()
    assert listed.centers.dtype == np.float64 and listed.centers.tobytes() == config.centers.tobytes()
    for bad in (np.zeros((3, 3)), np.zeros(4), [[0.0, 0.0, 0.0]], [0.1, 0.2]):
        with pytest.raises(ValueError, match=r"shape \(N, 2\)"):
            PackingConfiguration(sigma=12, centers=bad, diameter=0.5)


def test_configuration_refuses_no_disks():
    # validate_config and dumps_config both need a disk; the error names the shape
    with pytest.raises(ValueError, match=r"with N >= 1, got \(0, 2\)"):
        PackingConfiguration(sigma=12, centers=np.zeros((0, 2)), diameter=0.5)


def _matching_cases():
    rng = np.random.default_rng(7)
    built = build_chp(12, 8).centers
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    rotated = built @ np.array([[c, s], [-s, c]])
    shared_a = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    shared_b = np.array([[0.04, 0.0], [0.3, 0.0], [5.0, 5.0]])
    return {
        # exact symmetry: the nearest targets form a bijection
        "built": (rotated, built, 1e-6),
        # noise well inside tol keeps each nearest target distinct
        "perturbed": (rotated + rng.uniform(-5e-7, 5e-7, rotated.shape), built, 1e-6),
        # two points 0.1 apart share their nearest target (0.04, 0), though
        # a bijection within tol exists
        "shared": (shared_a, shared_b, 5.0),
    }


def _check_matching(a, b, tol):
    """The contract of ``_matching_residual`` against the min-sum assignment.

    A number is the min-sum bijection's max.  None with every row's nearest
    target within tol means two rows share one, so they lie within 2·tol of
    each other; any other None means no bijection lies within tol.
    """
    got = validation._matching_residual(a, b, tol)
    want = min_sum_residual(a, b, tol) if len(a) == len(b) else None
    if got is not None:
        assert got == want
    elif len(a) == len(b) and nearest_dense(a, b)[0].max() <= tol:
        assert len(np.unique(nearest_dense(a, b)[1])) < len(b)
        assert dense_min(a) <= 2.0 * tol + 1e-12
    else:
        assert want is None
    return got


@pytest.mark.parametrize("name,shared", [("built", 0), ("perturbed", 0), ("shared", 1)])
def test_matching_residual_matches_per_point_loop(name, shared):
    # ``shared`` counts the targets that two or more rows have as nearest
    a, b, tol = _matching_cases()[name]
    assert int((np.bincount(nearest_dense(a, b)[1], minlength=len(b)) > 1).sum()) == shared
    assert min_sum_residual(a, b, tol) is not None
    assert (_check_matching(a, b, tol) is None) == bool(shared)


def test_matching_residual_matches_per_point_loop_on_random_clouds():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 40):
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        for scale in (0.0, 1e-9, 1e-3, 0.3):
            moved = rng.permutation(pts) + rng.uniform(-scale, scale, pts.shape)
            for tol in (1e-6, 1e-2, 1.0):
                _check_matching(moved, pts, tol)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    grid=st.booleans(),
    scale=st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 0.1, 2.0]),
    tol=st.sampled_from([1e-9, 1e-6, 1e-2, 1.0, 10.0]),
)
def test_matching_residual_is_the_optimal_assignment(seed, n, grid, scale, tol):
    # grid points tie on distances and repeat, so nearest targets collide
    rng = np.random.default_rng(seed)
    pts = rng.integers(-3, 4, (n, 2)) * 0.5 if grid else rng.uniform(-1.0, 1.0, (n, 2))
    moved = rng.permutation(pts) + rng.uniform(-scale, scale, pts.shape)
    _check_matching(moved, pts, tol)


@settings(max_examples=300, deadline=None)
@given(
    case=point_sets(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-12, 1e-7, 1e-3]),
    tol=st.sampled_from([0.0, 1e-9, 1e-6, 1e-2, 1.0]),
)
def test_matching_residual_matches_brute_force(case, seed, scale, tol):
    pts, step = case
    rng = np.random.default_rng(seed)
    moved = rng.permutation(pts) + rng.uniform(-scale, scale, pts.shape) * step
    want = MATCHING_ORACLES["dense"](moved, pts, tol * step)
    assert validation._matching_residual(moved, pts, tol * step) == want


def test_equivalent_rejects_classes_without_assignment(monkeypatch):
    # every symmetry image of one class misses the other by more than the
    # tolerance at some disk, so the nearest-target query alone says no,
    # and no assignment solver is loaded
    first, second = (build_chp(12, 8, d.letters) for d in enumerate_dnas(12, 8)[:2])
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    assert not equivalent(first, second)
    assert equivalent(first, first)


@pytest.mark.parametrize("k", [2, 9], ids=["19_disks", "271_disks"])
def test_pair_scans_agree_with_dense_and_tree_oracles(k):
    # one size on each side of the 200 disks where the library once switched
    # from a dense scan to a k-d tree; the cell list must match both references
    config = build_chp(12, k)
    centers, d = config.centers, config.diameter
    rng = np.random.default_rng(k)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    rotated = centers @ np.array([[c, s], [-s, c]])
    noisy = centers + rng.uniform(-1e-7, 1e-7, centers.shape)
    matchings = [(rotated, centers, 1e-6), (rotated + rng.uniform(-5e-7, 5e-7, centers.shape), centers, 1e-6), (rotated, noisy, 1e-9)]

    def results(contact_pairs, matching_residual):
        pairs = [contact_pairs(pts, d, tol) for pts in (centers, noisy) for tol in (TOL, 1e-6)]
        assert all(p.dtype == np.intp and p.ndim == 2 and p.shape[1] == 2 for p in pairs)
        pairs = [p.tolist() for p in pairs]
        return pairs, [matching_residual(a, b, tol) for a, b, tol in matchings]

    own = results(geometry.contact_pairs, validation._matching_residual)
    tree, dense = (
        results(PAIR_ORACLES[name], MATCHING_ORACLES[name])
        for name in ("tree", "dense")
    )
    assert own == tree == dense
    pairs, residuals = own
    # the noise breaks contacts at TOL that 1e-6 still finds
    assert pairs[0] and len(pairs[2]) < len(pairs[3])
    assert residuals[0] is not None and residuals[1] is not None and residuals[2] is None


def test_small_configurations_validate_without_scipy(monkeypatch):
    config = build_chp(12, 2)
    report = validate_config(config)
    pairs = geometry.contact_pairs(config.centers, config.diameter, TOL)
    for name in ("scipy", "scipy.spatial", "scipy.optimize"):
        monkeypatch.setitem(sys.modules, name, None)
    assert validate_config(config) == report
    again = geometry.contact_pairs(config.centers, config.diameter, TOL)
    assert again.dtype == np.intp and again.shape == pairs.shape == (len(pairs), 2)
    assert again.tolist() == pairs.tolist()
