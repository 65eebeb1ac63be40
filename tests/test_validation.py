import math

import numpy as np
import pytest

from chp_pack import (
    CIRCLE,
    build_chp,
    chp_density,
    enumerate_dnas,
    solve_border,
)
from chp_pack import validation
from chp_pack.builder import PackingConfiguration
from chp_pack.errors import ShellCountMismatch
from chp_pack.geometry import PolygonSpec, polygon_area
from chp_pack.validation import (
    contact_count_histogram,
    density,
    equivalent,
    is_chp,
    packing_radius,
    symmetry_residual,
    validate_config,
)


def _cfg(centers, diameter, sigma=12):
    spec = None if sigma == CIRCLE else PolygonSpec(sigma, 0.0)
    return PackingConfiguration(spec=spec, centers=np.asarray(centers, float), diameter=diameter, meta={})


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
    # 200 points and fewer take the dense path, more take the k-d tree
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (500, 2))
    for n in (120, 199, 200, 201, 500):
        brute = min(
            float(np.hypot(*(pts[i] - pts[j])))
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert packing_radius(pts[:n]) == pytest.approx(brute, abs=1e-15)


def test_density_matches_formula():
    for sigma, k in ((12, 2), (12, 5), (18, 3), (CIRCLE, 3)):
        config = build_chp(sigma, k)
        assert density(config) == pytest.approx(chp_density(sigma, k), abs=1e-12)


def test_density_single_disk_hexagon():
    # one disk of radius equal to the apothem, pinned at the center
    r = math.cos(math.pi / 6)
    config = _cfg([[0.0, 0.0]], diameter=2 * r, sigma=6)
    disk = math.pi * r * r
    total = polygon_area(6, r)
    assert density(config) == pytest.approx(disk / total, abs=1e-12)


def test_is_chp_accepts_built():
    for sigma, k in ((12, 3), (18, 2), (CIRCLE, 2)):
        config = build_chp(sigma, k)
        assert is_chp(config, sigma, k, 1e-9)


def test_is_chp_rejects_perturbed():
    config = build_chp(12, 3)
    bad = config.centers.copy()
    # push one interior disk a tenth of a diameter
    inner = int(np.argsort(np.hypot(bad[:, 0], bad[:, 1]))[1])
    bad[inner] += 0.1 * config.diameter
    assert not is_chp(_cfg(bad, config.diameter), 12, 3, 1e-9)


def test_is_chp_rejects_wrong_border():
    # a perfect hexagonal patch inside the dodecagon has the right disk
    # count and symmetry but its border disks sit in the wrong places
    k = 2
    d = solve_border(12, k).d
    hexcfg = build_chp(6, k)
    pts = hexcfg.centers * (d / hexcfg.diameter)
    assert not is_chp(_cfg(pts, d), 12, k, 1e-6)


def test_is_chp_counts_disks():
    config = build_chp(12, 2)
    with pytest.raises(ShellCountMismatch):
        is_chp(config, 12, 3, 1e-9)


def test_symmetry_residual_tiny_on_built():
    config = build_chp(12, 4, "abab")
    assert symmetry_residual(config, 1e-6) < 1e-12


def test_equivalent_rotation_reflection():
    config = build_chp(12, 3, "abc")
    theta = 2 * math.pi / 12
    c, s = math.cos(theta), math.sin(theta)
    rot = config.centers @ np.array([[c, s], [-s, c]])
    assert equivalent(config, _cfg(rot, config.diameter), 1e-9)
    mirrored = config.centers * np.array([1.0, -1.0])
    assert equivalent(config, _cfg(mirrored, config.diameter), 1e-9)


def test_equivalent_separates_classes():
    classes = [build_chp(12, 5, d) for d in enumerate_dnas(12, 5)]
    assert len(classes) == 15
    for i in range(len(classes)):
        assert equivalent(classes[i], classes[i], 1e-9)
        for j in range(i + 1, len(classes)):
            assert not equivalent(classes[i], classes[j], 1e-9)


def test_contact_histogram_hexagon():
    config = build_chp(6, 3)
    hist = contact_count_histogram(config, 1e-9)
    # 19 interior disks with six touching neighbors, 12 edge disks with
    # four, 6 corner disks with three
    assert hist == {3: 6, 4: 12, 6: 19}


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


def _reference_matching_residual(a, b, tol):
    """The greedy match with one k-d query per point, as first written."""
    from scipy.spatial import cKDTree

    if len(a) != len(b):
        return None
    order = np.lexsort((np.arctan2(a[:, 1], a[:, 0]), np.hypot(a[:, 0], a[:, 1])))
    tree = cKDTree(b)
    used = np.zeros(len(b), dtype=bool)
    worst = 0.0
    for i in order:
        dist, idx = tree.query(a[i], k=min(6, len(b)))
        dist, idx = np.atleast_1d(dist), np.atleast_1d(idx)
        picked = None
        for dd, jj in zip(dist, idx):
            if not used[jj]:
                picked = (float(dd), int(jj))
                break
        if picked is None or picked[0] > tol / 10.0:
            return validation._assignment_residual(a, b, tol)
        used[picked[1]] = True
        worst = max(worst, picked[0])
    return worst if worst <= tol else None


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
        # noise above tol/10 sends greedy to the optimal assignment
        "perturbed": (rotated + rng.uniform(-5e-7, 5e-7, rotated.shape), built, 1e-6),
        # two points share their nearest target; greedy hands the second its next
        "shared": (shared_a, shared_b, 5.0),
    }


@pytest.mark.parametrize("name,assignments", [("built", 0), ("perturbed", 1), ("shared", 0)])
def test_matching_residual_matches_per_point_loop(name, assignments, monkeypatch):
    a, b, tol = _matching_cases()[name]
    calls = []
    assignment = validation._assignment_residual

    def counted(*args):
        calls.append(1)
        return assignment(*args)

    monkeypatch.setattr(validation, "_assignment_residual", counted)
    got = validation._matching_residual(a, b, tol)
    assert len(calls) == assignments
    assert got == _reference_matching_residual(a, b, tol)


def test_matching_residual_matches_per_point_loop_on_random_clouds():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 40):
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        for scale in (0.0, 1e-9, 1e-3, 0.3):
            moved = rng.permutation(pts) + rng.uniform(-scale, scale, pts.shape)
            for tol in (1e-6, 1e-2, 1.0):
                got = validation._matching_residual(moved, pts, tol)
                assert got == _reference_matching_residual(moved, pts, tol), (n, scale, tol)


def test_assignment_residual_matches_difference_tensor():
    from scipy.optimize import linear_sum_assignment

    for a, b, _ in _matching_cases().values():
        for tol in (1e-9, 1e-6, 10.0):
            diff = a[:, None, :] - b[None, :, :]
            cost = np.hypot(diff[..., 0], diff[..., 1])
            rows, cols = linear_sum_assignment(cost)
            worst = float(cost[rows, cols].max())
            assert validation._assignment_residual(a, b, tol) == (worst if worst <= tol else None)
