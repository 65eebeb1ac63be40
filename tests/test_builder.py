import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chp_pack import (
    CIRCLE,
    InconsistentDna,
    build_chp,
    builder,
    canonicalize_dna,
    chp_density,
    disk_count,
    enumerate_dnas,
    solve_border,
    validate_config,
)
from chp_pack.builder import extract_dna
from chp_pack.errors import AmbiguousStart, ConstructionFailed, PreconditionViolated
from chp_pack.geometry import fundamental_vertex


def reference_centers(sigma, k, dna):
    """Rebuild the packing from first principles, without the builder.

    The path from P1 consumes one DNA letter per inward step.  What is
    left after j steps, sorted ascending and shifted back by pi/3, is
    the chord direction multiset of the shell k-j chain.  Each chain
    starts at the corresponding path node; six rotated copies of every
    chain node except the last cover the shell.
    """
    border = solve_border(sigma, k)
    blocks = border.blocks()
    d = border.d
    seq = [ord(c) - 97 for c in dna.letters]

    path = [fundamental_vertex(sigma) if sigma != CIRCLE else (0.0, -1.0)]
    for b in seq:
        x, y = path[-1]
        path.append((x + d * math.cos(blocks[b]), y + d * math.sin(blocks[b])))

    pts = []
    for j in range(k):
        remaining = sorted(seq[j:])
        row = [path[j]]
        for b in remaining:
            x, y = row[-1]
            ang = blocks[b] - math.pi / 3.0
            row.append((x + d * math.cos(ang), y + d * math.sin(ang)))
        for t in range(6):
            c, s = math.cos(t * math.pi / 3), math.sin(t * math.pi / 3)
            for x, y in row[:-1]:
                pts.append((c * x - s * y, s * x + c * y))
    pts.append((0.0, 0.0))
    return np.array(pts)


def multiset_distance(a, b):
    """Greatest nearest-neighbor gap after greedy matching of two clouds."""
    from scipy.spatial import cKDTree

    assert len(a) == len(b)
    dist, idx = cKDTree(b).query(a)
    # a permutation match requires each target used exactly once
    if len(set(idx)) != len(b):
        return math.inf
    return float(dist.max())


@pytest.mark.parametrize("sigma,k", [(12, 1), (12, 2), (12, 3), (12, 4), (12, 5), (18, 2), (18, 3), (18, 4)])
def test_builder_matches_reference(sigma, k):
    for dna in enumerate_dnas(sigma, k):
        config = build_chp(sigma, k, dna)
        want = reference_centers(sigma, k, dna)
        assert multiset_distance(config.centers, want) < 1e-9


def test_builder_circle():
    for k in (1, 2, 3):
        for dna in enumerate_dnas(CIRCLE, k):
            config = build_chp(CIRCLE, k, dna)
            want = reference_centers(CIRCLE, k, dna)
            assert multiset_distance(config.centers, want) < 1e-9


def _rings(config, k):
    """Shells m = k..1 of a build, each as its 6m centers in ring order, keyed by m.

    The builder emits the border ring, then shells k-1..1, each as its
    sector row under the six rotations (rotation-major, so the rows of
    the six sectors follow one another around the ring), then the origin.
    """
    rings, start = {}, 0
    for m in range(k, 0, -1):
        rings[m] = config.centers[start : start + 6 * m]
        start += 6 * m
    return rings


@pytest.mark.parametrize("sigma,k", [(12, 5), (18, 4), (24, 6), (CIRCLE, 5)])
def test_inner_shells_are_tangent_chains(sigma, k):
    # what the tangent search used to enforce: each inner-shell disk touches
    # its predecessor in the ring (the row's, or the previous sector's last
    # disk for a corner) and at least one disk of the next shell out
    for dna in enumerate_dnas(sigma, k):
        config = build_chp(sigma, k, dna)
        d = config.diameter
        rings = _rings(config, k)
        for m in range(1, k):
            ring, outer = rings[m], rings[m + 1]
            gaps = np.hypot(*(ring - np.roll(ring, 1, axis=0)).T)
            assert np.abs(gaps - d).max() <= 1e-12 * d, (dna.letters, m)
            to_outer = np.hypot(*(ring[:, None, :] - outer[None, :, :]).transpose(2, 0, 1))
            assert (np.abs(to_outer - d).min(axis=1) <= 1e-12 * d).all(), (dna.letters, m)


def test_build_shapes_and_meta():
    config = build_chp(12, 3, "abc")
    assert config.n_disks == disk_count(3)
    assert config.centers.shape == (37, 2)
    assert config.diameter == pytest.approx(solve_border(12, 3).d, abs=1e-14)
    assert config.meta["mode"] == "deterministic"
    assert config.meta["dna"] == "abc"
    assert config.meta["k"] == 3
    # one disk at the origin
    radii = np.hypot(config.centers[:, 0], config.centers[:, 1])
    assert radii.min() == 0.0


def test_default_dna_is_lowest():
    a = build_chp(12, 4)
    b = build_chp(12, 4, "aabb")
    assert np.array_equal(a.centers, b.centers)


def test_build_is_deterministic():
    a = build_chp(18, 4, "abcd")
    b = build_chp(18, 4, "abcd")
    assert np.array_equal(a.centers, b.centers)
    assert a.diameter == b.diameter


def test_hexagon_is_triangular_lattice():
    k = 3
    config = build_chp(6, k)
    d = 1.0 / k
    # every center is an integer combination of the two lattice vectors
    basis = np.array([[d, 0.0], [d / 2.0, d * math.sqrt(3) / 2.0]])
    coeffs = config.centers @ np.linalg.inv(basis)
    assert np.abs(coeffs - np.round(coeffs)).max() < 1e-9


def test_wrong_multiset_rejected():
    with pytest.raises(InconsistentDna):
        build_chp(12, 4, "aaab")
    with pytest.raises(InconsistentDna):
        build_chp(12, 4, "ab")


def _scaled_chain(border, factor):
    chain = border.chain
    return chain[:1] + tuple((factor * x, factor * y) for x, y in chain[1:-1]) + chain[-1:]


@pytest.mark.parametrize(
    "perturb,message",
    [
        (lambda b: dataclasses.replace(b, d=b.d * (1.0 + 1e-6)), "DNA path misses the center"),
        (lambda b: dataclasses.replace(b, chain=_scaled_chain(b, 0.97)), "overlap"),
        (lambda b: dataclasses.replace(b, chain=_scaled_chain(b, 1.001)), "leaves the container"),
    ],
    ids=["diameter", "chain-inward", "chain-outward"],
)
def test_construction_guards(monkeypatch, perturb, message):
    border = solve_border(12, 4)
    monkeypatch.setattr(builder, "solve_border", lambda sigma, k: perturb(border))
    with pytest.raises(ConstructionFailed, match=message):
        build_chp(12, 4)


def test_extract_dna_round_trip():
    for sigma, k in ((12, 3), (12, 5), (18, 4)):
        for dna in enumerate_dnas(sigma, k):
            config = build_chp(sigma, k, dna)
            got = extract_dna(config, sigma, k)
            assert got.letters == dna.letters


def test_extract_dna_tolerates_noise():
    rng = np.random.default_rng(42)
    config = build_chp(12, 4, "abab")
    jitter = rng.uniform(-1e-8, 1e-8, config.centers.shape)
    noisy = config.centers + jitter
    from chp_pack.builder import PackingConfiguration

    cfg = PackingConfiguration(sigma=config.sigma, centers=noisy, diameter=config.diameter, meta={})
    assert extract_dna(cfg, 12, 4).letters == "abab"


def test_extract_dna_requires_start_disk():
    config = build_chp(12, 3)
    from chp_pack.builder import PackingConfiguration

    shifted = PackingConfiguration(
        sigma=config.sigma,
        centers=config.centers + np.array([0.002, 0.0]),
        diameter=config.diameter,
        meta={},
    )
    with pytest.raises(AmbiguousStart):
        extract_dna(shifted, 12, 3)


def test_extract_dna_refuses_another_sigma():
    config = build_chp(18, 3)
    for sigma in (12, 24, CIRCLE):
        with pytest.raises(PreconditionViolated, match=f"sigma {sigma!r} .* sigma 18"):
            extract_dna(config, sigma, 3)


# cells where long runs of one letter bend a shell inside the corner of the
# shell within it; the builder once rejected their tangent placements
_LONG_RUN_CELLS = [
    (6, 12), (6, 21), (6, 24), (6, 28),
    (12, 16), (12, 17), (12, 18), (12, 19), (12, 20), (12, 21), (12, 24), (12, 28),
    (18, 24), (18, 28), (60, 28),
]


def _default_letters(sigma, k):
    return "".join(chr(ord("a") + b) * n for b, n in enumerate(solve_border(sigma, k).degeneracies))


def _default_and_reversal(sigma, k):
    letters = _default_letters(sigma, k)
    return sorted({letters, letters[::-1]})


def _assert_realizes(sigma, k, letters):
    border = solve_border(sigma, k)
    config = build_chp(sigma, k, letters)
    report = validate_config(config)
    assert report.is_valid, (sigma, k, letters)
    assert extract_dna(config, sigma, k).letters == canonicalize_dna(letters, border).letters
    assert abs(report.density - chp_density(sigma, k)) <= 1e-12, (sigma, k, letters)


@pytest.mark.parametrize("sigma,k", _LONG_RUN_CELLS)
def test_long_runs_build(sigma, k):
    for letters in _default_and_reversal(sigma, k):
        _assert_realizes(sigma, k, letters)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([6 * i for i in range(1, 11)] + [CIRCLE]),
    st.integers(1, 40),
    st.randoms(use_true_random=False),
)
def test_every_arrangement_builds(sigma, k, rnd):
    # every arrangement of the degeneracies is a CHP, all at one density
    letters = list(_default_letters(sigma, k))
    rnd.shuffle(letters)
    _assert_realizes(sigma, k, "".join(letters))
