import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chp_pack import (
    CIRCLE,
    InconsistentDna,
    NoPath,
    build_chp,
    builder,
    canonicalize_dna,
    chp_density,
    disk_count,
    enumerate_dnas,
    geometry,
    solve_border,
    validate_config,
)
from chp_pack.builder import PackingConfiguration, extract_dna
from chp_pack.errors import AmbiguousStart, ConstructionFailed, PreconditionViolated


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
    seq = [ord(c) - 97 for c in dna]

    path = [geometry.polygon_vertices(sigma)[0] if sigma != CIRCLE else (0.0, -1.0)]
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
        config = build_chp(sigma, k, dna.letters)
        want = reference_centers(sigma, k, dna.letters)
        assert multiset_distance(config.centers, want) < 1e-9


def test_builder_circle():
    for k in (1, 2, 3):
        for dna in enumerate_dnas(CIRCLE, k):
            config = build_chp(CIRCLE, k, dna.letters)
            want = reference_centers(CIRCLE, k, dna.letters)
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
        config = build_chp(sigma, k, dna.letters)
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
            config = build_chp(sigma, k, dna.letters)
            got = extract_dna(config, sigma, k)
            assert got.letters == dna.letters


def test_extract_dna_tolerates_noise():
    assert extract_dna(_noisy(build_chp(12, 4, "abab"), 42), 12, 4).letters == "abab"


def test_extract_dna_requires_start_disk():
    config = build_chp(12, 3)
    shifted = PackingConfiguration(
        sigma=config.sigma,
        centers=config.centers + np.array([0.002, 0.0]),
        diameter=config.diameter,
        meta={},
    )
    with pytest.raises(AmbiguousStart, match="0 disks at P1"):
        extract_dna(shifted, 12, 3)


def test_extract_dna_refuses_two_start_disks():
    config = build_chp(12, 3)
    doubled = PackingConfiguration(
        sigma=config.sigma,
        centers=np.vstack((config.centers, config.centers[:1])),
        diameter=config.diameter,
        meta={},
    )
    with pytest.raises(AmbiguousStart, match="2 disks at P1"):
        extract_dna(doubled, 12, 3)


def test_extract_dna_refuses_another_sigma():
    config = build_chp(18, 3)
    for sigma in (12, 24, CIRCLE):
        with pytest.raises(PreconditionViolated, match=f"sigma {sigma!r} .* sigma 18"):
            extract_dna(config, sigma, 3)


def _reference_extract_dna(config, sigma, k):
    """extract_dna's walk over a dict of neighbour lists, one contact pair at a time."""
    border = solve_border(sigma, k)
    d, centers = config.diameter, config.centers
    tol = builder._EXTRACT_TOL
    near = np.flatnonzero(np.hypot(*(centers - np.array(border.chain[0])).T) <= tol)
    if len(near) != 1:
        raise AmbiguousStart(f"{len(near)} disks at P1 within tolerance")
    radius = np.hypot(centers[:, 0], centers[:, 1])
    finish = int(np.argmin(radius))
    if radius[finish] > tol:
        raise NoPath("no disk at the origin")
    adjacency = {}
    for i, j in geometry.contact_pairs(centers, d, tol).tolist():
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)
    value_paths = []

    def dfs(node, depth, values):
        if depth == k:
            if node == finish:
                value_paths.append(tuple(values))
            return
        for nxt in adjacency.get(node, ()):
            if radius[nxt] > (k - depth) * d * (1.0 + 10.0 * tol):
                continue
            dx, dy = centers[nxt] - centers[node]
            values.append(math.atan2(dy, dx))
            dfs(nxt, depth + 1, values)
            values.pop()

    dfs(int(near[0]), 0, [])
    if not value_paths:
        raise NoPath(f"no {k}-step contact path from P1 to the center")
    reps = {canonicalize_dna(builder._dna_from_noisy_values(v, border), border).letters for v in value_paths}
    if len(reps) != 1:
        raise InconsistentDna(f"contact paths disagree after canonicalization: {sorted(reps)}")
    return reps.pop()


def _outcome(extract, config, sigma, k):
    try:
        return extract(config, sigma, k)
    except (AmbiguousStart, NoPath, InconsistentDna) as exc:
        return type(exc).__name__, str(exc)


def _with_centers(config, centers):
    return PackingConfiguration(sigma=config.sigma, centers=centers, diameter=config.diameter)


def _noisy(config, seed):
    return _with_centers(config, config.centers + np.random.default_rng(seed).uniform(-1e-8, 1e-8, config.centers.shape))


def _path_off_the_blocks():
    # P1, two disks and the origin, d apart along a path whose first step
    # is 0.3 rad off the straight line to the center: no block has it
    sigma, k, d = 12, 3, 0.4
    p1 = np.array(solve_border(sigma, k).chain[0])
    u = math.atan2(-p1[1], -p1[0]) + 0.3
    q1 = p1 + d * np.array([math.cos(u), math.sin(u)])
    h = math.sqrt(d * d - 0.25 * (q1 @ q1))
    q2 = 0.5 * q1 + h * np.array([-q1[1], q1[0]]) / math.hypot(*q1)
    return PackingConfiguration(sigma=sigma, centers=[p1, q1, q2, (0.0, 0.0)], diameter=d)


def _extraction_cases():
    for sigma, k, step in ((12, 8, 1), (18, 10, 1000), (CIRCLE, 9, 1000)):
        for dna in enumerate_dnas(sigma, k)[::step]:
            config = build_chp(sigma, k, dna.letters)
            yield sigma, k, config, dna.letters
            yield sigma, k, _noisy(config, 42), dna.letters
    abab, aabb = build_chp(12, 4, "abab"), build_chp(12, 4, "aabb")
    yield 12, 4, _noisy(abab, 42), "abab"
    # the two builds overlaid, each disk once: their paths disagree
    both = np.concatenate((abab.centers, aabb.centers))
    once = [i for i in range(len(both)) if np.hypot(*(both[:i] - both[i]).T).min(initial=1.0) > 1e-9]
    yield 12, 4, _with_centers(abab, both[once]), None
    # the center's neighbours removed: no path reaches it
    r = np.hypot(*abab.centers.T)
    yield 12, 4, _with_centers(abab, abab.centers[(r < 1e-9) | (r > 1.5 * abab.diameter)]), None
    yield 12, 3, _path_off_the_blocks(), None
    # the center's disk, built last, removed
    config = build_chp(12, 3)
    yield 12, 3, _with_centers(config, config.centers[:-1]), None


def test_extract_dna_matches_the_reference_walk():
    failures = []
    for sigma, k, config, letters in _extraction_cases():
        want = _outcome(_reference_extract_dna, config, sigma, k)
        got = _outcome(lambda *a: extract_dna(*a).letters, config, sigma, k)
        assert got == want, (sigma, k, letters)
        if letters is not None:
            assert got == letters
        else:
            failures.append(" ".join(got))
    # every failure of the walk is reached: no origin disk, no path, a
    # direction off the blocks and disagreeing paths
    assert failures == [
        "InconsistentDna contact paths disagree after canonicalization: ['aabb', 'abab']",
        "NoPath no 4-step contact path from P1 to the center",
        failures[2],
        "NoPath no disk at the origin",
    ]
    assert failures[2].startswith("NoPath path direction") and failures[2].endswith("matches no building block")


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
