import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chp_pack import (
    CIRCLE,
    CapExceeded,
    CountInput,
    InconsistentDna,
    build_chp,
    canonicalize_dna,
    count_configurations,
    enumerate_dnas,
    solve_border,
)
from chp_pack import builder, chp
from chp_pack.errors import NoPath, PreconditionViolated


def _values(letters, border):
    """The chord directions a DNA's letters name: blocks[b] for each letter b."""
    blocks = border.blocks()
    return tuple(blocks[b] for b in chp._dna_seq(letters, border))


def test_letters_round_trip():
    border = solve_border(12, 5)
    assert builder._dna_from_noisy_values(_values("abcac", border), border) == "abcac"


def test_letters_multiset_is_checked():
    # the letter multiset is checked wherever letters come in
    border = solve_border(12, 5)  # degeneracies 2,1,2
    for letters in ("aaabb", "abc", "abcad"):
        with pytest.raises(InconsistentDna):
            canonicalize_dna(letters, border)
        with pytest.raises(InconsistentDna):
            build_chp(12, 5, letters)


def test_values_snap_to_blocks():
    border = solve_border(12, 4)
    blocks = border.blocks()
    noisy = [v + 2e-10 for v in (blocks[0], blocks[0], blocks[1], blocks[1])]
    assert builder._dna_from_noisy_values(noisy, border) == "aabb"
    with pytest.raises(NoPath):
        builder._dna_from_noisy_values([blocks[0] + 0.01] * 4, border)


def _mirror_values(values, sigma):
    """The mirror's angle map xi -> pi - xi - 2*pi/sigma (no shift for the circle)."""
    shift = 0.0 if sigma == CIRCLE else 2 * math.pi / sigma
    return [math.pi - v - shift for v in values]


def _reflect_seq(seq, ell):
    return tuple(ell - 1 - b for b in seq)


def _reflect_letters(letters, border):
    return chp._letters_of(_reflect_seq(chp._seq_of(letters), len(border.degeneracies)))


def test_reflect_letters_complement():
    border = solve_border(12, 4)
    assert _reflect_letters("aabb", border) == "bbaa"
    assert _reflect_letters(_reflect_letters("aabb", border), border) == "aabb"


def test_reflect_values_dodecagon():
    # angle map xi -> pi - xi - 2*pi/sigma sends pi/3 to pi/2 and back
    border = solve_border(12, 4)
    values = _values("aabb", border)
    assert values[0] == pytest.approx(math.pi / 3, abs=1e-12)
    assert values[2] == pytest.approx(math.pi / 2, abs=1e-12)
    ref = _values(_reflect_letters("aabb", border), border)
    assert ref[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert ref[3] == pytest.approx(math.pi / 3, abs=1e-12)
    # letter b <-> ell - 1 - b is the angle map on the building blocks
    for sigma, k in ((12, 5), (18, 4), (24, 6), (CIRCLE, 5)):
        blocks = solve_border(sigma, k).blocks()
        mirrored = [blocks[b] for b in _reflect_seq(range(len(blocks)), len(blocks))]
        assert _mirror_values(blocks, sigma) == pytest.approx(mirrored, abs=1e-12)


def test_reflect_preserves_angle_sum():
    for sigma, k in ((12, 5), (18, 4), (24, 6)):
        border = solve_border(sigma, k)
        for dna in enumerate_dnas(sigma, k):
            values = _values(dna.letters, border)
            ref = _values(_reflect_letters(dna.letters, border), border)
            assert ref == pytest.approx(tuple(_mirror_values(values, sigma)), abs=1e-12)
            assert sum(ref) == pytest.approx(sum(values), abs=1e-9)
            assert sorted(ref) == pytest.approx(sorted(values), abs=1e-9)


def test_canonicalize_examples():
    border = solve_border(12, 4)
    assert canonicalize_dna("bbaa", border).letters == "aabb"
    assert canonicalize_dna("aabb", border).letters == "aabb"
    # single class for k=2
    b2 = solve_border(12, 2)
    assert canonicalize_dna("ba", b2).letters == "ab"


def test_canonicalize_is_orbit_minimum():
    border = solve_border(18, 4)
    dnas = enumerate_dnas(18, 4)
    for dna in dnas:
        assert canonicalize_dna(dna.letters, border).letters == dna.letters


def test_enumerate_counts():
    assert len(enumerate_dnas(12, 5)) == 15
    assert len(enumerate_dnas(18, 3)) == 1
    assert len(enumerate_dnas(CIRCLE, 5)) == 12
    # one class, deeper than the interpreter's default recursion limit
    assert [d.letters for d in enumerate_dnas(6, 1100)] == ["a" * 1100]


def test_enumerate_sorted_distinct():
    out = [d.letters for d in enumerate_dnas(12, 6)]
    assert out == sorted(out)
    assert len(out) == len(set(out))
    assert len(out) == 10


def test_enumerate_cap(monkeypatch):
    # the count is checked before any class is built
    built = []
    monkeypatch.setattr(chp, "Dna", lambda **fields: built.append(fields))
    with pytest.raises(CapExceeded):
        enumerate_dnas(30, 8, cap=1000)  # 20160 classes
    assert not built


def test_count_examples():
    assert count_configurations(CountInput(k=5, eta=2, n_V=1, degeneracies=(2, 1, 2))) == 15
    assert count_configurations(CountInput(k=8, eta=2, n_V=1, degeneracies=(2, 1, 2, 1, 2))) == 2520
    assert count_configurations(CountInput(k=1, eta=1, n_V=1, degeneracies=(1,))) == 1


def test_count_is_exact_integer():
    # exercises Fraction arithmetic beyond float precision comfort
    inp = CountInput(k=10, eta=2, n_V=1, degeneracies=(5, 5))
    want = Fraction(math.factorial(10), 2 * 1 * math.factorial(5) ** 2)
    assert count_configurations(inp) == int(want)


def test_count_from_border_dodecagon_closed_form():
    for k in range(2, 11):
        b = solve_border(12, k)
        got = count_configurations(CountInput.from_border(b))
        want = max(1, math.factorial(k) // (2 * math.factorial(k // 2) ** 2))
        assert got == want


def test_count_rejects_non_integer():
    with pytest.raises(PreconditionViolated):
        count_configurations(CountInput(k=3, eta=2, n_V=2, degeneracies=(1, 1, 1)))


def test_circle_counts():
    want = [1, 1, 1, 3, 12, 60, 360, 2520]
    for k, w in zip(range(1, 9), want):
        b = solve_border(CIRCLE, k)
        assert count_configurations(CountInput.from_border(b)) == w


def test_reflection_is_rotation_flags():
    # eta = 1 rows have the reflected string inside the rotation orbit
    def reflection_is_rotation(letters, border):
        seq = chp._seq_of(letters)
        rotations = border.letter_maps[: border.n_V]
        return _reflect_seq(seq, len(border.degeneracies)) in chp._orbit(seq, rotations)

    assert reflection_is_rotation("ab", solve_border(12, 2))
    assert not reflection_is_rotation("abc", solve_border(12, 3))
    assert reflection_is_rotation("aabb", solve_border(12, 4))


def _reference_walks(k, counts, blocks, seq, c):
    """Every contact path of the float walk of ``seq`` from chain point c, as raw directions."""
    paths = []

    def walk(i, j, t, remaining, out):
        if i == k:
            paths.append(tuple(out))
            return
        m = k - i
        while j > m:
            j -= m
            t += 1
        b = seq[i]
        before = sum(remaining[:b])
        lo = 1 + before
        hi = before + remaining[b]
        remaining[b] -= 1
        if j <= hi:
            out.append(blocks[b] + t * chp.PI_3)
            walk(i + 1, j, t, remaining, out)
            out.pop()
        if j - 1 >= lo:
            out.append(blocks[b] + chp.PI_3 + t * chp.PI_3)
            walk(i + 1, j - 1, t, remaining, out)
            out.pop()
        remaining[b] += 1

    walk(0, c + 1, 0, list(counts), [])
    return paths


def _reference_trace(k, counts, blocks, seq, c, alpha):
    """The float walk: every path's directions are matched to a block at the leaf."""
    results = set()
    for path in _reference_walks(k, counts, blocks, seq, c):
        mapped = []
        for v in path:
            b = chp._nearest_block(v - alpha, blocks)
            if b is None:
                raise InconsistentDna(f"re-traced direction {v - alpha!r} matches no block")
            mapped.append(b)
        results.add(tuple(mapped))
    if not results:
        raise InconsistentDna(f"no contact path from vertex {c}")
    return results


def _multinomial(counts):
    """The number of arrangements of the multiset with these letter counts."""
    out = math.factorial(sum(counts))
    for n in counts:
        out //= math.factorial(n)
    return out


def _reference_orbit(border, seq):
    """Rotation images of the sequence and, by a second walk, of its mirror."""
    counts = border.degeneracies
    blocks = border.blocks()
    orbit = set()
    for s in (seq, _reflect_seq(seq, len(counts))):
        for c, alpha in zip(border.vertex_hits, border.vertex_angles):
            orbit |= _reference_trace(border.k, counts, blocks, s, c, alpha)
    return orbit


def _sorted_seq(counts):
    return tuple(b for b, n in enumerate(counts) for _ in range(n))


def _all_arrangements(counts):
    """Every arrangement of the multiset with these letter counts, ascending.

    Unlike itertools.permutations, which steps through all k! orders, this
    makes each distinct arrangement once: sigma 6 has one, of k equal letters.
    """
    if not any(counts):
        return [()]
    out = []
    for b, n in enumerate(counts):
        if n:
            rest = list(counts)
            rest[b] -= 1
            out += [(b,) + tail for tail in _all_arrangements(rest)]
    return out


@pytest.mark.parametrize("sigma", [6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, CIRCLE])
def test_orbit_walk_matches_float_reference(sigma):
    # the catalog cells (sigma 12..60, circle) plus sigma 6, 66 and 72
    rng = random.Random(5)
    for k in range(1, 9):
        border = solve_border(sigma, k)
        if count_configurations(CountInput.from_border(border)) > 2520:
            continue
        perms = _all_arrangements(border.degeneracies)
        if len(perms) > 3000:
            perms = rng.sample(perms, 3000)
        maps = border.letter_maps
        for perm in perms:
            assert chp._orbit(perm, maps) == _reference_orbit(border, perm), (sigma, k, perm)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, 78, 96, CIRCLE]),
    st.integers(1, 9),
    st.randoms(use_true_random=False),
)
def test_orbit_walk_property(sigma, k, rnd):
    border = solve_border(sigma, k)
    perm = list(_sorted_seq(border.degeneracies))
    rnd.shuffle(perm)
    perm = tuple(perm)
    assert chp._orbit(perm, border.letter_maps) == _reference_orbit(border, perm)


@pytest.mark.parametrize("sigma", [6, 12, 18, 24])
def test_letter_memo_matches_float_walk_from_any_start(sigma):
    # each occupied vertex's letter map gives the float walk's one image
    # of every arrangement walked from that vertex
    for k in range(2, 8):
        border = solve_border(sigma, k)
        perms = _all_arrangements(border.degeneracies)
        maps = border.letter_maps
        for v, (c, alpha) in enumerate(zip(border.vertex_hits, border.vertex_angles)):
            for perm in perms:
                args = (k, border.degeneracies, border.blocks(), perm, c, alpha)
                assert chp._orbit(perm, maps[v : v + 1]) == _reference_trace(*args), (sigma, k, c, perm)


@pytest.mark.parametrize("sigma", [*range(6, 97, 6), CIRCLE])
def test_walk_from_an_occupied_vertex_never_forks(sigma):
    # the premise of the count formula: re-tracing an arrangement from each
    # of the n_V occupied vertices gives exactly one arrangement, and it is
    # the arrangement with every letter shifted back by the vertex's
    # number of leading blocks
    rng = random.Random(11)
    for k in range(1, 13):
        border = solve_border(sigma, k)
        counts, blocks = border.degeneracies, border.blocks()
        ell = len(counts)
        prefix_sums = {sum(counts[:i]): i for i in range(ell)}
        assert set(border.vertex_hits) <= set(prefix_sums), (sigma, k)
        if _multinomial(counts) <= 40:
            perms = _all_arrangements(counts)
        else:
            perms = [tuple(rng.sample(_sorted_seq(counts), k)) for _ in range(40)]
        for perm in perms:
            for c, alpha in zip(border.vertex_hits, border.vertex_angles):
                assert len(_reference_walks(k, counts, blocks, perm, c)) == 1, (sigma, k, c, perm)
                shifted = tuple((b - prefix_sums[c]) % ell for b in perm)
                assert _reference_trace(k, counts, blocks, perm, c, alpha) == {shifted}, (sigma, k, c, perm)


def test_vertex_shifts_refuse_a_split_run_and_a_stray_rotation():
    # from chain point 1 of (12, 4), inside the run "aa", the float walk of
    # "aabb" forks; a start there has no shift
    border = solve_border(12, 4)
    counts, blocks = border.degeneracies, border.blocks()
    assert 1 not in border.vertex_hits
    assert len(_reference_walks(4, counts, blocks, (0, 0, 1, 1), 1)) == 2
    with pytest.raises(InconsistentDna, match="splits a run"):
        chp._vertex_shifts(counts, blocks, (1,), (0.0,))
    # the occupied vertices 0 and 2 shift by 0 and 1 letters; vertex 2
    # with its rotation off by 0.01 carries no block onto a block
    assert chp._vertex_shifts(counts, blocks, border.vertex_hits, border.vertex_angles) == (0, 1)
    with pytest.raises(InconsistentDna, match="re-traced from vertex 2"):
        chp._vertex_shifts(counts, blocks, (2,), (border.vertex_angles[1] + 0.01,))


def _reference_vertex_shifts(degeneracies, blocks, hits, alphas):
    """_vertex_shifts with a nearest-block scan per (vertex, block) pair, as first written."""
    ell = len(blocks)
    first = {sum(degeneracies[:L]): L for L in range(ell)}
    shifts = []
    for c, alpha in zip(hits, alphas):
        L = first.get(c)
        if L is None:
            raise InconsistentDna(f"vertex {c} splits a run of equal chord directions")
        for b, value in enumerate(blocks):
            if chp._nearest_block(value + (chp.PI_3 if b < L else 0.0) - alpha, blocks) != (b - L) % ell:
                raise InconsistentDna(f"block {b} re-traced from vertex {c} is not block {(b - L) % ell}")
        shifts.append(L)
    return tuple(shifts)


def _outcome(shifts, *args):
    try:
        return shifts(*args)
    except InconsistentDna as exc:
        return str(exc)


_NUDGES = st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 0.01]) | st.floats(-3e-9, 3e-9)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(12, 4), (12, 8), (24, 7), (36, 9), (48, 8), (CIRCLE, 9)]), _NUDGES, _NUDGES, st.data())
def test_vertex_shifts_match_the_nearest_block_scan(cell, block_nudge, angle_nudge, data):
    # tampered borders: one block and one vertex rotation moved by up to a
    # few GROUP_TOL, or one block pushed within 2 GROUP_TOL of the one
    # below it, where one comparison per block no longer decides; the
    # maps and the InconsistentDna messages are the scan's
    border = solve_border(*cell)
    blocks, alphas = list(border.blocks()), list(border.vertex_angles)
    b = data.draw(st.integers(0, len(blocks) - 1), label="block")
    if b and data.draw(st.booleans(), label="crowd"):
        blocks[b] = blocks[b - 1] + abs(block_nudge)
    else:
        blocks[b] += block_nudge
    alphas[data.draw(st.integers(0, len(alphas) - 1), label="vertex")] += angle_nudge
    args = (border.degeneracies, tuple(blocks), border.vertex_hits, tuple(alphas))
    assert _outcome(chp._vertex_shifts, *args) == _outcome(_reference_vertex_shifts, *args)


def test_circle_vertex_shifts_are_linear_per_vertex():
    # the circle has n_V = ell = k; a nearest-block scan per (vertex, block)
    # pair took seconds here, one comparison per pair takes milliseconds
    k = 300
    raw = chp._solve_circle_border(k)
    degs = chp._group_degeneracies(raw["phi"])
    blocks = chp._blocks(raw["phi"], degs)
    start = time.perf_counter()
    shifts = chp._vertex_shifts(degs, blocks, raw["hits"], raw["alphas"])
    assert time.perf_counter() - start < 1.0
    assert shifts == tuple(range(k))
    # a tampered rotation still refuses the border
    alphas = list(raw["alphas"])
    alphas[7] += 2.0 * chp.GROUP_TOL
    with pytest.raises(InconsistentDna, match="re-traced from vertex 7"):
        chp._vertex_shifts(degs, blocks, raw["hits"], alphas)


@pytest.mark.parametrize("sigma", [6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, CIRCLE])
def test_enumeration_is_the_brute_force_partition(sigma):
    # every cell with at most 720 arrangements: the classes are the
    # connected components of "q is in the reference orbit of p"
    for k in range(1, 9):
        border = solve_border(sigma, k)
        perms = _all_arrangements(border.degeneracies)
        if len(perms) > 720:
            continue
        root = {p: p for p in perms}

        def find(p):
            while root[p] != p:
                p = root[p]
            return p

        for p in perms:
            for q in _reference_orbit(border, p):
                a, b = find(p), find(q)
                root[max(a, b)] = min(a, b)
        minima = sorted({find(p) for p in perms})
        got = enumerate_dnas(sigma, k)
        assert [d.letters for d in got] == [chp._letters_of(m) for m in minima], (sigma, k)
        assert len(minima) == count_configurations(CountInput.from_border(border)), (sigma, k)


def _compose(f, g):
    """The letter map b -> f[g[b]]."""
    return tuple(f[x] for x in g)


@pytest.mark.parametrize("sigma", [*range(6, 97, 6), CIRCLE])
def test_letter_maps_form_a_group_whose_orbits_the_count_formula_counts(sigma):
    # the distinct maps are closed under composition and number eta * n_V;
    # the group acts freely (only the identity fixes a sequence that holds
    # every letter), so every orbit has |G| members and the paper's count
    # is the number of orbits
    for k in range(1, 13):
        border = solve_border(sigma, k)
        group = set(border.letter_maps)
        assert tuple(range(len(border.degeneracies))) in group, (sigma, k)
        assert {_compose(f, g) for f in group for g in group} == group, (sigma, k)
        assert len(group) == border.eta * border.n_V, (sigma, k)
        classes, rest = divmod(_multinomial(border.degeneracies), len(group))
        assert rest == 0 and classes == count_configurations(CountInput.from_border(border)), (sigma, k)


@pytest.mark.parametrize("sigma", [*range(6, 97, 6), CIRCLE])
def test_each_enumerated_class_is_its_orbit_minimum_and_orbits_are_disjoint(sigma):
    for k in range(1, 10):
        border = solve_border(sigma, k)
        if count_configurations(CountInput.from_border(border)) > 2520:
            continue
        seen = set()
        for dna in enumerate_dnas(sigma, k):
            seq = chp._seq_of(dna.letters)
            orbit = chp._orbit(seq, border.letter_maps)
            assert seq == min(orbit), (sigma, k, dna.letters)
            assert not orbit & seen, (sigma, k, dna.letters)
            seen |= orbit
        assert len(seen) == _multinomial(border.degeneracies), (sigma, k)


def _reference_classes(border):
    """Each class at its smallest member: every arrangement in ascending
    order, skipping those already met in the orbit of an earlier one."""
    seen, reps = set(), []
    for perm in _all_arrangements(border.degeneracies):
        if perm not in seen:
            seen |= chp._orbit(perm, border.letter_maps)
            reps.append(perm)
    return reps


def test_orderly_generation_matches_the_reference_enumeration():
    # the catalog's enumerated rows (sigma 12..60 at k <= 8, and (12, 9),
    # (12, 10), with at most 2,520 classes), then cells beyond them: n_V 4
    # at (72, 8) with 5,040 classes, n_V 7 at (84, 7) and the circle's 8
    cells = [(s, k) for s in range(12, 61, 6) for k in range(1, 9)] + [(12, 9), (12, 10)]
    cells = [c for c in cells if count_configurations(CountInput.from_border(solve_border(*c))) <= 2520]
    for sigma, k in cells + [(72, 8), (84, 7), (CIRCLE, 8)]:
        got = enumerate_dnas(sigma, k)
        want = _reference_classes(solve_border(sigma, k))
        assert [d.letters for d in got] == [chp._letters_of(p) for p in want], (sigma, k)


def _reference_walk(sigma, k):
    """enumerate_dnas' orderly generation, one node at a time to every leaf."""
    border = solve_border(sigma, k)
    ell = len(border.degeneracies)
    names = chp._letters_of(range(ell))
    reps = []
    stack = [("", border.degeneracies, [m for m in set(border.letter_maps) if m != tuple(range(ell))])]
    while stack:
        letters, remaining, live = stack.pop()
        if len(letters) == k:
            reps.append(letters)
            continue
        for b in reversed(range(ell)):
            if not remaining[b]:
                continue
            kept = []
            for m in live:
                if m[b] < b:
                    break
                if m[b] == b:
                    kept.append(m)
            else:
                left = remaining[:b] + (remaining[b] - 1,) + remaining[b + 1:]
                stack.append((letters + names[b], left, kept))
    return reps


def test_bulk_emission_matches_the_node_by_node_walk():
    # every cell of sigma 6..60 and the circle at k <= 8 with at most 5,040
    # classes, a large cell of nine distinct letters, a deep cell of repeated
    # letters, and one class of 1,100 equal letters
    cells = [(s, k) for s in [*range(6, 61, 6), CIRCLE] for k in range(1, 9)]
    cells = [c for c in cells if count_configurations(CountInput.from_border(solve_border(*c))) <= 5040]
    for sigma, k in cells + [(36, 9), (12, 12), (6, 1100)]:
        got = enumerate_dnas(sigma, k)
        assert [d.letters for d in got] == _reference_walk(sigma, k), (sigma, k)
