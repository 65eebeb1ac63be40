"""Curved hexagonal packings: border chains, densities, and DNA counting.

A curved hexagonal packing (CHP) places N = 3k(k+1)+1 congruent disks in
a regular polygon with sigma = 6j sides (or in a circle) so that the
arrangement is invariant under rotations by pi/3 and carries 6k disks on
the boundary of the center domain.  Everything reduces to one 60 degree
sector: a chain of k equal chords of the boundary runs from the vertex
P1 to its image under the rotation by pi/3, its chord directions are
phi_1 <= ... <= phi_k, and the order in which the distinct direction
values are consumed on the contact path from P1 to the center (the DNA
string) selects one packing out of a finite family that all share the
same density.

A polygon's chain is marched in closed form, each chord end a line-circle
root on a boundary edge, and its chord length is the root of the arc the
march covers, found by a bracketed secant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Callable, List, Sequence, Set, Tuple, Union

from . import geometry
from .errors import CapExceeded, InconsistentDna, NoSolution, NotMultipleOfSix, PreconditionViolated
from .geometry import CIRCLE, TWO_PI, Point2, Sigma

PI_3 = math.pi / 3.0

# tolerance for grouping chord directions and detecting occupied vertices
GROUP_TOL = 1e-9


def disk_count(k: int) -> int:
    """Number of disks in a k-shell packing, 3k(k+1)+1."""
    return 3 * k * (k + 1) + 1


@dataclass(frozen=True)
class BorderSolution:
    """The unique border chain of a (sigma, k) packing.

    ``phi`` holds the k chord directions in ascending order, ``d`` the
    common chord length (= disk diameter).  ``chain`` are the chain
    points P1..P_{k+1}; ``vertex_hits`` are the chord counts c at which
    the chain point sits on a polygon vertex and ``vertex_angles`` the
    rotations that carry those points to P1.  ``letter_maps`` are the
    2 n_V relabellings of a DNA's orbit (see _letter_maps): each occupied
    vertex's rotation in vertex order, then each followed by the mirror.
    """

    sigma: Sigma
    k: int
    phi: Tuple[float, ...]
    d: float
    n_V: int
    degeneracies: Tuple[int, ...]
    eta: int
    chain: Tuple[Point2, ...]
    vertex_hits: Tuple[int, ...]
    vertex_angles: Tuple[float, ...]
    letter_maps: Tuple[Tuple[int, ...], ...]

    def blocks(self) -> Tuple[float, ...]:
        """Distinct DNA letter values phi + pi/3, ascending."""
        return _blocks(self.phi, self.degeneracies)


def _blocks(phi: Sequence[float], degeneracies: Sequence[int]) -> Tuple[float, ...]:
    out: List[float] = []
    pos = 0
    for n in degeneracies:
        out.append(phi[pos] + PI_3)
        pos += n
    return tuple(out)


def _require_sigma(sigma: Sigma) -> None:
    if sigma == CIRCLE:
        return
    if not isinstance(sigma, int) or sigma < 6 or sigma % 6 != 0:
        raise NotMultipleOfSix(f"sigma must be a positive multiple of 6 or {CIRCLE!r}, got {sigma!r}")


def _group_degeneracies(phi: Sequence[float]) -> Tuple[int, ...]:
    runs: List[int] = []
    for j, value in enumerate(phi):
        if j > 0 and value - phi[j - 1] <= GROUP_TOL:
            runs[-1] += 1
        else:
            runs.append(1)
    return tuple(runs)


def _perimeter(sigma: int):
    """``(point_at, units)`` for the delta=0 polygon boundary.

    ``point_at(s)`` is the boundary point at arclength s from P1, and
    ``units`` geometry's unit table, whose entries u_(2i-1) and u_(2i+1)
    are the corners of edge i, vertices i and i + 1, for 0 <= i < sigma.
    A closure, so that the edge length and the table are looked up once
    per sigma and not on every chord of every trial length.
    """
    edge = 2.0 * math.sin(math.pi / sigma)
    units = geometry._frame(sigma).units

    def point_at(s: float) -> Point2:
        i, t = divmod(s, edge)
        m = 2 * int(i)
        (ax, ay), (bx, by) = units[m - 1], units[m + 1]
        f = t / edge
        return (
            (1.0 - f) * ax + f * bx,
            (1.0 - f) * ay + f * by,
        )

    return point_at, units


def _vertex_index(s: float, edge: float) -> Union[int, None]:
    """m when arclength s lies on polygon vertex m (within GROUP_TOL), else None."""
    m = round(s / edge)
    return m if abs(s - m * edge) <= GROUP_TOL else None


def _root(f: Callable[[float], Tuple[float, object]], lo: float, hi: float) -> Tuple[float, object]:
    """Where a nondecreasing f turns non-negative in ``[lo, hi]``, for finite 0 < lo < hi.

    ``f(x)`` returns ``(value, payload)``; the value must be negative at lo
    and not at hi.  The Illinois variant of regula falsi (Dowell & Jarratt,
    BIT 1971) steps to the secant point of the bracket's ends and, when the
    same end survives twice in a row, halves that end's value in the
    interpolation, so that the other end moves too.  A step takes the
    midpoint instead when the secant point is not inside the open bracket
    (or the weighed values leave it undefined), or when the last three
    steps have not halved the bracket between them.  The bracket then
    halves at least once in every four evaluations, so there are at most
    2 + 4n of them for a bracket that n bisection steps pin.  The loop ends
    when the midpoint is an end, which leaves the ends adjacent floats, and
    returns the end of smaller absolute value with the payload of its own
    call.
    """
    (v_lo, p_lo), (v_hi, p_hi) = f(lo), f(hi)
    w_lo, w_hi = v_lo, v_hi  # the values the interpolation weighs
    kept = 0  # +1 when the last step kept hi, -1 when it kept lo
    widths = [math.inf] * 3  # the bracket's width before each of the last three steps
    while True:
        width = hi - lo
        # halving each end first cannot overflow
        x = 0.5 * lo + 0.5 * hi
        if width <= 0.5 * widths[0] and w_lo < w_hi:
            secant = hi - w_hi * (width / (w_hi - w_lo))
            if lo < secant < hi:
                x = secant
        if not lo < x < hi:
            break
        widths = widths[1:] + [width]
        v, payload = f(x)
        if v < 0.0:
            lo, v_lo, p_lo, w_lo = x, v, payload, v
            if kept == 1:
                w_hi *= 0.5
            kept = 1
        else:
            hi, v_hi, p_hi, w_hi = x, v, payload, v
            if kept == -1:
                w_lo *= 0.5
            kept = -1
    return (lo, p_lo) if -v_lo < v_hi else (hi, p_hi)


def _chord_end(
    units: Sequence[Point2],
    edge: float,
    px: float,
    py: float,
    d: float,
    lo: float,
    hi: float,
) -> Union[float, None]:
    """Closed-form arclength where the chord of length d from (px, py) ends.

    The end lies in the arclength bracket ``[lo, hi]``; the walk goes
    forward over the edges from the one holding lo.  On edge i from
    corner A = u_(2i-1) to corner B = u_(2i+1) of the unit table
    ``units`` the boundary leaves the circle of radius d about
    p at the larger root f of |A + f(B - A) - p|^2 = d^2, and the first
    edge with that root in [0, 1] gives (i + f) * edge.  None when the
    walk passes hi.  Starting at lo rather than at the chord's start keeps
    the walk to a few edges however many the chord spans.

    An end on a vertex can round to a root just above 1 on the edge
    before it and just below 0 on the edge after.  An edge whose root lies
    below 0 starts outside the circle, so the end is at its start vertex,
    and the walk returns i * edge.
    """
    i = int(lo // edge)
    while i * edge <= hi:
        (ax, ay), (bx, by) = units[2 * i - 1], units[2 * i + 1]
        dx, dy = bx - ax, by - ay
        wx, wy = ax - px, ay - py
        a = dx * dx + dy * dy
        b = wx * dx + wy * dy
        # |w|^2 - d^2 as a product, which does not cancel when |w| is near d
        r = math.hypot(wx, wy)
        c = (r - d) * (r + d)
        disc = b * b - a * c
        if disc >= 0.0:
            # the larger root, in the form that does not cancel
            root = math.sqrt(disc)
            f = -c / (b + root) if b > 0.0 else (root - b) / a
            if 0.0 <= f <= 1.0:
                return (i + f) * edge
            if f < 0.0:
                return i * edge
        i += 1
    return None


def _solve_polygon_border(sigma: int, k: int) -> dict:
    """The raw border chain of a polygon of any side count sigma >= 6.

    The chord length d is where the arc that k chords cover reaches one
    sixth of the perimeter.  ``travel`` marches the chain of a trial length
    t with one _chord_end per chord, and _root finds the flip of its arc
    residual; the chain at d is the one that march gave.  The chord from
    arclength s ends in ``[s + t(1 - 1e-12), s + 2t]``: an arc is never
    shorter than its chord, and an arc that turns at one vertex of interior
    angle at least 120 degrees is at most 2/sqrt(3) times its chord.  A
    chord end that _chord_end misses counts as short.

    When 6k/sigma is an integer the chords ride the edges: every arc equals
    its chord, d is target/k and the chain's arcs are j d, with no search.
    There the residual has no sign change to find, since it rounds either
    way at target/k (below zero on (48, 8)).
    """
    edge = 2.0 * math.sin(math.pi / sigma)
    target = (sigma / 6.0) * edge
    step = TWO_PI / sigma
    point_at, units = _perimeter(sigma)

    def travel(t: float) -> Tuple[float, List[float]]:
        arcs = [0.0]
        px, py = point_at(0.0)
        for _ in range(k):
            s = arcs[-1]
            end = _chord_end(units, edge, px, py, t, s + t * (1.0 - 1e-12), s + 2.0 * t)
            if end is None:
                return -math.inf, arcs
            arcs.append(end)
            px, py = point_at(end)
        return arcs[-1] - target, arcs

    # arclength >= chord length, so d = target/k overshoots (or matches when
    # the chords ride the edges); k chords cover at most 2/sqrt(3) times
    # their length in arc, so half of it falls short.  A bad bracket shows
    # in the residual below.
    hi = target / k
    if (6 * k) % sigma == 0:
        d, arcs = hi, [j * hi for j in range(k + 1)]
    else:
        d, arcs = _root(travel, 0.5 * hi, hi)
    chain = [point_at(s) for s in arcs]
    # the march must consume exactly one sixth of the perimeter; for side
    # counts divisible by 6 that lands on the start vertex's image under the
    # exact pi/3 rotation that places the next sector's disks
    endpoint = geometry.sixfold(chain[:1])[1] if sigma % 6 == 0 else point_at(target)
    residual = geometry.dist(chain[-1], endpoint)
    if residual > 1e-12:
        raise NoSolution(f"chain residual {residual:.3e} for sigma={sigma}, k={k}")
    chain[-1] = endpoint

    phi: List[float] = []
    for j in range(k):
        ax, ay = chain[j]
        bx, by = chain[j + 1]
        phi.append(math.atan2(by - ay, bx - ax))
    for j in range(k - 1):
        if phi[j + 1] < phi[j] - 1e-10:
            raise NoSolution(f"chord directions not ascending for sigma={sigma}, k={k}")

    hits: List[int] = []
    alphas: List[float] = []
    for c, s in enumerate(arcs[:-1]):
        m = _vertex_index(s, edge)
        if m is not None:
            hits.append(c)
            alphas.append(m * step)
    return {
        "phi": tuple(phi),
        "d": d,
        "chain": tuple(chain),
        "hits": tuple(hits),
        "alphas": tuple(alphas),
    }


def _solve_circle_border(k: int) -> dict:
    d = 2.0 * math.sin(math.pi / (6.0 * k))
    start = 1.5 * math.pi
    step = math.pi / (3.0 * k)
    chain = tuple(
        (math.cos(start + j * step), math.sin(start + j * step)) for j in range(k + 1)
    )
    phi = tuple((2 * j - 1) * math.pi / (6.0 * k) for j in range(1, k + 1))
    hits = tuple(range(k))
    alphas = tuple(c * step for c in range(k))
    return {"phi": phi, "d": d, "chain": chain, "hits": hits, "alphas": alphas}


@lru_cache(maxsize=None)
def solve_border(sigma: Sigma, k: int) -> BorderSolution:
    """Solve for the k equal boundary chords from P1 to its rotation by pi/3.

    Args:
        sigma: polygon side count (multiple of 6) or CIRCLE.
        k: number of shells, at least 1.

    Returns:
        The BorderSolution with directions, diameter, vertex occupancy,
        degeneracies, and the reflection redundancy eta.
    """
    _require_sigma(sigma)
    if k < 1:
        raise NoSolution(f"k must be >= 1, got {k}")
    raw = _solve_circle_border(k) if sigma == CIRCLE else _solve_polygon_border(sigma, k)
    degs = _group_degeneracies(raw["phi"])
    if tuple(reversed(degs)) != degs:
        raise NoSolution(f"degeneracies {degs} not symmetric for sigma={sigma}, k={k}")
    maps = _letter_maps(degs, _blocks(raw["phi"], degs), raw["hits"], raw["alphas"])
    # every letter occurs in a DNA, so only the identity fixes one: the
    # mirror image of a DNA is one of its rotations exactly when a
    # rotation followed by the mirror is the identity
    eta = 1 if tuple(range(len(degs))) in maps[len(raw["hits"]):] else 2
    return BorderSolution(
        sigma=sigma,
        k=k,
        phi=raw["phi"],
        d=raw["d"],
        n_V=len(raw["hits"]),
        degeneracies=degs,
        eta=eta,
        chain=raw["chain"],
        vertex_hits=raw["hits"],
        vertex_angles=raw["alphas"],
        letter_maps=maps,
    )


# ---------------------------------------------------------------------------
# DNA strings


@dataclass(frozen=True)
class Dna:
    """A DNA: its k letters, letter b naming the border's building block blocks()[b]."""

    letters: str


def _letters_of(seq: Sequence[int]) -> str:
    return "".join(chr(ord("a") + b) for b in seq)


def _seq_of(letters: str) -> Tuple[int, ...]:
    return tuple(ord(c) - ord("a") for c in letters)


def _dna_seq(letters: str, border: BorderSolution) -> Tuple[int, ...]:
    """The block indices of a DNA's letters, checked against the border's degeneracies."""
    blocks = border.blocks()
    seq = _seq_of(letters)
    if len(seq) != border.k:
        raise InconsistentDna(f"expected {border.k} letters, got {len(seq)}")
    counts = [0] * len(blocks)
    for b in seq:
        if b < 0 or b >= len(blocks):
            raise InconsistentDna(f"letter {chr(b + ord('a'))!r} outside blocks a..{chr(ord('a') + len(blocks) - 1)}")
        counts[b] += 1
    if tuple(counts) != border.degeneracies:
        raise InconsistentDna(f"letter multiplicities {tuple(counts)} != {border.degeneracies}")
    return seq


def _nearest_block(value: float, blocks: Sequence[float], tol: float = GROUP_TOL) -> Union[int, None]:
    best, best_err = None, tol
    for b, ref in enumerate(blocks):
        err = abs(_wrap_pi(value - ref))
        if err <= best_err:
            best, best_err = b, err
    return best


def _wrap_pi(a: float) -> float:
    return (a + math.pi) % TWO_PI - math.pi


def _vertex_shifts(
    degeneracies: Sequence[int], blocks: Sequence[float], hits: Sequence[int], alphas: Sequence[float]
) -> Tuple[int, ...]:
    """The letter shift L of each occupied vertex: its rotation maps letter b to (b - L) mod ell.

    Re-tracing a DNA from the occupied vertex c walks the shell interfaces
    of the packing it encodes: at each interface the disk at position j
    of the current shell ring touches one disk of the next ring in, which
    fixes a chord direction of the rotated DNA, mapped back through the
    rotation alpha that carries vertex c to P1.  A chain point on a
    polygon vertex separates two runs of chord directions, so c is the
    sum of the first L degeneracies, and j - 1 starts as the count of the
    letters below L.  A letter b >= L keeps the contact on the disk at j
    and adds nothing.  A letter b < L moves it to the disk at j - 1, or,
    once no letter >= L is left and the walk has wrapped into its one
    extra shell turn, keeps it and adds that turn; both add pi/3.  So the
    walk reads b as the block nearest blocks[b] + (pi/3 if b < L) - alpha
    whatever the letters around it, and that block is (b - L) mod ell.

    Raises InconsistentDna when c splits a run of equal directions or a
    rotated block is not the shifted one.  When the blocks lie more than
    2 GROUP_TOL apart around the circle, at most one of them is within
    GROUP_TOL of a value, so the nearest block is the shifted one exactly
    when the shifted one is within GROUP_TOL: one comparison per block
    instead of a scan of all of them, which made the circle's border
    quadratic in k per vertex.
    """
    ell = len(blocks)
    apart = all(abs(_wrap_pi(blocks[b] - blocks[b - 1])) > 2.0 * GROUP_TOL for b in range(ell))
    first = {sum(degeneracies[:L]): L for L in range(ell)}
    shifts: List[int] = []
    for c, alpha in zip(hits, alphas):
        L = first.get(c)
        if L is None:
            raise InconsistentDna(f"vertex {c} splits a run of equal chord directions")
        for b, value in enumerate(blocks):
            rotated, want = value + (PI_3 if b < L else 0.0) - alpha, (b - L) % ell
            if apart:
                ok = abs(_wrap_pi(rotated - blocks[want])) <= GROUP_TOL
            else:
                ok = _nearest_block(rotated, blocks) == want
            if not ok:
                raise InconsistentDna(f"block {b} re-traced from vertex {c} is not block {want}")
        shifts.append(L)
    return tuple(shifts)


def _letter_maps(
    degeneracies: Sequence[int], blocks: Sequence[float], hits: Sequence[int], alphas: Sequence[float]
) -> Tuple[Tuple[int, ...], ...]:
    """The 2 n_V letter maps of a DNA's orbit: each vertex rotation, then each followed by the mirror.

    The mirror b -> ell - 1 - b reflects the sector about its bisector.
    Reflecting a rotation image stands for walking the mirrored sequence
    because the degeneracies are palindromic (solve_border checks this):
    the reflection maps the set of occupied vertices onto itself.
    """
    ell = len(blocks)
    rotations = [tuple((b - L) % ell for b in range(ell)) for L in _vertex_shifts(degeneracies, blocks, hits, alphas)]
    return tuple(rotations + [tuple(ell - 1 - x for x in m) for m in rotations])


def _orbit(seq: Sequence[int], maps: Sequence[Tuple[int, ...]]) -> Set[Tuple[int, ...]]:
    """The images of ``seq`` under the letter maps: with _letter_maps, every DNA equivalent to it."""
    return {tuple([m[b] for b in seq]) for m in maps}


def canonicalize_dna(letters: str, border: BorderSolution) -> Dna:
    """Lexicographically smallest DNA over vertex rotations and reflection."""
    return Dna(letters=_letters_of(min(_orbit(_dna_seq(letters, border), border.letter_maps))))


def enumerate_dnas(sigma: Sigma, k: int, cap: int = 100000) -> List[Dna]:
    """All canonical DNA strings for (sigma, k), sorted lexicographically.

    The distinct letter maps form a group that acts freely (every letter
    occurs in a DNA, so only the identity fixes one), and each class is
    emitted at its lexicographic minimum by orderly generation: prefixes
    grow smallest letter first, each carrying the maps that are still the
    identity on it.  A map that sends the newest letter lower makes a
    smaller member of the class with this prefix, so the prefix is dropped;
    one that sends it higher makes only larger members from here on, so it
    is no longer carried.  Once no map is carried and the letters left are
    distinct, every arrangement of them is a class, emitted in one step.

    Raises CapExceeded when the configuration count passes ``cap``.
    """
    border = solve_border(sigma, k)
    total = count_configurations(CountInput.from_border(border))
    if total > cap:
        raise CapExceeded(f"{total} configurations exceed cap {cap}")
    ell = len(border.degeneracies)
    names = _letters_of(range(ell))
    reps: List[Dna] = []
    # depth first without recursion, since k may exceed the recursion
    # limit: each entry is a prefix, the letter counts it leaves and its
    # carried maps, and children go on in descending order so that the
    # smallest comes off first
    stack = [("", border.degeneracies, [m for m in set(border.letter_maps) if m != tuple(range(ell))])]
    while stack:
        letters, remaining, live = stack.pop()
        if not live and max(remaining) <= 1:
            # no map is carried and the letters left are distinct, as at
            # every leaf (only the identity fixes a prefix that holds every
            # letter): the subtree is every arrangement of those letters,
            # which permutations of them in ascending order yield in
            # lexicographic order
            for tail in permutations([names[b] for b in range(ell) if remaining[b]]):
                reps.append(Dna(letters=letters + "".join(tail)))
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


# ---------------------------------------------------------------------------
# Counting


@dataclass(frozen=True)
class CountInput:
    """Inputs of the configuration-count formula."""

    k: int
    eta: int
    n_V: int
    degeneracies: Tuple[int, ...]

    @classmethod
    def from_border(cls, border: BorderSolution) -> "CountInput":
        return cls(k=border.k, eta=border.eta, n_V=border.n_V, degeneracies=border.degeneracies)


def count_configurations(inp: CountInput) -> int:
    """max(1, k! / (eta * n_V * prod(n_i!))) in exact arithmetic.

    From a solved border this is an orbit count: the multinomial
    k! / prod(n_i!) arrangements split into orbits of |G| = eta * n_V
    under the group of letter maps, which acts freely (see
    enumerate_dnas).  The quotient is then a whole number of at least 1,
    so the clamp and the integer check only act on a hand-made CountInput.
    """
    if sum(inp.degeneracies) != inp.k:
        raise PreconditionViolated(f"degeneracies {inp.degeneracies} do not sum to k={inp.k}")
    denom = inp.eta * inp.n_V
    for n in inp.degeneracies:
        denom *= math.factorial(n)
    value = Fraction(math.factorial(inp.k), denom)
    if value <= 1:
        return 1
    if value.denominator != 1:
        raise PreconditionViolated(f"count {value} is not an integer")
    return int(value)


# ---------------------------------------------------------------------------
# Densities


def chp_density(sigma: Sigma, k: int) -> float:
    """Packing fraction of the (sigma, k) packing, from the solved chain.

    Accepts any integer sigma >= 6 here: the one-sextant chord chain and
    the area ratio are well defined for every regular polygon, which is
    what large-sigma circle-limit comparisons need.  Side counts that
    are not multiples of 6 have no globally symmetric packing, so the
    combinatorial operations still reject them.
    """
    if sigma != CIRCLE and not (isinstance(sigma, int) and sigma >= 6):
        raise NotMultipleOfSix(f"sigma must be an integer >= 6 or {CIRCLE!r}, got {sigma!r}")
    if k < 1:
        raise NoSolution(f"k must be >= 1, got {k}")
    d = solve_border(sigma, k).d if sigma == CIRCLE or sigma % 6 == 0 else _solve_polygon_border(sigma, k)["d"]
    return geometry.packing_fraction(sigma, disk_count(k), d)
