"""Deterministic construction of a packing from (sigma, k, DNA).

Every shell is known in closed form.  The border ring is the border
chain.  Inner shell k - j starts at point j of the DNA path from P1 and
is the rest of that path, sorted by letter and turned by -pi/3, so it
ends where the next sector's copy of it starts.  Each fundamental-sector
row is replicated by the six exact rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .chp import PI_3, BorderSolution, Dna, _dna_seq, _letters_of, _nearest_block, canonicalize_dna, solve_border
from .errors import AmbiguousStart, ConstructionFailed, InconsistentDna, NoPath, PreconditionViolated
from .geometry import Point2, Sigma

# extract_dna's tolerance: absolute on the disks at P1 and at the origin,
# relative to d on contacts; the letter match allows ten times it
_EXTRACT_TOL = 1e-6


@dataclass
class PackingConfiguration:
    """N disk centers plus the common disk diameter.

    ``sigma`` names the center domain: the side count of the polygon of
    circumradius 1, or CIRCLE for the unit circle.  ``centers`` is stored
    as an (N, 2) float array, whatever sequence of pairs it is given as.
    ``meta`` records provenance: construction mode, DNA, seeds, and
    similar.
    """

    sigma: Sigma
    centers: np.ndarray
    diameter: float
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        geometry.check_sigma(self.sigma)
        self.centers = np.asarray(self.centers, dtype=float)
        if self.centers.ndim != 2 or self.centers.shape[1] != 2 or len(self.centers) == 0:
            raise ValueError(f"centers must have shape (N, 2) with N >= 1, got {self.centers.shape}")

    @property
    def n_disks(self) -> int:
        return len(self.centers)


def build_chp(sigma: Sigma, k: int, dna: Optional[str] = None) -> PackingConfiguration:
    """Construct the packing selected by ``dna`` (lowest-letter order when None).

    ``dna`` is a letter string; letter b reads its chord direction as
    border.blocks()[b].  The border ring is the border chain.  Shell
    k - j starts at point j of the DNA path from P1 and takes one chord
    per letter not yet read there, in ascending letter order, each
    letter's direction turned by -pi/3; the origin closes the path.
    Every row is replicated by the six exact rotations, so a build costs
    O(N) for N = disk_count(k) disks, plus one O(N log N) overlap check
    of the result.

    Raises ConstructionFailed when the DNA path misses the center, when
    a disk leaves the container, or when two disks overlap.
    """
    border = solve_border(sigma, k)
    if dna is None:
        dna = "".join(chr(ord("a") + b) * n for b, n in enumerate(border.degeneracies))
    seq = _dna_seq(dna, border)
    blocks = border.blocks()
    d = border.d

    # DNA path from P1; its points seed every inner shell's corner
    seeds: List[Point2] = []
    x, y = border.chain[0]
    for b in seq:
        v = blocks[b]
        x += d * math.cos(v)
        y += d * math.sin(v)
        seeds.append((x, y))
    tail = math.hypot(*seeds[-1])
    if tail > 1e-9:
        raise ConstructionFailed(f"DNA path misses the center by {tail:.3e}")

    # shell k - j: from path point j, one chord per letter still unread
    # there, ascending, turned by -pi/3.  That is the rest of the path
    # turned by -pi/3, so the last chord ends on the next sector's start,
    # which the rotations supply; the row stops before it.
    chords = [(d * math.cos(v - PI_3), d * math.sin(v - PI_3)) for v in blocks]
    sector_rows: List[List[Point2]] = [list(border.chain[:-1])]
    for j in range(1, k):
        x, y = seeds[j - 1]
        row = [(x, y)]
        for b in sorted(seq[j:])[:-1]:
            x += chords[b][0]
            y += chords[b][1]
            row.append((x, y))
        sector_rows.append(row)

    centers = [p for row in sector_rows for p in geometry.sixfold(row)]
    centers.append((0.0, 0.0))
    arr = np.asarray(centers, dtype=float)
    excess = float(geometry.outside_by(sigma, arr).max())
    if excess > 1e-9:
        raise ConstructionFailed(f"a disk leaves the container by {excess:.3e}")
    reach = d * (1.0 - 1e-9)
    if (geometry._near_pairs(arr, reach)[2] < reach).any():
        raise ConstructionFailed("overlap in assembled configuration")
    return PackingConfiguration(
        sigma=sigma,
        centers=arr,
        diameter=d,
        meta={"mode": "deterministic", "k": k, "dna": dna},
    )


def extract_dna(config: PackingConfiguration, sigma: Sigma, k: int) -> Dna:
    """Recover the canonical DNA of a packing by walking its contact graph.

    Follows every contact path of exactly k steps from the disk at P1 to
    the disk at the origin; all found paths must canonicalize to the same
    representative, which is returned.  ``sigma`` must be the
    configuration's own.
    """
    if sigma != config.sigma:
        raise PreconditionViolated(f"sigma {sigma!r} is not the configuration's sigma {config.sigma!r}")
    border = solve_border(sigma, k)
    d = config.diameter
    centers = config.centers
    p1 = np.array(border.chain[0])
    dist_p1 = np.hypot(*(centers - p1).T)
    near = np.flatnonzero(dist_p1 <= _EXTRACT_TOL)
    if len(near) != 1:
        raise AmbiguousStart(f"{len(near)} disks at P1 within tolerance")
    start = int(near[0])
    radius = np.hypot(centers[:, 0], centers[:, 1])
    finish = int(np.argmin(radius))
    if radius[finish] > _EXTRACT_TOL:
        raise NoPath("no disk at the origin")

    # the contact graph in CSR form: directed edges sorted by tail, then head,
    # so each disk's neighbours come in ascending order, with their offsets
    n = len(centers)
    pairs = geometry.contact_pairs(centers, d, _EXTRACT_TOL)
    edges = np.concatenate((pairs, pairs[:, ::-1]))
    edges = edges[np.argsort(edges[:, 0] * n + edges[:, 1])]
    starts = np.searchsorted(edges[:, 0], np.arange(n + 1)).tolist()
    steps = centers[edges[:, 1]] - centers[edges[:, 0]]
    heads, dx, dy = edges[:, 1].tolist(), steps[:, 0].tolist(), steps[:, 1].tolist()
    # leads[r, i]: some walk of exactly r contact steps goes from disk i to the origin's disk
    leads = np.zeros((k, n), dtype=bool)
    leads[0, finish] = True
    for r in range(1, k):
        leads[r, edges[leads[r - 1, edges[:, 1]], 0]] = True

    # depth first on a stack, neighbours pushed descending so they pop ascending and
    # only when they lead on, so every walk the stack holds ends at the origin's disk;
    # values[i] is step i's direction on the path to the disk just popped
    value_paths: List[Tuple[float, ...]] = []
    values = [0.0] * k
    stack = [(start, 0, 0.0)]
    while stack:
        node, depth, value = stack.pop()
        if depth:
            values[depth - 1] = value
        if depth == k:
            value_paths.append(tuple(values))
            continue
        ahead = leads[k - depth - 1]
        for e in range(starts[node + 1] - 1, starts[node] - 1, -1):
            if ahead[heads[e]]:
                stack.append((heads[e], depth + 1, math.atan2(dy[e], dx[e])))
    if not value_paths:
        raise NoPath(f"no {k}-step contact path from P1 to the center")

    reps = {canonicalize_dna(_dna_from_noisy_values(values, border), border) for values in value_paths}
    if len(reps) != 1:
        raise InconsistentDna(f"contact paths disagree after canonicalization: {sorted(r.letters for r in reps)}")
    return reps.pop()


def _dna_from_noisy_values(values: Sequence[float], border: BorderSolution) -> str:
    """The letters of the building blocks nearest a contact path's directions.

    This is the one place that maps angles to letters.  Raises NoPath when a
    direction misses every block by more than 10 _EXTRACT_TOL or 0.45 of
    the smallest gap between blocks, whichever is less; canonicalize_dna
    checks the letter multiset.
    """
    blocks = border.blocks()
    gap = min(
        [abs(blocks[i + 1] - blocks[i]) for i in range(len(blocks) - 1)],
        default=math.pi,
    )
    limit = min(0.45 * gap, 10.0 * _EXTRACT_TOL)
    seq = []
    for v in values:
        b = _nearest_block(v, blocks, limit)
        if b is None:
            raise NoPath(f"path direction {v:.6f} matches no building block")
        seq.append(b)
    return _letters_of(seq)
