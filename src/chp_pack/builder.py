"""Deterministic construction of a packing from (sigma, k, DNA).

The border ring and the corner disk of every inner shell follow directly
from the border chain and the DNA path.  The rest of each shell is
filled one disk at a time inside the fundamental sector, tangent to the
previous disk of the shell and to a disk of the shell outside it, then
replicated by the six exact rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .chp import BorderSolution, Dna, _letters_of, _nearest_block, canonicalize_dna, disk_count, dna_from_letters, dna_from_values, solve_border
from .errors import AmbiguousStart, CoincidentPoints, ConstructionFailed, InconsistentDna, NoIntersection, NoPath, PreconditionViolated
from .geometry import Point2, Sigma


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
        if self.centers.ndim != 2 or self.centers.shape[1] != 2:
            raise ValueError(f"centers must have shape (N, 2), got {self.centers.shape}")

    @property
    def n_disks(self) -> int:
        return len(self.centers)


def circle_pair_intersection(c1: Point2, c2: Point2, d: float) -> Tuple[Point2, Point2]:
    """Both intersection points of the radius-d circles about c1 and c2.

    Ordered by signed side of the directed line c1 -> c2 (left first).
    A separation within 1e-12 beyond 2d is accepted as a tangency.
    """
    dx, dy = c2[0] - c1[0], c2[1] - c1[1]
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        raise CoincidentPoints("circle centers coincide")
    if dist > 2.0 * d * (1.0 + 1e-12):
        raise NoIntersection(f"centers {dist:.17g} apart exceed 2d = {2 * d:.17g}")
    half = 0.5 * dist
    h = math.sqrt(max(0.0, d * d - half * half))
    mx, my = c1[0] + 0.5 * dx, c1[1] + 0.5 * dy
    ux, uy = dx / dist, dy / dist
    left = (mx - h * uy, my + h * ux)
    right = (mx + h * uy, my - h * ux)
    return left, right


class _Workspace:
    """Placed disks with their shell indices, for partner and overlap scans.

    Each disk is bucketed in the grid cell ``(floor(x/d), floor(y/d))``.
    A scan visits the cells its reach covers plus one more ring, which
    absorbs the rounding of x/d, so it costs O(1) disks whatever the
    disk count.
    """

    def __init__(self, d: float):
        self.d = d
        self.cells: Dict[Tuple[int, int], List[Tuple[int, int, Point2]]] = {}
        self.count = 0

    def _cell(self, p: Point2) -> Tuple[int, int]:
        return math.floor(p[0] / self.d), math.floor(p[1] / self.d)

    def _near(self, p: Point2, rings: int) -> List[Tuple[int, int, Point2]]:
        """(insertion index, shell, point) of every disk within ``rings`` cells of p."""
        cx, cy = self._cell(p)
        cells = self.cells
        near: List[Tuple[int, int, Point2]] = []
        for i in range(cx - rings, cx + rings + 1):
            for j in range(cy - rings, cy + rings + 1):
                bucket = cells.get((i, j))
                if bucket:
                    near.extend(bucket)
        return near

    def add(self, points: Sequence[Point2], shell: int) -> None:
        for p in points:
            self.cells.setdefault(self._cell(p), []).append((self.count, shell, p))
            self.count += 1

    def too_close(self, p: Point2) -> bool:
        limit = self.d * (1.0 - 1e-9)
        for _, _, q in self._near(p, 2):
            if math.hypot(p[0] - q[0], p[1] - q[1]) < limit:
                return True
        return False

    def partners(self, prev: Point2, shell: int) -> List[Point2]:
        """Disks of ``shell`` ahead of ``prev`` in polar angle, nearest first.

        Ties in distance go to the smaller polar angle, then to the disk
        placed first.
        """
        prev_angle = math.atan2(prev[1], prev[0])
        reach = 2.0 * self.d * (1.0 + 1e-9)
        found: List[Tuple[float, float, int, Point2]] = []
        for index, s, q in self._near(prev, 4):
            if s != shell:
                continue
            angle = math.atan2(q[1], q[0])
            if angle <= prev_angle - 1e-12:
                continue
            gap = math.hypot(prev[0] - q[0], prev[1] - q[1])
            if 0.0 < gap <= reach:
                found.append((gap, angle, index, q))
        found.sort()
        return [q for _, _, _, q in found]


def build_chp(sigma: Sigma, k: int, dna: Union[Dna, str, None] = None) -> PackingConfiguration:
    """Construct the packing selected by ``dna`` (lowest-letter order when None).

    Each disk of a shell is placed tangent to the previous one and to a
    partner of the shell outside it, on the outer of the candidate points
    that stay inside the container and clear every placed disk.  The
    partner and clearance scans look only at the grid cells around the
    point, so a build costs O(N) for N = disk_count(k) disks, plus one
    O(N log N) overlap check of the result.

    Raises ConstructionFailed when a shell cannot be completed or fails
    its closure check, which signals an unrealizable direction sequence.
    """
    border = solve_border(sigma, k)
    if dna is None:
        letters = "".join(
            chr(ord("a") + b) * n for b, n in enumerate(border.degeneracies)
        )
        dna = dna_from_letters(letters, border)
    elif isinstance(dna, str):
        dna = dna_from_letters(dna, border)
    else:
        dna = dna_from_values(dna.values, border)

    d = border.d
    ws = _Workspace(d)

    # border shell: sector chain replicated by the six rotations
    sector_border = list(border.chain[:-1])
    ws.add(geometry.sixfold(sector_border), k)

    # DNA path from P1; its points seed every inner shell's corner
    seeds: List[Point2] = []
    x, y = border.chain[0]
    for v in dna.values:
        x += d * math.cos(v)
        y += d * math.sin(v)
        seeds.append((x, y))
    tail = math.hypot(*seeds[-1])
    if tail > 1e-9:
        raise ConstructionFailed(f"DNA path misses the center by {tail:.3e}")
    seeds[-1] = (0.0, 0.0)
    ws.add([seeds[-1]], 0)
    for j, p in enumerate(seeds[:-1]):
        ws.add(geometry.sixfold([p]), k - 1 - j)

    sector_rows: List[List[Point2]] = [sector_border]
    for m in range(k - 1, 0, -1):
        row = [seeds[k - 1 - m]]
        for i in range(2, m + 1):
            prev = row[-1]
            placed = None
            for partner in ws.partners(prev, m + 1):
                try:
                    branches = circle_pair_intersection(prev, partner, d)
                except (NoIntersection, CoincidentPoints):
                    continue
                inside = geometry.outside_by(sigma, np.array(branches)) <= 1e-9
                ok = [p for p, keep in zip(branches, inside) if keep and not ws.too_close(p)]
                if not ok:
                    continue
                if len(ok) == 2 and math.hypot(*ok[0]) != math.hypot(*ok[1]):
                    ok.sort(key=lambda p: -math.hypot(p[0], p[1]))
                placed = ok[0]
                break
            if placed is None:
                raise ConstructionFailed(f"shell {m}, position {i}: no tangent placement")
            row.append(placed)
            ws.add(geometry.sixfold([placed]), m)
        closure = geometry.dist(geometry.sixfold([row[0]])[1], row[-1])
        if abs(closure - d) > 1e-9:
            raise ConstructionFailed(f"shell {m}: closure gap {closure - d:.3e}")
        sector_rows.append(row)

    centers = [p for row in sector_rows for p in geometry.sixfold(row)]
    centers.append((0.0, 0.0))
    if len(centers) != disk_count(k):
        raise ConstructionFailed(f"assembled {len(centers)} disks, expected {disk_count(k)}")

    arr = np.asarray(centers, dtype=float)
    if geometry.min_distance(arr) < d * (1.0 - 1e-9):
        raise ConstructionFailed("overlap in assembled configuration")
    return PackingConfiguration(
        sigma=sigma,
        centers=arr,
        diameter=d,
        meta={"mode": "deterministic", "k": k, "dna": dna.letters},
    )


def extract_dna(config: PackingConfiguration, sigma: Sigma, k: int, tol: float = 1e-6) -> Dna:
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
    near = np.flatnonzero(dist_p1 <= max(tol, 1e-7))
    if len(near) != 1:
        raise AmbiguousStart(f"{len(near)} disks at P1 within tolerance")
    start = int(near[0])
    radius = np.hypot(centers[:, 0], centers[:, 1])
    finish = int(np.argmin(radius))
    if radius[finish] > max(tol, 1e-7):
        raise NoPath("no disk at the origin")

    adjacency: Dict[int, List[int]] = {}
    for i, j in geometry.contact_pairs(centers, d, tol):
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)

    value_paths: List[Tuple[float, ...]] = []

    def dfs(node: int, depth: int, values: List[float]) -> None:
        if depth == k:
            if node == finish:
                value_paths.append(tuple(values))
            return
        remaining = k - depth
        for nxt in adjacency.get(node, ()):
            if radius[nxt] > remaining * d * (1.0 + 10.0 * tol):
                continue
            dx, dy = centers[nxt] - centers[node]
            values.append(math.atan2(dy, dx))
            dfs(nxt, depth + 1, values)
            values.pop()

    dfs(start, 0, [])
    if not value_paths:
        raise NoPath(f"no {k}-step contact path from P1 to the center")

    block_tol = max(1e-9, 10.0 * tol)
    reps = set()
    canon: Optional[Dna] = None
    for values in value_paths:
        dna = _dna_from_noisy_values(values, border, block_tol)
        rep = canonicalize_dna(dna, border)
        reps.add(rep.letters)
        canon = rep
    if len(reps) != 1:
        raise InconsistentDna(f"contact paths disagree after canonicalization: {sorted(reps)}")
    assert canon is not None
    return canon


def _dna_from_noisy_values(values: Sequence[float], border: BorderSolution, tol: float) -> Dna:
    blocks = border.blocks()
    gap = min(
        [abs(blocks[i + 1] - blocks[i]) for i in range(len(blocks) - 1)],
        default=math.pi,
    )
    limit = min(0.45 * gap, max(tol, 1e-9)) if len(blocks) > 1 else max(tol, 1e-9)
    seq = []
    for v in values:
        b = _nearest_block(v, blocks, limit)
        if b is None:
            raise NoPath(f"path direction {v:.6f} matches no building block")
        seq.append(b)
    return dna_from_letters(_letters_of(seq), border)
