"""Certification of packings: separation, containment, symmetry, identity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from . import geometry
from .builder import PackingConfiguration
from .geometry import CIRCLE

# Tolerance of separation, containment, contacts and equivalence.
TOL = 1e-9
# Largest symmetry residual reported as a number; past it the residual is inf.
SYMMETRY_TOL = 1e-6


def packing_radius(config: Union[PackingConfiguration, np.ndarray]) -> float:
    """Minimum pairwise center distance."""
    centers = config.centers if isinstance(config, PackingConfiguration) else np.asarray(config, dtype=float)
    if len(centers) < 2:
        raise ValueError("need at least two centers")
    return geometry.min_distance(centers)


def density(config: PackingConfiguration) -> float:
    """Disk area over container area; the container is offset by one radius."""
    return geometry.packing_fraction(config.sigma, config.n_disks, config.diameter)


def _matching_residual(a: np.ndarray, b: np.ndarray, tol: float) -> Optional[float]:
    """Max distance of the nearest-target bijection a -> b, or None.

    One cell-list scan of both sets at reach tol (``geometry._near_pairs``)
    gives each point its targets within tol, and the nearest of them (least
    ``hypot`` distance, then least index).  When every row has one and no
    two rows share it, the nearest targets form a bijection in which
    every row sits at its own minimum, so it is the min-sum assignment
    and its max is returned.  A row with no target within tol rules out
    every bijection: None.  Two rows that share a nearest target lie
    within 2·tol of each other, which a packing of diameter above 2·tol
    does only where it overlaps: None as well.
    """
    n = len(a)
    if len(b) != n:
        return None
    if n == 0:
        return 0.0
    # the pairs of the union with one row from each set, as (row of a, row of b)
    i, j, gap = geometry._near_pairs(np.concatenate((a, b)), tol)
    i, j = np.minimum(i, j), np.maximum(i, j)
    cross = (i < n) & (j >= n)
    i, j, gap = i[cross], j[cross] - n, gap[cross]
    order = np.lexsort((j, gap, i))
    rows, first = np.unique(i[order], return_index=True)
    if len(rows) < n:
        return None
    nearest = order[first]
    if len(np.unique(j[nearest])) < n:
        return None
    return float(gap[nearest].max())


def symmetry_residual(config: PackingConfiguration) -> float:
    """Max nearest-target distance from the pi/3 rotation of the centers to the centers.

    inf when some rotated center has no center within SYMMETRY_TOL, or two
    rotated centers share their nearest one (see ``_matching_residual``).
    """
    c, s = geometry._ROT6[1]
    rot = config.centers @ np.array([[c, s], [-s, c]])
    res = _matching_residual(rot, config.centers, SYMMETRY_TOL)
    return math.inf if res is None else res


def equivalent(a: PackingConfiguration, b: PackingConfiguration) -> bool:
    """Whether some polygon symmetry (rotation or reflection) maps a onto b.

    An image matches when each of its centers has its own nearest center of
    b within TOL (``_matching_residual``); two centers of a within 2·TOL of
    each other therefore match nothing.
    """
    if a.n_disks != b.n_disks or a.sigma != b.sigma:
        return False
    if a.sigma == CIRCLE:
        raise ValueError("equivalence over the circle's continuous symmetries is not supported")
    # the polygon's symmetries: the rotations by 2 pi i / sigma, each alone
    # and after the mirror in the y axis; rotation i carries normal 0 = (0, -1)
    # to normal i, so its cosine and sine are that normal's -y and x
    normals = geometry._frame(a.sigma).normals
    for base in (a.centers, a.centers * np.array([-1.0, 1.0])):
        for s, c in zip(normals[0], -normals[1]):
            cand = base @ np.array([[c, s], [-s, c]])
            if _matching_residual(cand, b.centers, TOL) is not None:
                return True
    return False


def _histogram(ends: np.ndarray, n: int) -> Dict[int, int]:
    """Contact-count histogram of ``n`` disks from the contact pairs' ends, in any order."""
    contacts, disks = np.unique(np.bincount(ends, minlength=n), return_counts=True)
    return dict(zip(contacts.tolist(), disks.tolist()))


@dataclass(frozen=True)
class ValidationReport:
    """Certification summary of one configuration."""

    min_distance: Optional[float]
    worst_containment_violation: float
    density: float
    is_valid: bool
    symmetry_residual: float
    contact_count_histogram: Dict[int, int]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "min_distance": self.min_distance if self.min_distance is not None and math.isfinite(self.min_distance) else None,
            "worst_containment_violation": self.worst_containment_violation,
            "density": self.density,
            "is_valid": self.is_valid,
            "symmetry_residual": self.symmetry_residual if math.isfinite(self.symmetry_residual) else None,
            "contact_count_histogram": {str(k): v for k, v in self.contact_count_histogram.items()},
        }


def validate_config(config: PackingConfiguration) -> ValidationReport:
    """Assemble the full certification report for ``config``.

    With fewer than two disks there is no pair to separate: ``min_distance``
    is None and validity rests on containment alone.  One pair scan at
    reach d(1 + TOL) serves both the contacts and, whenever it finds a
    pair, the minimum distance.
    """
    d = config.diameter
    i, j, gap = geometry._near_pairs(config.centers, d * (1.0 + TOL))
    if config.n_disks < 2:
        min_dist = None
    else:
        min_dist = float(gap.min()) if len(gap) else packing_radius(config)
    violation = float(max(0.0, geometry.outside_by(config.sigma, config.centers).max()))
    valid = (min_dist is None or min_dist >= d * (1.0 - TOL)) and violation <= TOL
    touching = gap >= d * (1.0 - TOL)
    return ValidationReport(
        min_distance=min_dist,
        worst_containment_violation=violation,
        density=density(config),
        is_valid=valid,
        symmetry_residual=symmetry_residual(config),
        contact_count_histogram=_histogram(np.concatenate((i[touching], j[touching])), config.n_disks),
    )
