"""Geometry of regular polygons in the packing frame.

Every routine here works in one fixed frame.  The container is a regular
polygon with ``sigma`` sides whose inscribed circle has radius
``delta + cos(pi/sigma)``; for ``delta = 0`` the circumradius is 1.  The
polygon is oriented so that the point

    P1 = (-sin(pi/sigma), -cos(pi/sigma))

is a vertex, which places one edge horizontally at the bottom, running
from P1 to ``(sin(pi/sigma), -cos(pi/sigma))``.  One table of unit points

    u_m = (sin(m*pi/sigma), -cos(m*pi/sigma)),  m = 0 .. 2*sigma - 1,

holds the whole polygon: odd m are the vertices, vertex i being
``u_(2i-1)`` (so ``u_(-1)`` is P1), and even m are the outward edge
normals, normal i being ``u_(2i)``.  Each point is formed from an angle
in [0, pi] and mirrored in the y axis past it, so the table is exactly
symmetric.  Offsetting by ``delta`` grows the polygon about the origin
without rotating it.

A container is named by one value, ``sigma``: an int side count for the
polygon with ``delta = 0``, or ``CIRCLE`` for the unit circle.
"""

from __future__ import annotations

import functools
import math
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

Point2 = Tuple[float, float]

CIRCLE = "circle"

# a container: a polygon's side count, or CIRCLE for the unit circle
Sigma = Union[int, str]

TWO_PI = 2.0 * math.pi

_S3 = math.sqrt(3.0) / 2.0
# exact unit rotations by multiples of 60 degrees, for bit-stable replication
_ROT6 = ((1.0, 0.0), (0.5, _S3), (-0.5, _S3), (-1.0, 0.0), (-0.5, -_S3), (0.5, -_S3))


def check_sigma(sigma: Sigma) -> None:
    """Refuse, with ValueError, a container other than an int side count >= 3 or CIRCLE.

    A bool, a float and a numpy integer are refused even where they equal
    an admissible side count.
    """
    if sigma == CIRCLE:
        return
    if isinstance(sigma, bool) or not isinstance(sigma, int) or sigma < 3:
        raise ValueError(f"sigma must be an integer >= 3 or {CIRCLE!r}, got {sigma!r}")


def vertex_angle(sigma: int) -> float:
    """Polar angle of the fundamental vertex P1."""
    return 1.5 * math.pi - math.pi / sigma


def apothem(sigma: int, delta: float = 0.0) -> float:
    """Distance from the origin to each edge."""
    return delta + math.cos(math.pi / sigma)


def circumradius(sigma: int, delta: float = 0.0) -> float:
    """Distance from the origin to each vertex."""
    return apothem(sigma, delta) / math.cos(math.pi / sigma)


def polygon_area(sigma: int, delta: float = 0.0) -> float:
    """Area enclosed by the polygon."""
    h = apothem(sigma, delta)
    return sigma * h * h * math.tan(math.pi / sigma)


def packing_fraction(sigma: Sigma, n: int, d: float) -> float:
    """Share of the container that ``n`` disks of diameter ``d`` cover.

    The centers lie in the polygon of circumradius 1 (the unit circle for
    CIRCLE), so the disks fill that domain offset by one radius ``d / 2``.
    """
    r = 0.5 * d
    if sigma == CIRCLE:
        return n * r * r / (1.0 + r) ** 2
    return n * math.pi * r * r / polygon_area(sigma, r)


def interior_point(t: float, u: float, sigma: Sigma) -> Point2:
    """Chart mapping ``(t, u)`` onto the closed polygon (unit disk for CIRCLE).

    The point lies at polar angle ``u``, at ``sin(t)**2`` times the
    distance from the origin to the boundary along that ray, so any real
    pair lands inside; used for random starts.  That distance has period
    ``2*pi/sigma``: the circumradius at vertex angles and the apothem
    halfway between them.
    """
    s = math.sin(t) ** 2
    r = 1.0
    if sigma != CIRCLE:
        w = math.fmod(u - vertex_angle(sigma), TWO_PI / sigma)
        if w < 0.0:
            w += TWO_PI / sigma
        r = apothem(sigma) / math.cos(math.pi / sigma - w)
    return (s * (r * math.cos(u)), s * (r * math.sin(u)))


def polygon_vertices(sigma: int, delta: float = 0.0) -> List[Point2]:
    """All ``sigma`` vertices, counterclockwise from P1."""
    r = circumradius(sigma, delta)
    return [(r * x, r * y) for x, y in _frame(sigma).vertices.tolist()]


class _Frame(NamedTuple):
    """Read-only constants of one polygon, arrays indexed by edge."""

    units: Tuple[Point2, ...]  # u_0 .. u_(2 sigma - 1) of the module docstring, Python floats
    normals: np.ndarray  # (2, sigma): outward edge normals, x over y, counterclockwise
    vertices: np.ndarray  # (sigma, 2), counterclockwise from P1
    edges: np.ndarray  # (sigma, 2): vertex i + 1 minus vertex i
    edge_len2: np.ndarray  # (sigma,): squared edge lengths
    apothem: float


@functools.lru_cache(maxsize=128)
def _frame(sigma: int) -> _Frame:
    half = [(math.sin(a), -math.cos(a)) for a in (math.pi * m / sigma for m in range(sigma))]
    # the angle pi is where the mirror folds: its sine rounds to 1.2e-16, the point lies on the axis
    units = tuple(half + [(0.0, 1.0)] + [(-x, y) for x, y in reversed(half[1:])])
    normals = np.array(units[0::2]).T
    verts = np.array([units[2 * i - 1] for i in range(sigma)])
    edges = np.roll(verts, -1, axis=0) - verts
    edge_len2 = edges[:, 0] * edges[:, 0] + edges[:, 1] * edges[:, 1]
    for arr in (normals, verts, edges, edge_len2):
        arr.setflags(write=False)
    return _Frame(units, normals, verts, edges, edge_len2, apothem(sigma))


def outside_by(sigma: Sigma, points: np.ndarray) -> np.ndarray:
    """Per point, how far it lies outside the polygon (unit circle for CIRCLE).

    For a polygon this is the worst edge excess ``n . x - apothem`` over
    the outward edge normals ``n``; for the circle it is ``|x| - 1``.
    Points inside get a value <= 0.
    """
    if sigma == CIRCLE:
        return np.hypot(points[:, 0], points[:, 1]) - 1.0
    frame = _frame(sigma)
    return (points @ frame.normals).max(axis=1) - frame.apothem


def project_into(sigma: Sigma, points: np.ndarray) -> np.ndarray:
    """Nearest boundary points of the polygon (unit circle for CIRCLE) to the rows of ``points``.

    Takes an ``(m, 2)`` array and returns a new ``(m, 2)`` array.  Every
    row moves, so callers pass only the rows that ``outside_by`` puts
    outside.  The circle scales each row by ``1 / |x|``.  A polygon row
    goes to the nearest point of the nearest edge segment (the first
    edge on a tie), with the same floating-point operations as a scalar
    scan over the edges, so results match it to the last bit.
    """
    p = np.asarray(points, dtype=float)
    if sigma == CIRCLE:
        return p * (1.0 / np.hypot(p[:, 0], p[:, 1]))[:, None]
    frame = _frame(sigma)
    p = p[:, None, :]
    # per point and edge a + t e, t the clipped parameter of the foot of p on the edge's line
    w = (p - frame.vertices) * frame.edges
    t = np.minimum(1.0, np.maximum(0.0, (w[..., 0] + w[..., 1]) / frame.edge_len2))
    q = frame.vertices + t[..., None] * frame.edges
    # libm pow, like a scalar ``** 2``: ``x * x`` rounds differently in rare cases
    d2 = np.float_power(p - q, 2.0)
    best = (d2[..., 0] + d2[..., 1]).argmin(axis=1)
    return q[np.arange(len(best)), best]


def sixfold(points: Sequence[Point2]) -> List[Point2]:
    """``points`` under the six exact rotations by multiples of 60 degrees.

    Rotation-major: all points rotated by 0, then all by 60 degrees, and
    so on.  The rotation table is exact to the last bit, so a replicated
    ring is the same wherever it is built.
    """
    return [(c * x - s * y, s * x + c * y) for c, s in _ROT6 for x, y in points]


def dist(p: Point2, q: Point2) -> float:
    """Euclidean distance."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _span_overflows(x0: float, y0: float, x1: float, y1: float) -> bool:
    """Whether finite coordinates ``x0 <= x1`` and ``y0 <= y1`` lie further apart than the largest float."""
    return max(x1 - x0, y1 - y0) == math.inf and max(0.5 * x1 - 0.5 * x0, 0.5 * y1 - 0.5 * y0) < math.inf


def _near_pairs(points: np.ndarray, reach: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of distinct rows at most ``reach`` apart, found by a cell list.

    Returns ``(i, j, gap)``, each pair once and in no set order, where
    ``gap`` is the ``hypot`` distance, which alone decides ``gap <= reach``.

    The rows are sorted by the id ``cx * ny + cy`` of a square cell of
    side at least ``reach``, so a pair within reach shares a cell or
    lies in two adjacent ones, and each row's candidates are a few runs
    of consecutive ids, all bounded by one ``searchsorted`` (Allen &
    Tildesley, *Computer Simulation of Liquids*, ch. 5).  The side is a
    little above ``reach``, so rounding in the ids loses no pair, and at
    least 2**-30 of the points' span, so the ids fit in int64; a larger
    cell only adds candidates.  Where coordinates differ by more than the
    largest float, the scan runs on the halved points, which is exact,
    and the gaps are doubled.
    """
    x, y = points.T.copy()
    x0, y0, x1, y1 = float(x.min()), float(y.min()), float(x.max()), float(y.max())
    if _span_overflows(x0, y0, x1, y1):
        i, j, gap = _near_pairs(0.5 * points, 0.5 * reach)
        with np.errstate(over="ignore"):
            return i, j, 2.0 * gap
    side = max(reach, max(x1 - x0, y1 - y0) * 2.0**-30) * (1.0 + 1e-6) or 1.0
    cx = ((x - x0) / side).astype(np.int64)
    cy = ((y - y0) / side).astype(np.int64)
    # a free row above the top one, so that cy + 1 never reaches the next column
    ny = int(cy.max()) + 2
    ids = cx * ny + cy
    order = ids.argsort()
    ids = ids[order]
    # later rows of the own cell and the cell above it, then the three cells of the next column
    ends = np.searchsorted(ids, ids + np.array([[2], [ny - 1], [ny + 2]]))
    start = np.concatenate((np.arange(1, len(ids) + 1), ends[1]))
    stop = np.concatenate((ends[0], ends[2]))
    count = stop - start
    i = np.repeat(np.concatenate((order, order)), count)
    j = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(len(i))]
    gap = np.hypot(x[j] - x[i], y[j] - y[i])
    keep = np.flatnonzero(gap <= reach)
    return i[keep], j[keep], gap[keep]


def min_distance(centers: np.ndarray) -> float:
    """Minimum pairwise ``hypot`` distance of at least two points.

    The scan's reach starts at Oler's bound: n points at mutual distance
    at least r inside a w x h box obey n <= 2wh/(sqrt(3) r^2) + (w+h)/r + 1,
    so no minimum exceeds the root r of that equality.  Rounding can put
    the computed root just under a minimum that equals it, so the reach
    doubles while no pair lies within it; past w + h every pair does.
    Every pair within the reach is found, so the minimum is exact.  A nan
    coordinate gives nan, and a minimum past the largest float gives inf.
    """
    (x0, y0), (x1, y1) = centers.min(axis=0).tolist(), centers.max(axis=0).tolist()
    if _span_overflows(x0, y0, x1, y1):
        return 2.0 * min_distance(0.5 * centers)
    n = len(centers)
    w, h = x1 - x0, y1 - y0
    # products, not ** 2, so that a wide span gives inf rather than OverflowError,
    # and w * h first, so that a zero side gives 0 rather than inf * 0
    reach = (w + h + math.sqrt((w + h) * (w + h) + 8.0 / math.sqrt(3.0) * (n - 1) * (w * h))) / (2 * (n - 1))
    gap = _near_pairs(centers, reach)[2]
    while not len(gap) and reach < w + h:
        reach = 2.0 * reach or w + h
        gap = _near_pairs(centers, reach)[2]
    return float(gap.min()) if len(gap) else math.nan


def contact_pairs(centers: np.ndarray, d: float, tol: float) -> np.ndarray:
    """Index pairs ``(i, j)``, ``i < j``, with ``d(1-tol) <= |c_i - c_j| <= d(1+tol)``.

    Returns an ``(m, 2)`` ``np.intp`` array whose rows are sorted
    lexicographically; ``(0, 2)`` when no pair qualifies.  The distance
    is ``hypot``'s, and one cell-list scan at reach ``d(1+tol)`` finds
    every pair that can pass.
    """
    i, j, gap = _near_pairs(centers, d * (1.0 + tol))
    keep = gap >= d * (1.0 - tol)
    lo, hi = np.minimum(i[keep], j[keep]), np.maximum(i[keep], j[keep])
    order = (lo * len(centers) + hi).argsort()
    return np.stack((lo[order], hi[order]), axis=1)
