"""Reference pair scans for the cell list of ``chp_pack.geometry._near_pairs``.

Every reference decides a distance by ``np.hypot``, as the library does.
The dense ones look at all pairs; the k-d tree ones take their candidates
from scipy's ``cKDTree`` and decide them the same way.  ``min_sum_residual``
is the optimal assignment that a matching residual is checked against.
``point_sets`` draws the inputs that are hard for a cell list.
"""

import math

import numpy as np
from hypothesis import strategies as st


def _gaps(a, b):
    """``gap[i, j] = hypot(b[j] - a[i])`` over every pair."""
    return np.hypot(b[None, :, 0] - a[:, None, 0], b[None, :, 1] - a[:, None, 1])


def dense_pairs(points, d, tol):
    """``contact_pairs`` over all pairs."""
    gap = _gaps(points, points)
    return np.argwhere(np.triu((gap >= d * (1.0 - tol)) & (gap <= d * (1.0 + tol)), 1))


def tree_pairs(points, d, tol):
    """``contact_pairs`` from k-d tree candidates a little past ``d(1+tol)``.

    The tree's squared-distance test rounds differently from ``hypot``, so
    its radius is widened and ``hypot`` decides.
    """
    from scipy.spatial import cKDTree

    lo, hi = d * (1.0 - tol), d * (1.0 + tol)
    pairs = cKDTree(points).query_pairs(hi * (1.0 + 1e-12), output_type="ndarray").reshape(-1, 2)
    gap = np.hypot(*(points[pairs[:, 0]] - points[pairs[:, 1]]).T)
    pairs = pairs[(gap >= lo) & (gap <= hi)]
    return pairs[np.argsort(pairs[:, 0] * len(points) + pairs[:, 1])].astype(np.intp)


PAIR_ORACLES = {"dense": dense_pairs, "tree": tree_pairs}


def dense_min(points):
    """``min_distance`` over all pairs."""
    gap = _gaps(points, points)
    gap[np.arange(len(points)), np.arange(len(points))] = np.inf
    return float(gap.min())


def nearest_dense(a, b):
    """Each row's nearest distance and target in ``b``, least index on ties."""
    cost = _gaps(a, b)
    idx = cost.argmin(axis=1)
    return cost[np.arange(len(a)), idx], idx


def _nearest_tree(a, b):
    from scipy.spatial import cKDTree

    dist, idx = cKDTree(b).query(a)
    return np.hypot(b[idx, 0] - a[:, 0], b[idx, 1] - a[:, 1]), idx


def _matching(nearest):
    def match(a, b, tol):
        """``_matching_residual`` from each row's nearest target; a shared one gives None."""
        if len(a) != len(b):
            return None
        if len(a) == 0:
            return 0.0
        dist, idx = nearest(a, b)
        if dist.max() > tol or len(np.unique(idx)) < len(b):
            return None
        return float(dist.max())

    return match


MATCHING_ORACLES = {"dense": _matching(nearest_dense), "tree": _matching(_nearest_tree)}


def min_sum_residual(a, b, tol):
    """Max distance of the min-sum bijection a -> b (scipy's ``linear_sum_assignment``), or None past tol."""
    from scipy.optimize import linear_sum_assignment

    if len(a) == 0:
        return 0.0
    cost = _gaps(a, b)
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    return worst if worst <= tol else None


@st.composite
def point_sets(draw):
    """Point sets that stress a cell list, with a spacing ``step`` they are built on."""
    kind = draw(st.sampled_from(["uniform", "lattice", "coincident", "line", "outlier", "two"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 if kind == "two" else draw(st.integers(2, 60))
    step = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0, 1.0, 7.0]))
    if kind == "uniform":
        pts = rng.uniform(-2.0, 2.0, (n, 2)) * step
    elif kind == "lattice":
        # rows exactly a step apart, so gaps equal the reach and ids sit on cell edges
        pts = rng.integers(-4, 5, (n, 2)) * step
    elif kind == "coincident":
        base = rng.uniform(-1.0, 1.0, (max(1, n // 3), 2)) * step
        pts = base[rng.integers(0, len(base), n)]
    elif kind == "line":
        # a box of height (or width) zero
        along = rng.integers(-6, 7, n) * step if rng.random() < 0.5 else rng.uniform(-3.0, 3.0, n) * step
        pts = np.column_stack((along, np.full(n, rng.uniform(-1.0, 1.0))))
        pts = pts[:, ::-1].copy() if rng.random() < 0.5 else pts
    elif kind == "outlier":
        # a tight cluster and one point far away: the box says little about the gaps
        pts = rng.uniform(-1e-3, 1e-3, (n, 2)) * step
        pts[-1] = (40.0 * step, -25.0 * step)
    else:
        u = rng.uniform(0.0, 2.0 * math.pi)
        gap = step * draw(st.sampled_from([0.0, 1e-12, 1.0, 1.0 + 1e-6, 1.0 - 1e-9]))
        pts = np.array([[0.3, -0.7], [0.3 + gap * math.cos(u), -0.7 + gap * math.sin(u)]])
    return pts, step
