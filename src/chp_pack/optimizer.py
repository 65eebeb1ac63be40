"""Stochastic packing search: basin hopping on a sequential-LP polish.

``polish``, a sequence of linear programs, raises the minimum distance of
a configuration to a local maximum (Addis, Locatelli & Schoen, INFORMS J.
Comput. 2008).  A hop moves the free centers at random, projects them
back into the container and polishes.  ``algorithm1`` polishes a random
start and hops from the best configuration until several hops in a row
find no rise, which is monotonic basin hopping (Grosso, Jamali, Locatelli
& Schoen, J. Glob. Optim. 2010); ``algorithm2`` is one small hop from a
given configuration, kept only when it improves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .builder import PackingConfiguration
from .chp import solve_border
from .errors import CoincidentPoints, PreconditionViolated
from .geometry import CIRCLE, Sigma
from .validation import packing_radius

_M64 = (1 << 64) - 1
_PERTURB = 0.01  # a shake's largest move of a free center, as a share of the minimum distance
_HOP = 0.3  # algorithm1's largest move of a center along each axis, as a share of the minimum distance
_PATIENCE = 4  # hops in a row without a rise after which algorithm1 stops
_ROUNDING_RISE = 2.0**-50  # a rise of the minimum distance that a search takes for rounding
_POLISH_START = 1e-3  # the polish's first trust radius, as a share of the minimum distance
_POLISH_MAX_LPS = 200
# An LP counts as solved at this mean complementarity and primal residual, and
# _IPM_DUAL_TOL dual residual; its entries are O(1).  The dual residual stops
# falling near 1e-9, and then grows, once the normal matrix's condition passes
# 1e40; only the primal solution is used.
_IPM_TOL = 1e-10
_IPM_DUAL_TOL = 1e-6
_IPM_MAX_ITERS = 60
_BLOCK = 16  # block size of the normal equations' substitution


@dataclass(frozen=True)
class OptimizerParams:
    """A search's seed, the one setting it carries.

    The rest is fixed: a hop of ``algorithm1`` moves each center by at
    most ``_HOP`` = 0.3 of the minimum distance along each axis, and the
    search stops after ``_PATIENCE`` = 4 hops in a row without a rise; a
    shake of ``algorithm2`` moves each free center by at most
    ``_PERTURB`` = 0.01 of it.  The seed is an ``int``, which provenance
    records as one; anything else, a float or a bool among them, is
    refused.
    """

    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, not {self.seed!r}")


def _rng(seed: int, salt: int) -> np.random.Generator:
    key = ((int(salt) & _M64) << 64) | (int(seed) & _M64)
    return np.random.Generator(np.random.Philox(key=key))


def _pinned(n: int, pins: Sequence[int]) -> np.ndarray:
    """Sorted indices of the disks ``pins`` holds fixed; refuses a pin outside 0..n-1."""
    idx = [int(i) for i in pins]
    bad = sorted({i for i in idx if not 0 <= i < n})
    if bad:
        raise PreconditionViolated(f"pinned indices {bad} out of range")
    return np.unique(np.asarray(idx, dtype=np.intp))


def _two_disks(n: int) -> None:
    """Refuse fewer than two disks, which have no pair to measure."""
    if n < 2:
        raise PreconditionViolated("need at least two disks")


def _project_all(centers: np.ndarray, sigma: Sigma, pinned: np.ndarray) -> np.ndarray:
    """``centers`` with the free rows outside the container projected onto its boundary.

    When no free row lies outside, ``centers`` itself comes back; otherwise
    a projected copy.  Pinned rows stay as they are, inside or not.
    """
    bad = geometry.outside_by(sigma, centers) > 0.0
    bad[pinned] = False
    if not bad.any():
        return centers
    out = centers.copy()
    out[bad] = geometry.project_into(sigma, out[bad])
    return out


class Polished(NamedTuple):
    """What ``polish`` returns: the configuration, why it stopped, and its LP and interior-point counts."""

    config: PackingConfiguration
    stop: str  # "converged", "stalled", "singular", "lp cap" or "pinned"
    lps: int
    iterations: int


def _lp_rows(sigma: Sigma, x: np.ndarray, slot: np.ndarray, d: float, delta: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows ``G z <= h`` of one polish LP over ``z = (y, tau)``, each with at most five nonzeros.

    ``slot[i]`` is disk i's place among the free disks, -1 when pinned;
    free disk f moves by ``delta * y[2f:2f+2]``, and the minimum distance
    becomes ``d + delta * tau``.  Returns ``(cols, vals, h)``: row r reads
    ``sum(vals[r] * z[cols[r]]) <= h[r]``, unused slots holding column tau
    and value 0.  A pair row (tau first) bounds the distance from below
    by its linearization, which the norm's convexity makes a lower bound;
    a pair more than 6 delta above d cannot bind while ``|y| <= 1``, so it
    is left out.  A wall row keeps the moved center inside the edge's
    half-plane (the tangent half-plane for the circle) and is needed only
    within 1.5 delta of it.
    """
    tau = 2 * int((slot >= 0).sum())
    i, j, gap = geometry._near_pairs(x, d + 6.0 * delta)
    u = (x[j] - x[i]) / gap[:, None]
    cols = np.full((len(i), 5), tau)
    vals = np.zeros((len(i), 5))
    vals[:, 0] = 1.0
    for end, sign, first in ((slot[i], 1.0, 1), (slot[j], -1.0, 3)):
        free = end >= 0
        cols[free, first] = 2 * end[free]
        cols[free, first + 1] = 2 * end[free] + 1
        vals[free, first : first + 2] = sign * u[free]
    h = (gap - d) / delta

    free = np.flatnonzero(slot >= 0)
    if sigma == CIRCLE:
        r = np.hypot(x[free, 0], x[free, 1])
        f = np.flatnonzero(1.0 - r <= 1.5 * delta)
        normal, room = x[free[f]] / r[f, None], 1.0 - r[f]
    else:
        frame = geometry._frame(sigma)
        room = frame.apothem - x[free] @ frame.normals
        f, e = np.nonzero(room <= 1.5 * delta)
        normal, room = frame.normals[:, e].T, room[f, e]
    wall_cols = np.full((len(f), 5), tau)
    wall_cols[:, 1], wall_cols[:, 2] = 2 * f, 2 * f + 1
    wall_vals = np.zeros((len(f), 5))
    wall_vals[:, 1:3] = normal
    return np.concatenate((cols, wall_cols)), np.concatenate((vals, wall_vals)), np.concatenate((h, room / delta))


def _factor(k: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``k``'s Cholesky factor L, padded by the identity to whole ``_BLOCK``-blocks, and the inverses of its diagonal blocks.

    A numerically singular ``k`` is retried with a growing bump on its
    diagonal; None when that fails too.  The diagonal blocks are inverted
    all at once, a row of each per step, so a solve (``_cho_solve``) takes
    a few matrix-vector products per block and no LAPACK call.
    """
    bump = 0.0
    for _ in range(4):
        try:
            factor = np.linalg.cholesky(k + bump * np.eye(len(k)) if bump else k)
        except np.linalg.LinAlgError:
            factor = None
        if factor is not None and np.isfinite(factor).all():
            break
        bump = 1e3 * bump if bump else 1e-14 * float(k.diagonal().max())
    else:
        return None
    blocks = -(-len(k) // _BLOCK)
    padded = np.eye(blocks * _BLOCK)
    padded[: len(k), : len(k)] = factor
    diagonal = padded.reshape(blocks, _BLOCK, blocks, _BLOCK)[np.arange(blocks), :, np.arange(blocks), :]
    inverse = np.zeros_like(diagonal)
    for i in range(_BLOCK):
        rest = (diagonal[:, i : i + 1, :i] @ inverse[:, :i, :])[:, 0, :]
        rest[:, i] -= 1.0
        inverse[:, i, :] = -rest / diagonal[:, i, i, None]
    return padded, inverse


def _cho_solve(factored: Tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """``x`` with ``L L^T x = b``, from ``_factor``: forward then back substitution by blocks."""
    padded, inverse = factored
    w = np.zeros(len(padded))
    w[: len(b)] = b
    for k in range(len(inverse)):
        lo, hi = k * _BLOCK, (k + 1) * _BLOCK
        w[lo:hi] = inverse[k] @ (w[lo:hi] - padded[lo:hi, :lo] @ w[:lo])
    upper = padded.T
    for k in range(len(inverse) - 1, -1, -1):
        lo, hi = k * _BLOCK, (k + 1) * _BLOCK
        w[lo:hi] = inverse[k].T @ (w[lo:hi] - upper[lo:hi, hi:] @ w[hi:])
    return w[: len(b)]


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """The largest a <= 1 with ``v + a*dv >= 0``."""
    down = dv < 0.0
    return min(1.0, float((-v[down] / dv[down]).min())) if down.any() else 1.0


def _solve_lp(cols: np.ndarray, vals: np.ndarray, h: np.ndarray, n_cols: int) -> Tuple[np.ndarray, int, bool]:
    """Maximize ``z[-1]`` subject to ``G z <= h`` (rows ``(cols, vals)``) and ``|z[:-1]| <= 1``.

    Mehrotra's predictor-corrector on the normal equations ``K dz = rhs``,
    ``K = G^T W G`` plus the box bounds' diagonal, assembled by scatter
    from each row's five nonzeros and factored once per iteration.  The
    slacks and duals of the rows, then of ``y <= 1``, then of ``-y <= 1``,
    are stacked in one vector each.  The box rows start feasible at
    ``y = 0`` and stay so, so every iterate's ``y`` lies inside the box.
    Returns the last iterate, the iteration count, and False when it
    stopped on a normal matrix that ``_factor`` could not factor.  An
    iterate short of the tolerance is still a move inside the box.
    """
    ny = n_cols - 1
    rows = len(h)
    flat = (cols[:, :, None] * n_cols + cols[:, None, :]).ravel()
    outer = (vals[:, :, None] * vals[:, None, :]).reshape(rows, 25)
    ends = cols.ravel()
    b = np.concatenate((h, np.ones(2 * ny)))

    def a(z):
        y = z[:ny]
        return np.concatenate(((vals * z[cols]).sum(axis=1), y, -y))

    def at(v):
        out = np.bincount(ends, (vals * v[:rows, None]).ravel(), minlength=n_cols)
        out[:ny] += v[rows : rows + ny] - v[rows + ny :]
        return out

    z = np.zeros(n_cols)
    z[-1] = float(h[vals[:, 0] != 0.0].min()) - 1.0
    s = np.maximum(b - a(z), 1.0)
    lam = np.ones(len(b))
    for it in range(_IPM_MAX_ITERS):
        rd = at(lam)
        rd[-1] -= 1.0
        rp = a(z) + s - b
        mu = float(s @ lam) / len(b)
        if mu <= _IPM_TOL and float(np.abs(rp).max()) <= _IPM_TOL and float(np.abs(rd).max()) <= _IPM_DUAL_TOL:
            return z, it, True
        w = lam / s
        k = np.bincount(flat, (w[:rows, None] * outer).ravel(), minlength=n_cols * n_cols).reshape(n_cols, n_cols)
        k.reshape(-1)[: ny * (n_cols + 1) : n_cols + 1] += w[rows : rows + ny] + w[rows + ny :]
        # solved as (S K S) (dz / S) = S rhs, S = diag(K)^(-1/2), whose diagonal is 1
        scale = 1.0 / np.sqrt(k.diagonal())
        factored = _factor(k * scale * scale[:, None])
        if factored is None:
            return z, it, False

        def direction(c):
            # c is s*lam minus the complementarity target
            dz = scale * _cho_solve(factored, scale * (-rd - at(w * rp - c / s)))
            ds = -rp - a(dz)
            return dz, ds, -(c + lam * ds) / s

        dz, ds, dl = direction(s * lam)
        ap, ad = _max_step(s, ds), _max_step(lam, dl)
        target = (float((s + ap * ds) @ (lam + ad * dl)) / len(b) / mu) ** 3 * mu
        dz, ds, dl = direction(s * lam + ds * dl - target)
        ap, ad = 0.99 * _max_step(s, ds), 0.99 * _max_step(lam, dl)
        z, s, lam = z + ap * dz, s + ap * ds, lam + ad * dl
    return z, _IPM_MAX_ITERS, True


def polish(config: PackingConfiguration, pins: Sequence[int] = ()) -> Polished:
    """Raise the minimum distance to a local maximum by sequential linear programs.

    Each LP (``_lp_rows``, ``_solve_lp``) maximizes the linearized rise
    ``tau`` over moves of the free disks within a box of half-width
    ``delta``.  A step is kept only when ``geometry.min_distance`` rises;
    then delta becomes 4 times the step's largest coordinate when the
    step lies inside its box, and twice delta when it reaches the box.
    A rejected step halves delta.  The polish stops on a rejected step
    whose predicted rise ``tau * delta`` is at most 1e-12 d ("converged"),
    on a kept rise of at most 4e-16 d ("stalled"), on an LP whose normal
    matrix cannot be factored ("singular"), after ``_POLISH_MAX_LPS``
    LPs ("lp cap"), or at once when every disk is pinned ("pinned").
    Two coincident centers raise ``CoincidentPoints``.  When no step is
    kept, the input comes back as it is.
    """
    _two_disks(len(config.centers))
    sigma = config.sigma
    x = config.centers.copy()
    pinned = _pinned(len(x), pins)
    slot = np.full(len(x), -1)
    free = np.setdiff1d(np.arange(len(x)), pinned, assume_unique=True)
    slot[free] = np.arange(len(free))
    if not len(free):
        return Polished(config, "pinned", 0, 0)
    d = geometry.min_distance(x)
    if d == 0.0:
        raise CoincidentPoints("two centers coincide")
    delta = _POLISH_START * d
    lps = iterations = 0
    moved = False
    stop = "lp cap"
    while lps < _POLISH_MAX_LPS:
        cols, vals, h = _lp_rows(sigma, x, slot, d, delta)
        z, its, factored = _solve_lp(cols, vals, h, 2 * len(free) + 1)
        lps += 1
        iterations += its
        if not factored and its == 0:
            stop = "singular"
            break
        y = z[:-1].reshape(-1, 2)
        trial = x.copy()
        trial[free] += delta * y
        trial = _project_all(trial, sigma, pinned)
        d_trial = geometry.min_distance(trial)
        if d_trial > d:
            rise = d_trial - d
            x, d, moved = trial, d_trial, True
            if rise <= 4e-16 * d:
                stop = "stalled"
                break
            # a coordinate within 0.1% of the box's edge counts as reaching it
            reach = float(np.abs(y).max())
            delta *= 4.0 * reach if reach < 0.999 else 2.0
        elif z[-1] * delta <= 1e-12 * d:
            stop = "converged"
            break
        else:
            delta *= 0.5
    if moved:
        config = PackingConfiguration(sigma=sigma, centers=x, diameter=d, meta=dict(config.meta))
    return Polished(config, stop, lps, iterations)


def _hop(config: PackingConfiguration, pinned: np.ndarray, free: np.ndarray, moves: np.ndarray) -> Polished:
    """``polish`` of ``config`` with ``moves`` added to its ``free`` rows and the rows left outside projected back."""
    x = config.centers.copy()
    x[free] += moves
    x = _project_all(x, config.sigma, pinned)
    moved = PackingConfiguration(sigma=config.sigma, centers=x, diameter=packing_radius(x), meta=dict(config.meta))
    return polish(moved, pinned)


def algorithm1(sigma: Sigma, n: int, params: Optional[OptimizerParams] = None) -> PackingConfiguration:
    """Monotonic basin hopping from a random start; deterministic per seed.

    The start, n points drawn inside the container, is polished.  Each hop
    then moves every center of the best configuration so far by up to
    ``_HOP`` = 0.3 of its minimum distance along each axis and polishes
    (``_hop``); a hop whose minimum distance rises by more than
    ``_ROUNDING_RISE`` becomes the best.  The search stops after
    ``_PATIENCE`` = 4 hops in a row without such a rise, the MaxNoImprove
    rule of Grosso, Jamali, Locatelli & Schoen (J. Glob. Optim. 2010).
    """
    geometry.check_sigma(sigma)
    _two_disks(n)
    params = params or OptimizerParams()
    rng = _rng(params.seed, 0xA1)
    pts = np.empty((n, 2))
    for i in range(n):
        t = rng.uniform(0.0, 0.5 * math.pi)
        u = rng.uniform(0.0, 2.0 * math.pi)
        pts[i] = geometry.interior_point(t, u, sigma)
    start = PackingConfiguration(
        sigma=sigma,
        centers=pts,
        diameter=packing_radius(pts),
        meta={"mode": "algorithm1", "seed": params.seed},
    )
    best = polish(start).config
    pinned, free = _pinned(n, ()), np.arange(n)
    misses = 0
    while misses < _PATIENCE:
        reach = _HOP * best.diameter
        out = _hop(best, pinned, free, rng.uniform(-reach, reach, (n, 2))).config
        if out.diameter > best.diameter + _ROUNDING_RISE:
            best, misses = out, 0
        else:
            misses += 1
    return best


def seed_guided(sigma: Sigma, k: int, theta: float, scale: float) -> Tuple[PackingConfiguration, range]:
    """Exact border and center disks plus a rotated hexagonal interior guess.

    The first 6k+1 disks are at their final positions and come pinned;
    the 3k(k-1) interior disks sit on a hexagonal lattice rotated by
    theta and shrunk by ``scale`` to stay strictly inside the domain.
    """
    border = solve_border(sigma, k)
    d = border.d
    pts = geometry.sixfold(border.chain[:-1])
    pts.append((0.0, 0.0))

    lattice: List[Tuple[float, float]] = []
    ct, st = math.cos(theta), math.sin(theta)
    for a in range(-(k + 2), k + 3):
        for b in range(-(k + 2), k + 3):
            x = d * (a + 0.5 * b)
            y = d * (math.sqrt(3.0) / 2.0) * b
            if math.hypot(x, y) < 0.5 * d:
                continue
            lattice.append((ct * x - st * y, st * x + ct * y))
    lattice.sort(key=lambda p: (math.hypot(p[0], p[1]), math.atan2(p[1], p[0])))
    interior = lattice[: 3 * k * (k - 1)]
    apothem = 1.0 if sigma == CIRCLE else geometry.apothem(sigma)
    r_max = max((math.hypot(*p) for p in interior), default=0.0)
    factor = scale * min(1.0, (apothem - 0.5 * d) / r_max) if r_max > 0.0 else scale
    pts.extend((factor * x, factor * y) for x, y in interior)

    arr = np.asarray(pts, dtype=float)
    config = PackingConfiguration(
        sigma=sigma,
        centers=arr,
        diameter=packing_radius(arr),
        meta={"mode": "seed_guided", "k": k, "theta": theta, "scale": scale},
    )
    return config, range(6 * k + 1)


def algorithm2(
    config: PackingConfiguration,
    params: Optional[OptimizerParams] = None,
    pins: Sequence[int] = (),
    trial: int = 0,
    record: Optional[Callable[[Polished], None]] = None,
) -> PackingConfiguration:
    """One shake trial: one hop from ``config``, kept only if it improves.

    Each free center moves by at most ``_PERTURB`` = 0.01 of the minimum
    distance, by a draw of its own generator keyed by seed, trial and
    index, and the hop polishes (``_hop``); ``record`` sees the hop's
    ``Polished``, kept or not.  An improvement raises the minimum
    distance by more than ``_ROUNDING_RISE`` = 2**-50.  The centers lie in
    a container of circumradius 1, where a coordinate is stored to within
    2**-53, and ``min_distance`` rounds each distance's subtractions and
    ``hypot`` by about as much, so one packing stored and measured twice
    can show minimum distances a few units of 2**-53 apart.  2**-50 is
    eight such units; an exact CHP build and its shaken copy differ by up
    to three.
    """
    _two_disks(config.n_disks)
    params = params or OptimizerParams()
    base = packing_radius(config.centers)
    pinned = _pinned(config.n_disks, pins)
    free = np.setdiff1d(np.arange(config.n_disks), pinned, assume_unique=True)
    moves = np.empty((len(free), 2))
    for move, i in zip(moves, free):
        gen = _rng(params.seed, (trial << 32) | i)
        r = _PERTURB * base * math.sqrt(gen.uniform())
        ang = gen.uniform(0.0, 2.0 * math.pi)
        move[:] = r * math.cos(ang), r * math.sin(ang)
    hop = _hop(config, pinned, free, moves)
    if record is not None:
        record(hop)
    out = hop.config
    if out.diameter > base + _ROUNDING_RISE:
        out.meta.update({"mode": "algorithm2", "trial": trial, "seed": params.seed})
        result = out
    else:
        result = config
    assert packing_radius(result.centers) >= base
    return result
