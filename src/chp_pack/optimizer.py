"""Stochastic packing search with a hardening pair potential.

Disks repel through (lambda/r^2)^s; raising s along a ladder turns the
soft repulsion into an effectively hard-disk constraint.  Minimization
is projected gradient descent working on the log of the energy, which
has the same minimizers and stays finite at any s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .builder import PackingConfiguration
from .chp import solve_border
from .errors import CoincidentPoints, NonFinite, PreconditionViolated
from .geometry import CIRCLE, Sigma
from .validation import packing_radius

_M64 = (1 << 64) - 1
_S_FACTOR = 1.5  # ratio of consecutive rungs of the s ladder
_INNER_TOL = 1e-12  # relative gradient and f-change at which minimize stops
# exp rounds to exactly +0.0 at and below this; exp(-745.14) is the least subnormal
_EXP_ZERO = -746.0
# A line-search step x - a*g moves a free center by at most sqrt(2)*a*|g|_inf
# exactly, and 2*a*|g|_inf covers that with the relative rounding of a*g and
# of the reach itself.  What is left is absolute: every free center of a
# skipped trial lies inside a container of circumradius 1, where the
# subtraction x - a*g, outside_by (a two-term dot product or a hypot, then a
# subtraction) and room - reach each round by an ulp or two of 1, under 1e-15
# in all.  This margin covers those errors a thousand times over in every
# step, so they cannot add up along a run of skipped trials.
_ROOM_MARGIN = 1e-12


@dataclass(frozen=True)
class OptimizerParams:
    """Schedule, inner iteration cap, shake amplitude and seed of the energy ladder."""

    s_initial: float = 10.0
    s_final: float = 1e8
    max_inner_iters: int = 5000
    perturb_amplitude: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.s_initial:
            raise ValueError("s_initial must be positive")
        if not self.s_initial < self.s_final:
            raise ValueError("s_initial must be below s_final")
        if self.s_final > 1e9:
            raise ValueError("s_final capped at 1e9")
        if not 0.0 <= self.perturb_amplitude < 0.5:
            raise ValueError("perturb_amplitude must lie in [0, 0.5)")


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
    """Refuse fewer than two disks, which have no pair to measure or repel."""
    if n < 2:
        raise PreconditionViolated("need at least two disks")


def _workspace(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The buffers one evaluation of n centers fills.

    Offsets (2, n, n), then r^2, log-terms and a mask (n, n), then a view
    of r^2's diagonal.
    """
    r2 = np.empty((n, n))
    return np.empty((2, n, n)), r2, np.empty((n, n)), np.empty((n, n), dtype=bool), r2.reshape(-1)[:: n + 1]


def _evaluate(centers: np.ndarray, s: float, lam: float, work=None):
    """log-energy, and the ``(w, total, r2, offsets)`` its gradient is built from.

    The log-terms are s*(log lam - log r^2) over ordered pairs, -inf on
    the diagonal; ``offsets[:, i, j]`` is ``c_j - c_i``.  All of them are
    written into ``work``, a ``_workspace(len(centers))``, or into fresh
    buffers without one, and stay valid until its next evaluation.
    Rounding is monotone, so the largest log-term is the one at the
    smallest log r^2, and -inf there means two centers coincide.
    """
    n = len(centers)
    offsets, r2, terms, live, diagonal = work if work is not None else _workspace(n)
    ct = centers.T.copy()
    # copy, then subtract in place: a fifth faster above ~40 centers than one broadcast subtract
    offsets[...] = ct[:, None, :]
    offsets -= ct[:, :, None]
    np.multiply(offsets[0], offsets[0], out=r2)
    r2 += np.multiply(offsets[1], offsets[1], out=terms)
    diagonal[...] = np.inf
    with np.errstate(divide="ignore"):
        np.log(r2, out=terms)
    low = float(terms.min())
    if low == -math.inf:
        raise CoincidentPoints("two centers coincide")
    log_lam = math.log(lam)
    np.subtract(log_lam, terms, out=terms)
    terms *= s
    m = s * (log_lam - low)
    terms -= m
    # numpy's exp takes 4-15 ns an entry at or below _EXP_ZERO, where it
    # is +0.0, against 1 ns above (numpy 2.4 on an AVX-512 x86-64 core).
    # Once those entries are the majority, as they are for most pairs at
    # large s, exp runs only on the others (its masked loop costs a call
    # per run of them), and the maximum turns the log-terms it skipped, all
    # negative, into that +0.0.
    np.greater(terms, _EXP_ZERO, out=live)
    if 2 * np.count_nonzero(live) < n * n:
        w = np.exp(terms, out=terms, where=live)
        np.maximum(w, 0.0, out=w)
    else:
        w = np.exp(terms, out=terms)
    total = 0.5 * float(w.sum())
    return m + math.log(total), (w, total, r2, offsets)


def _gradient(state, s: float, pinned: np.ndarray) -> np.ndarray:
    """Gradient of the log-energy from ``_evaluate``'s state; the ``pinned`` rows are zero.

    Consumes ``state``: its pair arrays are overwritten in place.  Row i
    is coef[i, j] (x_i - x_j) summed over j in sequence onto +0.0, the
    order of ``einsum("ij,ijk->ik")`` on an (n, n, 2) difference tensor,
    the reference formula the tests keep; holding to it keeps optimizer
    trajectories bit-identical to that formula.  coef is exactly symmetric
    and ``offsets[:, j, i] = c_i - c_j``, so each row is a column sum of
    coef * offsets.
    """
    w, total, r2, offsets = state
    coef = w
    coef /= total
    coef *= -2.0 * s
    coef /= r2
    offsets *= coef
    # a contiguous (2, n) sum, then transposed: summing into ``out=grad.T``
    # keeps the order but takes twice as long
    grad = offsets.sum(axis=1, initial=0.0).T.copy()
    if len(pinned):
        grad[pinned] = 0.0
    return grad


def _objective(centers: np.ndarray, s: float, lam: float, pinned: np.ndarray, work=None):
    """log-energy and its gradient restricted to unpinned disks."""
    value, state = _evaluate(centers, s, lam, work)
    return value, _gradient(state, s, pinned)


def _excess(sigma: Sigma, centers: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """``outside_by`` of every center, and -inf on the ``pinned`` rows, which never move."""
    excess = geometry.outside_by(sigma, centers)
    if len(pinned):
        excess[pinned] = -math.inf
    return excess


def _room(excess: np.ndarray) -> float:
    """How far inside the container every center lies, from ``_excess``; negative if some lies outside."""
    return -float(excess.max())


def _project_all(centers: np.ndarray, sigma: Sigma, pinned: np.ndarray) -> Tuple[np.ndarray, float]:
    """``centers`` with the free rows outside the container projected onto its boundary, and their room.

    When no free row lies outside, ``centers`` itself comes back, with the
    room ``_room`` reads from this test; otherwise a projected copy comes
    back, with room -inf.  Pinned rows stay as they are, inside or not.
    """
    excess = _excess(sigma, centers, pinned)
    bad = excess > 0.0
    if not bad.any():
        return centers, _room(excess)
    out = centers.copy()
    out[bad] = geometry.project_into(sigma, out[bad])
    return out, -math.inf


def _step(
    x: np.ndarray, a: float, g: np.ndarray, gnorm: float, room: float, sigma: Sigma, pinned: np.ndarray
) -> Tuple[np.ndarray, float]:
    """The line-search trial ``x - a*g`` kept in the container, and its room.

    ``room`` is a lower bound on how far inside the container every free
    row of ``x`` lies, and ``gnorm`` is ``g``'s largest magnitude.  No free
    row moves further than the reach ``2*a*gnorm + _ROOM_MARGIN``; when
    that is below ``room``, ``_project_all`` could only return the trial
    as it is, so the test is skipped and the trial's room is
    ``room - reach``.
    """
    trial = x - a * g
    reach = 2.0 * a * gnorm + _ROOM_MARGIN
    if reach < room:
        return trial, room - reach
    return _project_all(trial, sigma, pinned)


def minimize(
    config: PackingConfiguration,
    s: float,
    lam: float,
    pins: Sequence[int] = (),
    params: Optional[OptimizerParams] = None,
) -> PackingConfiguration:
    """Projected gradient descent on the log energy at fixed (s, lambda).

    Every evaluation of the call, the start's and each line-search
    trial's, fills one pair workspace; the accepted trial's gradient is
    built from that trial's buffers before the next trial overwrites them.
    A trial tests containment only when its step could reach the
    container's boundary from the room the last test measured (``_step``).
    """
    _two_disks(len(config.centers))
    params = params or OptimizerParams()
    x = config.centers.copy()
    pinned = _pinned(len(x), pins)
    work = _workspace(len(x))

    sigma = config.sigma
    f, g = _objective(x, s, lam, pinned, work)
    if not math.isfinite(f):
        raise NonFinite(f"objective is {f} at the starting point")
    room = _room(_excess(sigma, x, pinned))
    alpha = 0.05 * math.sqrt(lam) / max(float(np.abs(g).max()), 1e-300)
    prev_x: Optional[np.ndarray] = None
    prev_g: Optional[np.ndarray] = None

    for _ in range(params.max_inner_iters):
        gnorm = float(np.abs(g).max())
        if gnorm <= _INNER_TOL * max(1.0, abs(f)):
            break
        if prev_x is not None:
            dx = (x - prev_x).ravel()
            dg = (g - prev_g).ravel()
            dgg = float(dg @ dg)
            step = float(dx @ dg) / dgg if dgg > 0.0 else 0.0
            if step > 0.0:
                alpha = min(max(step, 1e-18), 1e18)
        accepted = False
        a = alpha
        for _ in range(70):
            trial, trial_room = _step(x, a, g, gnorm, room, sigma, pinned)
            move = trial - x
            move_norm2 = float((move * move).sum())
            if move_norm2 == 0.0:
                break
            f_trial, state = _evaluate(trial, s, lam, work)
            if math.isnan(f_trial):
                raise NonFinite("objective became NaN during line search")
            if f_trial <= f - 1e-4 / max(a, 1e-300) * move_norm2:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            break
        prev_x, prev_g, prev_f = x, g, f
        x, f, room = trial, f_trial, trial_room
        g = _gradient(state, s, pinned)
        if abs(prev_f - f) <= _INNER_TOL * max(1.0, abs(prev_f)):
            break
        alpha = a

    out = PackingConfiguration(
        sigma=sigma,
        centers=x,
        diameter=packing_radius(x),
        meta=dict(config.meta),
    )
    return out


def _rungs(params: OptimizerParams) -> List[float]:
    out = []
    s = params.s_initial
    while s < params.s_final:
        out.append(s)
        s *= _S_FACTOR
    out.append(params.s_final)
    return out


def ladder(
    config: PackingConfiguration,
    pins: Sequence[int] = (),
    params: Optional[OptimizerParams] = None,
    record: Optional[Callable[[int, float, PackingConfiguration], None]] = None,
) -> PackingConfiguration:
    """Run minimize along the whole s schedule, re-deriving lambda per rung.

    lambda is the squared minimum distance of the rung's start: measured
    on ``config``, then the ``diameter`` the rung before measured.
    """
    _two_disks(len(config.centers))
    params = params or OptimizerParams()
    current = config
    d = packing_radius(config.centers)
    for rung, s in enumerate(_rungs(params)):
        current = minimize(current, s, d ** 2, pins, params)
        d = current.diameter
        if record is not None:
            record(rung, s, current)
    return current


def algorithm1(sigma: Sigma, n: int, params: Optional[OptimizerParams] = None) -> PackingConfiguration:
    """Energy-ladder packing from a random start; deterministic per seed."""
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
    out = ladder(start, params=params)
    out.meta = dict(start.meta)
    return out


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
    record: Optional[Callable[[int, float, PackingConfiguration], None]] = None,
) -> PackingConfiguration:
    """One shake trial: perturb, re-run the ladder, keep only improvements."""
    _two_disks(config.n_disks)
    params = params or OptimizerParams()
    base = packing_radius(config.centers)
    x = config.centers.copy()
    pinned = _pinned(len(x), pins)
    for i in np.setdiff1d(np.arange(len(x)), pinned, assume_unique=True):
        gen = _rng(params.seed, (trial << 32) | i)
        r = params.perturb_amplitude * base * math.sqrt(gen.uniform())
        ang = gen.uniform(0.0, 2.0 * math.pi)
        x[i, 0] += r * math.cos(ang)
        x[i, 1] += r * math.sin(ang)
    x = _project_all(x, config.sigma, pinned)[0]
    shaken = PackingConfiguration(sigma=config.sigma, centers=x, diameter=0.0, meta=dict(config.meta))
    out = ladder(shaken, pins, params, record)
    if out.diameter > base:
        out.meta = dict(config.meta)
        out.meta.update({"mode": "algorithm2", "trial": trial, "seed": params.seed})
        result = out
    else:
        result = config
    assert packing_radius(result.centers) >= base
    return result
