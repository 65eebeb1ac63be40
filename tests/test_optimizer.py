import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chp_pack import build_chp, chp_density, optimizer, solve_border
from chp_pack.builder import PackingConfiguration
from chp_pack.configio import dumps_config, loads_config
from chp_pack.errors import CoincidentPoints, PreconditionViolated
from chp_pack.geometry import CIRCLE, interior_point, outside_by, vertex_angle
from chp_pack.optimizer import (
    OptimizerParams,
    _evaluate,
    _objective,
    _pinned,
    algorithm1,
    algorithm2,
    ladder,
    minimize,
    polish,
    seed_guided,
)
from chp_pack.validation import density, packing_radius, symmetry_residual, validate_config


def random_instance(rng, n=10):
    pts = rng.uniform(-0.6, 0.6, (n, 2))
    return PackingConfiguration(sigma=12, centers=pts, diameter=0.1, meta={})


def log_energy(centers, s, lam):
    return _evaluate(centers, s, lam)[0]


def gradient(centers, s, lam, pins=()):
    return _objective(centers, s, lam, _pinned(len(centers), pins))[1]


def finite_difference(centers, s, lam, i, c, h):
    p = centers.copy()
    p[i, c] += h
    m = centers.copy()
    m[i, c] -= h
    return (log_energy(p, s, lam) - log_energy(m, s, lam)) / (2 * h)


@pytest.mark.parametrize("s", [2.0, 10.0, 100.0])
def test_gradient_matches_finite_differences(s):
    # minimize follows the log-energy and _objective's gradient of it
    rng = np.random.default_rng(11)
    for _ in range(10):
        cfg = random_instance(rng)
        lam = packing_radius(cfg.centers) ** 2
        g = gradient(cfg.centers, s, lam)
        h = 3e-7 * packing_radius(cfg.centers)
        scale = float(np.abs(g).max())
        for i in (0, 4, 9):
            for c in (0, 1):
                fd = finite_difference(cfg.centers, s, lam, i, c, h)
                # error relative to the gradient scale, since tiny
                # components drown in finite-difference noise
                assert abs(g[i, c] - fd) <= 1e-5 * max(scale, abs(fd))


def test_energy_translation_invariant():
    rng = np.random.default_rng(5)
    cfg = random_instance(rng)
    lam = 0.02
    e0 = log_energy(cfg.centers, 4.0, lam)
    g0 = gradient(cfg.centers, 4.0, lam)
    shifted = cfg.centers + np.array([0.123, -0.456])
    assert log_energy(shifted, 4.0, lam) == pytest.approx(e0, rel=1e-12)
    assert np.allclose(gradient(shifted, 4.0, lam), g0, rtol=1e-9, atol=1e-12)


def _reference_evaluate(centers, s, lam, work=None):
    """The pair kernel on an (n, n, 2) difference tensor, as first written; ``work`` is unused."""
    diff = centers[:, None, :] - centers[None, :, :]
    r2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    n = len(centers)
    idx = np.arange(n)
    r2[idx, idx] = np.inf
    if np.any(r2 <= 0.0):
        raise CoincidentPoints("two centers coincide")
    logterms = s * (math.log(lam) - np.log(r2))
    m = float(logterms.max())
    w = np.exp(logterms - m)
    total = 0.5 * float(w.sum())
    return m + math.log(total), (w, total, r2, diff)


def _reference_gradient(state, s, pinned):
    w, total, r2, diff = state
    coef = (-2.0 * s) * (w / total) / r2
    grad = np.einsum("ij,ijk->ik", coef, diff)
    grad[pinned] = 0.0
    return grad


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 140),
    s=st.sampled_from([1.5, 10.0, 1e4, 1e8]) | st.floats(1.0, 1e8),
    seed=st.integers(0, 2**32 - 1),
    lam_scale=st.floats(0.25, 4.0),
    pin_share=st.floats(0.0, 1.0),
)
def test_pair_kernel_matches_difference_tensor(n, s, seed, lam_scale, pin_share):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, (n, 2))
    lam = lam_scale * packing_radius(centers) ** 2
    pinned = np.flatnonzero(rng.uniform(size=n) < pin_share)
    before = centers.copy()

    value, state = _reference_evaluate(centers, s, lam)
    grad = _reference_gradient(state, s, pinned)
    # bit for bit, signed zeros included, in fresh buffers and in a reused workspace
    got_value, got_grad = _objective(centers, s, lam, pinned)
    assert got_value == value
    assert got_grad.tobytes() == grad.tobytes()
    work = optimizer._workspace(n)
    for _ in range(2):
        # the in-place gradient consumes only its own state
        again_value, again_grad = _objective(centers, s, lam, pinned, work)
        assert again_value == value
        assert again_grad.tobytes() == grad.tobytes()
    assert centers.tobytes() == before.tobytes()


@pytest.mark.parametrize("s", [10.0, 1e3])
def test_pair_kernel_is_bit_identical_where_weights_underflow(s):
    # a (12, 5) build shaken by 1e-3: at s = 1e3 all but 518 of the 8,281
    # weights underflow to +0.0 and 84 are subnormal; at s = 10 no weight is
    # subnormal
    cfg = build_chp(12, 5)
    centers = cfg.centers + np.random.default_rng(2).normal(scale=1e-3, size=cfg.centers.shape)
    lam = packing_radius(centers) ** 2
    n = len(centers)
    pinned = np.arange(0, n, 3)
    value, state = _reference_evaluate(centers, s, lam)
    w = state[0].copy()
    grad = _reference_gradient(state, s, pinned)
    subnormal = np.count_nonzero((w > 0.0) & (w < np.finfo(float).tiny))
    assert (subnormal > 0) == (s == 1e3)
    work = optimizer._workspace(n)
    got_value, got_state = _evaluate(centers, s, lam, work)
    assert got_value == value
    assert got_state[0].tobytes() == w.tobytes()
    got_value, got_grad = _objective(centers, s, lam, pinned, work)
    assert got_value == value
    assert got_grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("n", [2, 3, 50])
def test_pair_kernel_rejects_coincident_centers(n):
    # exact coincidence, and two centers so close that r^2 underflows to 0;
    # either raises, with no floating-point warning on the way
    centers = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
    centers[0] = (0.0, 0.0)
    for gap in (0.0, 1e-170):
        centers[-1] = (gap, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for work in (None, optimizer._workspace(n)):
                with pytest.raises(CoincidentPoints):
                    _evaluate(centers, 10.0, 0.01, work)


def _searches_through(monkeypatch, evaluate, gradient):
    """Bytes of two short searches run on the given kernel, and its evaluation count."""
    calls = []

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(optimizer, "_evaluate", counted)
    monkeypatch.setattr(optimizer, "_gradient", gradient)
    params = OptimizerParams(seed=1)
    guided, pins = seed_guided(12, 2, theta=0.1, scale=0.97)
    out = algorithm1(12, 7, params).centers.tobytes() + algorithm2(guided, params, pins).centers.tobytes()
    return out, len(calls)


def test_ladder_matches_difference_tensor_kernel(monkeypatch):
    # minimize reaches its kernel only through the module's _evaluate and
    # _gradient, so swapping them swaps what every line-search trial runs
    got, count = _searches_through(monkeypatch, optimizer._evaluate, optimizer._gradient)
    ref, ref_count = _searches_through(monkeypatch, _reference_evaluate, _reference_gradient)
    assert got == ref
    assert count == ref_count > 0

    # the swap takes effect: a kernel one ulp off moves the output
    def ulp_off(state, s, pinned):
        grad = _reference_gradient(state, s, pinned)
        return np.where(grad == 0.0, grad, np.nextafter(grad, np.inf))

    off, _ = _searches_through(monkeypatch, _reference_evaluate, ulp_off)
    assert off != ref


def test_pinned_rows_zeroed():
    rng = np.random.default_rng(3)
    cfg = random_instance(rng)
    g = gradient(cfg.centers, 2.0, 0.05, [1, 7])
    assert np.all(g[[1, 7]] == 0.0)
    assert np.all(np.any(g[[0, 2, 3, 4, 5, 6, 8, 9]] != 0.0, axis=1))


def test_pins_out_of_range_are_refused():
    # one range check serves minimize and algorithm2, whatever sequence the pins come as
    cfg = random_instance(np.random.default_rng(3))
    lam = packing_radius(cfg.centers) ** 2
    for pins in ([1000], [-1], range(9, 11), np.array([3, -1])):
        with pytest.raises(PreconditionViolated, match="out of range"):
            minimize(cfg, 10.0, lam, pins)
        with pytest.raises(PreconditionViolated, match="out of range"):
            algorithm2(cfg, OptimizerParams(seed=1), pins)


def test_minimize_keeps_pins_bit_identical():
    rng = np.random.default_rng(8)
    cfg = random_instance(rng)
    pins = [0, 5]
    frozen = cfg.centers[[0, 5]].copy()
    out = minimize(cfg, 10.0, packing_radius(cfg.centers) ** 2, pins)
    assert np.array_equal(out.centers[[0, 5]], frozen)
    assert not np.array_equal(out.centers, cfg.centers)


def test_minimize_evaluates_each_iterate_once(monkeypatch):
    # the start is evaluated once and every line-search trial once, all in
    # one workspace; an accepted trial's gradient comes from that trial's
    # evaluation
    events = []
    workspaces = set()
    evaluate, step = optimizer._evaluate, optimizer._step

    def counted_evaluate(centers, s, lam, work=None):
        events.append("evaluate")
        workspaces.add(id(work))
        return evaluate(centers, s, lam, work)

    def counted_step(*args):
        events.append("trial")
        return step(*args)

    monkeypatch.setattr(optimizer, "_evaluate", counted_evaluate)
    monkeypatch.setattr(optimizer, "_step", counted_step)
    monkeypatch.setattr(optimizer, "_MAX_INNER_ITERS", 30)
    cfg = random_instance(np.random.default_rng(4))
    lam = packing_radius(cfg.centers) ** 2
    out = minimize(cfg, 10.0, lam)
    trials = events.count("trial")
    assert trials >= 30
    assert events.count("evaluate") == 1 + trials
    assert len(workspaces) == 1 and id(None) not in workspaces
    assert not np.array_equal(out.centers, cfg.centers)

    # and the gradient those evaluations feed still matches the log-energy
    events.clear()
    g = gradient(out.centers, 10.0, lam)
    assert events.count("evaluate") == 1
    h = 3e-7 * packing_radius(out.centers)
    scale = float(np.abs(g).max())
    for i in range(10):
        for c in (0, 1):
            fd = finite_difference(out.centers, 10.0, lam, i, c, h)
            assert abs(g[i, c] - fd) <= 1e-5 * max(scale, abs(fd))


def _skip_rule_case(rng, sigma, n, gap, near_vertex, pin_share):
    """Free centers inside the container, some ``gap`` inside its boundary, and pins anywhere."""
    x = np.array([interior_point(t, u, sigma) for t, u in rng.uniform(0.0, 2.0 * math.pi, (n, 2))])
    u = rng.uniform(0.0, 2.0 * math.pi, n)
    if near_vertex and sigma != CIRCLE:
        u = vertex_angle(sigma) + 2.0 * math.pi * rng.integers(0, sigma, n) / sigma
    near = rng.uniform(size=n) < 0.5
    near[0] = True
    boundary = np.array([interior_point(0.5 * math.pi, v, sigma) for v in u])
    x[near] = boundary[near] * (1.0 - gap)
    # row 0 stays free; the pins may lie outside, as a border ring can by an ulp
    pinned = 1 + np.flatnonzero(rng.uniform(size=n - 1) < pin_share)
    x[pinned] = rng.uniform(-1.5, 1.5, (len(pinned), 2))
    # every step heads outward along a diagonal, the longest move a*|g|_inf allows
    g = -np.sign(x) * rng.uniform(0.1, 1.0, (n, 1)) * 10.0 ** rng.uniform(-3.0, 3.0)
    g[pinned] = 0.0
    return x, g, pinned


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.sampled_from([3, 6, 12, 15, 60, CIRCLE]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    gap=st.floats(-15.0, -3.0).map(lambda e: 10.0**e),
    near_vertex=st.booleans(),
    pin_share=st.floats(0.0, 1.0),
    share=st.floats(0.0, 0.999),
)
def test_skipped_containment_tests_could_move_no_row(sigma, seed, n, gap, near_vertex, pin_share, share):
    # three steps in a row, each up to 0.999 of the room the last one left:
    # wherever _step skips the test, the test would have returned the trial
    # as it is, and the room _step passes on is no more than the test measures
    rng = np.random.default_rng(seed)
    x, g, pinned = _skip_rule_case(rng, sigma, n, gap, near_vertex, pin_share)
    free = np.setdiff1d(np.arange(n), pinned)
    assume((outside_by(sigma, x[free]) <= 0.0).all())
    room = optimizer._room(optimizer._excess(sigma, x, pinned))
    assert room >= 0.0
    for _ in range(3):
        gnorm = float(np.abs(g).max())
        a = share * max(room - optimizer._ROOM_MARGIN, gap) / (2.0 * gnorm)
        trial = x - a * g
        tested, tested_room = optimizer._project_all(trial, sigma, pinned)
        stepped, stepped_room = optimizer._step(x, a, g, gnorm, room, sigma, pinned)
        assert stepped.tobytes() == tested.tobytes()
        assert tested[pinned].tobytes() == x[pinned].tobytes()
        if 2.0 * a * gnorm + optimizer._ROOM_MARGIN >= room:
            assert stepped_room == tested_room
            break
        assert tested is trial
        assert stepped_room <= tested_room
        x, room = stepped, stepped_room
        g = g * rng.uniform(0.5, 1.0, (n, 1))


def test_skipped_containment_tests_leave_searches_unchanged(monkeypatch):
    # the short searches of _searches_through, with and without the skip:
    # the same bytes and evaluations, and fewer containment tests than trials
    step, project_all, polish = optimizer._step, optimizer._project_all, optimizer.polish

    def run(skip):
        counts = {"trial": 0, "test": 0, "lp": 0}

        def counted_polish(*args):
            out = polish(*args)
            counts["lp"] += out.lps
            return out

        def counted_step(*args):
            counts["trial"] += 1
            return step(*args)

        def counted_project_all(*args):
            counts["test"] += 1
            return project_all(*args)

        monkeypatch.setattr(optimizer, "_step", counted_step)
        monkeypatch.setattr(optimizer, "_project_all", counted_project_all)
        monkeypatch.setattr(optimizer, "polish", counted_polish)
        if not skip:
            monkeypatch.setattr(optimizer, "_room", lambda excess: -math.inf)
        out, evaluations = _searches_through(monkeypatch, optimizer._evaluate, optimizer._gradient)
        monkeypatch.undo()
        return out, evaluations, counts

    shipped, shipped_evaluations, shipped_counts = run(skip=True)
    plain, plain_evaluations, plain_counts = run(skip=False)
    assert shipped == plain
    assert shipped_evaluations == plain_evaluations
    assert shipped_counts["trial"] == plain_counts["trial"]
    # algorithm2 tests its shaken start once more, and the polish each LP's step
    assert plain_counts["lp"] == shipped_counts["lp"] > 0
    assert plain_counts["test"] == plain_counts["trial"] + 1 + plain_counts["lp"]
    assert shipped_counts["test"] < shipped_counts["trial"]


def test_minimize_respects_container():
    rng = np.random.default_rng(21)
    cfg = random_instance(rng, n=25)
    out = ladder(cfg)
    assert (outside_by(cfg.sigma, out.centers) <= 1e-12).all()


def test_two_disks_in_dodecagon():
    out = algorithm1(12, 2, OptimizerParams(seed=3))
    # the optimum is a diameter of the polygon, from vertex to opposite vertex
    assert abs(packing_radius(out.centers) - 2.0) <= 1e-14


def test_polish_with_every_disk_pinned_returns_its_input():
    config = build_chp(12, 2)
    before = config.centers.tobytes()
    out = polish(config, range(config.n_disks))
    assert out.config is config and config.centers.tobytes() == before
    assert (out.stop, out.lps, out.iterations) == ("pinned", 0, 0)


@pytest.mark.parametrize("n", [1, 16, 37])
def test_normal_equations_solve_by_blocks(n):
    # the blocked substitutions against LAPACK's general solve, on sizes below,
    # at and past one block
    rng = np.random.default_rng(n)
    g = rng.normal(size=(3 * n, n))
    k = g.T @ g + np.eye(n)
    b = rng.normal(size=n)
    got = optimizer._cho_solve(optimizer._factor(k), b)
    assert np.allclose(got, np.linalg.solve(k, b), rtol=1e-10, atol=1e-12)


def test_singular_normal_matrix_gets_a_diagonal_bump():
    # a rank-one matrix fails Cholesky until its diagonal is raised; a nan one never factors
    k = np.ones((3, 3))
    factored = optimizer._factor(k)
    assert factored is not None
    padded, _ = factored
    bumped = padded[:3, :3] @ padded[:3, :3].T
    assert np.allclose(bumped, k, atol=1e-10) and not np.array_equal(bumped, k)
    assert optimizer._factor(np.full((3, 3), np.nan)) is None


def test_polish_refuses_coincident_centers():
    centers = build_chp(12, 2).centers.copy()
    centers[1] = centers[0]
    config = PackingConfiguration(sigma=12, centers=centers, diameter=0.0, meta={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoincidentPoints):
            polish(config)


@pytest.mark.parametrize("sigma, k", [(12, 2), (12, 3), (18, 3), (CIRCLE, 3), (12, 5)])
def test_polish_keeps_chp_builds(sigma, k):
    # a CHP build is a local maximum of the minimum distance: the first LP
    # finds no rise, and nothing moves
    config = build_chp(sigma, k)
    out = polish(config)
    assert out.stop == "converged" and out.lps == 1
    assert abs(out.config.diameter - solve_border(sigma, k).d) <= 1e-14
    assert validate_config(out.config).is_valid


def _ladder_and_polish(monkeypatch, run):
    """``run()``'s output, with the ladder's configuration and the ``Polished`` the polish made of it."""
    seen = []

    def recorded(config, pins=()):
        out = polish(config, pins)
        seen.append((config, out))
        return out

    monkeypatch.setattr(optimizer, "polish", recorded)
    out = run()
    assert len(seen) == 1
    return out, seen[0][0], seen[0][1]


@pytest.mark.parametrize("sigma, n, seed", [(CIRCLE, 19, 3), (CIRCLE, 37, 2), (CIRCLE, 37, 4)])
def test_polish_on_random_circle_starts(monkeypatch, sigma, n, seed):
    # seeds whose normal matrices grew numerically singular late in an LP
    # when the ladder stopped at s = 1e3 and the solve was not regularized
    out, laddered, polished = _ladder_and_polish(monkeypatch, lambda: algorithm1(sigma, n, OptimizerParams(seed=seed)))
    assert polished.stop in ("converged", "stalled", "singular", "lp cap")
    assert 0 < polished.lps <= optimizer._POLISH_MAX_LPS
    assert np.array_equal(out.centers, polished.config.centers)
    assert validate_config(out).is_valid
    assert packing_radius(out) >= packing_radius(laddered)


@pytest.mark.parametrize("sigma", [12, CIRCLE])
def test_rivals_at_nineteen_disks(sigma):
    # the paper's claim at N = 19: no random start packs denser than the CHP,
    # and every one of these five reaches it.  The ladder alone with
    # s_final = 1e8 brought all five within 1e-6 of its d and none within 1e-12.
    d = solve_border(sigma, 2).d
    found = [packing_radius(algorithm1(sigma, 19, OptimizerParams(seed=seed))) for seed in range(1, 6)]
    assert max(found) <= d + 1e-12
    assert sum(abs(f - d) <= 1e-12 for f in found) == 5


def test_algorithm1_deterministic():
    a = algorithm1(12, 5, OptimizerParams(seed=7))
    b = algorithm1(12, 5, OptimizerParams(seed=7))
    assert np.array_equal(a.centers, b.centers)
    c = algorithm1(12, 5, OptimizerParams(seed=8))
    assert not np.array_equal(a.centers, c.centers)


def test_seed_guided_layout():
    k = 3
    config, pins = seed_guided(12, k, theta=0.1, scale=0.97)
    assert config.n_disks == 3 * k * (k + 1) + 1
    assert pins == range(6 * k + 1)
    border = solve_border(12, k)
    # pinned prefix holds the exact border ring and the center
    assert config.centers[0] == pytest.approx(
        (-math.sin(math.pi / 12), -math.cos(math.pi / 12)), abs=1e-16
    )
    assert np.hypot(*config.centers[6 * k]) == 0.0
    assert (outside_by(config.sigma, config.centers) <= 1e-12).all()
    # interior guess cannot already collide
    assert packing_radius(config.centers) > 0.5 * border.d


def test_algorithm2_identity_when_everything_pinned():
    config = build_chp(12, 2)
    pins = range(config.n_disks)
    out = algorithm2(config, OptimizerParams(seed=4), pins)
    assert np.array_equal(out.centers, config.centers)


def test_algorithm2_takes_any_pin_sequence():
    # a one-element array is falsy in numpy when its element is 0: the pins
    # must still hold, and every sequence type gives the same bytes
    config, pins = seed_guided(12, 2, theta=0.12, scale=0.95)
    params = OptimizerParams(seed=2)
    groups = ([range(19), list(range(19)), np.arange(19)], [pins, list(pins), np.asarray(pins)], [[0], np.array([0])])
    for same in groups:
        outs = [algorithm2(config, params, p).centers for p in same]
        assert all(out.tobytes() == outs[0].tobytes() for out in outs)
    assert outs[0][0].tobytes() == config.centers[0].tobytes()
    assert not np.array_equal(outs[0], config.centers)


def test_algorithm2_needs_two_disks():
    one = PackingConfiguration(sigma=12, centers=np.zeros((1, 2)), diameter=0.5, meta={})
    with pytest.raises(PreconditionViolated, match="two disks"):
        algorithm2(one, OptimizerParams(seed=1))


def test_minimize_and_ladder_need_two_disks(monkeypatch):
    # refused before any evaluation, with no floating-point warning on the way
    def evaluate(*args):
        raise AssertionError("evaluated one disk")

    monkeypatch.setattr(optimizer, "_evaluate", evaluate)
    one = PackingConfiguration(sigma=12, centers=np.zeros((1, 2)), diameter=0.5, meta={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolated, match="two disks"):
            minimize(one, 10.0, 0.25)
        with pytest.raises(PreconditionViolated, match="two disks"):
            ladder(one)


def test_algorithm2_never_degrades():
    config, pins = seed_guided(12, 2, theta=0.12, scale=0.95)
    current = config
    best = packing_radius(current.centers)
    for trial in range(3):
        current = algorithm2(current, OptimizerParams(seed=2), pins, trial=trial)
        now = packing_radius(current.centers)
        assert now >= best
        best = now


@pytest.mark.parametrize("sigma", [12, 24])
def test_algorithm2_returns_exact_builds(sigma):
    # shakes of the exact build come back a few units of 2**-53 higher in
    # minimum distance: rounding, not an improvement, so the build stays
    config = build_chp(sigma, 3)
    for trial in range(4):
        assert algorithm2(config, OptimizerParams(seed=1), [], trial=trial) is config, trial


def test_guided_shake_reaches_exact_packing():
    config, pins = seed_guided(12, 3, theta=0.1, scale=0.97)
    out = algorithm2(config, OptimizerParams(seed=5), pins, trial=0)
    assert validate_config(out).is_valid
    assert symmetry_residual(out) <= 1e-6
    d = solve_border(12, 3).d
    assert abs(packing_radius(out) - d) <= 1e-6 * d
    assert density(out) == pytest.approx(chp_density(12, 3), abs=1e-6)


def test_refine_after_random_start_hexagon():
    # the 19-disk hexagon optimum is the k=2 lattice; one guided shake
    # reaches the exact chord length without further polish
    config, pins = seed_guided(6, 2, theta=0.05, scale=0.97)
    out = algorithm2(config, OptimizerParams(seed=1), pins, trial=0)
    assert packing_radius(out.centers) == pytest.approx(0.5, abs=1e-9)


def test_params_validation():
    # provenance records the seed as an integer, and loads_config refuses
    # anything else there: a float or a bool seed would write a file that
    # cannot be read back, and 1.5 would run exactly as 1
    for seed in (1.5, 1.0, True, False, "1", None, np.int64(1)):
        with pytest.raises(ValueError, match="seed"):
            OptimizerParams(seed=seed)
    for seed in (0, 7, -1):
        config = algorithm1(12, 2, OptimizerParams(seed=seed))
        assert loads_config(dumps_config(config)).meta["seed"] == seed
