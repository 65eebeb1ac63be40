import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chp_pack import build_chp, chp_density, optimizer, solve_border
from chp_pack.builder import PackingConfiguration
from chp_pack.configio import dumps_config, loads_config
from chp_pack.errors import CoincidentPoints, PreconditionViolated
from chp_pack.geometry import CIRCLE, outside_by
from chp_pack.optimizer import OptimizerParams, algorithm1, algorithm2, polish, seed_guided
from chp_pack.validation import density, packing_radius, symmetry_residual, validate_config


def random_instance(rng, n=10):
    pts = rng.uniform(-0.6, 0.6, (n, 2))
    return PackingConfiguration(sigma=12, centers=pts, diameter=0.1, meta={})


def test_pins_out_of_range_are_refused():
    # one range check serves polish and algorithm2, whatever sequence the pins come as
    cfg = random_instance(np.random.default_rng(3))
    for pins in ([1000], [-1], range(9, 11), np.array([3, -1])):
        with pytest.raises(PreconditionViolated, match="out of range"):
            polish(cfg, pins)
        with pytest.raises(PreconditionViolated, match="out of range"):
            algorithm2(cfg, OptimizerParams(seed=1), pins)


def test_polish_keeps_pins_bit_identical():
    rng = np.random.default_rng(8)
    cfg = random_instance(rng)
    pins = [0, 5]
    frozen = cfg.centers[[0, 5]].copy()
    out = polish(cfg, pins).config
    assert out.centers[[0, 5]].tobytes() == frozen.tobytes()
    assert not np.array_equal(out.centers, cfg.centers)


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


@pytest.mark.parametrize("n", [1, 16, 37, 121])
def test_normal_equations_solve_by_blocks(n):
    # the blocked substitutions against LAPACK's general solve, on sizes below,
    # at and past one block, and on eight blocks with a padded tail
    rng = np.random.default_rng(n)
    g = rng.normal(size=(3 * n, n))
    k = g.T @ g + np.eye(n)
    b = rng.normal(size=n)
    got = optimizer._cho_solve(optimizer._factor(k), b)
    assert np.allclose(got, np.linalg.solve(k, b), rtol=1e-10, atol=1e-12)


def test_singular_normal_matrix_gets_a_diagonal_bump():
    # a rank-one matrix, within one block or over three, fails Cholesky until
    # its diagonal is raised; a nan one never factors
    for n in (3, 40):
        k = np.ones((n, n))
        factored = optimizer._factor(k)
        assert factored is not None
        padded, _ = factored
        bumped = padded[:n, :n] @ padded[:n, :n].T
        assert np.allclose(bumped, k, atol=1e-10) and not np.array_equal(bumped, k)
        assert optimizer._factor(np.full((n, n), np.nan)) is None


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


def _lp_steps(monkeypatch, run):
    """``run()``'s output, and each polish LP's minimum distance, trust radius and largest move, in order."""
    seen = []
    lp_rows, solve_lp = optimizer._lp_rows, optimizer._solve_lp

    def rows(sigma, x, slot, d, delta):
        seen.append([d, delta])
        return lp_rows(sigma, x, slot, d, delta)

    def solve(*args):
        z, its, factored = solve_lp(*args)
        seen[-1].append(float(np.abs(z[:-1]).max()))
        return z, its, factored

    monkeypatch.setattr(optimizer, "_lp_rows", rows)
    monkeypatch.setattr(optimizer, "_solve_lp", solve)
    return run(), seen


def _assert_trust_rule(seen):
    # a kept step (the next LP starts from a larger minimum distance) scales
    # the trust radius by 4 times its largest coordinate, box-reaching or
    # not; a rejected one halves it
    for (d, delta, reach), (d_next, delta_next, _) in zip(seen, seen[1:]):
        if d_next > d:
            assert delta_next == delta * (4.0 * reach), (delta, reach, delta_next)
        else:
            assert d_next == d and delta_next == 0.5 * delta


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12))
def test_kept_steps_grow_the_trust_radius_by_four_times_their_reach(seed, n):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, seen = _lp_steps(monkeypatch, lambda: polish(random_instance(np.random.default_rng(seed), n)))
    _assert_trust_rule(seen)


def test_guided_polish_spends_few_lps_reaching_the_box(monkeypatch):
    # the guided (12, 5) search run: its hop starts 1e-3 d wide, and the early
    # steps, which reach the box, grow the radius fourfold, not twofold
    config, pins = seed_guided(12, 5, theta=0.1, scale=0.97)
    hops = []
    out, seen = _lp_steps(monkeypatch, lambda: algorithm2(config, OptimizerParams(seed=1), pins, trial=0, record=hops.append))
    _assert_trust_rule(seen)
    assert any(reach >= 0.999 for _, _, reach in seen[:-1])
    (hop,) = hops
    assert hop.lps == len(seen) <= 13
    assert abs(out.diameter - solve_border(12, 5).d) <= 1e-14


def _polishes(monkeypatch, run):
    """``run()``'s output, and the input and ``Polished`` output of each polish it made, in order."""
    seen = []

    def recorded(config, pins=()):
        out = polish(config, pins)
        seen.append((config, out))
        return out

    monkeypatch.setattr(optimizer, "polish", recorded)
    return run(), seen


@pytest.mark.parametrize("sigma, n, seed", [(CIRCLE, 19, 3), (CIRCLE, 37, 2), (CIRCLE, 37, 4)])
def test_polish_on_random_circle_starts(monkeypatch, sigma, n, seed):
    # seeds whose normal matrices grew numerically singular late in an LP
    # when a soft-potential ladder stopped at s = 1e3 and the solve was not
    # regularized; algorithm1's first polish starts from the random points
    out, seen = _polishes(monkeypatch, lambda: algorithm1(sigma, n, OptimizerParams(seed=seed)))
    start, first = seen[0]
    assert start.meta == {"mode": "algorithm1", "seed": seed}
    assert first.stop in ("converged", "stalled", "singular", "lp cap")
    assert 0 < first.lps <= optimizer._POLISH_MAX_LPS
    assert packing_radius(first.config) > packing_radius(start)
    assert validate_config(first.config).is_valid
    # the search returns one of its polished configurations
    assert any(out.centers.tobytes() == polished.config.centers.tobytes() for _, polished in seen)
    assert validate_config(out).is_valid


@pytest.mark.parametrize("sigma, n, seed", [(12, 19, 1), (CIRCLE, 19, 2), (12, 7, 3), (CIRCLE, 37, 4)])
def test_searches_count_their_polishes(monkeypatch, sigma, n, seed):
    # algorithm1 polishes its start, then hops until _PATIENCE hops in a row
    # rise by no more than _ROUNDING_RISE: replaying that rule over the
    # polished minimum distances ends on exactly _PATIENCE misses
    out, seen = _polishes(monkeypatch, lambda: algorithm1(sigma, n, OptimizerParams(seed=seed)))
    best, misses = seen[0][1].config, 0
    for hopped, polished in seen[1:]:
        assert misses < optimizer._PATIENCE
        # each hop starts from the best so far; the projection moves no center further
        moved = np.hypot(*(hopped.centers - best.centers).T)
        assert moved.max() <= math.sqrt(2.0) * optimizer._HOP * best.diameter * (1 + 1e-12)
        if polished.config.diameter > best.diameter + optimizer._ROUNDING_RISE:
            best, misses = polished.config, 0
        else:
            misses += 1
    assert misses == optimizer._PATIENCE
    assert len(seen) >= 1 + optimizer._PATIENCE
    assert out is best

    # one shake trial of algorithm2 is one hop: one polish, with its pins
    config, pins = seed_guided(12, 3, theta=0.1, scale=0.97)
    _, seen = _polishes(monkeypatch, lambda: algorithm2(config, OptimizerParams(seed=seed), pins))
    assert len(seen) == 1
    shaken, _ = seen[0]
    assert shaken.centers[: len(pins)].tobytes() == config.centers[: len(pins)].tobytes()
    moved = np.hypot(*(shaken.centers - config.centers).T)
    assert 0.0 < moved.max() <= optimizer._PERTURB * packing_radius(config) * (1 + 1e-12)


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


def test_polish_and_algorithm1_need_two_disks():
    # refused before any distance is measured, with no floating-point warning on the way
    one = PackingConfiguration(sigma=12, centers=np.zeros((1, 2)), diameter=0.5, meta={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolated, match="two disks"):
            polish(one)
        with pytest.raises(PreconditionViolated, match="two disks"):
            algorithm1(12, 1)


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
