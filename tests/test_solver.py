"""Closed-form trajectory steps checked against quadrature and hand values."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arcflow import (
    ConvergenceError,
    InvalidIntervalError,
    InvalidParameterError,
    LatentState,
    MomentumParams,
    NumericError,
    displacement,
    step,
)
from arcflow.solver import BLOCK_ELEMENTS, sub_interval_displacement
from arcflow.verify import quadrature_displacement


def random_theta(rng, modes=4, dim=2):
    gating = rng.uniform(0.1, 1.0, modes)
    gating = gating / gating.sum()
    base = rng.normal(0.0, 2.0, (modes, dim))
    logg = rng.uniform(-2.0, 2.0, modes)
    return MomentumParams(gating, base, logg)


# -- the closed-form coefficient -----------------------------------------------


def unit_coefficient(lg, t_start, t_end):
    """C(gamma, t_start, t_end) for each ln gamma in lg: the displacement of
    one-mode bundles with gating 1 and velocity (1,), one bundle per lg."""
    lg = np.array(lg, dtype=float, ndmin=1)
    unit = np.ones((lg.size, 1))
    theta = MomentumParams(unit, unit[..., None], lg[:, None])
    return displacement(theta, t_start, t_end)[:, 0]


def written_out_coefficient(lg, t_start, t_end):
    """The closed form written out on its own, the reference for the bits
    of every coefficient the solver and the gate compute."""
    h = t_start - t_end
    return np.exp((1 - t_start) * lg) * np.where(
        lg == 0, h, np.expm1(h * lg) / np.where(lg == 0, 1, lg))


def test_coefficient_gamma_one_is_elapsed_time():
    assert unit_coefficient(0.0, 0.8, 0.3)[0] == 0.5


def test_coefficient_gamma_four_hand_value():
    # integral of 4^(1-t) over [0.5, 1] is (4^0.5 - 4^0) / ln 4
    want = 1.0 / np.log(4.0)
    got = unit_coefficient(np.log(4.0), 1.0, 0.5)
    assert_allclose(got, want, rtol=1e-15)
    assert_allclose(got, 0.7213475204444817, rtol=1e-15)


def test_coefficient_near_one_lands_on_elapsed_time():
    # a gamma one part in 1e9 from 1 gives the gamma = 1 limit to 1e-8
    got = unit_coefficient(np.log(1.0 + 1e-9), 1.0, 0.0)
    assert abs(got[0] - 1.0) < 1e-8


def test_coefficient_continuous_approaching_gamma_one():
    # approach gamma = 1 from both sides, at two offsets each
    for sign in (-1.0, 1.0):
        outside, inside = unit_coefficient([sign * 2e-6, sign * 5e-7],
                                           0.9, 0.2)
        assert abs(outside - 0.7) < 1e-5
        assert abs(inside - 0.7) < 1e-5


def test_coefficient_additive_over_interior_point():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lg = np.log(rng.uniform(0.05, 20.0))
        t0, t1, t2 = np.sort(rng.uniform(0.0, 1.0, 3))[::-1]
        whole = unit_coefficient(lg, t0, t2)
        split = unit_coefficient(lg, t0, t1) + unit_coefficient(lg, t1, t2)
        assert_allclose(split, whole, rtol=1e-12, atol=1e-15)


def test_coefficient_broadcasts_over_gamma_grid():
    # a batch of bundles over a grid of gammas gives each gamma's own bits
    lgs = np.log([0.5, 1.0, 2.0, 4.0])
    out = unit_coefficient(lgs, 1.0, 0.0)
    assert out.shape == (4,)
    for lg, val in zip(lgs, out):
        assert same_bits(val, unit_coefficient(lg, 1.0, 0.0)[0])


def test_coefficient_is_the_written_out_closed_form_bit_for_bit():
    # the continuity suite's draws (seed 1001, all four offsets), and draws
    # like the mpmath gate's: |ln gamma| in [1e-12, 4] on both sides of
    # gamma = 1, every 16th exactly 0, intervals from 1e-12 to 1, with
    # ln gamma both as drawn and through exp and log, as the gate takes it
    rng = np.random.default_rng(1001)
    t_lo = rng.uniform(0.0, 1.0, 10_000)
    t_hi = t_lo + rng.uniform(0.0, 1.0, 10_000) * (1.0 - t_lo)
    for delta in (1e-7, -1e-7, 1e-5, -1e-5):
        lg = np.full(t_lo.size, np.log(1.0 + delta))
        assert same_bits(unit_coefficient(lg, t_hi, t_lo),
                         written_out_coefficient(lg, t_hi, t_lo))

    rng = np.random.default_rng(1014)

    def log_uniform(lo, hi, size):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    drawn = log_uniform(1e-12, 4.0, 2048) * rng.choice([-1.0, 1.0], 2048)
    drawn[::16] = 0.0
    elapsed = log_uniform(1e-12, 1.0, 2048)
    t_end = rng.uniform(0.0, 1.0 - elapsed)
    t_start = t_end + elapsed
    for lg in (drawn, np.log(np.exp(drawn))):
        assert same_bits(unit_coefficient(lg, t_start, t_end),
                         written_out_coefficient(lg, t_start, t_end))


# The closed form's identities as properties, over |ln gamma| up to 4 and
# both sides of gamma = 1, with fixed draws.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)
gammas = st.one_of(st.floats(np.exp(-4.0), np.exp(4.0)),
                   st.floats(1.0 - 1e-6, 1.0 + 1e-6), st.just(1.0))
times = st.floats(0.0, 1.0)


@PROPERTY
@given(gammas, times, times, times)
def test_coefficient_additivity_property(gamma, ta, tb, tc):
    # every part has the whole's sign, so the sum does not cancel
    lg = np.log(gamma)
    t0, t1, t2 = sorted((ta, tb, tc), reverse=True)
    whole = unit_coefficient(lg, t0, t2)
    split = unit_coefficient(lg, t0, t1) + unit_coefficient(lg, t1, t2)
    assert_allclose(split, whole, rtol=1e-14, atol=0)


@PROPERTY
@given(st.floats(1.0 - 1e-3, 1.0 + 1e-3), times, times)
def test_coefficient_gamma_one_limit_property(gamma, ta, tb):
    # gamma**(1-t) lies within exp(+-|ln gamma|) of 1 on [0, 1], so the
    # coefficient is within expm1(|ln gamma|) of the elapsed time
    ta, tb = max(ta, tb), min(ta, tb)
    elapsed = ta - tb
    got = unit_coefficient(np.log(gamma), ta, tb)[0]
    slack = np.expm1(abs(np.log(gamma))) + 4 * np.finfo(float).eps
    assert abs(got - elapsed) <= slack * elapsed
    if gamma == 1.0:
        assert got == elapsed


# -- displacement / transition ------------------------------------------------


def test_transition_single_linear_mode_is_plain_euler():
    theta = MomentumParams([1.0], [[2.0, -1.0]], [0.0])
    assert_allclose(displacement(theta, 1.0, 0.0), [2.0, -1.0], rtol=1e-15)


def test_transition_two_mode_hand_value():
    # pi = (1/2, 1/2), v1 = (1,0) gamma 1, v2 = (0,1) gamma e, over [0,1]:
    # second coordinate integrates e^(1-t) giving (e - 1), halved by gating
    theta = MomentumParams([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    got = displacement(theta, 1.0, 0.0)
    assert_allclose(got, [0.5, 0.5 * (np.e - 1.0)], rtol=1e-15)
    assert_allclose(got[1], 0.8591409142295225, rtol=1e-15)


def test_transition_zero_width_interval():
    rng = np.random.default_rng(4)
    theta = random_theta(rng)
    got = displacement(theta, 0.6, 0.6)
    assert_allclose(got, np.zeros(2), atol=0)


def test_transition_matches_quadrature_sweep():
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = random_theta(rng, modes=int(rng.integers(1, 7)))
        te, ts = np.sort(rng.uniform(0.0, 1.0, 2))
        closed = displacement(theta, float(ts), float(te))
        quad = quadrature_displacement(theta, float(ts), float(te))
        assert_allclose(closed, quad, rtol=1e-10, atol=1e-12)


def test_displacement_checks_its_interval():
    # the one checked entry: a NaN time, an upward interval or a time
    # outside [0, 1] fails before any arithmetic, for scalar times, for
    # per-row times with one bad row and for time arrays that do not pair up
    rng = np.random.default_rng(11)
    theta, batched = random_theta(rng), batched_random_theta(rng)
    one_row = np.arange(6) == 3
    for bundle, t_start, t_end in (
            (theta, np.nan, 0.0), (theta, 0.3, 0.8), (theta, 1.1, 0.0),
            (theta, 0.5, -0.1),
            (batched, np.where(one_row, 0.1, 0.5), 0.2),
            (batched, 0.9, np.where(one_row, np.nan, 0.2)),
            (batched, np.full(5, 0.5), np.full(6, 0.2))):
        with pytest.raises(InvalidIntervalError):
            displacement(bundle, t_start, t_end)


def stacked_interval_draws(rng, theta):
    # (t_start, t_end) for 5 intervals stacked on a leading row axis, both
    # ways the batch shape allows: one time per row, or one per row and
    # sample
    batch = theta.batch_shape
    for shape in ((5,) + (1,) * len(batch), (5,) + batch):
        t_start = rng.uniform(0.0, 1.0, shape)
        yield t_start, t_start * rng.uniform(0.0, 1.0, shape)


def einsum_displacement(theta, t_start, t_end):
    """displacement as it was computed before its mode-major kernel, the
    reference for its bits: (..., K) coefficients contracted by einsum."""
    t_start, t_end = (t if t.ndim == 0 else t[..., None] for t in (
        np.asarray(t_start, dtype=float), np.asarray(t_end, dtype=float)))
    coeffs = written_out_coefficient(theta.log_gammas, t_start, t_end)
    return np.einsum("...k,...kd->...d", theta.gating * coeffs,
                     theta.base_velocities)


def same_bits(a, b):
    # bytes, not values: a zero's sign counts
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_bundles(rng):
    # K in {1, 4, 8, 9}, D in {1, 2, 3}, unbatched, (B,) and 2-D batches;
    # random log-gammas, one pinned at 0 exactly, or all of them at 0
    for modes, dim, batch in ((1, 2, (7,)), (4, 1, ()), (4, 3, (2, 3)),
                              (4, 2, (1200,)), (8, 2, (2048,)),
                              (8, 1, (2048,)), (8, 2, (64, 40)),
                              (9, 3, (33,)), (9, 2, ())):
        gating = rng.dirichlet(np.ones(modes), size=batch)
        base = rng.normal(0.0, 2.0, batch + (modes, dim))
        for pinned in (0, 1, modes):
            logg = rng.uniform(-2.0, 2.0, batch + (modes,))
            logg[..., :pinned] = 0.0
            yield MomentumParams(gating, base, logg)


def kernel_stacks(rng, theta, rows):
    # (t_start, t_end) for stacks of equal-length intervals on a 1/32 grid
    # (one whose last interval has zero width), of random lengths, and of
    # per-sample times
    ones = (1,) * len(theta.batch_shape)
    grid = 1.0 - np.arange(rows + 1) / 32.0
    yield grid[:-1].reshape((rows,) + ones), grid[1:].reshape((rows,) + ones)
    ends = grid[1:].copy()
    ends[-1] = grid[-2]
    yield grid[:-1].reshape((rows,) + ones), ends.reshape((rows,) + ones)
    t_start = rng.uniform(0.0, 1.0, (rows,) + ones)
    yield t_start, t_start * rng.uniform(0.0, 1.0, (rows,) + ones)
    t_start = rng.uniform(0.0, 1.0, (rows,) + theta.batch_shape)
    yield t_start, t_start * rng.uniform(0.0, 1.0, t_start.shape)


def row_times(t, j, theta):
    # row j of a stack as its own call's times: per-sample or one scalar
    return t[j] if t.shape[1:] == theta.batch_shape else t[j].reshape(())


def test_stacked_times_equal_per_row_calls_bit_for_bit():
    # n intervals on a leading row axis give (n,) + batch_shape + (D,),
    # each row the bits of its own call, batched and unbatched, and so does
    # a stacked start against a scalar end, and a scalar or per-sample
    # start against stacked ends
    rng = np.random.default_rng(12)
    for theta in (random_theta(rng), batched_random_theta(rng)):
        for t_start, t_end in stacked_interval_draws(rng, theta):
            one_start = np.ones(theta.batch_shape)
            for start, end in ((t_start, t_end), (t_start, 0.0),
                               (1.0, t_end), (one_start, t_end)):
                stacked = displacement(theta, start, end)
                assert stacked.shape == (5,) + theta.batch_shape + (2,)
                starts, ends = np.broadcast_arrays(start, end)
                for j in range(5):
                    row = displacement(theta, starts[j].squeeze(),
                                       ends[j].squeeze())
                    assert same_bits(stacked[j], row)
    # Stacks of one block and of many (16 rows of a (2048,) or a (64, 40)
    # batch at K = 8 exceed BLOCK_ELEMENTS, and at (1200,), K = 4 the last
    # of 6 blocks is short), with one interval length or many: every row
    # is its own call, and at D >= 2 both have the bits of the einsum
    # reference.  At D = 1 einsum sums the modes in another order, so the
    # reference bounds the rounding there.
    assert 16 * 8 * 2048 > BLOCK_ELEMENTS and 16 % (BLOCK_ELEMENTS // 4800)
    for theta in kernel_bundles(rng):
        modes, dim = theta.base_velocities.shape[-2:]
        rows = 16 if theta.gating.size >= 2048 else 5
        for t_start, t_end in kernel_stacks(rng, theta, rows):
            stacked = displacement(theta, t_start, t_end)
            assert stacked.shape == (rows,) + theta.batch_shape + (dim,)
            want = einsum_displacement(theta, t_start, t_end)
            if dim >= 2:
                assert same_bits(stacked, want)
            else:
                # gating and coefficients are >= 0: this sums |terms|
                sizes = einsum_displacement(MomentumParams(
                    theta.gating, np.abs(theta.base_velocities),
                    theta.log_gammas), t_start, t_end)
                slack = modes * np.finfo(float).eps * sizes
                assert (np.abs(stacked - want) <= slack).all()
            for j in range(rows):
                row = displacement(theta, row_times(t_start, j, theta),
                                   row_times(t_end, j, theta))
                assert same_bits(stacked[j], row)


def test_stacked_times_of_another_shape_fail_at_the_boundary():
    # a leading row axis must sit ahead of the whole batch shape or of ones
    rng = np.random.default_rng(13)
    theta, batched = random_theta(rng), batched_random_theta(rng)
    for bundle, shape in ((theta, (5, 1)), (theta, (5, 4)),
                          (batched, (5, 3)), (batched, (5, 6, 1)),
                          (batched, (5, 1, 1)), (batched, (6, 5))):
        with pytest.raises(InvalidParameterError):
            displacement(bundle, np.full(shape, 0.5), 0.2)


def test_stacked_times_check_every_row():
    # a NaN time or an upward interval in any one row fails the whole call
    rng = np.random.default_rng(14)
    for theta in (random_theta(rng), batched_random_theta(rng)):
        for t_start, t_end in stacked_interval_draws(rng, theta):
            # a NaN end, a start below its end, a NaN start
            for arg, row, value in ((1, 3, np.nan), (0, 3, 0.0),
                                    (0, 4, np.nan)):
                times = [t_start.copy(), t_end.copy()]
                times[arg].reshape(5, -1)[row, -1] = value
                with pytest.raises(InvalidIntervalError):
                    displacement(theta, *times)


# -- step --------------------------------------------------------------------


def test_step_subtracts_displacement():
    theta = MomentumParams([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    state = LatentState(np.zeros(2), 1.0)
    out = step(state, theta, 0.0)
    assert out.t == 0.0
    assert_allclose(out.x, [-0.5, -0.8591409142295225], rtol=1e-15)


def test_step_with_zero_velocities_keeps_position():
    theta = MomentumParams([1.0], [[0.0, 0.0]], [0.5])
    state = LatentState(np.array([3.0, -1.0]), 0.9)
    out = step(state, theta, 0.1)
    assert_allclose(out.x, state.x, rtol=0)


def test_step_rejects_forward_time():
    theta = MomentumParams([1.0], [[1.0, 0.0]], [0.0])
    state = LatentState(np.zeros(2), 0.5)
    with pytest.raises(InvalidIntervalError):
        step(state, theta, 0.7)


def test_step_overflow_raises_numeric_error():
    # the overflow shows as the error alone, with no numpy warning, and
    # displacement itself returns the non-finite value without one
    theta = MomentumParams([1.0], [[1e308, 0.0]], [20.0])
    state = LatentState(np.zeros(2), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            step(state, theta, 0.0)
        assert displacement(theta, 1.0, 0.0)[0] == np.inf


def test_step_batched_matches_rowwise():
    rng = np.random.default_rng(6)
    gating = rng.uniform(0.1, 1.0, (5, 3))
    gating = gating / gating.sum(axis=-1, keepdims=True)
    base = rng.normal(size=(5, 3, 2))
    logg = rng.uniform(-1.0, 1.0, (5, 3))
    theta = MomentumParams(gating, base, logg)
    state = LatentState(rng.normal(size=(5, 2)), 0.8)
    out = step(state, theta, 0.2)
    for i in range(5):
        row = MomentumParams(gating[i], base[i], logg[i])
        single = step(LatentState(state.x[i], 0.8), row, 0.2)
        assert_allclose(out.x[i], single.x, rtol=1e-14)


# -- sub_interval_displacement --------------------------------------------------


def test_sub_interval_zero_width():
    rng = np.random.default_rng(7)
    theta = random_theta(rng)
    assert_allclose(sub_interval_displacement(theta, 0.4, 0.4), np.zeros(2),
                    atol=0)


def test_sub_interval_linear_mode_hand_value():
    theta = MomentumParams([1.0], [[1.0, 0.0]], [0.0])
    got = sub_interval_displacement(theta, 0.75, 0.5)
    assert_allclose(got, [0.25, 0.0], rtol=1e-15)


def test_sub_interval_matches_direct_displacement():
    rng = np.random.default_rng(8)
    for _ in range(100):
        theta = random_theta(rng, modes=int(rng.integers(1, 7)))
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        anchored = sub_interval_displacement(theta, float(hi), float(lo))
        direct = displacement(theta, float(hi), float(lo))
        assert_allclose(anchored, direct, rtol=1e-11, atol=1e-13)


def theta_with_log_gammas(rng, log_gammas):
    theta = random_theta(rng, modes=len(log_gammas))
    return MomentumParams(theta.gating, theta.base_velocities, log_gammas)


def test_sub_interval_is_additive_over_splits():
    # a chained walk down a grid reproduces the single whole-interval
    # value to float64 roundoff, at the widest |ln gamma| and beside the
    # linear cutoff on both sides
    rng = np.random.default_rng(9)
    bundles = [random_theta(rng, modes=5) for _ in range(50)]
    bundles += [theta_with_log_gammas(rng, rng.uniform(-4.0, 4.0, 5))
                for _ in range(20)]
    bundles += [theta_with_log_gammas(rng, [-4.0, -1e-7, 0.0, 1e-7, 4.0])
                for _ in range(10)]
    for theta in bundles:
        cuts = np.sort(rng.uniform(0.0, 1.0, 6))[::-1]
        chained = sum(
            sub_interval_displacement(theta, float(cuts[i]),
                                      float(cuts[i + 1]))
            for i in range(5))
        whole = sub_interval_displacement(theta, float(cuts[0]),
                                          float(cuts[-1]))
        assert_allclose(chained, whole, rtol=1e-12, atol=1e-12)


def test_sub_interval_validates_interval():
    theta = MomentumParams([1.0], [[1.0, 0.0]], [0.0])
    for t_hi, t_lo in ((0.3, 0.8), (1.1, 0.0), (np.nan, 0.3), (0.5, np.nan),
                       (np.array([0.5, np.nan]), 0.2)):
        with pytest.raises(InvalidIntervalError):
            sub_interval_displacement(theta, t_hi, t_lo)


def batched_random_theta(rng, batch=6, modes=4):
    gating = rng.dirichlet(np.ones(modes), size=batch)
    return MomentumParams(gating, rng.normal(0.0, 2.0, (batch, modes, 2)),
                          rng.uniform(-2.0, 2.0, (batch, modes)))


def test_sub_interval_chain_equals_definition_bit_for_bit():
    # every step of a chain, with scalar or per-row times, is the checked
    # closed form itself, and a call leaves nothing on the bundle
    fields = {f.name for f in dataclasses.fields(MomentumParams)}
    rng = np.random.default_rng(10)
    for theta in (random_theta(rng), batched_random_theta(rng)):
        cuts = np.concatenate(([1.0], np.sort(rng.uniform(size=8))[::-1],
                               [0.0]))
        for hi, lo in zip(cuts[:-1], cuts[1:]):
            assert np.array_equal(sub_interval_displacement(theta, hi, lo),
                                  displacement(theta, hi, lo))
            assert set(vars(theta)) == fields
    theta = batched_random_theta(rng)
    for hi, lo in ((np.full(6, 0.2), rng.uniform(0.0, 0.2, 6)),
                   (0.2, np.full(6, 0.15)),
                   (rng.uniform(0.5, 1.0, 6), rng.uniform(0.0, 0.5, 6))):
        assert np.array_equal(sub_interval_displacement(theta, hi, lo),
                              displacement(theta, hi, lo))
        assert set(vars(theta)) == fields


# -- quadrature_displacement ------------------------------------------------------


def test_quadrature_linear_mode_recovers_velocity():
    theta = MomentumParams([1.0], [[2.5, -0.5]], [0.0])
    got = quadrature_displacement(theta, 1.0, 0.0)
    assert_allclose(got, [2.5, -0.5], rtol=1e-11)


def test_quadrature_sign_follows_the_interval_direction():
    rng = np.random.default_rng(13)
    for _ in range(20):
        theta = random_theta(rng, modes=int(rng.integers(1, 7)))
        lo, hi = (float(t) for t in np.sort(rng.uniform(0.0, 1.0, 2)))
        forward = quadrature_displacement(theta, hi, lo)
        assert_allclose(quadrature_displacement(theta, lo, hi), -forward,
                        rtol=1e-14, atol=1e-15)
        assert_allclose(forward, displacement(theta, hi, lo), rtol=1e-12,
                        atol=1e-13)


def test_quadrature_zero_bundle():
    theta = MomentumParams([1.0], [[0.0, 0.0]], [1.0])
    assert_allclose(quadrature_displacement(theta, 1.0, 0.0), np.zeros(2),
                    atol=1e-14)


def test_quadrature_rejects_batched_params():
    rng = np.random.default_rng(10)
    gating = np.full((2, 3), 1.0 / 3)
    base = rng.normal(size=(2, 3, 2))
    logg = rng.uniform(-1.0, 1.0, (2, 3))
    theta = MomentumParams(gating, base, logg)
    with pytest.raises(InvalidParameterError):
        quadrature_displacement(theta, 1.0, 0.0)


def test_quadrature_gap_above_tolerance_is_a_convergence_error():
    # gamma = e**200 over [0, 1]: the 20- and 40-node rules differ by
    # about 2.4e-3 of the value, far above its 1e-11
    theta = MomentumParams([1.0], [[1.0, 0.0]], [200.0])
    with pytest.raises(ConvergenceError, match="coordinate 0"):
        quadrature_displacement(theta, 1.0, 0.0)


def test_oversized_row_is_split_along_the_batch_with_unsplit_bits(
        monkeypatch):
    # At B = 8192 and K = 8 one row holds 65,536 elements, four times
    # BLOCK_ELEMENTS: the rows are summed in four parts along the batch, and
    # the output bytes equal those of a one-part sum.  At B = 2048 a row
    # fits, and the stack is summed in one part, as it always was.
    import arcflow.solver as solver_module

    real = solver_module._mode_sums
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_mode_sums", counted)
    rng = np.random.default_rng(61)
    for batch, parts in ((8192, 4), (2048, 1)):
        log_g = rng.normal(0.0, 1.0, (batch, 8))
        log_g[::7, 3] = 0.0   # linear modes take the other branch
        theta = MomentumParams(rng.dirichlet(np.ones(8), size=batch),
                               rng.normal(size=(batch, 8, 2)), log_g)
        t_hi = 1.0 - np.arange(16)[:, None] / 32
        for t_lo in (t_hi - 1 / 32, t_hi * rng.uniform(0.5, 0.9, (16, 1))):
            calls.clear()
            split = displacement(theta, t_hi, t_lo)
            assert len(calls) == parts
            monkeypatch.setattr(solver_module, "BLOCK_ELEMENTS", 2**40)
            whole = displacement(theta, t_hi, t_lo)
            monkeypatch.setattr(solver_module, "BLOCK_ELEMENTS", BLOCK_ELEMENTS)
            assert split.tobytes() == whole.tobytes()
