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
from arcflow.solver import momentum_coefficient, sub_interval_displacement
from arcflow.verify import quadrature_displacement


def random_theta(rng, modes=4, dim=2):
    gating = rng.uniform(0.1, 1.0, modes)
    gating = gating / gating.sum()
    base = rng.normal(0.0, 2.0, (modes, dim))
    logg = rng.uniform(-2.0, 2.0, modes)
    return MomentumParams(gating, base, logg)


# -- momentum_coefficient -----------------------------------------------------


def test_coefficient_gamma_one_is_elapsed_time():
    assert momentum_coefficient(1.0, 0.8, 0.3) == pytest.approx(0.5, abs=0)


def test_coefficient_gamma_four_hand_value():
    # integral of 4^(1-t) over [0.5, 1] is (4^0.5 - 4^0) / ln 4
    want = 1.0 / np.log(4.0)
    got = momentum_coefficient(4.0, 1.0, 0.5)
    assert_allclose(got, want, rtol=1e-15)
    assert_allclose(got, 0.7213475204444817, rtol=1e-15)


def test_coefficient_near_one_lands_on_elapsed_time():
    # a gamma one part in 1e9 from 1 gives the gamma = 1 limit to 1e-8
    got = momentum_coefficient(1.0 + 1e-9, 1.0, 0.0)
    assert abs(got - 1.0) < 1e-8


def test_coefficient_continuous_approaching_gamma_one():
    # approach gamma = 1 from both sides, at two offsets each
    for sign in (-1.0, 1.0):
        outside = momentum_coefficient(np.exp(sign * 2e-6), 0.9, 0.2)
        inside = momentum_coefficient(np.exp(sign * 5e-7), 0.9, 0.2)
        assert abs(outside - 0.7) < 1e-5
        assert abs(inside - 0.7) < 1e-5


def test_coefficient_antisymmetric_in_endpoints():
    rng = np.random.default_rng(2)
    for _ in range(200):
        gamma = float(rng.uniform(0.05, 20.0))
        ta, tb = rng.uniform(0.0, 1.0, 2)
        fwd = momentum_coefficient(gamma, ta, tb)
        rev = momentum_coefficient(gamma, tb, ta)
        assert_allclose(fwd, -rev, rtol=1e-13, atol=1e-16)


def test_coefficient_additive_over_interior_point():
    rng = np.random.default_rng(3)
    for _ in range(200):
        gamma = float(rng.uniform(0.05, 20.0))
        t0, t1, t2 = np.sort(rng.uniform(0.0, 1.0, 3))[::-1]
        whole = momentum_coefficient(gamma, t0, t2)
        split = (momentum_coefficient(gamma, t0, t1)
                 + momentum_coefficient(gamma, t1, t2))
        assert_allclose(split, whole, rtol=1e-12, atol=1e-15)


def test_coefficient_scalar_inputs_return_float():
    out = momentum_coefficient(2.0, 1.0, 0.0)
    assert isinstance(out, float)


def test_coefficient_broadcasts_over_gamma_grid():
    gammas = np.array([0.5, 1.0, 2.0, 4.0])
    out = momentum_coefficient(gammas, 1.0, 0.0)
    assert out.shape == (4,)
    for g, val in zip(gammas, out):
        assert_allclose(val, momentum_coefficient(float(g), 1.0, 0.0),
                        rtol=1e-15)


def test_coefficient_rejects_nonpositive_gamma():
    with pytest.raises(InvalidParameterError):
        momentum_coefficient(0.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        momentum_coefficient(-2.0, 1.0, 0.0)
    # non-finite input fails before anything is computed: no NaN back and
    # no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in (np.nan, np.inf, [2.0, np.nan]):
            with pytest.raises(InvalidParameterError):
                momentum_coefficient(gamma, 1.0, 0.0)
        for t_start, t_end in ((np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0),
                               (1.0, [0.5, -np.inf])):
            with pytest.raises(InvalidIntervalError):
                momentum_coefficient(2.0, t_start, t_end)


# The closed form's identities as properties, over |ln gamma| up to 4 and
# both sides of gamma = 1, with fixed draws.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)
gammas = st.one_of(st.floats(np.exp(-4.0), np.exp(4.0)),
                   st.floats(1.0 - 1e-6, 1.0 + 1e-6), st.just(1.0))
times = st.floats(0.0, 1.0)


@PROPERTY
@given(gammas, times, times)
def test_coefficient_antisymmetry_property(gamma, ta, tb):
    assert_allclose(momentum_coefficient(gamma, ta, tb),
                    -momentum_coefficient(gamma, tb, ta), rtol=1e-14, atol=0)


@PROPERTY
@given(gammas, times, times, times)
def test_coefficient_additivity_property(gamma, ta, tb, tc):
    # every part has the whole's sign, so the sum does not cancel
    t0, t1, t2 = sorted((ta, tb, tc), reverse=True)
    whole = momentum_coefficient(gamma, t0, t2)
    split = momentum_coefficient(gamma, t0, t1) \
        + momentum_coefficient(gamma, t1, t2)
    assert_allclose(split, whole, rtol=1e-14, atol=0)


@PROPERTY
@given(st.floats(1.0 - 1e-3, 1.0 + 1e-3), times, times)
def test_coefficient_gamma_one_limit_property(gamma, ta, tb):
    # gamma**(1-t) lies within exp(+-|ln gamma|) of 1 on [0, 1], so the
    # coefficient is within expm1(|ln gamma|) of the elapsed time
    elapsed = ta - tb
    got = momentum_coefficient(gamma, ta, tb)
    slack = np.expm1(abs(np.log(gamma))) + 4 * np.finfo(float).eps
    assert abs(got - elapsed) <= slack * abs(elapsed)
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
    theta = MomentumParams([1.0], [[1e308, 0.0]], [20.0])
    state = LatentState(np.zeros(2), 1.0)
    with pytest.raises(NumericError):
        step(state, theta, 0.0)


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


def test_quadrature_rejects_bad_tolerance():
    theta = MomentumParams([1.0], [[1.0, 0.0]], [0.0])
    with pytest.raises(InvalidParameterError):
        quadrature_displacement(theta, 1.0, 0.0, tol=0.0)


def test_quadrature_gap_above_tolerance_is_a_convergence_error():
    # gamma = e**200 over [0, 1]: the 20- and 40-node rules differ by
    # about 2.4e-3 of the value, far above its 1e-11
    theta = MomentumParams([1.0], [[1.0, 0.0]], [200.0])
    with pytest.raises(ConvergenceError, match="coordinate 0"):
        quadrature_displacement(theta, 1.0, 0.0)
