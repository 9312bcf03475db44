"""Closed-form trajectory steps checked against quadrature and hand values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcflow import (
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


def test_coefficient_near_one_uses_linear_branch():
    # just inside the series cutoff the value must land on the gamma = 1 limit
    got = momentum_coefficient(1.0 + 1e-9, 1.0, 0.0)
    assert abs(got - 1.0) < 1e-8


def test_coefficient_continuous_across_branch_cutoff():
    # approach gamma = 1 from both sides; the two branches must agree
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


def test_sub_interval_telescopes_exactly():
    # anchored differences cancel pairwise, so a chained walk down a grid
    # reproduces the single whole-interval value to float64 roundoff
    rng = np.random.default_rng(9)
    for _ in range(50):
        theta = random_theta(rng, modes=5)
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
    with pytest.raises(InvalidIntervalError):
        sub_interval_displacement(theta, 0.3, 0.8)
    with pytest.raises(InvalidIntervalError):
        sub_interval_displacement(theta, 1.1, 0.0)


def anchored_oracle(theta, t_hi, t_lo):
    # the definition, through displacement, which keeps nothing
    return displacement(theta, 1.0, t_lo) - displacement(theta, 1.0, t_hi)


def batched_random_theta(rng, batch=6, modes=4):
    gating = rng.dirichlet(np.ones(modes), size=batch)
    return MomentumParams(gating, rng.normal(0.0, 2.0, (batch, modes, 2)),
                          rng.uniform(-2.0, 2.0, (batch, modes)))


def test_sub_interval_chain_equals_definition_bit_for_bit():
    # a chain reuses each call's disp(1, t_lo) as the next call's
    # disp(1, t_hi); every step must still equal the definition exactly
    rng = np.random.default_rng(10)
    for theta in (random_theta(rng), batched_random_theta(rng)):
        cuts = np.concatenate(([1.0], np.sort(rng.uniform(size=8))[::-1],
                               [0.0]))
        for hi, lo in zip(cuts[:-1], cuts[1:]):
            assert np.array_equal(sub_interval_displacement(theta, hi, lo),
                                  anchored_oracle(theta, hi, lo))


def test_sub_interval_kept_value_never_leaks():
    rng = np.random.default_rng(11)
    theta = batched_random_theta(rng)
    other = batched_random_theta(rng)
    twin = MomentumParams(theta.gating, theta.base_velocities,
                          theta.log_gammas)
    calls = [
        (theta, 0.9, 0.6),
        (theta, 0.7, 0.5),                   # t_hi is not the kept 0.6
        (other, 0.5, 0.3),                   # another bundle, kept t 0.5
        (theta, 0.3, 0.2),                   # theta kept 0.5, not 0.3
        (twin, 0.2, 0.1),                    # equal values, new object
        (theta, np.full(6, 0.2), rng.uniform(0.0, 0.2, 6)),  # per-row
        (theta, 0.2, np.full(6, 0.15)),
        (theta, 0.2, 0.1),                   # still keeps disp(1, 0.2)
        (theta, 0.1, 0.1),
        (theta, 0.1, 0.0),
    ]
    for bundle, hi, lo in calls:
        assert np.array_equal(sub_interval_displacement(bundle, hi, lo),
                              anchored_oracle(bundle, hi, lo))


def test_sub_interval_keeps_nothing_in_bundle_state():
    import copy
    import dataclasses
    import pickle

    rng = np.random.default_rng(12)
    theta = batched_random_theta(rng)
    before = (pickle.dumps(theta), repr(theta))
    sub_interval_displacement(theta, 0.8, 0.4)
    assert (pickle.dumps(theta), repr(theta)) == before
    fields = {f.name for f in dataclasses.fields(MomentumParams)}
    for clone in (pickle.loads(pickle.dumps(theta)), copy.copy(theta),
                  copy.deepcopy(theta)):
        assert set(vars(clone)) == fields
        for name in fields:
            assert np.array_equal(getattr(clone, name), getattr(theta, name))
        assert np.array_equal(sub_interval_displacement(clone, 0.4, 0.1),
                              anchored_oracle(theta, 0.4, 0.1))


# -- quadrature_displacement ------------------------------------------------------


def test_quadrature_linear_mode_recovers_velocity():
    theta = MomentumParams([1.0], [[2.5, -0.5]], [0.0])
    got = quadrature_displacement(theta, 1.0, 0.0)
    assert_allclose(got, [2.5, -0.5], rtol=1e-11)


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
