"""Momentum-mixture parameterization: hand values, invariants, validation."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcflow import InvalidParameterError, LatentState, MomentumParams
from arcflow.momentum import eval_velocity, init_log_gammas


def random_params(rng, batch=(), modes=4, dim=2):
    gating = rng.uniform(0.1, 1.0, batch + (modes,))
    gating = gating / gating.sum(axis=-1, keepdims=True)
    base = rng.normal(0.0, 2.0, batch + (modes, dim))
    logg = rng.uniform(-2.0, 2.0, batch + (modes,))
    return MomentumParams(gating, base, logg)


# -- eval_velocity ------------------------------------------------------------


def test_eval_velocity_at_time_one_is_gated_sum():
    rng = np.random.default_rng(0)
    theta = random_params(rng, modes=5, dim=3)
    want = np.einsum("k,kd->d", theta.gating, theta.base_velocities)
    assert_allclose(eval_velocity(theta, 1.0), want, rtol=1e-15)


def test_eval_velocity_one_hot_collapses_to_single_mode():
    base = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
    logg = np.array([-0.5, 0.0, 0.7])
    for j in range(3):
        gating = np.zeros(3)
        gating[j] = 1.0
        theta = MomentumParams(gating, base, logg)
        t = 0.3
        want = base[j] * np.exp((1.0 - t) * logg[j])
        assert_allclose(eval_velocity(theta, t), want, rtol=1e-15)


def test_eval_velocity_two_mode_hand_value():
    # pi = (1/2, 1/2), v1 = (1,0) with gamma 1, v2 = (0,1) with gamma e:
    # at t = 0 the mixture velocity is (0.5, 0.5 e)
    theta = MomentumParams(
        gating=[0.5, 0.5],
        base_velocities=[[1.0, 0.0], [0.0, 1.0]],
        log_gammas=[0.0, 1.0],
    )
    assert_allclose(eval_velocity(theta, 0.0), [0.5, 0.5 * np.e], rtol=1e-15)
    assert_allclose(eval_velocity(theta, 0.0)[1], 1.3591409142295225,
                    rtol=1e-15)


def test_eval_velocity_matches_per_mode_extrapolation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta = random_params(rng, modes=int(rng.integers(1, 9)), dim=2)
        t = float(rng.uniform())
        per_mode = [
            theta.gating[k] * theta.base_velocities[k]
            * np.exp(theta.log_gammas[k]) ** (1.0 - t)
            for k in range(theta.num_modes)
        ]
        assert_allclose(eval_velocity(theta, t), np.sum(per_mode, axis=0),
                        rtol=1e-12, atol=1e-14)


def test_eval_velocity_time_array_gives_one_row_per_time():
    # an unbatched bundle with a 1-D t: row i is the velocity at t[i], bit
    # for bit (quadrature_displacement evaluates its nodes this way)
    rng = np.random.default_rng(12)
    theta = random_params(rng, modes=7, dim=3)
    ts = rng.uniform(0.0, 1.0, 40)
    rows = eval_velocity(theta, ts)
    assert rows.shape == (40, 3)
    for t, row in zip(ts, rows):
        assert np.array_equal(row, eval_velocity(theta, float(t)))


def test_eval_velocity_linear_in_base_velocities():
    rng = np.random.default_rng(3)
    theta = random_params(rng, modes=4, dim=2)
    doubled = MomentumParams(theta.gating, 2.0 * theta.base_velocities,
                             theta.log_gammas)
    t = 0.4
    assert_allclose(eval_velocity(doubled, t), 2.0 * eval_velocity(theta, t),
                    rtol=1e-15)


def test_eval_velocity_batched_time_matches_scalar_loop():
    rng = np.random.default_rng(5)
    theta = random_params(rng, batch=(6,), modes=3, dim=2)
    times = rng.uniform(size=6)
    batched = eval_velocity(theta, times)
    for i in range(6):
        row = MomentumParams(theta.gating[i], theta.base_velocities[i],
                             theta.log_gammas[i])
        assert_allclose(batched[i], eval_velocity(row, float(times[i])),
                        rtol=1e-14)


# -- MomentumParams validation --------------------------------------------------


def test_params_shape_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        MomentumParams([0.5, 0.5], [[1.0, 0.0]], [0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        MomentumParams([1.0], [[1.0, 0.0]], [0.0, 0.0])


def test_params_gating_must_be_simplex():
    base = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(InvalidParameterError):
        MomentumParams([0.7, 0.7], base, [0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        MomentumParams([-0.2, 1.2], base, [0.0, 0.0])


def test_params_must_be_finite():
    with pytest.raises(InvalidParameterError):
        MomentumParams([1.0], [[np.inf, 0.0]], [0.0])
    with pytest.raises(InvalidParameterError):
        MomentumParams([1.0], [[0.0, 0.0]], [np.nan])


def test_params_arrays_are_frozen():
    theta = MomentumParams([1.0], [[1.0, 0.0]], [0.0])
    with pytest.raises(ValueError):
        theta.gating[0] = 0.5
    with pytest.raises(ValueError):
        theta.base_velocities[0, 0] = 2.0


def test_params_properties():
    rng = np.random.default_rng(1)
    theta = random_params(rng, batch=(5, 2), modes=3, dim=4)
    assert theta.num_modes == 3
    assert theta.dim == 4
    assert theta.batch_shape == (5, 2)


# -- LatentState ----------------------------------------------------------------


def test_latent_state_validation():
    LatentState(np.zeros(2), 0.0)
    LatentState(np.zeros(2), 1.0)
    with pytest.raises(InvalidParameterError):
        LatentState(np.zeros(2), 1.5)
    with pytest.raises(InvalidParameterError):
        LatentState(np.zeros(2), -0.1)
    with pytest.raises(InvalidParameterError):
        LatentState(np.array([np.nan, 0.0]), 0.5)


def test_latent_state_position_readonly():
    state = LatentState(np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        state.x[0] = 1.0


# -- init_log_gammas --------------------------------------------------------------


def test_init_log_gammas_two_mode_hand_value():
    # geometric progression over [0.5, 2] is (0.5, 2); log 0.5 is nearer zero
    # after the tie rule (equal magnitudes, lower index wins) so it snaps
    logs = init_log_gammas(2, 0.5, 2.0)
    assert logs[0] == 0.0
    assert_allclose(logs[1], np.log(2.0), rtol=1e-15)


def test_init_log_gammas_single_mode():
    logs = init_log_gammas(1, 0.4, 5.0)
    assert logs.shape == (1,)
    assert logs[0] == 0.0


def test_init_log_gammas_structure_sweep():
    for k in (2, 3, 4, 8, 16, 33):
        logs = init_log_gammas(k, 0.4, 5.0)
        assert logs.shape == (k,)
        assert (np.diff(logs) > 0.0).all()
        assert np.count_nonzero(logs == 0.0) == 1
        anchor = list(logs).index(0.0)
        # endpoints stay at the requested range in gamma space unless the
        # anchor snap itself landed on an endpoint
        if anchor != 0:
            assert_allclose(np.exp(logs[0]), 0.4, rtol=1e-12)
        if anchor != k - 1:
            assert_allclose(np.exp(logs[-1]), 5.0, rtol=1e-12)


def test_init_log_gammas_rejects_bad_ranges():
    with pytest.raises(InvalidParameterError):
        init_log_gammas(4, 1.5, 5.0)   # lo must be below 1
    with pytest.raises(InvalidParameterError):
        init_log_gammas(4, 0.4, 0.9)   # hi must be above 1
    with pytest.raises(InvalidParameterError):
        init_log_gammas(4, -0.5, 5.0)
    with pytest.raises(InvalidParameterError):
        init_log_gammas(0, 0.4, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # and no overflow warning on the way
        with pytest.raises(InvalidParameterError):
            init_log_gammas(4, 0.4, np.inf)


def test_init_log_gammas_feeds_params_anchor_contract():
    # the net pins the progression's one zero: the entry of the plain
    # geometric progression nearest gamma = 1, snapped exactly, with every
    # other entry left as it was
    logs = init_log_gammas(8, 0.4, 5.0)
    raw = np.log(np.geomspace(0.4, 5.0, 8))
    nearest = int(np.argmin(np.abs(raw)))
    assert logs[nearest] == 0.0
    assert (np.delete(logs, nearest) == np.delete(raw, nearest)).all()
