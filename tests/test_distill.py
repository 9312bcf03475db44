"""Distillation loop pieces: shelf sampling, mixed rollouts, the matching
loss and its closed-form gradient, few-step sampling."""

import hashlib
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcflow import (
    ArcFlowError,
    GmmTeacherSpec,
    InvalidIntervalError,
    InvalidParameterError,
    LatentState,
    MomentumParams,
    NumericError,
    displacement,
    step,
    student_sample,
)
from arcflow.distill import (
    DistillConfig,
    build_student_net,
    distill_train,
    init_shelf_state,
    lambda_at,
    make_linear_baseline,
    mixed_integration,
    sample_anchor_times,
    sample_shelf,
    train_in_lockstep,
    training_streams,
    velocity_matching_loss,
)
from arcflow.nnet import NetConfig, StudentNet
from arcflow.solver import sub_interval_displacement
from arcflow.teacher import ring_spec


class ConstantTeacher:
    """Velocity field pinned at a constant vector; data at the origin."""

    def __init__(self, u, dim=2):
        self.u = np.asarray(u, dtype=float)
        self._dim = dim

    @property
    def dim(self):
        return self._dim

    def velocity(self, x, t):
        return np.broadcast_to(self.u, np.shape(x)).copy()

    def sample_data(self, rng, count):
        return np.zeros((count, self._dim))


def single_mode_theta(v, log_gamma=0.0):
    return MomentumParams([1.0], [list(v)], [log_gamma])


def batched_theta(gating, base, logg, batch):
    """Tile one parameter bundle across a batch, the shape the loss expects
    from per-sample net predictions."""
    g = np.tile(np.asarray(gating, dtype=float), (batch, 1))
    b = np.tile(np.asarray(base, dtype=float), (batch, 1, 1))
    l = np.tile(np.asarray(logg, dtype=float), (batch, 1))
    return MomentumParams(g, b, l)


def ring_teacher():
    return ring_spec(8, 2.0, 0.25, 2)


# -- config ---------------------------------------------------------------------


def test_config_validation():
    DistillConfig()  # defaults are valid
    with pytest.raises(InvalidParameterError):
        DistillConfig(nfe=0)
    with pytest.raises(InvalidParameterError):
        DistillConfig(num_modes=0)
    with pytest.raises(InvalidParameterError):
        DistillConfig(n_intermediate=0)
    with pytest.raises(InvalidParameterError):
        DistillConfig(guidance_steps=0)
    with pytest.raises(InvalidParameterError):
        DistillConfig(total_steps=-1)
    with pytest.raises(InvalidParameterError):
        DistillConfig(batch=0)
    with pytest.raises(InvalidParameterError):
        DistillConfig(base_lr=0.0)
    for seed in (-3, 1.5, True, "2"):
        with pytest.raises(InvalidParameterError):
            DistillConfig(seed=seed)


@pytest.mark.parametrize("base_lr", [float("nan"), float("inf")])
def test_config_rejects_non_finite_learning_rate(base_lr):
    with pytest.raises(InvalidParameterError) as err:
        DistillConfig(base_lr=base_lr)
    assert str(err.value) == f"base_lr = {base_lr} outside (0, inf)"


@pytest.mark.parametrize("key, value, message", [
    ("total_steps", -1, "total_steps = -1 must be >= 0"),
    ("base_lr", 0.0, "base_lr = 0.0 outside (0, inf)"),
    ("base_lr", -1e-4, "base_lr = -0.0001 outside (0, inf)"),
], ids=["negative-total_steps", "zero-base_lr", "negative-base_lr"])
def test_config_names_the_bad_training_key(key, value, message):
    with pytest.raises(InvalidParameterError) as err:
        DistillConfig(**{key: value})
    assert str(err.value) == message


@pytest.mark.parametrize("gamma_range", [(2.0, 5.0), (0.0, 5.0), (0.4, 1.0),
                                         (0.4, float("nan"))])
def test_config_rejects_bad_gamma_range(gamma_range):
    lo, hi = gamma_range
    with pytest.raises(InvalidParameterError) as err:
        DistillConfig(gamma_lo=lo, gamma_hi=hi)
    assert "gamma_range" in str(err.value)


def test_linear_baseline_strips_momentum_machinery():
    cfg = DistillConfig(num_modes=8, share_velocity=True, seed=11)
    base = make_linear_baseline(cfg)
    assert base.num_modes == 1
    assert base.gamma_mode == "frozen_one"
    assert not base.share_velocity and not base.share_gamma
    # everything else untouched, including the seed that pairs the runs
    assert base.seed == 11
    assert base.total_steps == cfg.total_steps
    assert base.nfe == cfg.nfe


def test_training_streams_deterministic_and_distinct():
    a = training_streams(42)
    b = training_streams(42)
    assert len(a) == 3
    for sa, sb in zip(a, b):
        ra = np.random.default_rng(sa).uniform(size=4)
        rb = np.random.default_rng(sb).uniform(size=4)
        assert (ra == rb).all()
    draws = [np.random.default_rng(s).uniform(size=4) for s in a]
    assert (draws[0] != draws[1]).any()
    assert (draws[1] != draws[2]).any()


def test_build_student_net_mirrors_config():
    cfg = DistillConfig(num_modes=4, gamma_mode="fixed", share_velocity=True,
                        gamma_lo=0.5, gamma_hi=4.0, seed=3)
    net = build_student_net(cfg, dim=2)
    assert net.config.num_modes == 4
    assert net.config.gamma_mode == "fixed"
    assert net.config.share_velocity
    assert net.config.gamma_range == (0.5, 4.0)
    again = build_student_net(cfg, dim=2)
    assert (net.params == again.params).all()


# -- schedules and sampling -------------------------------------------------------


def test_lambda_ramp():
    assert lambda_at(0, 500) == 0.0
    assert lambda_at(250, 500) == 0.5
    assert lambda_at(500, 500) == 1.0
    assert lambda_at(12345, 500) == 1.0


def test_sample_shelf_covers_grid_uniformly():
    rng = np.random.default_rng(0)
    nfe = 4
    counts = np.zeros(nfe, dtype=int)
    for _ in range(10_000):
        t_src, t_dst = sample_shelf(rng, nfe)
        idx = round(t_src * nfe) - 1
        assert t_src == (idx + 1) / nfe
        assert t_dst == idx / nfe
        counts[idx] += 1
    assert (counts > 0).all()
    # binomial(10^4, 1/4) is tight around 2500
    assert (np.abs(counts - 2500) < 250).all()


def test_sample_anchor_times_stratified():
    rng = np.random.default_rng(1)
    t_src, width, count = 1.0, 0.5, 4
    edges = t_src - width * np.arange(count + 1) / count
    for _ in range(10_000):
        times = sample_anchor_times(rng, t_src, width, count)
        assert times.shape == (count,)
        assert (np.diff(times) < 0.0).all()
        assert (times > t_src - width).all() and (times <= t_src).all()
        for j in range(count):
            assert edges[j + 1] <= times[j] <= edges[j]


def test_sample_anchor_times_clipped_at_zero_shelf():
    rng = np.random.default_rng(2)
    times = sample_anchor_times(rng, 0.5, 0.5, 4)
    assert (times >= 0.0).all() and (times <= 0.5).all()


def test_init_shelf_state_pure_noise_at_time_one():
    teacher = ring_teacher()
    x = init_shelf_state(teacher, np.random.default_rng(33), 1.0, 64)
    assert x.shape == (64, 2)
    # replay the stream: data is drawn first, then the noise that x_t reduces
    # to exactly at t = 1
    replay = np.random.default_rng(33)
    teacher.sample_data(replay, 64)
    x1 = replay.standard_normal((64, 2))
    assert (x == x1).all()


def test_init_shelf_state_pure_data_at_time_zero():
    teacher = ring_teacher()
    x = init_shelf_state(teacher, np.random.default_rng(34), 0.0, 64)
    replay = np.random.default_rng(34)
    x0 = teacher.sample_data(replay, 64)
    assert (x == x0).all()


def test_init_shelf_state_midpoint_mean():
    # single offset component so the midpoint mean is nonzero
    teacher = GmmTeacherSpec([1.0], [[2.0, -1.0]], [0.25])
    x = init_shelf_state(teacher, np.random.default_rng(35), 0.5, 100_000)
    want = 0.5 * np.array([2.0, -1.0])
    # var of x_t = 0.25 * (sigma^2 + 1); se = std / sqrt(n)
    se = np.sqrt(0.25 * (0.25 ** 2 + 1.0) / 100_000)
    assert (np.abs(x.mean(axis=0) - want) < 4.0 * se).all()


# -- anchor time checks ------------------------------------------------------------


class RecordingTeacher(ConstantTeacher):
    """Constant field that counts its velocity calls."""

    def __init__(self, u):
        super().__init__(u)
        self.calls = 0

    def velocity(self, x, t):
        self.calls += 1
        return super().velocity(x, t)


def assert_rejected_before_teacher(times, t_start, error):
    # the anchor times are checked at the boundary: at every lambda the
    # error comes before the first teacher call
    theta = single_mode_theta([1.0, 0.0])
    for lam in (0.0, 0.5, 1.0):
        teacher = RecordingTeacher([0.2, 0.1])
        with pytest.raises(error):
            mixed_integration(np.zeros((2, 2)), t_start, theta, times, lam,
                              teacher)
        assert teacher.calls == 0


def test_mixed_integration_requires_decreasing_anchor_times():
    assert_rejected_before_teacher([0.5, 0.7, 0.9], 1.0,
                                   InvalidParameterError)
    assert_rejected_before_teacher([0.9, 0.7, 0.7], 1.0,
                                   InvalidParameterError)
    assert_rejected_before_teacher([0.9, np.nan, 0.5], 1.0,
                                   InvalidParameterError)


def test_mixed_integration_anchor_times_must_fit_under_start():
    assert_rejected_before_teacher([0.9, 0.7, 0.5], 0.8, InvalidIntervalError)
    assert_rejected_before_teacher([0.9, 0.7, -0.1], 1.0,
                                   InvalidIntervalError)
    assert_rejected_before_teacher([0.9, 0.7], 1.5, InvalidIntervalError)
    assert_rejected_before_teacher([0.9, 0.7], np.nan, InvalidIntervalError)


def test_mixed_integration_rejects_bad_anchor_time_shapes():
    assert_rejected_before_teacher(np.zeros((2, 2)), 1.0,
                                   InvalidParameterError)
    assert_rejected_before_teacher([[0.9, 0.5]], 1.0, InvalidParameterError)
    assert_rejected_before_teacher([], 1.0, InvalidParameterError)
    assert_rejected_before_teacher(0.5, 1.0, InvalidParameterError)


# -- mixed integration ------------------------------------------------------------------


def test_mixed_integration_lambda_zero_is_teacher_euler():
    teacher = ring_teacher()
    rng = np.random.default_rng(40)
    x = rng.standard_normal((8, 2))
    times = sample_anchor_times(rng, 1.0, 0.5, 4)
    theta = single_mode_theta([0.3, -0.2], 0.4)
    states, _ = mixed_integration(x, 1.0, theta, times, 0.0, teacher)
    # hand-composed Euler steps between consecutive anchor times
    y = x.copy()
    t_prev = 1.0
    for j, t_next in enumerate(times):
        y = y - teacher.velocity(y, t_prev) * (t_prev - t_next)
        assert (states[j] == y).all()
        t_prev = float(t_next)


def test_mixed_integration_lambda_one_is_pure_closed_form():
    teacher = ring_teacher()
    rng = np.random.default_rng(41)
    x = rng.standard_normal((8, 2))
    times = sample_anchor_times(rng, 1.0, 0.5, 4)
    gating = np.array([0.6, 0.4])
    base = rng.normal(size=(2, 2))
    theta = MomentumParams(gating, base, [0.0, 0.9])
    states, _ = mixed_integration(x, 1.0, theta, times, 1.0, teacher)
    for j, t_next in enumerate(times):
        direct = step(LatentState(x, 1.0), theta, float(t_next))
        assert_allclose(states[j], direct.x, rtol=1e-12,
                        atol=1e-12)


def test_mixed_integration_half_lambda_hand_value():
    # one sub-interval [1, 0.5] with lambda = 1/2 switches at 0.75: a
    # teacher segment of length 1/4 then a student segment of length 1/4
    u = np.array([0.4, -0.6])
    v = np.array([1.0, 2.0])
    teacher = ConstantTeacher(u)
    x1 = np.array([[0.0, 0.0], [1.0, 1.0]])
    theta = single_mode_theta(v)
    states, _ = mixed_integration(x1, 1.0, theta, [0.5], 0.5, teacher)
    want = x1 - 0.25 * u - 0.25 * v
    assert_allclose(states[0], want, rtol=1e-15)


def test_mixed_integration_caches_every_row():
    # the final anchor's target included: the loss calls no teacher
    teacher = ring_teacher()
    rng = np.random.default_rng(42)
    x = rng.standard_normal((4, 2))
    times = np.array([0.9, 0.8, 0.7, 0.6])
    theta = single_mode_theta([0.1, 0.1])
    for lam in (0.0, 0.7, 1.0):
        states, targets = mixed_integration(x, 1.0, theta, times, lam,
                                            teacher)
        for j in range(4):
            want = teacher.velocity(states[j], float(times[j]))
            assert (targets[j] == want).all()


def lopsided_teacher():
    return GmmTeacherSpec(
        [0.2, 0.5, 0.3], [[1.0, -2.0], [-0.5, 0.5], [3.0, 1.0]],
        [0.4, 0.8, 0.1])


ROLLOUT_TEACHERS = pytest.mark.parametrize("make_teacher", [
    ring_teacher,
    lopsided_teacher,
    lambda: ConstantTeacher([0.4, -0.6]),
], ids=["ring", "analytic", "constant"])


def rollout_draws(rng, batched):
    """(x, t_start, times, theta) draws at the loop's shapes and around
    them; log gammas include an exact zero (the linear branch)."""
    for batch in (1, 5, 64):
        for t_start in (1.0, 0.5):
            x = rng.standard_normal((batch, 2))
            times = sample_anchor_times(rng, t_start, 0.5, 4)
            gating = rng.dirichlet(np.ones(8), size=batch if batched else None)
            base = rng.normal(size=gating.shape + (2,))
            logg = rng.normal(size=gating.shape) * np.linspace(-3.0, 3.0, 8)
            logg[..., 3] = 0.0
            yield x, t_start, times, MomentumParams(gating, base, logg)


@ROLLOUT_TEACHERS
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "single"])
def test_lambda_one_rollout_equals_sequential_route(make_teacher, batched):
    # the lam = 1 rollout (one stacked displacement call, teacher on every
    # anchor) must give the bits of the sequential route: a chain of
    # interval steps displacement(t_(j-1), t_j) and one teacher call per
    # anchor
    teacher = make_teacher()
    rng = np.random.default_rng(43)
    for x, t_start, times, theta in rollout_draws(rng, batched):
        states, targets = mixed_integration(x, t_start, theta, times, 1.0,
                                            teacher)
        y, t_prev = x, t_start
        for j, t_next in enumerate(times):
            y = y - displacement(theta, t_prev, t_next)
            assert np.array_equal(states[j], y)
            assert np.array_equal(targets[j],
                                  teacher.velocity(y, float(t_next)))
            t_prev = t_next


@ROLLOUT_TEACHERS
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "single"])
def test_guided_rollout_equals_sequential_route(make_teacher, batched):
    # lam < 1 computes every student segment in one call before it steps;
    # the result must have the bits of stepping each sub-interval through
    # a teacher Euler segment and the interval step displacement(s_j, t_j),
    # with one teacher call per anchor
    teacher = make_teacher()
    rng = np.random.default_rng(46)
    for lam in (0.0, 0.002, 0.5, 0.998):
        for x, t_start, times, theta in rollout_draws(rng, batched):
            states, targets = mixed_integration(x, t_start, theta, times,
                                                lam, teacher)
            y, t_prev = x, t_start
            u = teacher.velocity(y, t_prev)
            for j, t_next in enumerate(times):
                t_sw = lam * t_prev + (1.0 - lam) * float(t_next)
                y = y - u * (t_prev - t_sw)
                y = y - displacement(theta, t_sw, float(t_next))
                u = teacher.velocity(y, float(t_next))
                assert np.array_equal(states[j], y)
                assert np.array_equal(targets[j], u)
                t_prev = float(t_next)


def test_analytic_teacher_rows_do_not_depend_on_their_batch():
    # what the teacher duck type promises the rollout: stacking states of
    # several times into one call with per-row times changes no bit of any
    # row
    rng = np.random.default_rng(44)
    for _ in range(20):
        comps = int(rng.integers(1, 9))
        teacher = GmmTeacherSpec(rng.dirichlet(np.ones(comps)),
                                 rng.normal(size=(comps, 2)) * 2.0,
                                 rng.uniform(0.05, 1.0, comps))
        batch = int(rng.integers(1, 70))
        states = rng.normal(size=(4, batch, 2)) * 2.0
        times = rng.uniform(size=4)
        stacked = teacher.velocity(states.reshape(-1, 2),
                                   np.repeat(times, batch))
        single = np.concatenate([teacher.velocity(s, float(t))
                                 for s, t in zip(states, times)])
        assert np.array_equal(stacked, single)


def test_lambda_one_loss_needs_no_fresh_teacher_call():
    class CountingTeacher(ConstantTeacher):
        calls = 0

        def velocity(self, x, t):
            CountingTeacher.calls += 1
            return super().velocity(x, t)

    teacher = CountingTeacher([0.2, 0.1])
    rng = np.random.default_rng(45)
    theta = batched_theta([0.5, 0.5], rng.normal(size=(2, 2)), [0.0, 0.5],
                          batch=6)
    times = sample_anchor_times(rng, 1.0, 0.5, 4)
    _, targets = mixed_integration(rng.standard_normal((6, 2)), 1.0, theta,
                                   times, 1.0, teacher)
    assert CountingTeacher.calls == 1
    velocity_matching_loss(theta, times, targets)
    assert CountingTeacher.calls == 1


def test_mixed_integration_rejects_bad_lambda():
    teacher = ring_teacher()
    theta = single_mode_theta([0.1, 0.1])
    with pytest.raises(InvalidParameterError):
        mixed_integration(np.zeros((2, 2)), 1.0, theta, [0.5], 1.5, teacher)


# -- velocity matching loss ----------------------------------------------------------------


def fresh_targets(times, states, teacher):
    """Teacher velocities at the given anchor states and times."""
    return np.stack([teacher.velocity(x, float(t))
                     for x, t in zip(states, times)])


def test_loss_zero_when_student_matches_teacher():
    v = np.array([0.7, -0.3])
    # gamma 1 keeps the student velocity at v for every anchor time
    theta = batched_theta([1.0], [v], [0.0], batch=3)
    teacher = ConstantTeacher(v)
    states = np.zeros((2, 3, 2))
    times = [0.8, 0.6]
    loss, (_, d_base, d_logg) = velocity_matching_loss(
        theta, times, fresh_targets(times, states, teacher))
    assert loss == 0.0
    assert (d_base == 0.0).all()
    assert (d_logg == 0.0).all()


def test_loss_hand_value_single_anchor():
    # student emits (1, 0), teacher emits zero, one anchor, one sample in
    # two dimensions: mean over the two coordinates of (1, 0)^2 is 1/2
    theta = batched_theta([1.0], [[1.0, 0.0]], [0.0], batch=1)
    teacher = ConstantTeacher([0.0, 0.0])
    states = np.zeros((1, 1, 2))
    loss, (_, d_base, _) = velocity_matching_loss(
        theta, [0.5], fresh_targets([0.5], states, teacher))
    assert loss == pytest.approx(0.5, abs=1e-15)
    # d loss / d base = 2 diff / size * gating * gamma-power = (1, 0)
    assert_allclose(d_base, [[[1.0, 0.0]]], rtol=1e-15)


def test_loss_scales_quadratically():
    theta1 = batched_theta([1.0], [[1.0, 0.0]], [0.0], batch=4)
    theta2 = batched_theta([1.0], [[2.0, 0.0]], [0.0], batch=4)
    teacher = ConstantTeacher([0.0, 0.0])
    states = np.zeros((2, 4, 2))
    times = [0.8, 0.4]
    targets = fresh_targets(times, states, teacher)
    l1, _ = velocity_matching_loss(theta1, times, targets)
    l2, _ = velocity_matching_loss(theta2, times, targets)
    assert l2 == pytest.approx(4.0 * l1, rel=1e-14)


def test_loss_uses_cache_and_fresh_teacher_identically():
    # anchors are constants: whether a target row comes from the rollout
    # cache or a fresh teacher call must not change loss or gradient
    teacher = ring_teacher()
    rng = np.random.default_rng(50)
    x = rng.standard_normal((6, 2))
    times = sample_anchor_times(rng, 1.0, 0.5, 4)
    theta = batched_theta([0.5, 0.5], rng.normal(size=(2, 2)), [0.0, 0.5],
                          batch=6)
    states, cached = mixed_integration(x, 1.0, theta, times, 0.5, teacher)
    l_a, g_a = velocity_matching_loss(theta, times, cached)
    l_b, g_b = velocity_matching_loss(theta, times,
                                      fresh_targets(times, states, teacher))
    assert l_a == l_b
    for got, want in zip(g_a, g_b):
        assert (got == want).all()


def explicit_loss(theta, times, targets):
    """The loss and its three gradients with exp((1 - t_j) ln gamma) and
    every contraction written out, the reference the loss must match bit
    for bit."""
    expo = (1.0 - times)[:, None, None]
    gpow = np.exp(expo * theta.log_gammas[None])
    diff = np.einsum("bk,nbk,bkd->nbd", theta.gating, gpow,
                     theta.base_velocities) - targets
    up = 2.0 * diff / diff.size
    proj_pow = np.einsum("nbd,bkd->nbk", up, theta.base_velocities) * gpow
    grads = (proj_pow.sum(axis=0),
             np.einsum("nbd,nbk->bkd", up, gpow) * theta.gating[..., None],
             (proj_pow * expo).sum(axis=0) * theta.gating)
    return float(np.mean(diff * diff)), grads


def assert_same_loss_bits(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1], want[1]):
        assert np.array_equal(g, w)


def test_loss_matches_explicit_gamma_power_reference_bit_for_bit():
    # the loss takes its own gamma powers exp((1 - t_j) ln gamma); the loss
    # and all three gradients must have the bits of that formula written
    # out here, whatever lambda built the targets
    teacher = ring_teacher()
    rng = np.random.default_rng(53)
    for lam in (0.0, 0.4, 1.0):
        for x, t_start, times, theta in rollout_draws(rng, batched=True):
            _, targets = mixed_integration(x, t_start, theta, times, lam,
                                           teacher)
            assert_same_loss_bits(
                velocity_matching_loss(theta, times, targets),
                explicit_loss(theta, times, targets))


def test_loss_shares_rollout_gamma_powers_bit_for_bit():
    # the loss on the rollout's targets has the same bits whether it gets
    # the bundle that drove the rollout or an equal bundle that is another
    # object: nothing rides on the bundle's identity
    teacher = ring_teacher()
    rng = np.random.default_rng(53)
    for lam in (0.0, 0.4, 1.0):
        for x, t_start, times, theta in rollout_draws(rng, batched=True):
            _, targets = mixed_integration(x, t_start, theta, times, lam,
                                           teacher)
            twin = MomentumParams(theta.gating, theta.base_velocities,
                                  theta.log_gammas)
            assert_same_loss_bits(
                velocity_matching_loss(theta, times, targets),
                velocity_matching_loss(twin, times, targets))


def test_loss_ignores_gamma_powers_of_another_bundle():
    # targets rolled out under one bundle, loss taken for another: the
    # loss uses the gamma powers of the bundle it is given
    teacher = ring_teacher()
    rng = np.random.default_rng(54)
    x, t_start, times, theta = next(rollout_draws(rng, batched=True))
    _, targets = mixed_integration(x, t_start, theta, times, 1.0, teacher)
    other = MomentumParams(theta.gating, theta.base_velocities,
                           theta.log_gammas * 0.5)
    got = velocity_matching_loss(other, times, targets)
    assert_same_loss_bits(got, explicit_loss(other, times, targets))
    assert got[0] != velocity_matching_loss(theta, times, targets)[0]


def test_loss_gradients_match_finite_differences():
    # batch of one so each parameter entry is probed directly
    teacher = ring_teacher()
    rng = np.random.default_rng(51)
    x = rng.standard_normal((1, 2))
    times = sample_anchor_times(rng, 1.0, 0.5, 3)
    gating = np.array([[0.3, 0.7]])
    base = rng.normal(size=(1, 2, 2))
    logg = np.array([[-0.4, 0.6]])
    theta = MomentumParams(gating, base, logg)
    _, targets = mixed_integration(x, 1.0, theta, times, 0.5, teacher)

    def loss_at(g, b, lg):
        th = MomentumParams(g, b, lg)
        return velocity_matching_loss(th, times, targets)[0]

    _, (d_gating, d_base, d_logg) = velocity_matching_loss(theta, times,
                                                           targets)
    h = 1e-6
    # base velocities and log rates: plain central differences
    for (k, d) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        bp, bm = base.copy(), base.copy()
        bp[0, k, d] += h
        bm[0, k, d] -= h
        fd = (loss_at(gating, bp, logg) - loss_at(gating, bm, logg)) / (2 * h)
        assert_allclose(d_base[0, k, d], fd, rtol=1e-5,
                        atol=1e-9)
    for k in range(2):
        lp, lm = logg.copy(), logg.copy()
        lp[0, k] += h
        lm[0, k] -= h
        fd = (loss_at(gating, base, lp) - loss_at(gating, base, lm)) / (2 * h)
        assert_allclose(d_logg[0, k], fd, rtol=1e-5, atol=1e-9)
    # gating lives on the simplex: probe the (+h, -h) pairwise direction,
    # whose directional derivative is the gradient-entry difference
    gp = gating + np.array([[h, -h]])
    gm = gating + np.array([[-h, h]])
    fd = (loss_at(gp, base, logg) - loss_at(gm, base, logg)) / (2 * h)
    assert_allclose(d_gating[0, 0] - d_gating[0, 1], fd, rtol=1e-5,
                    atol=1e-9)


# -- training loop --------------------------------------------------------------------------


def test_distill_train_zero_steps_is_identity():
    cfg = DistillConfig(total_steps=0, seed=0)
    net = build_student_net(cfg, dim=2)
    before = net.params.copy()
    log = distill_train(ring_teacher(), net, cfg)
    assert log == []
    assert (net.params == before).all()


def test_distill_train_rejects_mode_mismatch():
    cfg = DistillConfig(num_modes=8, total_steps=1)
    net = build_student_net(
        DistillConfig(num_modes=4), dim=2)
    with pytest.raises(InvalidParameterError):
        distill_train(ring_teacher(), net, cfg)


def test_distill_train_attaches_step_to_any_arcflow_error():
    # a non-finite weight surfaces through the forward pass's finiteness
    # check, which is not a NumericError, and must still name the step
    cfg = DistillConfig(total_steps=3, batch=8, num_modes=2)
    net = build_student_net(cfg, dim=2)
    net.params[0] = np.nan
    with pytest.raises(InvalidParameterError,
                       match="^training step 0: momentum parameters must be "
                             "finite"):
        distill_train(ring_teacher(), net, cfg)


def test_diverging_run_fails_with_step_and_no_numpy_warning():
    cfg = DistillConfig(total_steps=3, batch=8, num_modes=2, base_lr=1e300)
    net = build_student_net(cfg, dim=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="^training step 1: "):
            distill_train(ring_teacher(), net, cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_final_step_divergence_names_its_step(monkeypatch):
    # no later forward pass sees the last update, so the loop checks it
    import arcflow.distill as distill_module

    def blow_up(net, opt):
        net.params[0] = np.inf

    monkeypatch.setattr(distill_module, "adam_step", blow_up)
    cfg = DistillConfig(total_steps=1, batch=8, num_modes=2)
    net = build_student_net(cfg, dim=2)
    with pytest.raises(NumericError, match="^training step 0: non-finite "
                                           "parameters"):
        distill_train(ring_teacher(), net, cfg)


def test_distill_train_log_rows_and_descent():
    cfg = DistillConfig(total_steps=400, guidance_steps=100, batch=32,
                        num_modes=4, seed=1)
    net = build_student_net(cfg, dim=2)
    log = distill_train(ring_teacher(), net, cfg)
    assert len(log) == 400
    steps = [row[0] for row in log]
    lams = np.array([row[1] for row in log])
    losses = np.array([row[2] for row in log])
    shelves = np.array([row[3] for row in log])
    assert steps == list(range(400))
    assert (np.diff(lams) >= 0.0).all()
    assert lams[0] == 0.0 and lams[-1] == 1.0
    assert np.isfinite(losses).all() and (losses >= 0.0).all()
    assert set(np.round(shelves * cfg.nfe)) <= set(range(1, cfg.nfe + 1))
    assert losses[-100:].mean() < losses[:100].mean()


def test_distill_train_reproducible():
    cfg = DistillConfig(total_steps=50, batch=16, num_modes=2, seed=9)
    nets = []
    for _ in range(2):
        net = build_student_net(cfg, dim=2)
        distill_train(ring_teacher(), net, cfg)
        nets.append(net.params.copy())
    assert (nets[0] == nets[1]).all()


# -- lockstep training -----------------------------------------------------------------------


def lockstep_configs(seeds, modes=("frozen_one", "fixed", "learnable"),
                     **overrides):
    fields = dict(total_steps=12, guidance_steps=4, batch=8, num_modes=2)
    fields.update(overrides)
    return [DistillConfig(seed=seed, gamma_mode=mode, **fields)
            for seed in seeds for mode in modes]


def solo_outcome(cfg, poison=False):
    """The loss log or the ArcFlowError of cfg's own distill_train, and the
    net's parameter bytes."""
    net = build_student_net(cfg, dim=2)
    if poison:
        net.params[0] = np.nan
    try:
        return distill_train(ring_teacher(), net, cfg), net.params.tobytes()
    except ArcFlowError as exc:
        return exc, None


def assert_same_outcome(got, solo):
    if isinstance(solo, ArcFlowError):
        assert type(got) is type(solo) and str(got) == str(solo)
    else:
        assert [tuple(float(v).hex() for v in row) for row in got] == \
            [tuple(float(v).hex() for v in row) for row in solo]


def test_lockstep_runs_equal_their_solo_runs_and_keep_row_views():
    # the learnable rows: 2 and 5, row 2 alone, and every row
    for cfgs in (lockstep_configs((0, 1)), lockstep_configs((1,)),
                 lockstep_configs((0, 1, 2), modes=("learnable",))):
        nets = [build_student_net(cfg, dim=2) for cfg in cfgs]
        outcomes = train_in_lockstep(ring_teacher(), nets, cfgs)
        stack = nets[0].params.base
        for row, (cfg, net, got) in enumerate(zip(cfgs, nets, outcomes)):
            log, params = solo_outcome(cfg)
            assert_same_outcome(got, log)
            assert net.params.tobytes() == params
            assert net.params.base is stack and stack.shape[0] == len(cfgs)
            if cfg.gamma_mode != "learnable":
                for name in ("gam_w", "gam_b"):
                    assert not net.view(name).any()


def test_lockstep_divergence_records_each_runs_solo_error():
    # lr 1e300 diverges every run, each at its own step and in its own way
    cfgs = lockstep_configs((0, 1), base_lr=1e300)
    nets = [build_student_net(cfg, dim=2) for cfg in cfgs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = train_in_lockstep(ring_teacher(), nets, cfgs)
    texts = set()
    for cfg, got in zip(cfgs, outcomes):
        solo, _ = solo_outcome(cfg)
        assert isinstance(solo, ArcFlowError)
        assert_same_outcome(got, solo)
        assert isinstance(got.__cause__, type(got))
        texts.add(str(got))
    assert len(texts) > 1


def test_lockstep_run_with_a_non_finite_weight_leaves_the_others_alone():
    cfgs = lockstep_configs((0, 1))
    nets = [build_student_net(cfg, dim=2) for cfg in cfgs]
    nets[1].params[0] = np.nan
    outcomes = train_in_lockstep(ring_teacher(), nets, cfgs)
    assert str(outcomes[1]) == ("training step 0: momentum parameters must "
                                "be finite")
    for row, (cfg, net, got) in enumerate(zip(cfgs, nets, outcomes)):
        log, params = solo_outcome(cfg, poison=row == 1)
        assert_same_outcome(got, log)
        if row != 1:
            assert net.params.tobytes() == params


def test_lockstep_takes_configs_that_differ_in_seed_and_gamma_mode_alone():
    cfgs = lockstep_configs((0,))
    for other in (dict(batch=16), dict(base_lr=1e-3), dict(num_modes=4),
                  dict(share_velocity=True)):
        bad = cfgs[:2] + lockstep_configs((0,), modes=("fixed",), **other)
        nets = [build_student_net(cfg, dim=2) for cfg in bad]
        with pytest.raises(InvalidParameterError):
            train_in_lockstep(ring_teacher(), nets, bad)
    nets = [build_student_net(cfg, dim=2) for cfg in cfgs]
    with pytest.raises(InvalidParameterError):
        train_in_lockstep(ring_teacher(), nets, cfgs[:2])
    # nets of two layouts cannot share one stack
    with pytest.raises(InvalidParameterError):
        StudentNet.stack([nets[0], build_student_net(
            DistillConfig(num_modes=2, share_gamma=True), dim=2)])


# -- few-step sampling -----------------------------------------------------------------------


def constant_velocity_net(v):
    """One-mode momentum-frozen net rigged to output v everywhere."""
    net = StudentNet.seeded(NetConfig(dim=len(v), num_modes=1,
                                      gamma_mode="frozen_one"), seed=0)
    net.params[:] = 0.0
    net.view("vel_b")[...] = np.asarray(v, dtype=float)
    return net


def test_student_sample_constant_field_endpoint():
    v = np.array([0.8, -0.2])
    net = constant_velocity_net(v)
    x1 = np.array([[1.0, 1.0], [0.0, 2.0]])
    rec = student_sample(net, x1, nfe=2, dense_per_shelf=8)
    assert_allclose(rec.endpoint, x1 - v, rtol=1e-12, atol=1e-14)
    assert rec.positions.shape == (17, 2, 2)
    assert rec.times.shape == (17,)


def test_student_sample_dense_trace_composes_to_single_step():
    # the closed form is additive over interval splits, so the shelf
    # handoff points must match one whole-shelf step almost exactly
    cfg = DistillConfig(num_modes=4, total_steps=60, batch=16,
                        guidance_steps=20, seed=5)
    net = build_student_net(cfg, dim=2)
    distill_train(ring_teacher(), net, cfg)
    rng = np.random.default_rng(52)
    x1 = rng.standard_normal((8, 2))
    nfe, dense = 2, 16
    rec = student_sample(net, x1, nfe=nfe, dense_per_shelf=dense)
    x = np.asarray(x1, dtype=float)
    for shelf in range(nfe, 0, -1):
        t_hi, t_lo = shelf / nfe, (shelf - 1) / nfe
        theta = net.forward(x, t_hi)
        x = x - sub_interval_displacement(theta, t_hi, t_lo)
        handoff = rec.positions[(nfe - shelf + 1) * dense]
        assert_allclose(handoff, x, rtol=1e-12, atol=1e-13)
    assert_allclose(rec.endpoint, x, rtol=1e-12, atol=1e-13)


def sampling_net():
    """Two-coordinate student with random weights, so its bundles mix
    momentum factors on both sides of gamma = 1."""
    net = build_student_net(DistillConfig(num_modes=4), dim=2, init_seed=3)
    net.params[:] = np.random.default_rng(4).normal(0.0, 0.5, net.params.size)
    return net


@pytest.mark.parametrize("shape", [(2,), (37, 2), (2048, 2)],
                         ids=["unbatched", "b37", "b2048"])
def test_student_sample_equals_interval_displacement_oracle(shape):
    # x_m = x_(m-1) - displacement(theta, tau_(m-1), tau_m) on the dense
    # grid of each shelf, theta predicted once at the shelf start
    net = sampling_net()
    x1 = np.random.default_rng(55).standard_normal(shape)
    for nfe in (1, 2, 3):
        for dense in (1, 16):
            rec = student_sample(net, x1, nfe=nfe, dense_per_shelf=dense)
            x, xs, ts = x1, [x1], [1.0]
            for shelf in range(nfe, 0, -1):
                t_hi, t_lo = shelf / nfe, (shelf - 1) / nfe
                theta = net.forward(x, t_hi)
                tau_prev = t_hi
                for m in range(1, dense + 1):
                    tau = (t_lo if m == dense
                           else t_hi + (t_lo - t_hi) * (m / dense))
                    x = x - displacement(theta, tau_prev, tau)
                    xs.append(x)
                    ts.append(tau)
                    tau_prev = tau
            assert np.array_equal(rec.positions, np.stack(xs))
            assert np.array_equal(rec.times, np.array(ts))


def test_student_sample_keeps_its_bits_at_b2048():
    # sha256 of the positions and times of a 2-NFE, 16-dense sample of 2,048
    # rows, from when every dense sub-step was its own displacement call
    net = sampling_net()
    x1 = np.random.default_rng(55).standard_normal((2048, 2))
    rec = student_sample(net, x1, 2, 16)
    digest = hashlib.sha256(rec.positions.tobytes() + rec.times.tobytes())
    assert digest.hexdigest() == (
        "e87eb988f8b4ea6240fede276dfe45ebbc08bf429801279f6f1bfbcda827ffd2")


def test_student_sample_names_the_first_non_finite_sub_step():
    # a constant field that overflows the state at the tenth sub-step of the
    # first shelf, not the first: one NumericError names it, with no warning
    net = constant_velocity_net([-1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            student_sample(net, [[1.5e308, 0.0]], nfe=2, dense_per_shelf=16)
    assert str(err.value) == (
        "non-finite sample state in shelf 0 (1.000000 -> 0.500000), "
        "sub-step 9 (0.718750 -> 0.687500)")


def test_student_sample_time_grid():
    net = constant_velocity_net([0.0, 0.0])
    rec = student_sample(net, np.zeros(2), nfe=4, dense_per_shelf=4)
    assert rec.times[0] == 1.0 and rec.times[-1] == 0.0
    # every shelf boundary appears exactly
    for shelf in range(5):
        assert shelf / 4 in rec.times


def test_student_sample_validation():
    net = constant_velocity_net([0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        student_sample(net, np.zeros(2), nfe=0, dense_per_shelf=16)
    with pytest.raises(InvalidParameterError):
        student_sample(net, np.zeros(2), nfe=2, dense_per_shelf=0)
    # the net takes x of shape (D,) or (B, D) alone
    for x in (np.zeros((2, 3, 2)), np.float64(0.5)):
        with pytest.raises(InvalidParameterError, match="neither"):
            student_sample(net, x, nfe=2, dense_per_shelf=16)


def test_linear_baseline_step_equals_euler_step():
    # the one-mode momentum-frozen student is a per-shelf constant field, so
    # its closed-form shelf step must coincide with a plain Euler step of the
    # same width
    net = constant_velocity_net([0.3, 0.4])
    x1 = np.array([[2.0, -1.0]])
    rec = student_sample(net, x1, nfe=2, dense_per_shelf=1)
    v = np.array([0.3, 0.4])
    euler = x1 - 0.5 * v - 0.5 * v
    assert_allclose(rec.endpoint, euler, rtol=1e-15)
