"""Analytic mixture teacher and the Euler reference sampler."""

import concurrent.futures
import hashlib
import multiprocessing
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcflow import (
    GmmTeacherSpec,
    InvalidParameterError,
    InvalidProblemError,
    NumericError,
    TrajectoryRecord,
    euler_sample,
)
import arcflow._pool as pool_module
from arcflow.teacher import (
    gmm_velocity,
    ring_spec,
    sample_data,
)


def lopsided_spec():
    # asymmetric two-component mixture with a nonzero mean, so identities
    # that would collapse by symmetry stay informative
    return GmmTeacherSpec(
        weights=[0.3, 0.7],
        means=[[1.0, -2.0], [-0.5, 0.5]],
        stds=[0.4, 0.8],
    )


# -- spec construction and validation -------------------------------------------


def test_ring_spec_geometry():
    spec = ring_spec(components=8, radius=2.0, std=0.25, dim=2)
    assert spec.weights.size == 8
    assert spec.dim == 2
    assert_allclose(np.linalg.norm(spec.means, axis=1), np.full(8, 2.0),
                    rtol=1e-12)
    assert_allclose(spec.weights, np.full(8, 0.125), rtol=0)
    assert_allclose(spec.stds, np.full(8, 0.25), rtol=0)
    # evenly spaced: nearest-neighbor chords all equal
    chords = np.linalg.norm(spec.means - np.roll(spec.means, 1, axis=0),
                            axis=1)
    assert_allclose(chords, chords[0], rtol=1e-12)


def test_ring_spec_embeds_in_higher_dim():
    spec = ring_spec(components=4, radius=1.0, std=0.3, dim=5)
    assert spec.dim == 5
    assert_allclose(spec.means[:, 2:], np.zeros((4, 3)), atol=0)


def test_spec_rejects_non_simplex_weights():
    with pytest.raises(InvalidProblemError):
        GmmTeacherSpec([0.5, 0.6], [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    with pytest.raises(InvalidProblemError):
        GmmTeacherSpec([-0.1, 1.1], [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])


def test_spec_rejects_tiny_stds():
    with pytest.raises(InvalidProblemError):
        GmmTeacherSpec([1.0], [[0.0, 0.0]], [1e-6])


def test_spec_rejects_shape_mismatch():
    with pytest.raises(InvalidProblemError):
        GmmTeacherSpec([1.0], [[0.0, 0.0], [1.0, 1.0]], [0.5])


def test_spec_rejects_non_finite_variances():
    # finite stds whose squares overflow, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidProblemError, match="variances"):
            GmmTeacherSpec([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]],
                           [0.5, 1e200])


@pytest.mark.parametrize("components", [0, -3])
def test_ring_spec_rejects_fewer_than_one_component(components):
    with pytest.raises(InvalidProblemError, match="components >= 1"):
        ring_spec(components, 2.0, 0.25, 2)


@pytest.mark.parametrize("components,dim", [(10 ** 20, 2), (8, 10 ** 14)])
def test_ring_spec_too_big_to_allocate(components, dim):
    # numpy's ValueError for a size past its index range, and a
    # MemoryError for one past the address space, both become parameter
    # errors
    with pytest.raises(InvalidParameterError, match="does not fit"):
        ring_spec(components, 2.0, 0.25, dim)


# -- closed-form velocity ---------------------------------------------------------


def test_velocity_single_standard_component_is_zero_at_midpoint():
    # x0 ~ N(0,1) and x1 ~ N(0,1) are exchangeable, so E[x1 - x0 | x_t] = 0
    spec = GmmTeacherSpec([1.0], [[0.0, 0.0]], [1.0])
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 2))
    assert_allclose(gmm_velocity(spec, x, 0.5), np.zeros((16, 2)), atol=1e-12)


def test_velocity_at_time_one_is_x_minus_mixture_mean():
    spec = lopsided_spec()
    mean = np.einsum("j,jd->d", spec.weights, spec.means)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(32, 2))
    assert_allclose(gmm_velocity(spec, x, 1.0), x - mean, rtol=1e-12,
                    atol=1e-12)


def test_velocity_at_time_zero_is_negated_position():
    spec = lopsided_spec()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(32, 2)) * 3.0
    assert_allclose(gmm_velocity(spec, x, 0.0), -x, rtol=1e-12, atol=1e-12)


def test_velocity_mean_identity_along_path():
    # averaged over the path marginal, the velocity is E[x1 - x0], which is
    # minus the mixture mean; check by Monte Carlo within 3 standard errors
    spec = lopsided_spec()
    want = -np.einsum("j,jd->d", spec.weights, spec.means)
    rng = np.random.default_rng(3)
    n = 40_000
    for t in (0.1, 0.5, 0.9):
        x0 = sample_data(spec, rng, n)
        x1 = rng.standard_normal((n, 2))
        xt = (1.0 - t) * x0 + t * x1
        u = gmm_velocity(spec, xt, t)
        se = u.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(u.mean(axis=0) - want) <= 3.0 * se).all()


def test_velocity_finite_on_wide_sweep():
    spec = ring_spec(8, 2.0, 0.25, 2)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(500, 2)) * 10.0
    t = rng.uniform(size=500)
    out = gmm_velocity(spec, x, t)
    assert out.shape == (500, 2)
    assert np.isfinite(out).all()


def test_velocity_far_tail_does_not_overflow():
    # log-space responsibilities keep distant points stable
    spec = ring_spec(8, 2.0, 0.25, 2)
    x = np.array([[1e6, -1e6]])
    out = gmm_velocity(spec, x, 0.5)
    assert np.isfinite(out).all()


def test_velocity_unbatched_matches_batched():
    spec = lopsided_spec()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 2))
    batched = gmm_velocity(spec, x, 0.3)
    for i in range(8):
        assert_allclose(gmm_velocity(spec, x[i], 0.3), batched[i], rtol=1e-14)


def out_of_place_velocity(spec, x, t):
    # gmm_velocity written out row-major, without buffers reused in place
    # and with its sums over coordinates and components spelled out in
    # order: the reference its arithmetic must match bit for bit.  The
    # normaliser stays numpy's own sum over a contiguous J axis.
    a = (1.0 - np.asarray(t, dtype=float))[..., None]
    b = np.asarray(t, dtype=float)[..., None]
    sig2 = spec.stds ** 2
    var = a ** 2 * sig2 + b ** 2
    diff = x[..., None, :] - a[..., None] * spec.means
    sq = diff[..., 0] * diff[..., 0]
    for d in range(1, spec.dim):
        sq = sq + diff[..., d] * diff[..., d]
    log_r = (np.log(spec.weights) - 0.5 * sq / var
             - 0.5 * spec.dim * np.log(var))
    log_r = log_r - log_r.max(axis=-1, keepdims=True)
    resp = np.exp(log_r)
    resp /= resp.sum(axis=-1, keepdims=True)
    comp_vel = ((b - a * sig2) / var)[..., None] * diff - spec.means
    out = resp[..., 0, None] * comp_vel[..., 0, :]
    for j in range(1, resp.shape[-1]):
        out = out + resp[..., j, None] * comp_vel[..., j, :]
    return out


def einsum_velocity(spec, x, t):
    # the field's earlier row-major form, whose sums are einsum's: a running
    # sum at D = 2, but unrolled over a contiguous axis at D = 1 and D >= 3
    a = (1.0 - np.asarray(t, dtype=float))[..., None]
    b = np.asarray(t, dtype=float)[..., None]
    sig2 = spec.stds ** 2
    var = a ** 2 * sig2 + b ** 2
    diff = x[..., None, :] - a[..., None] * spec.means
    sq = np.einsum("...jd,...jd->...j", diff, diff)
    log_r = (np.log(spec.weights) - 0.5 * sq / var
             - 0.5 * spec.dim * np.log(var))
    log_r = log_r - log_r.max(axis=-1, keepdims=True)
    resp = np.exp(log_r)
    resp /= resp.sum(axis=-1, keepdims=True)
    comp_vel = ((b - a * sig2) / var)[..., None] * diff - spec.means
    return np.einsum("...j,...jd->...d", resp, comp_vel)


def velocity_draws():
    # mixtures of 1 to 20 components and one of 130 (past the 128 terms
    # where numpy's pairwise sum splits in halves), in 1 to 3 dimensions;
    # batches of 1, 2 and up to 300 rows at scalar, end-point and per-row
    # times, one unbatched point, and (3, 5, D) batches whose times are
    # (3, 5) and (3, 1)
    rng = np.random.default_rng(7)
    for comps in [*range(1, 21), 130]:
        for dim in (1, 2, 3):
            spec = GmmTeacherSpec(rng.dirichlet(np.ones(comps)),
                                  rng.normal(size=(comps, dim)) * 3.0,
                                  rng.uniform(0.01, 2.0, comps))
            scale = rng.uniform(0.1, 10.0)
            for batch in (1, 2, int(rng.integers(3, 300))):
                x = rng.normal(size=(batch, dim)) * scale
                for t in (float(rng.uniform()), 0.0, 1.0,
                          rng.uniform(size=batch)):
                    yield spec, x, t
            yield spec, x[0], 0.3
            x = rng.normal(size=(3, 5, dim)) * scale
            yield spec, x, rng.uniform(size=(3, 5))
            yield spec, x, rng.uniform(size=(3, 1))


def test_velocity_equals_out_of_place_reference():
    for spec, x, t in velocity_draws():
        got = gmm_velocity(spec, x, t)
        assert got.shape == x.shape and got.flags.c_contiguous
        assert np.array_equal(got, out_of_place_velocity(spec, x, t))


def test_out_of_place_reference_keeps_the_einsum_bits_at_two_dims():
    # spelling the sums out moved bits only where einsum does not run them
    # in order: at D = 2, the dimension of every shipped teacher, the two
    # references agree on every draw
    draws = [d for d in velocity_draws() if d[0].dim == 2]
    assert len(draws) == 21 * 15
    for spec, x, t in draws:
        assert np.array_equal(out_of_place_velocity(spec, x, t),
                              einsum_velocity(spec, x, t))


def test_ring_velocity_bits_are_pinned():
    # sha256 prefixes of the shipped ring teacher's field, taken from the
    # row-major einsum form: pinned apart from any reference function
    rng = np.random.default_rng(2301)
    want = {1: "f4c97be18754ccf4", 64: "e366533d39818911",
            2048: "697c65f82c1eebc4", 256: "6bc4c5ee20e5a744"}
    for rows, digest in want.items():
        x = rng.standard_normal((rows, 2)) * 2.0
        t = rng.uniform(size=rows) if rows == 256 else 0.43
        got = gmm_velocity(ring_spec(8, 2.0, 0.25, 2), x, t)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest


def test_velocity_scalar_time_equals_full_time_array():
    # a scalar t takes (J,) terms where an array t takes (B, J) ones; the
    # bits must not depend on which
    rng = np.random.default_rng(6)
    for spec in (ring_spec(8, 2.0, 0.25, 2), lopsided_spec()):
        for batch in (1, 64, 2048):
            x = rng.normal(size=(batch, 2)) * 3.0
            for t in (0.0, 0.37, 0.999, 1.0):
                assert np.array_equal(gmm_velocity(spec, x, t),
                                      gmm_velocity(spec, x, np.full(batch, t)))


def zero_weight_spec():
    return GmmTeacherSpec([0.25, 0.0, 0.75],
                          [[0.0, 1.0], [5.0, 5.0], [-1.0, 0.0]],
                          [0.3, 0.3, 0.6])


def test_zero_weight_spec_builds_without_warning():
    # a zero weight is valid: its log weight is -inf, its responsibility 0,
    # and building the spec must not warn about the log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = zero_weight_spec()
        x = np.array([[0.5, -0.25], [4.0, 4.5], [-2.0, 1.0]])
        got = gmm_velocity(spec, x, np.array([0.9, 0.5, 0.1]))
    assert spec._log_weights[1] == -np.inf
    # the bits the field gave when the log was taken with warnings on
    want = [["0x1.5bbea05737955p+0", "-0x1.1ac73b9433c61p-1"],
            ["0x1.7c779615c6432p+2", "0x1.3c779615c6431p+2"],
            ["0x1.d12558e5f65a1p+0", "-0x1.7c43e790e805dp-1"]]
    assert np.array_equal(got, np.vectorize(float.fromhex)(want))


@pytest.mark.parametrize("spec", [
    zero_weight_spec(),
    GmmTeacherSpec([1.0], [[0.5, -1.0]], [0.7]),
], ids=["zero_weight", "one_component"])
def test_velocity_row_max_has_the_reduction_bits(spec):
    # the row max over the leading component axis against
    # out_of_place_velocity's log_r.max(axis=-1), with a -inf column and
    # with J = 1
    rng = np.random.default_rng(12)
    x = rng.normal(size=(257, 2)) * 4.0
    with np.errstate(divide="ignore"):  # the reference's log of weight 0
        for t in (0.0, 0.3, 1.0, rng.uniform(size=257)):
            assert np.array_equal(gmm_velocity(spec, x, t),
                                  out_of_place_velocity(spec, x, t))
        assert np.array_equal(gmm_velocity(spec, x[3], 0.6),
                              out_of_place_velocity(spec, x[3], 0.6))


# -- data sampling -----------------------------------------------------------------


def test_sample_data_reproducible():
    spec = ring_spec(8, 2.0, 0.25, 2)
    a = sample_data(spec, np.random.default_rng(7), 64)
    b = sample_data(spec, np.random.default_rng(7), 64)
    assert (a == b).all()


def test_sample_data_draws_what_generator_choice_draws():
    # the stored CDF gives Generator.choice(J, p=weights)'s components and
    # leaves the stream where choice leaves it
    specs = (ring_spec(8, 2.0, 0.25, 2), lopsided_spec(), zero_weight_spec())
    for spec in specs:
        for seed in range(200):
            count = 1 + seed % 97
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = sample_data(spec, got_rng, count)
            idx = want_rng.choice(spec.weights.size, size=count,
                                  p=spec.weights)
            noise = want_rng.standard_normal((count, spec.dim))
            want = spec.means[idx] + spec.stds[idx][:, None] * noise
            assert np.array_equal(got, want)
            assert got_rng.random() == want_rng.random()


def test_sample_data_component_frequencies():
    spec = GmmTeacherSpec([0.5, 0.5], [[-10.0, 0.0], [10.0, 0.0]], [0.5, 0.5])
    rng = np.random.default_rng(8)
    x = sample_data(spec, rng, 100_000)
    frac_right = float((x[:, 0] > 0).mean())
    assert abs(frac_right - 0.5) < 0.01


def test_sample_data_component_moments():
    spec = GmmTeacherSpec([1.0], [[2.0, -1.0]], [0.5])
    rng = np.random.default_rng(9)
    x = sample_data(spec, rng, 100_000)
    assert_allclose(x.mean(axis=0), [2.0, -1.0], atol=0.01)
    assert_allclose(x.std(axis=0), [0.5, 0.5], atol=0.01)


def test_spec_is_the_teacher():
    teacher = ring_spec(8, 2.0, 0.25, 2)
    assert teacher.dim == 2
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 2))
    assert np.array_equal(teacher.velocity(x, 0.5),
                          gmm_velocity(teacher, x, 0.5))
    drawn = teacher.sample_data(np.random.default_rng(1), 5)
    assert drawn.shape == (5, 2)
    assert np.array_equal(drawn,
                          sample_data(teacher, np.random.default_rng(1), 5))


def test_spec_copies_and_freezes_its_arrays():
    # a spec shared by every run of a config must not see its caller's
    # later writes, nor take writes of its own
    weights = np.array([0.5, 0.5])
    means = np.array([[1.0, 0.0], [-1.0, 0.0]])
    stds = np.array([0.3, 0.3])
    teacher = GmmTeacherSpec(weights, means, stds)
    x = np.array([[0.2, 0.1], [-0.4, 0.3]])
    want = teacher.velocity(x, 0.5)
    weights[:] = [1.0, 0.0]
    means[:] = 5.0
    stds[:] = 1.0
    assert all(arr.flags.writeable for arr in (weights, means, stds))
    assert_allclose(teacher.weights, [0.5, 0.5], rtol=0)
    assert_allclose(teacher.stds, [0.3, 0.3], rtol=0)
    assert_allclose(teacher.means, [[1.0, 0.0], [-1.0, 0.0]], rtol=0)
    assert np.array_equal(teacher.velocity(x, 0.5), want)
    for name in ("weights", "means", "stds"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(teacher, name)[0] = 0.0


# -- trajectory records ---------------------------------------------------------------


def test_trajectory_record_validates_endpoints():
    pos = np.array([[0.0, 0.0], [1.0, 1.0]])
    rec = TrajectoryRecord(pos, [1.0, 0.0])
    assert rec.times[0] == 1.0 and rec.times[-1] == 0.0
    with pytest.raises(InvalidParameterError):
        TrajectoryRecord(pos, [0.9, 0.0])
    with pytest.raises(InvalidParameterError):
        TrajectoryRecord(pos, [1.0, 0.1])


def test_trajectory_record_requires_decreasing_times():
    with pytest.raises(InvalidParameterError):
        TrajectoryRecord(np.zeros((4, 2)), [1.0, 0.5, 0.5, 0.0])


def test_trajectory_record_needs_one_time_per_state():
    for times in ([1.0], [1.0, 0.5, 0.0], [[1.0, 0.0]]):
        with pytest.raises(InvalidParameterError):
            TrajectoryRecord(np.zeros((2, 2)), times)


def test_trajectory_record_properties():
    rec = TrajectoryRecord(np.array([[1.0, 2.0], [3.0, 4.0]]), [1.0, 0.0])
    assert_allclose(rec.positions, [[1.0, 2.0], [3.0, 4.0]], rtol=0)
    assert_allclose(rec.endpoint, [3.0, 4.0], rtol=0)


# -- Euler reference sampler -------------------------------------------------------------


def test_euler_constant_field_hand_value():
    u = np.array([1.0, 0.0])
    x1 = np.array([0.5, 0.5])
    rec = euler_sample(lambda x, t: u, x1, steps=4)
    assert_allclose(rec.endpoint, x1 - u, rtol=1e-15)
    assert rec.positions.shape == (5, 2)
    assert_allclose(rec.times, [1.0, 0.75, 0.5, 0.25, 0.0], rtol=0)


def test_euler_zero_field_keeps_position():
    x1 = np.array([2.0, -3.0])
    rec = euler_sample(lambda x, t: np.zeros(2), x1, steps=7)
    assert_allclose(rec.endpoint, x1, rtol=0)


def test_euler_first_order_convergence():
    # halving the step size should roughly halve the endpoint movement
    teacher = ring_spec(8, 2.0, 0.25, 2)
    rng = np.random.default_rng(11)
    x1 = rng.standard_normal((64, 2))
    ends = {s: euler_sample(teacher.velocity, x1, s).endpoint
            for s in (25, 50, 100)}
    e_coarse = np.linalg.norm(ends[25] - ends[50], axis=1).mean()
    e_fine = np.linalg.norm(ends[50] - ends[100], axis=1).mean()
    assert e_fine < e_coarse
    assert 1.2 < e_coarse / e_fine < 3.5


@pytest.mark.parametrize("make_teacher", [
    lambda: lopsided_spec(),
    lambda: ring_spec(8, 2.0, 0.25, 2),
], ids=["analytic", "ring"])
@pytest.mark.parametrize("shape", [(2,), (37, 2), (2048, 2)],
                         ids=["unbatched", "b37", "b2048"])
def test_euler_sample_equals_inline_euler_oracle(make_teacher, shape):
    # x_i = x_(i-1) - u(x_(i-1), t_(i-1)) * (t_(i-1) - t_i) with
    # t_i = (steps - i) / steps, every state stacked
    teacher = make_teacher()
    x1 = np.random.default_rng(56).standard_normal(shape)
    for steps in (1, 2, 25):
        rec = euler_sample(teacher.velocity, x1, steps)
        x, xs, ts = x1, [x1], [1.0]
        for i in range(steps):
            t_now, t_next = (steps - i) / steps, (steps - i - 1) / steps
            x = x - teacher.velocity(x, t_now) * (t_now - t_next)
            xs.append(x)
            ts.append(t_next)
        assert np.array_equal(rec.positions, np.stack(xs))
        assert np.array_equal(rec.times, np.array(ts))
        assert rec.positions.shape == (steps + 1,) + shape
        assert not rec.positions.flags.writeable
        assert not rec.times.flags.writeable
        end = rec.endpoint
        assert np.array_equal(end, rec.positions[-1])
        assert not np.shares_memory(end, rec.positions)
        for i, state in enumerate(rec.states):
            assert np.array_equal(state.x, rec.positions[i])
            assert state.t == rec.times[i]


def test_euler_rejects_zero_steps():
    with pytest.raises(InvalidParameterError):
        euler_sample(lambda x, t: x, np.zeros(2), steps=0)


def test_euler_nonfinite_state_raises():
    with pytest.raises(NumericError):
        euler_sample(lambda x, t: np.array([np.inf, 0.0]), np.zeros(2), 4)


def inline_euler(velocity, x1, steps):
    x, xs = x1, [x1]
    for i in range(steps):
        t_now, t_next = (steps - i) / steps, (steps - i - 1) / steps
        x = x - velocity(x, t_now) * (t_now - t_next)
        xs.append(x)
    return np.stack(xs), (steps - np.arange(steps + 1)) / steps


# 40 steps give B = 4,099 at least three blocks of MIN_BLOCK_WORK
SPLIT_STEPS = 40


@pytest.mark.parametrize("batch", [4099, 10_000])
def test_row_split_euler_equals_inline_oracle(count_pools, batch):
    # a teacher's method and a plain callable split alike: every field that
    # computes each row on its own qualifies
    teacher = ring_spec(8, 2.0, 0.25, 2)
    x1 = np.random.default_rng(57).standard_normal((batch, 2))
    want_positions, want_times = inline_euler(teacher.velocity, x1,
                                              SPLIT_STEPS)
    for field in (teacher.velocity, lambda x, t: teacher.velocity(x, t)):
        for cpus in (1, 2, 3):
            pools = count_pools(cpus)
            rec = euler_sample(field, x1, SPLIT_STEPS)
            assert pools == ([cpus] if cpus > 1 else [])
            assert np.array_equal(rec.positions, want_positions)
            assert np.array_equal(rec.times, want_times)
            assert not rec.positions.flags.writeable
            assert multiprocessing.active_children() == []


def test_row_split_euler_positions_equal_without_the_blas_pin(monkeypatch,
                                                             count_pools):
    teacher = ring_spec(8, 2.0, 0.25, 2)
    x1 = np.random.default_rng(60).standard_normal((4099, 2))
    pools = count_pools(2)
    pinned = euler_sample(teacher.velocity, x1, SPLIT_STEPS).positions
    monkeypatch.setattr(pool_module, "_blas_controls", lambda: [])
    unpinned = euler_sample(teacher.velocity, x1, SPLIT_STEPS).positions
    assert pools == [2, 2]
    assert pinned.tobytes() == unpinned.tobytes()


def test_row_split_euler_too_big_to_map_is_out_of_memory(monkeypatch,
                                                         count_pools):
    # an anonymous map that cannot be had fails with ENOMEM, an OSError;
    # the one-process route's allocation raises MemoryError, and so must
    # the row-split one, which the CLI reports as out of memory
    import errno
    import mmap

    def no_memory(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", no_memory)
    pools = count_pools(2)
    teacher = ring_spec(8, 2.0, 0.25, 2)
    with pytest.raises(MemoryError, match="^cannot map "):
        euler_sample(teacher.velocity, np.zeros((4099, 2)), SPLIT_STEPS)
    assert pools == []


class _RunawayTeacher:
    """Row-local field -1, and +inf from x >= 10 on: a row started at
    10 - k.5 dt goes non-finite at integration step k + 1."""

    dim = 2

    def velocity(self, x, t):
        return np.where(x >= 10.0, np.inf, -1.0)


def test_row_split_euler_raises_the_one_process_error(count_pools):
    steps, batch = SPLIT_STEPS, 4099
    x1 = np.zeros((batch, 2))
    x1[0] = 10.0 - 6.5 / steps     # block 0 first fails at step 7
    x1[-1] = 10.0 - 3.5 / steps    # the last block first fails at step 4
    teacher = _RunawayTeacher()
    texts = []
    for cpus in (1, 3):
        pools = count_pools(cpus)
        with pytest.raises(NumericError) as err:
            euler_sample(teacher.velocity, x1, steps)
        assert pools == ([cpus] if cpus > 1 else [])
        assert multiprocessing.active_children() == []
        texts.append(str(err.value))
    assert texts[0].startswith("non-finite state at integration step 4 ")
    assert texts[1] == texts[0]


def _euler_digest_in_daemon(queue, x1):
    teacher = ring_spec(8, 2.0, 0.25, 2)
    rec = euler_sample(teacher.velocity, x1, SPLIT_STEPS)
    queue.put(hashlib.sha256(rec.positions.tobytes()).hexdigest())


def test_daemon_caller_integrates_in_one_process(monkeypatch):
    # a daemon process may not have children; the fork inherits the patch
    # that makes any process pool fail
    def no_fork(*args, **kwargs):
        raise AssertionError("a daemon caller forked workers")

    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_fork)
    x1 = np.random.default_rng(59).standard_normal((4099, 2))
    want = inline_euler(ring_spec(8, 2.0, 0.25, 2).velocity, x1,
                        SPLIT_STEPS)[0]
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_euler_digest_in_daemon,
                            args=(queue, x1), daemon=True)
    child.start()
    got = queue.get(timeout=60)
    child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    assert got == hashlib.sha256(want.tobytes()).hexdigest()
