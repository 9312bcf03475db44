"""Exact-fit solver for velocity constraints on a decay-rate basis."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcflow import InvalidProblemError
from arcflow.interpolation import (
    InterpolationProblem,
    build_basis_matrix,
    solve_exact_fit,
    to_momentum_params,
    verify_haar,
)
from arcflow.momentum import eval_velocity


def random_problem(rng, n=4, k=None, dim=2):
    k = n if k is None else k
    timesteps = np.sort(rng.uniform(0.05, 1.0, n))
    while len(np.unique(timesteps)) < n:
        timesteps = np.sort(rng.uniform(0.05, 1.0, n))
    gammas = np.sort(rng.uniform(0.2, 5.0, k))
    while len(np.unique(gammas)) < k:
        gammas = np.sort(rng.uniform(0.2, 5.0, k))
    targets = rng.normal(size=(n, dim))
    return InterpolationProblem(timesteps, targets, gammas)


# -- basis matrix ---------------------------------------------------------------


def test_basis_matrix_hand_values():
    m = build_basis_matrix(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    assert_allclose(m, [[1.0, 2.0], [1.0, 1.0]], rtol=0)


def test_basis_matrix_single_entry():
    m = build_basis_matrix(np.array([np.e]), np.array([0.5]))
    assert_allclose(m, [[1.6487212707001282]], rtol=1e-15)


def test_basis_matrix_shape():
    m = build_basis_matrix(np.array([0.5, 1.0, 2.0, 4.0]),
                           np.linspace(0.1, 1.0, 3))
    assert m.shape == (3, 4)


# -- problem validation -----------------------------------------------------------


def test_problem_rejects_duplicate_timesteps():
    with pytest.raises(InvalidProblemError):
        InterpolationProblem([0.5, 0.5], np.zeros((2, 2)), [1.0, 2.0])


def test_problem_rejects_timestep_outside_half_open_interval():
    with pytest.raises(InvalidProblemError):
        InterpolationProblem([0.0, 0.5], np.zeros((2, 2)), [1.0, 2.0])
    with pytest.raises(InvalidProblemError):
        InterpolationProblem([0.5, 1.5], np.zeros((2, 2)), [1.0, 2.0])


def test_problem_rejects_fewer_rates_than_constraints():
    with pytest.raises(InvalidProblemError):
        InterpolationProblem([0.25, 0.75], np.zeros((2, 2)), [2.0])


def test_problem_rejects_bad_rates():
    with pytest.raises(InvalidProblemError):
        InterpolationProblem([0.5], np.zeros((1, 2)), [-1.0])
    with pytest.raises(InvalidProblemError):
        InterpolationProblem([0.5], np.zeros((1, 2)), [2.0, 2.0])


def test_problem_rejects_nonfinite_targets():
    with pytest.raises(InvalidProblemError):
        InterpolationProblem([0.5], np.array([[np.nan, 0.0]]), [2.0])


# -- exact fit --------------------------------------------------------------------


def test_exact_fit_single_constraint_hand_value():
    # gamma 2 at t = 0.5 has basis weight 2^0.5, so hitting target 3 needs
    # a coefficient of 3 / sqrt(2)
    problem = InterpolationProblem([0.5], np.array([[3.0]]), [2.0])
    sol = solve_exact_fit(problem)
    assert_allclose(sol.weights, [[2.1213203435596424]], rtol=1e-14)
    assert sol.residual_norm < 1e-12
    assert not sol.ill_conditioned


def test_exact_fit_matches_dense_solve():
    problem = InterpolationProblem(
        [0.25, 0.75], np.array([[1.0, 2.0], [3.0, -1.0]]), [0.5, 2.0])
    sol = solve_exact_fit(problem)
    # independent route: assemble the same system by hand and use the
    # generic dense solver
    m = np.array([[0.5 ** 0.75, 2.0 ** 0.75],
                  [0.5 ** 0.25, 2.0 ** 0.25]])
    want = np.linalg.solve(m, problem.targets)
    assert_allclose(sol.weights, want, rtol=1e-10)
    assert sol.residual_norm <= 1e-10


def test_exact_fit_zero_targets_give_zero_weights():
    problem = InterpolationProblem([0.25, 0.75], np.zeros((2, 2)), [0.5, 2.0])
    sol = solve_exact_fit(problem)
    assert_allclose(sol.weights, np.zeros((2, 2)), atol=1e-15)


def test_exact_fit_reproduces_targets_in_velocity_space():
    rng = np.random.default_rng(21)
    for _ in range(50):
        problem = random_problem(rng, n=4)
        sol = solve_exact_fit(problem)
        theta = to_momentum_params(sol, problem.gammas)
        for t, target in zip(problem.timesteps, problem.targets):
            assert_allclose(eval_velocity(theta, float(t)), target,
                            rtol=2e-6, atol=1e-6)


def test_exact_fit_square_system_residual_reported():
    rng = np.random.default_rng(22)
    problem = random_problem(rng, n=4)
    sol = solve_exact_fit(problem)
    m = build_basis_matrix(problem.gammas, problem.timesteps)
    direct = np.linalg.norm(m @ sol.weights - problem.targets)
    assert_allclose(sol.residual_norm, direct, atol=1e-12)


def test_exact_fit_overcomplete_basis_still_fits():
    # more rates than constraints: the least-squares route must still
    # interpolate exactly since the system is underdetermined
    rng = np.random.default_rng(23)
    problem = random_problem(rng, n=3, k=6)
    sol = solve_exact_fit(problem)
    assert sol.weights.shape == (6, 2)
    m = build_basis_matrix(problem.gammas, problem.timesteps)
    assert_allclose(m @ sol.weights, problem.targets, rtol=1e-9, atol=1e-9)


def test_exact_fit_flags_near_collinear_basis():
    # rates packed within 1e-4 of each other make the columns nearly
    # identical, conditioning blows past the cap, and the solver warns
    gammas = 1.0 + 1e-4 * np.arange(1, 5)
    problem = InterpolationProblem(
        [0.2, 0.4, 0.6, 0.8], np.ones((4, 1)), gammas)
    with pytest.warns(RuntimeWarning):
        sol = solve_exact_fit(problem)
    assert sol.ill_conditioned
    assert sol.condition_estimate > 1e12


def test_exact_fit_well_conditioned_is_quiet():
    rng = np.random.default_rng(24)
    problem = random_problem(rng, n=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_exact_fit(problem)
    assert not sol.ill_conditioned


# -- conversion to momentum parameters -----------------------------------------------


def test_to_momentum_params_single_mode():
    problem = InterpolationProblem([0.5], np.array([[3.0]]), [2.0])
    sol = solve_exact_fit(problem)
    theta = to_momentum_params(sol, problem.gammas)
    assert_allclose(theta.gating, [1.0], rtol=0)
    # uniform gating 1/K scales base velocities by K to compensate
    assert_allclose(theta.base_velocities, sol.weights, rtol=1e-15)
    assert_allclose(eval_velocity(theta, 0.5), [3.0], rtol=1e-12)


def test_to_momentum_params_uniform_gating():
    rng = np.random.default_rng(25)
    problem = random_problem(rng, n=4)
    theta = to_momentum_params(solve_exact_fit(problem), problem.gammas)
    assert_allclose(theta.gating, np.full(4, 0.25), rtol=0)
    assert_allclose(np.exp(theta.log_gammas), problem.gammas, rtol=1e-15)


def test_to_momentum_params_rejects_mismatched_solution():
    rng = np.random.default_rng(26)
    p1 = random_problem(rng, n=3)
    p2 = random_problem(rng, n=4)
    sol = solve_exact_fit(p1)
    with pytest.raises(InvalidProblemError):
        to_momentum_params(sol, p2.gammas)


# -- unisolvence check ---------------------------------------------------------------


def test_verify_haar_hand_determinant():
    # basis matrix [[1,2],[1,1]] has determinant -1: nonsingular
    nonsingular, cond = verify_haar(np.array([1.0, 2.0]),
                                    np.array([0.0, 1.0]))
    assert nonsingular
    assert cond < 10.0


def test_verify_haar_single_point():
    nonsingular, cond = verify_haar(np.array([3.0]), np.array([0.5]))
    assert nonsingular
    assert cond == pytest.approx(1.0)


def test_verify_haar_geometric_ladder():
    timesteps = np.linspace(0.1, 1.0, 8)
    gammas = 0.4 * (5.0 / 0.4) ** (np.arange(8) / 7.0)
    nonsingular, cond = verify_haar(gammas, timesteps)
    assert nonsingular
    assert np.isfinite(cond)


def test_verify_haar_detects_near_singularity():
    # two nearly equal rates produce nearly equal columns
    timesteps = np.array([0.3, 0.7])
    gammas = np.array([2.0, 2.0 + 1e-14])
    nonsingular, cond = verify_haar(gammas, timesteps)
    assert (not nonsingular) or cond > 1e12
