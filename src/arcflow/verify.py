"""Verification suites: every closed-form code path checked against an
independent route.

Each suite returns a SuiteResult and is deliberately written against a
different computation than the code under test: Gauss-Legendre quadrature
for the closed-form displacement, composed Euler references for the mixed
rollout, central finite differences for the hand-written backward pass,
kernel regression on raw pairs plus an energy-distance transport test for
the closed-form teacher field.  None of these reference routes may ever be
replaced by calls into the code they check.

The two general-purpose reference routes live here too, not in the modules
they check: quadrature_displacement integrates eval_velocity with a fixed
pair of Gauss-Legendre rules and never calls the solver's closed form, and
grad_check differences loss values and never calls StudentNet.backward
itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .distill import (
    DistillConfig,
    build_student_net,
    init_shelf_state,
    mixed_integration,
    sample_anchor_times,
    velocity_matching_loss,
)
from .errors import ConvergenceError, InvalidParameterError
from .harness import energy_distance
from .interpolation import (
    InterpolationProblem,
    solve_exact_fit,
    to_momentum_params,
    verify_haar,
)
from .momentum import MomentumParams, eval_velocity
from .solver import displacement, momentum_coefficient
from .teacher import (
    euler_sample,
    gmm_velocity,
    ring_spec,
    sample_data,
)

TOLERANCES = {
    "coefficient_continuity": "|C(1+d) - (t_s - t_e)| <= 10|d|, d in {1e-7, 1e-5}",
    "operator_vs_quadrature": "rel err <= 1e-9 vs 40-node Gauss-Legendre (20/40 gap <= 1e-12), 1000 mixtures",
    "operator_additivity": "split rel err <= 1e-12, 10^4 splits",
    "exact_interpolation": "fit rel err <= 1e-6 at N=K in {2,4,8}; 1000 basis draws nonsingular",
    "gradient_check": "max rel err <= 1e-4 vs central differences (h=1e-5), 100 probes",
    "degenerate_mixing": "lam 0/1 match references to 1e-12, 1000 shelves",
    "teacher_consistency": "20 probes within 3 SE; transport energy distance < self + 3 sigma",
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _rel_gap(got, want) -> float:
    """Norm gap relative to the reference, floored at unit scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    num = np.linalg.norm(got - want, axis=-1)
    den = np.maximum(1.0, np.linalg.norm(want, axis=-1))
    return float((num / den).max())


def coefficient_continuity_suite(trials=10_000, seed=1001) -> SuiteResult:
    """Near gamma = 1 the closed-form coefficient must approach the linear
    limit t_s - t_e linearly in the offset, from both sides, at offsets of
    1e-7 and 1e-5."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    t_lo = rng.uniform(0.0, 1.0, trials)
    t_hi = t_lo + rng.uniform(0.0, 1.0, trials) * (1.0 - t_lo)
    worst = 0.0
    detail = []
    for delta in (1e-7, -1e-7, 1e-5, -1e-5):
        coef = momentum_coefficient(1.0 + delta, t_hi, t_lo)
        gap = float(np.abs(coef - (t_hi - t_lo)).max())
        worst = max(worst, gap / (10.0 * abs(delta)))
        detail.append(f"d={delta:+.0e} gap={gap:.2e}")
    elapsed = time.perf_counter() - started
    passed = worst <= 1.0 and elapsed < 1.0
    return SuiteResult("coefficient_continuity", passed,
                       "; ".join(detail) + f"; worst/bound={worst:.3f}",
                       elapsed)


def _random_mixture(rng, max_modes=16, dim=3):
    k = int(rng.integers(1, max_modes + 1))
    gating = rng.dirichlet(np.ones(k))
    gammas = rng.uniform(0.05, 20.0, k)
    base = rng.normal(0.0, 4.0, (k, dim))
    norms = np.linalg.norm(base, axis=-1, keepdims=True)
    base = np.where(norms > 10.0, base * (10.0 / norms), base)
    return MomentumParams(gating, base, np.log(gammas), anchor_index=None)


# The 20- and 40-node Gauss-Legendre rules on [-1, 1]: the finer one gives
# the reference value, its gap to the coarser one the error estimate.
_GAUSS_LEGENDRE = [np.polynomial.legendre.leggauss(n) for n in (20, 40)]


def quadrature_displacement(theta: MomentumParams, t_start, t_end,
                            tol=1e-12) -> np.ndarray:
    """Reference displacement via Gauss-Legendre quadrature of eval_velocity.

    Independent of the closed form on purpose; used by the quadrature suite.
    Only unbatched parameter bundles are supported.  Raises ConvergenceError
    when a coordinate's 20/40-node gap is above the absolute tolerance (or
    1e-11 of its value, if larger) or is not finite.
    """
    if float(tol) <= 0.0:
        raise InvalidParameterError("quadrature tolerance must be positive")
    if theta.batch_shape != ():
        raise InvalidParameterError(
            "quadrature reference handles one parameter bundle at a time")
    mid, half = (t_start + t_end) / 2.0, (t_start - t_end) / 2.0
    coarse, fine = (half * (weights @ eval_velocity(theta, mid + half * nodes))
                    for nodes, weights in _GAUSS_LEGENDRE)
    gap = np.abs(fine - coarse)
    bad = ~(gap <= np.maximum(tol, 1e-11 * np.abs(fine)))
    if bad.any():
        d = int(np.argmax(bad))
        raise ConvergenceError(f"quadrature error estimate {gap[d]:.3e} above "
                               f"tolerance {tol:.3e} for coordinate {d}")
    return fine


def operator_quadrature_suite(mixtures=1000, seed=1002) -> SuiteResult:
    """Closed-form displacement against Gauss-Legendre quadrature of the
    same velocity field."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(mixtures):
        theta = _random_mixture(rng)
        t_end = rng.uniform(0.0, 0.9)
        t_start = t_end + rng.uniform(0.05, 1.0 - t_end)
        got = displacement(theta, t_start, t_end)
        want = quadrature_displacement(theta, t_start, t_end, tol=1e-12)
        worst = max(worst, _rel_gap(got, want))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-9 and elapsed < 30.0
    return SuiteResult("operator_vs_quadrature", passed,
                       f"worst rel err {worst:.2e} over {mixtures} mixtures",
                       elapsed)


def operator_additivity_suite(trials=10_000, seed=1003) -> SuiteResult:
    """Displacement over [t_b, t_a] must equal the sum over any split point
    t_m, for the direct closed form (not the anchored differences, which
    telescope trivially)."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    chunk = 1000
    for _ in range(trials // chunk):
        k = int(rng.integers(1, 9))
        gating = rng.dirichlet(np.ones(k), size=chunk)
        gammas = rng.uniform(0.05, 20.0, (chunk, k))
        base = rng.normal(0.0, 3.0, (chunk, k, 3))
        theta = MomentumParams(gating, base, np.log(gammas))
        ts = np.sort(rng.uniform(0.0, 1.0, (chunk, 3)), axis=1)
        t_b, t_m, t_a = ts[:, 0], ts[:, 1], ts[:, 2]
        whole = displacement(theta, t_a, t_b)
        split = displacement(theta, t_a, t_m) + displacement(theta, t_m, t_b)
        worst = max(worst, _rel_gap(split, whole))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-12
    return SuiteResult("operator_additivity", passed,
                       f"worst split rel err {worst:.2e} over {trials} splits",
                       elapsed)


def exact_interpolation_suite(seed=1004, haar_draws=1000) -> SuiteResult:
    """Theorem-level check: N targets, K = N modes on a geometric ladder,
    the realized mixture must pass through every target; plus a basis
    nonsingularity sweep."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = worst_cond = 0.0
    for n in (2, 4, 8):
        for _ in range(50):
            # ratio 2 >= 1.3; wider spacing keeps the exponential basis far
            # from collinear, which is what bounds the achievable fit error
            gammas = 0.25 * 2.0 ** np.arange(n)
            # stratified timesteps keep the basis comfortably nonsingular
            edges = np.linspace(0.05, 1.0, n + 1)
            ts = edges[:-1] + rng.uniform(0.15, 0.85, n) * np.diff(edges)
            targets = rng.uniform(-5.0, 5.0, (n, 2))
            problem = InterpolationProblem(ts, targets, gammas)
            solution = solve_exact_fit(problem)
            theta = to_momentum_params(solution, gammas)
            for i in range(n):
                got = eval_velocity(theta, float(ts[i]))
                gap = np.linalg.norm(got - targets[i])
                den = max(1.0, float(np.linalg.norm(targets[i])))
                worst = max(worst, float(gap) / den / 1e-6)
            worst_cond = max(worst_cond, solution.condition_estimate)
    singular = 0
    for _ in range(haar_draws):
        n = int(rng.integers(2, 7))
        gammas = np.sort(rng.uniform(0.05, 20.0, n))
        while np.unique(gammas).size != n:
            gammas = np.sort(rng.uniform(0.05, 20.0, n))
        ts = np.sort(rng.uniform(0.02, 1.0, n))
        while np.unique(ts).size != n:
            ts = np.sort(rng.uniform(0.02, 1.0, n))
        singular += not verify_haar(gammas, ts)[0]
    elapsed = time.perf_counter() - started
    passed = worst <= 1.0 and singular == 0
    return SuiteResult(
        "exact_interpolation", passed,
        f"worst fit err/bound {worst:.3f}, max cond {worst_cond:.1e}, "
        f"{singular}/{haar_draws} singular draws", elapsed)


def grad_check(net, loss, grad, probes=100, h=1e-5, rng=None):
    """Compare an analytic gradient against central finite differences.

    grad is the flat analytic gradient at net.params, computed once by the
    caller.  loss(net) returns the scalar loss and must be deterministic in
    net.params; each probe evaluates it twice and no gradient.  Probes are
    parameter indices sampled without replacement.  Returns the worst relative error, where
    the denominator is floored at 1e-6 of the largest analytic gradient so
    near-zero entries compare absolutely at that scale.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grad = np.array(grad, dtype=float)
    count = min(int(probes), net.num_params)
    idx = rng.choice(net.num_params, size=count, replace=False)
    floor = 1e-6 * max(1.0, float(np.abs(grad).max()))
    worst = 0.0
    for i in idx:
        orig = net.params[i]
        net.params[i] = orig + h
        lo_plus = loss(net)
        net.params[i] = orig - h
        lo_minus = loss(net)
        net.params[i] = orig
        fd = (lo_plus - lo_minus) / (2.0 * h)
        denom = max(abs(grad[i]), abs(fd), floor)
        worst = max(worst, abs(grad[i] - fd) / denom)
    return worst


def gradient_suite(probes=100, seed=1005) -> SuiteResult:
    """Full distillation loss on one batch: analytic backward against
    central finite differences.

    The anchors are built once and held fixed on both routes, which is the
    loss the training step actually differentiates (anchors are detached
    there too).  The backward pass runs once, for the analytic gradient.
    """
    started = time.perf_counter()
    teacher = ring_spec()
    cfg = DistillConfig()
    net = build_student_net(cfg, teacher.dim, init_seed=seed)
    rng = np.random.default_rng(seed)
    t_src, width = 1.0, 1.0 / cfg.nfe
    x0 = init_shelf_state(teacher, rng, t_src, cfg.batch)
    times = sample_anchor_times(rng, t_src, width, cfg.n_intermediate)
    theta0 = net.forward(x0, t_src)
    _, targets = mixed_integration(x0, t_src, theta0, times, 0.5, teacher)

    def fixed_anchor_loss(n):
        # (loss, its gradient with respect to the bundle) at n.params
        return velocity_matching_loss(n.forward(x0, t_src), times, targets)

    _, upstream = fixed_anchor_loss(net)
    net.zero_grads()
    worst = grad_check(
        net, lambda n: fixed_anchor_loss(n)[0], net.backward(*upstream),
        probes=probes, h=1e-5, rng=np.random.default_rng(seed + 1),
    )
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-4 and elapsed < 120.0
    return SuiteResult("gradient_check", passed,
                       f"max rel err {worst:.2e} over {probes} probes",
                       elapsed)


def degenerate_mixing_suite(shelves=1000, seed=1006) -> SuiteResult:
    """lam = 0 must reproduce composed teacher Euler sub-steps; lam = 1 must
    reproduce the single closed-form step.  Both references are recomputed
    here without touching mixed_integration."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    teacher = ring_spec()
    worst0 = worst1 = 0.0
    for _ in range(shelves):
        nfe = int(rng.integers(1, 5))
        shelf = int(rng.integers(nfe))
        t_src, t_dst = (shelf + 1) / nfe, shelf / nfe
        n = int(rng.integers(1, 6))
        inner = np.sort(rng.uniform(t_dst, t_src, n - 1))[::-1]
        times = np.concatenate([inner, [t_dst]])
        k = int(rng.integers(1, 9))
        gating = rng.dirichlet(np.ones(k), size=4)
        base = rng.normal(0.0, 2.0, (4, k, 2))
        theta = MomentumParams(gating, base,
                               rng.uniform(-1.5, 1.5, (4, k)))
        x = rng.normal(0.0, 1.5, (4, 2))

        got0, _ = mixed_integration(x, t_src, theta, times, 0.0, teacher)
        x_ref = x.copy()
        t_prev = t_src
        for j, t_next in enumerate(times):
            u = teacher.velocity(x_ref, t_prev)
            x_ref = x_ref - u * (t_prev - t_next)
            worst0 = max(worst0, _rel_gap(got0[j], x_ref))
            t_prev = t_next

        got1, _ = mixed_integration(x, t_src, theta, times, 1.0, teacher)
        ref1 = x - displacement(theta, t_src, t_dst)
        worst1 = max(worst1, _rel_gap(got1[-1], ref1))
    elapsed = time.perf_counter() - started
    passed = worst0 <= 1e-12 and worst1 <= 1e-12
    return SuiteResult(
        "degenerate_mixing", passed,
        f"lam=0 worst {worst0:.2e}, lam=1 worst {worst1:.2e} "
        f"over {shelves} shelves", elapsed)


def _kernel_regression_velocity(spec, query, t, rng, pairs=1_000_000):
    """Monte Carlo reference for the marginal velocity at one point.

    Draws raw (x0, x1) pairs, forms x_t and the conditional velocity
    x1 - x0, then fits a local-linear kernel regression at the query point.
    The intercept estimates E[x1 - x0 | x_t = query] with the first-order
    bias removed; returns (estimate, standard errors) per coordinate from a
    sandwich variance.  The bandwidth tracks the smallest marginal component
    scale at this t (responsibility boundaries sharpen as that scale
    shrinks, and the remaining bias is quadratic in the bandwidth).
    """
    x0 = sample_data(spec, rng, pairs)
    x1 = rng.standard_normal((pairs, spec.dim))
    xt = (1.0 - t) * x0 + t * x1
    y = x1 - x0
    s_min = float(np.sqrt(((1.0 - t) ** 2 * spec.stds ** 2).min() + t ** 2))
    bandwidth = float(np.clip(0.15 * s_min, 0.03, 0.1))
    d = xt - query
    w = np.exp(-0.5 * np.sum(d * d, axis=1) / bandwidth ** 2)
    design = np.concatenate([np.ones((pairs, 1)), d], axis=1)
    xtw = design.T * w
    gram = xtw @ design
    beta = np.linalg.solve(gram, xtw @ y)
    resid = y - design @ beta
    gram_inv = np.linalg.inv(gram)
    w2 = w * w
    ses = np.empty(spec.dim)
    for dd in range(spec.dim):
        meat = (design.T * (w2 * resid[:, dd] ** 2)) @ design
        cov = gram_inv @ meat @ gram_inv
        ses[dd] = np.sqrt(max(float(cov[0, 0]), 0.0))
    return beta[0], ses


def teacher_consistency_suite(seed=1010, probes=20,
                              transport=10_000) -> SuiteResult:
    """Two independent checks of the closed-form teacher field: pointwise
    agreement with kernel regression on raw pairs, and distributional
    agreement of many-step transport with direct data sampling."""
    started = time.perf_counter()
    spec = ring_spec()
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for _ in range(probes):
        t = float(rng.uniform(0.1, 0.9))
        x0 = sample_data(spec, rng, 1)[0]
        x1 = rng.standard_normal(spec.dim)
        query = (1.0 - t) * x0 + t * x1
        est, se = _kernel_regression_velocity(spec, query, t, rng)
        want = gmm_velocity(spec, query, t)
        # one comparison per probe: vector error against the vector SE
        z = float(np.linalg.norm(est - want)
                  / max(np.linalg.norm(se), 1e-12))
        worst_z = max(worst_z, z)
    probes_ok = worst_z <= 3.0

    noise = rng.standard_normal((transport, spec.dim))
    record = euler_sample(spec.velocity, noise, 200)
    data_ref = sample_data(spec, rng, transport)
    ed_transport = energy_distance(record.endpoint, data_ref)
    self_eds = [energy_distance(sample_data(spec, rng, transport),
                                sample_data(spec, rng, transport))
                for _ in range(10)]
    mu = float(np.mean(self_eds))
    sigma = float(np.std(self_eds))
    transport_ok = ed_transport < mu + 3.0 * sigma
    elapsed = time.perf_counter() - started
    passed = probes_ok and transport_ok and elapsed < 180.0
    return SuiteResult(
        "teacher_consistency", passed,
        f"worst |z| {worst_z:.2f} over {probes} probes; transport ED "
        f"{ed_transport:.2e} vs self {mu:.2e}+3*{sigma:.2e}", elapsed)


ALL_SUITES = (
    coefficient_continuity_suite,
    operator_quadrature_suite,
    operator_additivity_suite,
    exact_interpolation_suite,
    gradient_suite,
    degenerate_mixing_suite,
    teacher_consistency_suite,
)


def run_all_suites() -> list:
    return [suite() for suite in ALL_SUITES]
