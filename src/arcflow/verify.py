"""Verification suites: every closed-form code path checked against an
independent route.

Each suite is registered once, in gate order, by the suite decorator,
which holds its name, its tolerance text, its wall-time budget if it has
one, and its sizes and seed.  SUITES is that registry: arcflow verify prints
each entry's tolerance (formatted from its sizes, naming its budget) and
calls the entries, which take no arguments.  A suite's body returns only
(within bounds, detail); the entry times it, fails it past its budget and
builds the SuiteResult.

Each suite is deliberately written against a different computation than
the code under test: Gauss-Legendre quadrature for the closed-form
displacement, composed Euler references for the mixed rollout, central
finite differences for the hand-written backward pass, kernel regression on
raw pairs plus an energy-distance transport test for the closed-form
teacher field.  None of these reference routes may ever be
replaced by calls into the code they check.

The two general-purpose reference routes live here too, not in the modules
they check: quadrature_displacement integrates eval_velocity with a fixed
pair of Gauss-Legendre rules and never calls the solver's closed form, and
grad_check differences loss values and never calls StudentNet.backward
itself.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .distill import (DistillConfig, build_student_net, init_shelf_state,
                      mixed_integration, sample_anchor_times,
                      velocity_matching_loss)
from .errors import ConvergenceError, InvalidParameterError
from .harness import energy_distance
from .interpolation import (InterpolationProblem, solve_exact_fit,
                            to_momentum_params, verify_haar)
from .momentum import MomentumParams, eval_velocity
from .solver import displacement
from .teacher import euler_sample, gmm_velocity, ring_spec, sample_data


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


@dataclass(frozen=True)
class Suite:
    """One registered oracle suite; calling it runs the body on the
    registered sizes and returns its SuiteResult."""
    name: str
    tolerance: str
    budget_s: float | None
    sizes: dict
    body: Callable

    def __call__(self) -> SuiteResult:
        started = time.perf_counter()
        passed, detail = self.body(**self.sizes)
        elapsed = time.perf_counter() - started
        if self.budget_s is not None and not elapsed < self.budget_s:
            passed = False
            detail += f"; over its {self.budget_s:g}s budget"
        return SuiteResult(self.name, passed, detail, elapsed)


# The registry in gate order; only the suite decorator adds to it, at import.
SUITES = []


def suite(name, tolerance, budget_s=None, **sizes):
    """Register the decorated body as the gate's next suite.  tolerance is
    formatted with the sizes, and names the budget when there is one."""
    if budget_s is not None:
        tolerance += f", in under {budget_s:g}s"

    def register(body):
        SUITES.append(Suite(name, tolerance.format(**sizes), budget_s, sizes,
                            body))
        return SUITES[-1]
    return register


def _rel_gap(got, want) -> float:
    """Norm gap relative to the reference, floored at unit scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    num = np.linalg.norm(got - want, axis=-1)
    den = np.maximum(1.0, np.linalg.norm(want, axis=-1))
    return float((num / den).max())


@suite("coefficient_continuity",
       "|C(1+d) - (t_s - t_e)| <= 10|d|, d in {{1e-7, 1e-5}}, {trials} "
       "intervals", budget_s=1.0, trials=10_000, seed=1001)
def coefficient_continuity_suite(trials, seed):
    """Near gamma = 1 the closed-form coefficient must approach the linear
    limit t_s - t_e linearly in the offset, from both sides, at offsets of
    1e-7 and 1e-5."""
    rng = np.random.default_rng(seed)
    t_lo = rng.uniform(0.0, 1.0, trials)
    t_hi = t_lo + rng.uniform(0.0, 1.0, trials) * (1.0 - t_lo)
    worst = 0.0
    detail = []
    unit = np.ones((trials, 1))
    for delta in (1e-7, -1e-7, 1e-5, -1e-5):
        # C(1 + d) is the displacement of a one-mode unit bundle
        theta = MomentumParams(unit, unit[..., None],
                               np.full((trials, 1), np.log(1.0 + delta)))
        coef = displacement(theta, t_hi, t_lo)[:, 0]
        gap = float(np.abs(coef - (t_hi - t_lo)).max())
        worst = max(worst, gap / (10.0 * abs(delta)))
        detail.append(f"d={delta:+.0e} gap={gap:.2e}")
    return worst <= 1.0, "; ".join(detail) + f"; worst/bound={worst:.3f}"


def _random_mixture(rng):
    k = int(rng.integers(1, 17))
    gating = rng.dirichlet(np.ones(k))
    gammas = rng.uniform(0.05, 20.0, k)
    base = rng.normal(0.0, 4.0, (k, 3))
    norms = np.linalg.norm(base, axis=-1, keepdims=True)
    base = np.where(norms > 10.0, base * (10.0 / norms), base)
    return MomentumParams(gating, base, np.log(gammas))


# The 20- and 40-node Gauss-Legendre rules on [-1, 1]: the finer one gives
# the reference value, its gap to the coarser one the error estimate.
_GAUSS_LEGENDRE = [np.polynomial.legendre.leggauss(n) for n in (20, 40)]


def quadrature_displacement(theta: MomentumParams, t_start,
                            t_end) -> np.ndarray:
    """Reference displacement via Gauss-Legendre quadrature of eval_velocity.

    Independent of the closed form on purpose; used by the quadrature suite.
    Only unbatched parameter bundles are supported.  Raises ConvergenceError
    when a coordinate's 20/40-node gap is above 1e-12 (or 1e-11 of its
    value, if larger) or is not finite.
    """
    if theta.batch_shape != ():
        raise InvalidParameterError(
            "quadrature reference handles one parameter bundle at a time")
    mid, half = (t_start + t_end) / 2.0, (t_start - t_end) / 2.0
    coarse, fine = (half * (weights @ eval_velocity(theta, mid + half * nodes))
                    for nodes, weights in _GAUSS_LEGENDRE)
    gap = np.abs(fine - coarse)
    bad = ~(gap <= np.maximum(1e-12, 1e-11 * np.abs(fine)))
    if bad.any():
        d = int(np.argmax(bad))
        raise ConvergenceError(f"quadrature error estimate {gap[d]:.3e} above "
                               f"tolerance 1e-12 for coordinate {d}")
    return fine


@suite("operator_vs_quadrature",
       "rel err <= 1e-9 vs 40-node Gauss-Legendre (20/40 gap <= 1e-12), "
       "{mixtures} mixtures", budget_s=30.0, mixtures=1000, seed=1002)
def operator_quadrature_suite(mixtures, seed):
    """Closed-form displacement against Gauss-Legendre quadrature of the
    same velocity field."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(mixtures):
        theta = _random_mixture(rng)
        t_end = rng.uniform(0.0, 0.9)
        t_start = t_end + rng.uniform(0.05, 1.0 - t_end)
        got = displacement(theta, t_start, t_end)
        want = quadrature_displacement(theta, t_start, t_end)
        worst = max(worst, _rel_gap(got, want))
    return worst <= 1e-9, f"worst rel err {worst:.2e} over {mixtures} mixtures"


@suite("operator_additivity", "split rel err <= 1e-12, {trials} splits",
       trials=10_000, seed=1003)
def operator_additivity_suite(trials, seed):
    """Displacement over [t_b, t_a] must equal the sum over any split point
    t_m.  The closed form computes each interval's coefficient directly,
    not as a difference of two anchored values, so the sum does not
    telescope trivially."""
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
    return (worst <= 1e-12,
            f"worst split rel err {worst:.2e} over {trials} splits")


@suite("exact_interpolation",
       "fit rel err <= 1e-6 at N=K in {{2,4,8}}; {haar_draws} basis draws "
       "nonsingular", seed=1004, haar_draws=1000)
def exact_interpolation_suite(seed, haar_draws):
    """Theorem-level check: N targets, K = N modes on a geometric ladder,
    the realized mixture must pass through every target; plus a basis
    nonsingularity sweep."""
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
    return (worst <= 1.0 and singular == 0,
            f"worst fit err/bound {worst:.3f}, max cond {worst_cond:.1e}, "
            f"{singular}/{haar_draws} singular draws")


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


@suite("gradient_check",
       "max rel err <= 1e-4 vs central differences (h=1e-5), {probes} probes",
       budget_s=120.0, probes=100, seed=1005)
def gradient_suite(probes, seed):
    """Full distillation loss on one batch: analytic backward against
    central finite differences.

    The anchors are built once and held fixed on both routes, which is the
    loss the training step actually differentiates (anchors are detached
    there too).  The backward pass runs once, for the analytic gradient.
    """
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
    return worst <= 1e-4, f"max rel err {worst:.2e} over {probes} probes"


@suite("degenerate_mixing",
       "lam 0/1 match references to 1e-12, {shelves} shelves", shelves=1000,
       seed=1006)
def degenerate_mixing_suite(shelves, seed):
    """lam = 0 must reproduce composed teacher Euler sub-steps; lam = 1 must
    reproduce the single closed-form step.  Both references are recomputed
    here without touching mixed_integration."""
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
    return (worst0 <= 1e-12 and worst1 <= 1e-12,
            f"lam=0 worst {worst0:.2e}, lam=1 worst {worst1:.2e} "
            f"over {shelves} shelves")


def _kernel_regression_velocity(spec, query, t, rng, pairs):
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


@suite("teacher_consistency",
       "{probes} probes of {pairs} pairs within 3 SE; transport energy "
       "distance over {transport} samples < self + 3 sigma", budget_s=180.0,
       seed=1010, probes=20, pairs=1_000_000, transport=10_000)
def teacher_consistency_suite(seed, probes, pairs, transport):
    """Two independent checks of the closed-form teacher field: pointwise
    agreement with kernel regression on raw pairs, and distributional
    agreement of many-step transport with direct data sampling."""
    spec = ring_spec()
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for _ in range(probes):
        t = float(rng.uniform(0.1, 0.9))
        x0 = sample_data(spec, rng, 1)[0]
        x1 = rng.standard_normal(spec.dim)
        query = (1.0 - t) * x0 + t * x1
        est, se = _kernel_regression_velocity(spec, query, t, rng, pairs)
        want = gmm_velocity(spec, query, t)
        # one comparison per probe: vector error against the vector SE
        z = float(np.linalg.norm(est - want)
                  / max(np.linalg.norm(se), 1e-12))
        worst_z = max(worst_z, z)

    noise = rng.standard_normal((transport, spec.dim))
    record = euler_sample(spec.velocity, noise, 200)
    data_ref = sample_data(spec, rng, transport)
    ed_transport = energy_distance(record.endpoint, data_ref)
    self_eds = [energy_distance(sample_data(spec, rng, transport),
                                sample_data(spec, rng, transport))
                for _ in range(10)]
    mu = float(np.mean(self_eds))
    sigma = float(np.std(self_eds))
    return (worst_z <= 3.0 and ed_transport < mu + 3.0 * sigma,
            f"worst |z| {worst_z:.2f} over {probes} probes; transport ED "
            f"{ed_transport:.2e} vs self {mu:.2e}+3*{sigma:.2e}")
