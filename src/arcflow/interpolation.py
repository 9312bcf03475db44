"""Exact velocity interpolation with momentum-mixture bases.

Given N distinct timesteps t_n in (0, 1], N velocity targets b_n in R^D and
K >= N distinct positive momentum factors, find composite weights w_k in R^D
such that

    sum_k w_k * gamma_k**(1 - t_n) = b_n        for every n.

The basis matrix M[n, k] = gamma_k**(1 - t_n) is a generalized Vandermonde
matrix of exponentials; for distinct gammas and distinct timesteps its square
version is nonsingular (the family {gamma**(1-t)} is a Chebyshev system on
(0, 1]), so with K == N the fit is exact and unique.  With K > N the system
is solved in the minimum-norm sense and is still exact.

The composite weights fold gating and base velocity together, w_k = pi_k v_k.
to_momentum_params realizes them with uniform gating pi_k = 1/K and
v_k = K * w_k, which is one valid factorization among many.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidProblemError
from .momentum import MomentumParams

# Condition estimates above this cap trigger an ill-conditioning warning on
# the solution record; the solve itself still runs.
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class InterpolationProblem:
    """N target velocities at N distinct timesteps, to be met with K modes."""

    timesteps: np.ndarray   # (N,) in (0, 1], distinct
    targets: np.ndarray     # (N, D)
    gammas: np.ndarray      # (K,) positive, distinct, K >= N

    def __post_init__(self):
        ts = np.asarray(self.timesteps, dtype=float)
        tg = np.asarray(self.targets, dtype=float)
        gs = np.asarray(self.gammas, dtype=float)
        object.__setattr__(self, "timesteps", ts)
        object.__setattr__(self, "targets", tg)
        object.__setattr__(self, "gammas", gs)
        if ts.ndim != 1 or gs.ndim != 1 or tg.ndim != 2:
            raise InvalidProblemError(
                "timesteps (N,), targets (N, D), gammas (K,) expected"
            )
        n = ts.shape[0]
        if tg.shape[0] != n:
            raise InvalidProblemError(
                f"{n} timesteps but {tg.shape[0]} target rows"
            )
        if not (np.isfinite(ts).all() and np.isfinite(tg).all()
                and np.isfinite(gs).all()):
            raise InvalidProblemError("interpolation inputs must be finite")
        if ((ts <= 0.0) | (ts > 1.0)).any():
            raise InvalidProblemError("timesteps must lie in (0, 1]")
        if np.unique(ts).size != n:
            raise InvalidProblemError("timesteps must be distinct")
        if (gs <= 0.0).any():
            raise InvalidProblemError("momentum factors must be positive")
        if np.unique(gs).size != gs.size:
            raise InvalidProblemError("momentum factors must be distinct")
        if gs.size < n:
            raise InvalidProblemError(
                f"need at least as many modes as targets, got K={gs.size} < N={n}"
            )

    @property
    def num_targets(self) -> int:
        return self.timesteps.shape[0]

    @property
    def num_modes(self) -> int:
        return self.gammas.shape[0]


@dataclass(frozen=True)
class InterpolationSolution:
    weights: np.ndarray          # (K, D) composite weights w_k = pi_k v_k
    residual_norm: float         # Frobenius norm of M w - b
    condition_estimate: float    # 2-norm condition of the basis matrix
    ill_conditioned: bool


def build_basis_matrix(gammas, timesteps) -> np.ndarray:
    """M[n, k] = gamma_k**(1 - t_n), shape (N, K)."""
    gammas = np.asarray(gammas, dtype=float)
    timesteps = np.asarray(timesteps, dtype=float)
    expo = 1.0 - timesteps[:, None]
    return np.exp(expo * np.log(gammas)[None, :])


def solve_exact_fit(problem: InterpolationProblem) -> InterpolationSolution:
    """Solve M w = b for the composite weights.

    The exponential basis is badly column-scaled for wide momentum ranges,
    so the solve runs on a column-equilibrated copy with two steps of
    iterative refinement, which recovers several digits of residual.  K > N
    solves in the minimum-norm sense (of the equilibrated system).  A
    condition estimate above CONDITION_CAP flags the solution (and warns)
    but does not fail it; the reported estimate is for the raw basis.
    """
    m = build_basis_matrix(problem.gammas, problem.timesteps)
    b = problem.targets
    col_scale = np.linalg.norm(m, axis=0)
    m_eq = m / col_scale
    if problem.num_modes == problem.num_targets:
        y = np.linalg.solve(m_eq, b)
        for _ in range(2):
            y = y + np.linalg.solve(m_eq, b - m_eq @ y)
    else:
        y = np.linalg.lstsq(m_eq, b, rcond=None)[0]
        for _ in range(2):
            y = y + np.linalg.lstsq(m_eq, b - m_eq @ y, rcond=None)[0]
    w = y / col_scale[:, None]
    cond = float(np.linalg.cond(m))
    ill = (not np.isfinite(cond)) or cond > CONDITION_CAP
    if ill:
        warnings.warn(
            f"basis matrix condition {cond:.3e} exceeds {CONDITION_CAP:.0e}; "
            "interpolated weights may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    residual = float(np.linalg.norm(m @ w - b))
    return InterpolationSolution(w, residual, cond, ill)


def to_momentum_params(solution: InterpolationSolution,
                       gammas) -> MomentumParams:
    """Realize composite weights as an explicit mixture: uniform gating and
    base velocities K * w_k."""
    gammas = np.asarray(gammas, dtype=float)
    k = gammas.shape[0]
    if solution.weights.shape[0] != k:
        raise InvalidProblemError(
            f"{solution.weights.shape[0]} weight rows for {k} momentum factors"
        )
    gating = np.full(k, 1.0 / k)
    base = k * solution.weights
    return MomentumParams(gating, base, np.log(gammas))


def verify_haar(gammas, timesteps):
    """Check nonsingularity of the basis matrix for distinct inputs.

    Returns (nonsingular, condition_estimate).  Uses singular values so it
    also covers rectangular bases: nonsingular means full rank min(N, K).
    """
    m = build_basis_matrix(gammas, timesteps)
    svals = np.linalg.svd(m, compute_uv=False)
    smin = float(svals[-1])
    smax = float(svals[0])
    nonsingular = smin > 0.0 and np.isfinite(smax)
    cond = float("inf") if smin == 0.0 else smax / smin
    return nonsingular, cond
