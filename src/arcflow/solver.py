"""Closed-form trajectory integration for momentum mixtures.

The mixture velocity v(t) = sum_k pi_k v_k gamma_k**(1-t) integrates in
closed form over any interval.  With the flow convention x moving from t = 1
down to t = 0 via dx/dt' = -v (t' the integration variable decreasing), one
step of the solver is

    x(t_end) = x(t_start) - sum_k pi_k v_k C(gamma_k, t_start, t_end)

where the per-mode coefficient is the exact integral of gamma**(1-t):

    C(gamma, t_s, t_e) = gamma**(1-t_s) expm1((t_s - t_e) ln gamma) / ln gamma

or t_s - t_e where ln gamma == 0 exactly.  It takes no difference of two
exponentials, so it stays within a few ulps on short intervals and beside
gamma = 1.  It is antisymmetric in its time arguments and additive over
interval splits; the solver is exact up to floating-point rounding, so step
size never trades off against accuracy.  displacement is the one checked
entry and the only route to the closed form: it holds every interval to
0 <= t_end <= t_start <= 1.  step and student_sample's dense sub-steps each
make one pass through it, and the training rollout (distill's
mixed_integration) one pass for all its sub-intervals, stacked on a leading
row axis.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidIntervalError, InvalidParameterError, NumericError
from .momentum import LatentState, MomentumParams


def _coefficients_from_log(lg, t_start, t_end):
    # Integral of gamma**(1-t) over [t_end, t_start], computed from ln gamma:
    # gamma**(1 - t_start) times expm1(elapsed lg) / lg, or times elapsed
    # itself where lg == 0 exactly.
    elapsed = t_start - t_end
    flat = lg == 0.0
    return np.exp((1.0 - t_start) * lg) * np.where(
        flat, elapsed, np.expm1(elapsed * lg) / np.where(flat, 1.0, lg))


def momentum_coefficient(gamma, t_start, t_end):
    """Exact integral of gamma**(1-t) from t_end to t_start.

    gamma must be positive and finite and the times finite; all three
    arguments broadcast, and the coefficient is antisymmetric under swapping
    the times.  All-scalar input gives a float back.
    """
    gamma = np.asarray(gamma, dtype=float)
    t_start = np.asarray(t_start, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    if not ((0.0 < gamma) & (gamma < np.inf)).all():   # NaN fails too
        raise InvalidParameterError("gamma must be positive and finite")
    if not (np.isfinite(t_start).all() and np.isfinite(t_end).all()):
        raise InvalidIntervalError("coefficient times must be finite")
    out = _coefficients_from_log(np.log(gamma), t_start, t_end)
    if out.ndim == 0:
        return float(out)
    return out


def _align_time(t, theta):
    # Scalars pass through.  A time array matches the batch shape, or puts
    # one row axis ahead of it, (n,) + batch_shape or (n,) + (1,) * ndim;
    # it gains a mode axis to broadcast against (..., K) coefficients.
    if t.ndim == 0:
        return t
    batch = theta.batch_shape
    if t.shape != batch and t.shape[1:] not in (batch, (1,) * len(batch)):
        raise InvalidParameterError(
            f"time array shape {t.shape} does not match batch shape "
            f"{batch}, with or without one leading row axis"
        )
    return t[..., None]


def displacement(theta: MomentumParams, t_start, t_end) -> np.ndarray:
    """Integrated mixture displacement over [t_end, t_start], shape (..., D).

    This is the quantity subtracted from x when stepping down in time.
    Times are scalars or per-sample arrays matching theta's batch shape; an
    array of shape (n,) + batch_shape or (n,) + (1,) * batch_ndim stacks n
    intervals and gives (n,) + batch_shape + (D,), each row the bits of its
    own call (an unbatched bundle with 1-D times gives one (D,) row per
    time).  InvalidIntervalError unless every interval has
    0 <= t_end <= t_start <= 1 (NaN fails).
    """
    t_start = np.asarray(t_start, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    # negated so that a NaN time, which every comparison rejects, fails
    try:
        ok = ((0.0 <= t_end) & (t_end <= t_start) & (t_start <= 1.0)).all()
    except ValueError:  # time arrays that do not broadcast pair up nothing
        ok = False
    if not ok:
        raise InvalidIntervalError(
            f"need 0 <= t_end <= t_start <= 1, got ({t_start}, {t_end})"
        )
    coeffs = _coefficients_from_log(theta.log_gammas,
                                    _align_time(t_start, theta),
                                    _align_time(t_end, theta))
    weights = theta.gating * coeffs
    return np.einsum("...k,...kd->...d", weights, theta.base_velocities)


def step(state: LatentState, theta: MomentumParams, t_end) -> LatentState:
    """Advance a latent state down in time with one closed-form step."""
    t_end = float(t_end)
    new_x = state.x - displacement(theta, state.t, t_end)
    if not np.isfinite(new_x).all():
        raise NumericError(
            f"non-finite state after step from t={state.t} to t={t_end}"
        )
    return LatentState(new_x, t_end)


def sub_interval_displacement(theta: MomentumParams, t_hi, t_lo) -> np.ndarray:
    """displacement(theta, t_hi, t_lo), the name perfbench traces it by."""
    return displacement(theta, t_hi, t_lo)
