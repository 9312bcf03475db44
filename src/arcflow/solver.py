"""Closed-form trajectory integration for momentum mixtures.

The mixture velocity v(t) = sum_k pi_k v_k gamma_k**(1-t) integrates in
closed form over any interval.  With the flow convention x moving from t = 1
down to t = 0 via dx/dt' = -v (t' the integration variable decreasing), one
step of the solver is

    x(t_end) = x(t_start) - sum_k pi_k v_k C(gamma_k, t_start, t_end)

where the per-mode coefficient is the exact integral of gamma**(1-t):

    C(gamma, t_s, t_e) = (gamma**(1-t_e) - gamma**(1-t_s)) / ln gamma

For |ln gamma| below LN_GAMMA_EPS the mode is treated as linear and the
coefficient is t_s - t_e, the exact limit.  The formula is antisymmetric in
its time arguments and additive over interval splits; the solver is exact up
to floating-point rounding, so step size never trades off against accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidIntervalError, InvalidParameterError, NumericError
from .momentum import LatentState, MomentumParams

# Below this |ln gamma| the exponential integral is evaluated in its linear
# limit.  Keep in sync with the checkpoint docs; changing it changes rollouts.
LN_GAMMA_EPS = 1e-6


def _coefficients_from_log(log_gammas, t_start, t_end):
    # Integral of gamma**(1-t) over [t_end, t_start], computed from ln gamma.
    lg = np.asarray(log_gammas, dtype=float)
    expo = np.exp((1.0 - t_end) * lg) - np.exp((1.0 - t_start) * lg)
    return _divide_by_log(lg, expo, t_start - t_end)


def _divide_by_log(lg, expo, elapsed):
    # expo / ln gamma, or the linear limit elapsed for |ln gamma| below
    # LN_GAMMA_EPS.
    linear = np.abs(lg) < LN_GAMMA_EPS
    return np.where(linear, elapsed, expo / np.where(linear, 1.0, lg))


def momentum_coefficient(gamma, t_start, t_end):
    """Exact integral of gamma**(1-t) from t_end to t_start.

    gamma must be positive; all three arguments broadcast, and the
    coefficient is antisymmetric under swapping the times.  All-scalar input
    gives a float back.
    """
    gamma = np.asarray(gamma, dtype=float)
    if (gamma <= 0.0).any():
        raise InvalidParameterError("momentum factor gamma must be positive")
    out = _coefficients_from_log(np.log(gamma), np.asarray(t_start, dtype=float),
                                 np.asarray(t_end, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out


def _align_time(t, theta):
    # Scalars pass through; per-sample time arrays gain a mode axis so they
    # broadcast against (..., K) coefficient arrays.
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return t
    if t.shape != theta.batch_shape:
        raise InvalidParameterError(
            f"time array shape {t.shape} does not match batch shape "
            f"{theta.batch_shape}"
        )
    return t[..., None]


def displacement(theta: MomentumParams, t_start, t_end) -> np.ndarray:
    """Integrated mixture displacement over [t_end, t_start], shape (..., D).

    This is the quantity subtracted from x when stepping down in time.
    Times are scalars or per-sample arrays matching theta's batch shape.
    No interval validation here; the public entry points validate.
    """
    coeffs = _coefficients_from_log(theta.log_gammas,
                                    _align_time(t_start, theta),
                                    _align_time(t_end, theta))
    weights = theta.gating * coeffs
    return np.einsum("...k,...kd->...d", weights, theta.base_velocities)


def step(state: LatentState, theta: MomentumParams, t_end) -> LatentState:
    """Advance a latent state down in time with one closed-form step."""
    t_end = float(t_end)
    if t_end > state.t:
        raise InvalidIntervalError(
            f"cannot step up in time: t_end {t_end} > current t {state.t}"
        )
    new_x = state.x - displacement(theta, state.t, t_end)
    if not np.isfinite(new_x).all():
        raise NumericError(
            f"non-finite state after step from t={state.t} to t={t_end}"
        )
    return LatentState(new_x, t_end)


def sub_interval_displacement(theta: MomentumParams, t_hi, t_lo) -> np.ndarray:
    """Displacement over [t_lo, t_hi] expressed as a difference of
    displacements anchored at t = 1:

        disp(t_hi, t_lo) = disp(1, t_lo) - disp(1, t_hi)

    Anchoring every sub-step at t = 1 makes compositions over adjacent
    sub-intervals telescope, so chained partial steps land where the single
    full step does up to a few ulps.  With scalar times the bundle keeps the
    disp(1, t_lo) of its last call, so a chain whose next call starts at
    that t_lo computes each anchored displacement once; the bundle's arrays
    are read-only, so the kept value has the bits a new pass would give.
    """
    t_hi = np.asarray(t_hi, dtype=float)
    t_lo = np.asarray(t_lo, dtype=float)
    _check_intervals(t_hi, t_lo)
    if t_hi.ndim or t_lo.ndim:
        return displacement(theta, 1.0, t_lo) - displacement(theta, 1.0, t_hi)
    kept = theta.__dict__.get("_anchored_at")
    if kept is not None and kept[0] == t_hi:
        d_lo, d_hi = _anchored_rows(theta, t_lo[None])[0][0], kept[1]
    else:
        d_lo, d_hi = _anchored_rows(theta, np.stack((t_lo, t_hi)))[0]
    object.__setattr__(theta, "_anchored_at", (float(t_lo), d_lo))
    return d_lo - d_hi


def _check_intervals(t_hi, t_lo):
    if (t_lo < 0.0).any() or (t_lo > t_hi).any() or (t_hi > 1.0).any():
        raise InvalidIntervalError(
            f"need 0 <= t_lo <= t_hi <= 1, got ({t_hi}, {t_lo})"
        )


def _anchored_rows(theta: MomentumParams, times) -> tuple:
    """disp(1, t) and gamma**(1 - t) at every time of a 1-D array, each
    stacked on a new leading axis.  The caller validates the times.

    Row j of the displacements equals displacement(theta, 1.0, times[j])
    bit for bit: each row gets its own einsum over the same (..., K) layout,
    and the coefficient's exp((1 - 1) ln gamma) term, which is exactly 1 for
    the finite ln gamma every bundle holds, is not computed.
    """
    times = np.asarray(times, dtype=float)
    t_end = times.reshape(times.shape + (1,) * theta.gating.ndim)
    lg = theta.log_gammas
    powers = np.exp((1.0 - t_end) * lg)
    weights = theta.gating * _divide_by_log(lg, powers - 1.0, 1.0 - t_end)
    disp = np.empty(times.shape + theta.base_velocities.shape[:-2]
                    + (theta.dim,))
    for w, out in zip(weights, disp):
        np.einsum("...k,...kd->...d", w, theta.base_velocities, out=out)
    return disp, powers
