"""Momentum-mixture velocity parameterization.

A single mode carries a base velocity v anchored at t = 1 and a positive
momentum factor gamma.  Extrapolated from an anchor time t_s, its
instantaneous velocity obeys

    v(t) = v(t_s) * gamma**(t_s - t)

so gamma > 1 accelerates toward t = 0, gamma < 1 decays, and gamma = 1 is the
constant-velocity (linear) regime.  A bundle of K modes is mixed through
gating weights pi on the probability simplex:

    v(x, t) = sum_k pi_k * v_k * gamma_k**(1 - t)

with all base velocities v_k anchored at t = 1.  Time runs from t = 1 (noise)
down to t = 0 (data).

Momentum factors are stored as log(gamma) because that is what the student
network predicts and what the closed-form integrator branches on.  One mode
may be pinned at log(gamma) == 0 exactly (the anchor mode) so the bundle can
always represent a straight path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Gating weights must sum to one within this slack per bundle.
GATING_TOL = 1e-12


def _as_readonly(arr, dtype=float):
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _pairwise_sum(a) -> np.ndarray:
    """a.sum(axis=0) in numpy's pairwise order for a contiguous axis, each
    step over whole rows: a running sum below 8 terms; to 128, eight running
    partial sums, ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and a running tail;
    above, the sums of two halves cut at a multiple of 8.  Over a mode-major
    (K, ...) array it has the bits of a sum over a contiguous mode axis: the
    teacher's responsibilities and the student's gating normalise with it."""
    n = a.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    if n < 8:
        s, tail = a[0].copy(), range(1, n)
    else:
        m = n - n % 8
        r = a[:8]
        for i in range(8, m, 8):
            r = r + a[i:i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        s, tail = r[0] + r[1], range(m, n)
    for k in tail:
        s += a[k]
    return s


@dataclass(frozen=True)
class MomentumParams:
    """Parameters of a momentum mixture, optionally batched.

    gating          (..., K)     simplex weights
    base_velocities (..., K, D)  per-mode velocities anchored at t = 1
    log_gammas      (..., K)     per-mode log momentum factors

    Leading dimensions of the three arrays must agree; arrays are copied and
    frozen at construction.  A mode with log gamma == 0 exactly is linear;
    which mode a student keeps pinned there is the student net's fact, not
    the bundle's.
    """

    gating: np.ndarray
    base_velocities: np.ndarray
    log_gammas: np.ndarray

    @classmethod
    def _trusted(cls, gating, base_velocities, log_gammas):
        """Bundle over float64 arrays the caller has just built and owns, as
        StudentNet.forward does.  Shapes and the simplex hold by
        construction there, so only finiteness is checked; the arrays are
        frozen in place instead of copied."""
        bundle = object.__new__(cls)
        for name, arr in (("gating", gating), ("base_velocities",
                                                base_velocities),
                          ("log_gammas", log_gammas)):
            arr.flags.writeable = False
            object.__setattr__(bundle, name, arr)
        bundle._check_finite()
        return bundle

    def _check_finite(self):
        if not (np.isfinite(self.gating).all()
                and np.isfinite(self.base_velocities).all()
                and np.isfinite(self.log_gammas).all()):
            raise InvalidParameterError("momentum parameters must be finite")

    def __post_init__(self):
        gating = _as_readonly(self.gating)
        base = _as_readonly(self.base_velocities)
        logg = _as_readonly(self.log_gammas)
        object.__setattr__(self, "gating", gating)
        object.__setattr__(self, "base_velocities", base)
        object.__setattr__(self, "log_gammas", logg)

        if gating.ndim < 1 or base.ndim < 2 or logg.ndim < 1:
            raise InvalidParameterError(
                "gating/log_gammas need a mode axis and base_velocities a "
                "trailing (mode, coordinate) pair"
            )
        if gating.shape != logg.shape or base.shape[:-1] != gating.shape:
            raise InvalidParameterError(
                f"inconsistent shapes: gating {gating.shape}, "
                f"base_velocities {base.shape}, log_gammas {logg.shape}"
            )
        self._check_finite()
        if (gating < -GATING_TOL).any():
            raise InvalidParameterError("gating weights must be non-negative")
        sums = gating.sum(axis=-1)
        if np.abs(sums - 1.0).max() > GATING_TOL:
            worst = float(np.abs(sums - 1.0).max())
            raise InvalidParameterError(
                f"gating weights must sum to 1 within {GATING_TOL}; "
                f"worst deviation {worst:.3e}"
            )

    @property
    def num_modes(self) -> int:
        return self.gating.shape[-1]

    @property
    def dim(self) -> int:
        return self.base_velocities.shape[-1]

    @property
    def batch_shape(self) -> tuple:
        return self.gating.shape[:-1]


@dataclass(frozen=True)
class LatentState:
    """A latent position x at flow time t in [0, 1]."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        x = _as_readonly(self.x)
        t = float(self.t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        if not np.isfinite(x).all():
            raise InvalidParameterError("latent state must be finite")
        if not 0.0 <= t <= 1.0:
            raise InvalidParameterError(f"flow time {t} outside [0, 1]")


def eval_velocity(theta: MomentumParams, t) -> np.ndarray:
    """Instantaneous mixture velocity at time t.

    t is a scalar applied to the whole batch, or an array matching the batch
    shape of theta; for an unbatched theta, a 1-D t gives one (D,) row per
    time.  Returns an array of shape (..., D).
    """
    t = np.asarray(t, dtype=float)
    exponent = 1.0 - t
    weights = theta.gating * np.exp(exponent[..., None] * theta.log_gammas)
    return np.einsum("...k,...kd->...d", weights, theta.base_velocities)


# The momentum factors' default (lo, hi), for the config and the net alike.
DEFAULT_GAMMA_RANGE = (0.4, 5.0)


def check_gamma_range(lo, hi) -> tuple:
    """(lo, hi) as floats; InvalidParameterError unless they bound the
    momentum factors of a bundle: 0 < lo < 1 < hi < inf."""
    lo, hi = float(lo), float(hi)
    if not 0.0 < lo < 1.0 < hi < np.inf:
        raise InvalidParameterError(
            f"gamma_range must satisfy 0 < lo < 1 < hi < inf, got "
            f"({lo}, {hi})")
    return lo, hi


def init_log_gammas(num_modes, range_lo, range_hi):
    """Default log-momentum initialization for a K-mode bundle.

    Builds the geometric progression from range_lo to range_hi (endpoints
    inclusive) in gamma space, takes logs, then snaps the entry closest to
    zero (ties toward the lower index) to exactly 0.0 so the bundle starts
    with one exact linear mode.  For num_modes == 1 the single entry is 0.0.

    Returns the log gammas, strictly increasing, with exactly one zero.  That
    zero is the mode a per-mode student head pins at gamma = 1: the pin rule
    (nnet.pinned_mode) takes the first entry that is exactly 0.
    """
    num_modes = int(num_modes)
    if num_modes < 1:
        raise InvalidParameterError("need at least one mode")
    lo, hi = check_gamma_range(range_lo, range_hi)
    logs = np.log(np.geomspace(lo, hi, num_modes))
    logs[np.argmin(np.abs(logs))] = 0.0  # argmin keeps the lower index on ties
    if not (np.diff(logs) > 0.0).all() or np.count_nonzero(logs == 0.0) != 1:
        raise InvalidParameterError(
            f"degenerate momentum progression for range ({lo}, {hi}) "
            f"with {num_modes} modes"
        )
    return logs
