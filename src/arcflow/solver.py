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
gamma = 1.  It is additive over interval splits; the solver is exact up to
floating-point rounding, so step size never trades off against accuracy.
The expm1 factor is written once, in _interval_factor.  displacement is the
one checked entry and the only route to the closed form: it holds every
interval to 0 <= t_end <= t_start <= 1.  A single coefficient is the
displacement of a one-mode bundle with gating 1 and velocity (1,), which is
how the checks in verify and the gate read it.  step makes one pass through
it; student_sample makes one pass per shelf for all its dense sub-steps, and
the training rollout (distill's mixed_integration) one pass for all its
sub-intervals, each stacked on a leading row axis.

The pass works mode-major: it copies the bundle with the mode axis first
and the samples last, so every elementwise loop runs along the samples, and
it sums the modes as a running sum from mode 0.  That is einsum's order for
"...k,...kd->...d" at D >= 2, so those bundles get einsum's bits; at D = 1
einsum sums in an unrolled order, and the two differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidIntervalError, InvalidParameterError, NumericError
from .momentum import LatentState, MomentumParams


# Elements in one row block's (K, rows) + batch_shape arrays when
# displacement works through a stack.  One shelf of student_sample (16
# rows at K = 8) with its subtractions, median of 20 interleaved rounds on a
# 2-core Xeon, at budgets 2**13, 2**14, 2**15 and 2**16: B = 2048 (16,384
# elements a row, so one row a block at both of the first two) 2.25, 2.12,
# 2.92 and 3.41 ms; B = 512 0.88, 0.84, 0.93 and 1.29 ms.  A stack the size
# of the training rollout (4 rows, B = 64) is one block at any of them.
BLOCK_ELEMENTS = 2**14


def _interval_factor(lg, flat, elapsed):
    # expm1(elapsed lg) / lg, or elapsed itself where lg == 0 exactly
    return np.where(flat, elapsed,
                    np.expm1(elapsed * lg) / np.where(flat, 1.0, lg))


def _mode_sums(gate, base, lg, t_start, t_end):
    # sum_k gate_k C_k base_k for n stacked intervals, (D, n) + batch, from
    # mode-major gate (K, 1) + batch, base (K, D, 1) + batch and lg (K,) +
    # batch.  The rows run in blocks whose (K, rows) + batch arrays stay
    # within BLOCK_ELEMENTS.  The modes sum as a running sum over the
    # leading axis from mode 0, which is the order of einsum's
    # "...k,...kd->...d" for D >= 2.
    elapsed = t_start - t_end
    rows = elapsed.shape[0]
    per = min(rows, max(1, BLOCK_ELEMENTS // lg.size))
    if t_start.ndim < elapsed.ndim:   # one start for every row
        t_start = np.broadcast_to(t_start, elapsed.shape)
    flat = lg == 0.0
    factor = None
    if rows > per and elapsed.min() == elapsed.max():
        # one interval length: its factor serves every block
        factor = _interval_factor(lg, flat, elapsed.flat[0])[:, None]
    lg, flat = lg[:, None], flat[:, None]
    out = np.empty((base.shape[1], rows) + base.shape[3:])
    # one set of block buffers for every block: fresh temporaries of this
    # size cost more than the arithmetic
    weights = np.empty((lg.shape[0], per) + lg.shape[2:])
    products = np.empty(base.shape[:2] + weights.shape[1:])
    for j in range(0, rows, per):
        r = min(per, rows - j)
        w = weights[:, :r]
        # gate * exp((1 - t_start) lg) * interval factor
        np.multiply(1.0 - t_start[j:j + r], lg, out=w)
        np.exp(w, out=w)
        w *= (_interval_factor(lg, flat, elapsed[j:j + r]) if factor is None
              else factor)
        w *= gate
        np.add.reduce(np.multiply(w[:, None], base, out=products[:, :, :r]),
                      axis=0, out=out[:, j:j + r])
    return out


def _is_stacked(t, batch):
    # Scalars and batch-shaped times give one interval per sample.  A time
    # array may also put one row axis ahead of the batch shape, (n,) +
    # batch_shape or (n,) + (1,) * ndim, to stack n intervals.
    if t.ndim == 0 or t.shape == batch:
        return False
    if t.shape[1:] not in (batch, (1,) * len(batch)):
        raise InvalidParameterError(
            f"time array shape {t.shape} does not match batch shape "
            f"{batch}, with or without one leading row axis"
        )
    return True


def displacement(theta: MomentumParams, t_start, t_end) -> np.ndarray:
    """Integrated mixture displacement over [t_end, t_start], shape (..., D).

    This is the quantity subtracted from x when stepping down in time.
    Times are scalars or per-sample arrays matching theta's batch shape; an
    array of shape (n,) + batch_shape or (n,) + (1,) * batch_ndim stacks n
    intervals and gives (n,) + batch_shape + (D,), each row the bits of its
    own call (an unbatched bundle with 1-D times gives one (D,) row per
    time).  A stack runs in blocks of rows, each within BLOCK_ELEMENTS, and
    when all its intervals have one length their expm1 factor is computed
    once.  The result may be a transposed view.  InvalidIntervalError unless
    every interval has 0 <= t_end <= t_start <= 1 (NaN fails).
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
    batch = theta.batch_shape
    stacked = _is_stacked(t_start, batch) | _is_stacked(t_end, batch)
    if not stacked:   # one interval per sample: a stack of one row
        t_start, t_end = t_start[None], t_end[None]
    # mode-major copies, (K,) + batch and (K, D) + batch, so that every
    # elementwise loop runs along the samples
    nb = len(batch)
    lead = (nb,) + tuple(range(nb))
    lg = np.ascontiguousarray(theta.log_gammas.transpose(lead))
    gate = np.ascontiguousarray(theta.gating.transpose(lead))
    base = np.ascontiguousarray(theta.base_velocities.transpose(
        (nb, nb + 1) + lead[1:]))
    # Overflow shows as a non-finite displacement and no numpy warning: the
    # callers that build states from it check them.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _mode_sums(gate[:, None], base[:, :, None], lg, t_start, t_end)
    out = out.transpose((1,) + tuple(range(2, out.ndim)) + (0,))
    return out if stacked else out[0]


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
