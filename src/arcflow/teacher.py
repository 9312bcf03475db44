"""Flow-matching teachers over Gaussian-mixture data.

The data distribution is a J-component Gaussian mixture with isotropic
component covariances sigma_j^2 I.  The noising path interpolates linearly
between a data sample x0 and a standard normal sample x1:

    x_t = (1 - t) x0 + t x1,     t in [0, 1]

so t = 1 is pure noise and t = 0 is data.  The marginal velocity field that
flow matching trains toward is E[x1 - x0 | x_t = x], and for this family it
is available in closed form.  Conditioned on component j, x_t is Gaussian
with mean a mu_j and scale s_j^2 = a^2 sigma_j^2 + b^2 (a = 1 - t, b = t),
which gives

    u_j(x, t) = ((b - a sigma_j^2) / s_j^2) (x - a mu_j) - mu_j
    u(x, t)   = sum_j r_j(x, t) u_j(x, t)

with posterior responsibilities r_j proportional to
w_j N(x; a mu_j, s_j^2 I), evaluated in log space for stability.

Useful identities: u(x, 1) = x - E[x0], and u(x, 0) = -x.

The same module hosts the discretized reference integrator (plain Euler down
the time axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import fork_workers, map_forked
from .errors import InvalidParameterError, InvalidProblemError, NumericError
from .momentum import LatentState, _as_readonly

# Component scales below this would make early-time responsibilities
# numerically degenerate.
STD_FLOOR = 1e-3

WEIGHT_TOL = 1e-12

# Rows x steps of Euler work each block must get before euler_sample splits
# a batch: below it, forking and joining a worker (about 12 ms) costs more
# than the block's share of the integration.  On a 2-core VM two blocks of
# 25,600 lost 11 ms against one process and two of 51,200 gained 15 ms.
MIN_BLOCK_WORK = 50_000


@dataclass(frozen=True)
class GmmTeacherSpec:
    """Gaussian mixture data distribution, weights (J,), means (J, D) and
    isotropic stds (J,), copied and frozen at construction.  It is the
    closed-form teacher the distillation loop expects: dim,
    sample_data(rng, count) and velocity(x, t), where velocity computes
    each row of x on its own, so a row's velocity has the same bits
    whichever rows share the call."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        for name in ("weights", "means", "stds"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        w, mu, sd = self.weights, self.means, self.stds
        if w.ndim != 1 or sd.ndim != 1 or mu.ndim != 2:
            raise InvalidProblemError(
                "weights (J,), means (J, D), stds (J,) expected"
            )
        j = w.shape[0]
        if j < 1 or mu.shape[0] != j or sd.shape[0] != j:
            raise InvalidProblemError(
                f"component count mismatch: weights {w.shape}, "
                f"means {mu.shape}, stds {sd.shape}"
            )
        if not (np.isfinite(w).all() and np.isfinite(mu).all()
                and np.isfinite(sd).all()):
            raise InvalidProblemError("mixture parameters must be finite")
        if (w < 0.0).any() or abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise InvalidProblemError(
                f"mixture weights must be a simplex within {WEIGHT_TOL}"
            )
        if (sd < STD_FLOOR).any():
            raise InvalidProblemError(
                f"component stds must be >= {STD_FLOOR}"
            )
        # Constants of gmm_velocity and sample_data, computed once per spec.
        with np.errstate(divide="ignore", over="ignore"):
            object.__setattr__(self, "_log_weights", np.log(w))  # 0 -> -inf
            object.__setattr__(self, "_variances", sd ** 2)
        if not np.isfinite(self._variances).all():
            raise InvalidProblemError("component variances must be finite")
        cdf = w.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def velocity(self, x, t) -> np.ndarray:
        return gmm_velocity(self, x, t)

    def sample_data(self, rng, count) -> np.ndarray:
        return sample_data(self, rng, count)


def ring_spec(components=8, radius=2.0, std=0.25, dim=2) -> GmmTeacherSpec:
    """Equal-weight mixture with means evenly spaced on a circle of the given
    radius in the first two coordinates."""
    if dim < 2 or components < 1:
        raise InvalidProblemError("ring layout needs dim >= 2 and "
                                  "components >= 1")
    try:
        angles = 2.0 * np.pi * np.arange(components) / components
        means = np.zeros((components, dim))
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
        weights = np.full(components, 1.0 / components)
        return GmmTeacherSpec(weights, means,
                              np.full(components, float(std)))
    except (MemoryError, ValueError):   # numpy's "too big" is a ValueError
        raise InvalidParameterError(
            f"a ring of {components} components in {dim} dimensions does "
            f"not fit in memory") from None


def sample_data(spec: GmmTeacherSpec, rng: np.random.Generator,
                count: int) -> np.ndarray:
    """Draw count samples from the mixture; component choice first, then the
    Gaussian draws, so consumers relying on stream position stay stable.
    The component draw is Generator.choice(J, size=count, p=weights) done
    with the spec's stored CDF: the same uniforms and the same indices."""
    idx = spec._cdf.searchsorted(rng.random(count), side="right")
    noise = rng.standard_normal((count, spec.dim))
    return spec.means[idx] + spec.stds[idx][:, None] * noise


def gmm_velocity(spec: GmmTeacherSpec, x, t) -> np.ndarray:
    """Closed-form marginal velocity E[x1 - x0 | x_t = x] at time t.

    x has shape (..., D); t is a scalar or an array matching the leading
    dimensions of x.  Responsibilities are computed in log space with a max
    shift before exponentiation.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    # append a component axis j; a scalar t keeps every (J,) term a vector
    a_j = 1.0 - t[..., None]
    b_j = t[..., None]
    sig2 = spec._variances
    var = a_j * a_j * sig2 + b_j * b_j                   # (..., J)
    diff = x[..., None, :] - a_j[..., None] * spec.means  # (..., J, D)
    log_r = np.einsum("...jd,...jd->...j", diff, diff)
    # in place, in the operation order of
    # log w - 0.5 sq / var - 0.5 D log var, then the max shift
    log_r *= 0.5
    log_r /= var
    np.subtract(spec._log_weights, log_r, out=log_r)
    log_r -= 0.5 * spec.dim * np.log(var)
    # the row max as a chain over the J columns: max is exact, so this has
    # the bits of log_r.max(axis=-1) without a reduction per row
    shift = log_r[..., 0].copy()
    for j in range(1, log_r.shape[-1]):
        np.maximum(shift, log_r[..., j], out=shift)
    log_r -= shift[..., None]
    resp = np.exp(log_r, out=log_r)
    resp /= resp.sum(axis=-1, keepdims=True)
    diff *= ((b_j - a_j * sig2) / var)[..., None]       # coef * diff
    diff -= spec.means
    return np.einsum("...j,...jd->...d", resp, diff)


@dataclass(frozen=True)
class TrajectoryRecord:
    """A discrete trajectory from noise (t = 1) to data (t = 0).

    positions (T+1, ..., D) holds the state at each of the T+1 times (T+1,),
    which start at exactly 1.0, end at exactly 0.0 and strictly decrease.
    Both arrays are frozen in place, not copied.
    """

    positions: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        for name in ("positions", "times"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        times, shape = self.times, self.positions.shape
        if times.ndim != 1 or times.size < 2 or shape[:1] != times.shape:
            raise InvalidParameterError(
                f"need two or more states, one time each; got positions "
                f"{shape}, times {times.shape}")
        if times[0] != 1.0 or times[-1] != 0.0:
            raise InvalidParameterError(
                f"trajectory must run from t=1 to t=0, got "
                f"[{times[0]}, {times[-1]}]"
            )
        if not (np.diff(times) < 0.0).all():
            raise InvalidParameterError("trajectory times must strictly decrease")

    @property
    def endpoint(self) -> np.ndarray:
        # A copy, so a kept endpoint does not pin the whole record.
        return self.positions[-1].copy()

    @property
    def states(self) -> tuple:
        # Built on each access for perfbench's Sample2Nfe.check.
        return tuple(map(LatentState, self.positions, self.times))


def euler_sample(velocity_field, x_start, steps) -> TrajectoryRecord:
    """Integrate dx = -u(x, t) dt from t = 1 to t = 0 with a uniform Euler
    grid of the given step count.  Grid times are (steps - i) / steps so the
    endpoints are exact.

    velocity_field(x, t) must compute each row of x on its own, as every
    field in this package does, so a row's trajectory has the same bits
    whichever rows share the calls.  A batch is split into contiguous row
    blocks, one per usable CPU and each at least MIN_BLOCK_WORK rows x
    steps, and every block is integrated over all steps on its own by a
    forked worker, writing into one shared positions buffer while the
    caller waits.  The record is identical to a one-process run, which is
    what a small batch, one CPU, a platform without fork and a daemon
    caller get."""
    steps = int(steps)
    if steps < 1:
        raise InvalidParameterError("need at least one integration step")
    x = np.asarray(x_start, dtype=float)
    shape = (steps + 1,) + x.shape
    blocks = 1
    if x.ndim >= 2 and x.size:
        work = x.size // x.shape[-1] * steps
        blocks = fork_workers(min(x.shape[0], work // MIN_BLOCK_WORK))
    if blocks > 1:
        import mmap

        # shared with the forked workers, so their rows need no copy back
        try:
            shared = mmap.mmap(-1, x.nbytes * (steps + 1))
        except OSError as exc:  # ENOMEM: a map too big to hold
            raise MemoryError(f"cannot map {x.nbytes * (steps + 1)} bytes "
                              f"of positions: {exc.strerror}") from None
        positions = np.frombuffer(shared, dtype=float).reshape(shape)
        edges = [k * x.shape[0] // blocks for k in range(blocks + 1)]
        units = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    else:
        positions, units = np.empty(shape), [...]
    failed = map_forked(_euler_rows, (velocity_field, x, steps, positions),
                        units)
    failed = min((i for i in failed if i is not None), default=None)
    if failed is not None:
        raise NumericError(f"non-finite state at integration step {failed} "
                           f"(t={(steps - failed - 1) / steps:.6f})")
    return TrajectoryRecord(positions, (steps - np.arange(steps + 1)) / steps)


def _euler_rows(shared, rows):
    """Euler-integrate x[rows] into positions[:, rows]; the first step whose
    new state is non-finite, or None."""
    velocity_field, x, steps, positions = shared
    x = x[rows]
    positions[0, rows] = x
    for i in range(steps):
        t_now = (steps - i) / steps
        t_next = (steps - i - 1) / steps
        u = velocity_field(x, t_now)
        x = np.subtract(x, u * (t_now - t_next), out=positions[i + 1, rows])
        if not np.isfinite(x).all():
            return i
    return None
