"""Flow distillation onto momentum mixtures.

One training step:

1. Pick a shelf [t_src, t_dst] uniformly from the NFE grid
   {(i+1)/NFE -> i/NFE}.
2. Draw a batch of noising-path states at t_src from the teacher's data and
   a fresh standard normal.
3. Predict one mixture parameter bundle theta at the shelf start.
4. Split the shelf into n_intermediate sub-intervals at stratified random
   anchor times and roll each out with the mixed rule: integrate the teacher
   velocity (held constant, one Euler segment) from the sub-interval start
   down to the switching time t_sw = lam * start + (1 - lam) * end, then take
   the closed-form momentum step for the remainder.  Every closed-form
   segment is displacement over its own interval, all n of them from one
   call with the intervals stacked on a row axis; no segment is a
   difference of two displacements.  At lam = 1 there is no teacher
   segment: the rollout is the student's closed-form chain alone.  It returns
   two plain arrays, the anchor states and the teacher velocities there, so
   gradients never flow through it.
5. Match the mixture's instantaneous velocity at every anchor time against
   the teacher's velocity at the anchor state; squared error averaged over
   anchors, batch and coordinates.  The loss computes the gamma powers
   gamma**(1 - t_j) itself; the rollout keeps none of its own.  The rollout
   evaluates the teacher at every anchor state, and at lam = 1 in one call
   at one time per anchor, so the loss calls no teacher.
6. Adam step.  lam ramps linearly from 0 (anchors follow the teacher) to 1
   (anchors follow the student's own closed-form rollout) over
   guidance_steps and stays at 1 afterwards.

The loss gradient with respect to the predicted bundle is written in closed
form here; the network maps it back to its weights.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArcFlowError,
    InvalidIntervalError,
    InvalidParameterError,
    NumericError,
)
from .momentum import DEFAULT_GAMMA_RANGE, MomentumParams, check_gamma_range
from .nnet import (GAMMA_MODES, NetConfig, StudentNet, adam_step,
                   init_optim_state)
from .solver import displacement, sub_interval_displacement
from .teacher import TrajectoryRecord

# Ceiling of every size key of [distill] and [run]: far past what a machine
# can hold, so a run asking for it fails as out of memory, yet low enough
# that numpy can still shape each array one such count sizes.
MAX_COUNT = 2**40


def _check_counts(config, low, *names):
    """InvalidParameterError unless every named count field of config lies
    in [low, MAX_COUNT]."""
    for name in names:
        value = getattr(config, name)
        if not low <= value <= MAX_COUNT:
            raise InvalidParameterError(
                f"{name} = {value} outside [{low}, MAX_COUNT = {MAX_COUNT}]")


@dataclass(frozen=True)
class DistillConfig:
    """Distillation hyperparameters; defaults are the desk-scale reference."""

    nfe: int = 2
    num_modes: int = 8
    n_intermediate: int = 4
    guidance_steps: int = 500
    total_steps: int = 3000
    batch: int = 64
    base_lr: float = 1e-4
    gamma_lo: float = DEFAULT_GAMMA_RANGE[0]
    gamma_hi: float = DEFAULT_GAMMA_RANGE[1]
    gamma_mode: str = "learnable"
    share_velocity: bool = False
    share_gamma: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, 1, "nfe", "num_modes", "n_intermediate", "batch")
        for name, low in (("guidance_steps", 1), ("total_steps", 0)):
            if getattr(self, name) < low:
                raise InvalidParameterError(
                    f"{name} = {getattr(self, name)} must be >= {low}")
        if not 0.0 < self.base_lr < math.inf:
            raise InvalidParameterError(
                f"base_lr = {self.base_lr} outside (0, inf)")
        check_gamma_range(self.gamma_lo, self.gamma_hi)
        if self.gamma_mode not in GAMMA_MODES:
            raise InvalidParameterError(
                f"gamma_mode must be one of {GAMMA_MODES}, got "
                f"{self.gamma_mode!r}")
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise InvalidParameterError(
                f"seed must be a non-negative integer, got {self.seed!r}")


def make_linear_baseline(cfg: DistillConfig) -> DistillConfig:
    """The one-mode, momentum-frozen configuration: a per-shelf constant
    velocity, everything else identical."""
    return dataclasses.replace(cfg, num_modes=1, gamma_mode="frozen_one",
                               share_velocity=False, share_gamma=False)


def training_streams(seed: int):
    """Independent child streams (net_init, training, evaluation) of one run
    seed.  Keeping them separate means two configs with different network
    sizes still consume identical training and evaluation streams, which is
    what makes paired-seed comparisons paired."""
    return np.random.SeedSequence(int(seed)).spawn(3)


def build_student_net(cfg: DistillConfig, dim: int,
                      init_seed=None) -> StudentNet:
    """Instantiate the student for a distillation config.  init_seed defaults
    to the net_init child stream of cfg.seed."""
    if init_seed is None:
        init_seed = training_streams(cfg.seed)[0]
    net_cfg = NetConfig(dim=int(dim), num_modes=cfg.num_modes,
                        gamma_mode=cfg.gamma_mode,
                        share_velocity=cfg.share_velocity,
                        share_gamma=cfg.share_gamma,
                        gamma_range=(cfg.gamma_lo, cfg.gamma_hi))
    return StudentNet.seeded(net_cfg, init_seed)


def lambda_at(step_idx: int, guidance_steps: int) -> float:
    """Linear guidance ramp: 0 at step 0, 1 from guidance_steps onward."""
    return min(int(step_idx) / int(guidance_steps), 1.0)


def sample_shelf(rng: np.random.Generator, nfe: int):
    """Uniform shelf choice; returns (t_src, t_dst) on the NFE grid."""
    idx = int(rng.integers(int(nfe)))
    return (idx + 1) / nfe, idx / nfe


def sample_anchor_times(rng: np.random.Generator, t_src: float, width: float,
                        count: int) -> np.ndarray:
    """Stratified anchor times inside (t_src - width, t_src], one per
    stratum, strictly decreasing."""
    count = int(count)
    highs = t_src - width * np.arange(count) / count
    times = highs - rng.uniform(size=count) * (width / count)
    return np.clip(times, 0.0, t_src)


def init_shelf_state(teacher, rng: np.random.Generator, t_src: float,
                     batch: int) -> np.ndarray:
    """Batch (B, D) of noising-path states x_t = (1 - t) x0 + t x1 at
    t = t_src, with x0 from the teacher's data distribution and x1 standard
    normal."""
    x0 = teacher.sample_data(rng, int(batch))
    x1 = rng.standard_normal((int(batch), teacher.dim))
    return (1.0 - t_src) * x0 + t_src * x1


def mixed_integration(x_start, t_start, theta: MomentumParams, anchor_times,
                      lam: float, teacher) -> tuple:
    """Roll a batch from t_start through the anchor times with the mixed
    teacher/student rule described in the module docstring; returns the
    plain arrays (anchor_states, teacher_velocities), each (n, B, D).

    Sub-interval j runs from t_(j-1) (t_start for j = 0) through the
    switching time s_j = lam * t_(j-1) + (1 - lam) * t_j to t_j; its
    student segment is displacement(theta, s_j, t_j).  All n segments come
    from one displacement call over times stacked on a leading row axis,
    which checks every sub-interval before any teacher call.  The gamma
    powers its coefficients take are not kept: velocity_matching_loss
    computes its own.

    lam = 0 reduces every sub-interval to one teacher Euler step.  lam = 1
    has no teacher segment: the anchors are the closed-form chain, and the
    teacher is then evaluated on every anchor state in one call, with one
    time per anchor, so it forms its per-time factors once per anchor, not
    once per row.  teacher.velocity computes each row on its own, so the
    result has the bits of the sequential rule.

    Anchor times are checked before any teacher call: a non-empty 1-D
    array, strictly decreasing, in [0, t_start] with t_start <= 1.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise InvalidParameterError(f"lambda {lam} outside [0, 1]")
    x_src = np.asarray(x_start, dtype=float)
    t_start = float(t_start)
    times = np.asarray(anchor_times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise InvalidParameterError(f"anchor_times must be a non-empty 1-D "
                                    f"array, got shape {times.shape}")
    if not (np.diff(times) < 0.0).all():
        raise InvalidParameterError("anchor times must strictly decrease")
    if not 0.0 <= times[-1] <= times[0] <= t_start <= 1.0:
        raise InvalidIntervalError(f"anchor times [{times[-1]}, {times[0]}] "
                                   f"not in [0, t_start = {t_start} <= 1]")
    n = times.size
    t_prev = np.concatenate(([t_start], times[:-1]))
    t_sw = lam * t_prev + (1.0 - lam) * times
    stack = (n,) + (1,) * (theta.gating.ndim - 1)
    steps = displacement(theta, t_sw.reshape(stack), times.reshape(stack))
    anchors = np.empty((n,) + x_src.shape)
    if lam == 1.0:
        # s_j = t_(j-1): the chain t_start -> t_1 -> ... of student steps
        # alone, x_j = x_(j-1) - steps[j]; then the teacher on every anchor
        x = x_src
        for j in range(n):
            x = anchors[j] = x - steps[j]
        if not np.isfinite(anchors).all():
            j = next(j for j in range(n) if not np.isfinite(anchors[j]).all())
            raise _non_finite_state(j, t_prev[j], times[j])
        times_by_anchor = times.reshape((n,) + (1,) * (x_src.ndim - 1))
        return anchors, teacher.velocity(anchors, times_by_anchor)
    targets = np.empty_like(anchors)
    x, u = x_src, teacher.velocity(x_src, t_start)
    for j in range(n):
        x = x - u * (t_prev[j] - t_sw[j])
        x = x - steps[j]
        if not np.isfinite(x).all():
            raise _non_finite_state(j, t_prev[j], times[j])
        anchors[j] = x
        u = targets[j] = teacher.velocity(x, float(times[j]))
    return anchors, targets


def _non_finite_state(j, t_prev, t_next) -> NumericError:
    return NumericError(
        f"non-finite state in sub-interval {j} ({t_prev:.6f} -> {t_next:.6f})"
    )


def velocity_matching_loss(theta: MomentumParams, anchor_times, targets):
    """Mean squared velocity mismatch at the anchors, plus its closed-form
    gradient (d_gating, d_base, d_logg) with respect to theta's fields.

    The student side evaluates the bundle predicted at the shelf start at
    each anchor time (velocities extrapolate, they are not re-predicted),
    and the loss computes the gamma powers gamma**(1 - t_j) for it itself.
    targets are the rollout's teacher velocities.  Anchor states enter as
    constants, so the gradient sees only the explicit dependence on theta.
    """
    expo = (1.0 - np.asarray(anchor_times, dtype=float))[:, None, None]
    gpow = np.exp(expo * theta.log_gammas[None])                # (n,B,K)
    v_student = np.einsum("bk,nbk,bkd->nbd", theta.gating, gpow,
                          theta.base_velocities)

    diff = v_student - targets
    loss = float(np.mean(diff * diff))
    if not np.isfinite(loss):
        raise NumericError("non-finite velocity matching loss")

    up = 2.0 * diff / diff.size                                  # dL/dv
    proj = np.einsum("nbd,bkd->nbk", up, theta.base_velocities)
    proj_pow = proj * gpow
    d_gating = proj_pow.sum(axis=0)
    d_base = np.einsum("nbd,nbk->bkd", up, gpow) * theta.gating[..., None]
    d_logg = (proj_pow * expo).sum(axis=0) * theta.gating
    return loss, (d_gating, d_base, d_logg)


def distill_train(teacher, net: StudentNet, cfg: DistillConfig):
    """Run the full distillation loop, mutating net in place.

    The loop draws from the training child stream of cfg.seed.  Returns the
    loss log, one (step, lambda, loss, shelf_start) row per step.  Any
    ArcFlowError inside a step aborts the run as the same error type with
    the step index attached.  Overflow and invalid-value warnings are
    silenced for the loop: every value it computes ends in a finiteness
    check (bundles, rollout states, loss, gradients, and the parameters
    after the last update), so a diverging run reports one step-tagged
    NumericError.
    """
    rng = np.random.default_rng(training_streams(cfg.seed)[1])
    if net.config.num_modes != cfg.num_modes:
        raise InvalidParameterError(
            f"net has {net.config.num_modes} modes, config wants "
            f"{cfg.num_modes}"
        )
    opt = init_optim_state(net, cfg.base_lr)
    width = 1.0 / cfg.nfe
    log = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step_idx in range(cfg.total_steps):
            lam = lambda_at(step_idx, cfg.guidance_steps)
            try:
                t_src, _ = sample_shelf(rng, cfg.nfe)
                x0 = init_shelf_state(teacher, rng, t_src, cfg.batch)
                times = sample_anchor_times(rng, t_src, width,
                                            cfg.n_intermediate)
                theta = net.forward(x0, t_src)
                _, targets = mixed_integration(x0, t_src, theta, times, lam,
                                               teacher)
                loss, grads = velocity_matching_loss(theta, times, targets)
                net.backward(*grads)
                adam_step(net, opt)
            except ArcFlowError as exc:
                raise type(exc)(f"training step {step_idx}: {exc}") from exc
            log.append((step_idx, lam, loss, t_src))
    # earlier updates are checked by the next step's forward pass
    if log and not np.isfinite(net.params).all():
        raise NumericError(f"training step {log[-1][0]}: non-finite "
                           f"parameters after the update")
    return log


def student_sample(net: StudentNet, x_start, nfe: int,
                   dense_per_shelf: int) -> TrajectoryRecord:
    """Sample with nfe network evaluations, one per shelf, recording a dense
    closed-form trace inside each shelf.

    Each dense sub-step is the closed-form displacement over its own
    interval, so the chain reproduces the single whole-shelf step up to
    rounding; the shelf handoff state is the last dense state.  A shelf's
    sub-steps come from one sub_interval_displacement call over intervals
    stacked on a leading row axis, each row the bits of its own call, and
    are subtracted in order: a sample costs nfe forward passes plus nfe
    stacked interval passes.  Overflow and invalid-value warnings are
    silenced: every shelf's states are checked for finiteness, so a
    diverging student raises one NumericError naming the shelf and its first
    non-finite sub-step.
    """
    nfe = int(nfe)
    dense = int(dense_per_shelf)
    if nfe < 1 or dense < 1:
        raise InvalidParameterError("nfe and dense_per_shelf must be >= 1")
    x = np.asarray(x_start, dtype=float)
    positions = np.empty((nfe * dense + 1,) + x.shape)
    times = np.empty(nfe * dense + 1)
    positions[0], times[0] = x, 1.0
    fractions = np.arange(1, dense + 1) / dense
    stack = (dense,) + (1,) * (x.ndim - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for shelf in range(nfe, 0, -1):
            t_hi = shelf / nfe
            t_lo = (shelf - 1) / nfe
            theta = net.forward(x, t_hi)
            taus = t_hi + (t_lo - t_hi) * fractions
            taus[-1] = t_lo
            prevs = np.concatenate(([t_hi], taus[:-1]))
            steps = sub_interval_displacement(theta, prevs.reshape(stack),
                                              taus.reshape(stack))
            first = (nfe - shelf) * dense + 1
            for m in range(dense):
                x = np.subtract(x, steps[m], out=positions[first + m])
            del steps   # not held through the next shelf's forward pass
            times[first:first + dense] = taus
            finite = np.isfinite(positions[first:first + dense]).reshape(
                dense, -1).all(axis=1)
            if not finite.all():
                m = int(np.argmin(finite))
                raise NumericError(
                    f"non-finite sample state in shelf {nfe - shelf} "
                    f"({t_hi:.6f} -> {t_lo:.6f}), sub-step {m} "
                    f"({prevs[m]:.6f} -> {taus[m]:.6f})")
    return TrajectoryRecord(positions, times)
