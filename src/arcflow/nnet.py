"""Student network predicting momentum-mixture parameters.

Architecture: the input feature vector [x, t, sin(2 pi f t), cos(2 pi f t)]
for a fixed frequency ladder feeds a small tanh MLP; the top hidden layer
fans out into three affine heads,

    gating head    -> K logits, softmaxed onto the simplex
    velocity head  -> K base velocities in R^D (or one shared vector)
    momentum head  -> K log-gamma offsets (or one shared offset)

The momentum head is additive on top of a frozen log-gamma bias holding the
default geometric progression, its weight matrix and offsets start at zero so
training begins exactly on that progression, and the column feeding the
anchor mode is masked so one mode stays pinned at gamma = 1.  Three momentum
regimes: "learnable" as above, "fixed" keeps the progression constant,
"frozen_one" pins every mode at gamma = 1 (with K = 1 this is the plain
linear-velocity baseline); a shared gamma head or "frozen_one" starts from
zeros instead.  The frozen log gammas alone fix the pinned mode (pinned_mode):
a per-mode gamma head pins its first entry that is exactly 0, a shared head
none, and a checkpoint whose stored anchor differs is refused.

Everything is float64 in one flat parameter vector with named views, and the
backward pass is written out by hand; arcflow.verify checks it against central
finite differences.  backward overwrites the gradient buffer; it never adds.

Every net comes from StudentNet(config, params, frozen_log_gammas), which
checks both arrays' lengths against the config and that they are finite
(InvalidParameterError) before it allocates, copies them, and pins the anchor.
load hands it a checkpoint's header and arrays, so loading draws nothing.

The forward pass allocates one array per layer: each product is fresh, and
bias, tanh and the head offsets are applied to it in place.  The softmax
runs mode-major, on a (K, B) copy of the logits, and normalises in numpy's
pairwise order over the K rows (momentum._pairwise_sum), so every output
has the bits of the row-wise form np.tanh(h @ W + b) with a softmax along
each row; the gating it returns is the (B, K) transpose of that copy.

StudentNet.seeded is the one place that draws, in order: each body weight
matrix, then the velocity head weight matrix, all scaled by 1/sqrt(fan_in);
biases and the gating and momentum heads start at zero (uniform gating,
default momentum progression).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckpointFormatError,
    InvalidParameterError,
    NumericError,
    StateError,
)
from .momentum import (DEFAULT_GAMMA_RANGE, MomentumParams, _pairwise_sum,
                       check_gamma_range, init_log_gammas)

GAMMA_MODES = ("learnable", "fixed", "frozen_one")

CHECKPOINT_MAGIC = b"ARCFLOW1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8
# The momentum head trains this much slower than everything else.
GAMMA_LR_SCALE = 0.1


@dataclass(frozen=True)
class NetConfig:
    dim: int
    num_modes: int
    hidden: tuple = (64, 64)
    time_freqs: tuple = (1.0, 2.0, 4.0, 8.0)
    gamma_mode: str = "learnable"
    share_velocity: bool = False
    share_gamma: bool = False
    gamma_range: tuple = DEFAULT_GAMMA_RANGE

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "time_freqs",
                           tuple(float(f) for f in self.time_freqs))
        if self.dim < 1 or self.num_modes < 1:
            raise InvalidParameterError("dim and num_modes must be >= 1")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise InvalidParameterError("hidden widths must be >= 1")
        if not all(math.isfinite(f) for f in self.time_freqs):
            raise InvalidParameterError("non-finite time frequencies")
        if self.gamma_mode not in GAMMA_MODES:
            raise InvalidParameterError(
                f"gamma_mode must be one of {GAMMA_MODES}, got "
                f"{self.gamma_mode!r}"
            )
        if len(self.gamma_range) != 2:
            raise InvalidParameterError("gamma_range must be (lo, hi)")
        object.__setattr__(self, "gamma_range",
                           check_gamma_range(*self.gamma_range))

    @property
    def feature_dim(self) -> int:
        return self.dim + 1 + 2 * len(self.time_freqs)

    @property
    def velocity_dim(self) -> int:
        return self.dim if self.share_velocity else self.num_modes * self.dim

    @property
    def gamma_dim(self) -> int:
        return 1 if self.share_gamma else self.num_modes

    @property
    def blocks(self) -> dict:
        """name -> (slice, shape) of each block of the flat parameter
        vector, in order."""
        widths = [self.feature_dim, *self.hidden]
        top = widths[-1]
        shapes = []
        for i in range(len(self.hidden)):
            shapes.append((f"body{i}_w", (widths[i], widths[i + 1])))
            shapes.append((f"body{i}_b", (widths[i + 1],)))
        shapes += [("gate_w", (top, self.num_modes)),
                   ("gate_b", (self.num_modes,)),
                   ("vel_w", (top, self.velocity_dim)),
                   ("vel_b", (self.velocity_dim,)),
                   ("gam_w", (top, self.gamma_dim)),
                   ("gam_b", (self.gamma_dim,))]
        blocks, offset = {}, 0
        for name, shape in shapes:
            blocks[name] = (slice(offset, offset + math.prod(shape)), shape)
            offset += math.prod(shape)
        return blocks

    @property
    def num_params(self) -> int:
        """Length of the flat parameter vector, by integer arithmetic alone,
        so a checkpoint header is checked before anything is allocated."""
        return sum(math.prod(shape) for _, shape in self.blocks.values())


def pinned_mode(config: NetConfig, frozen_log_gammas):
    """The mode pinned at gamma = 1: a per-mode gamma head's first frozen log
    gamma that is exactly 0; None for a shared head, or with no zero."""
    zeros = np.flatnonzero(np.asarray(frozen_log_gammas) == 0.0)
    return None if config.share_gamma or not zeros.size else int(zeros[0])


class StudentNet:
    """Flat-parameter MLP; see module docstring for the head layout."""

    def __init__(self, config: NetConfig, params, frozen_log_gammas):
        params = np.asarray(params, dtype=float)
        frozen = np.asarray(frozen_log_gammas, dtype=float)
        for name, values, size in (
                ("parameters", params, config.num_params),
                ("frozen log gammas", frozen, config.gamma_dim)):
            if values.shape != (size,):
                raise InvalidParameterError(
                    f"{name} of shape {values.shape}, not ({size},)")
            if not np.isfinite(values).all():
                raise InvalidParameterError(f"non-finite {name}")
        self.config = config
        self.params = params.copy()
        self.grads = np.zeros(config.num_params)
        self._bind_views()
        self._omegas = np.array([2.0 * np.pi * f for f in config.time_freqs])
        self._tape = None
        self.frozen_log_gammas = frozen.copy()
        self.anchor_index = pinned_mode(config, frozen)
        self._anchor_mask = np.ones(config.gamma_dim)
        if self.anchor_index is not None:
            self._anchor_mask[self.anchor_index] = 0.0

    @classmethod
    def seeded(cls, config: NetConfig, seed=0) -> "StudentNet":
        """A fresh net on the frozen progression: zeros for frozen_one or a
        shared gamma head, else init_log_gammas; weights drawn from seed."""
        if config.gamma_mode == "frozen_one" or config.share_gamma:
            frozen = np.zeros(config.gamma_dim)
        else:
            frozen = init_log_gammas(config.num_modes, *config.gamma_range)
        net = cls(config, np.zeros(config.num_params), frozen)
        rng = np.random.default_rng(seed)
        body = [f"body{i}_w" for i in range(len(config.hidden))]
        for name in body + ["vel_w"]:
            w = net.view(name)   # its rows are its fan-in
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), w.shape)
        return net

    # -- parameter bookkeeping ------------------------------------------------

    def _bind_views(self):
        # Named views into the two flat buffers, built once; the buffers are
        # only ever written in place, so the views stay valid.
        blocks = self.config.blocks
        self._p = {name: self.params[sl].reshape(shape)
                   for name, (sl, shape) in blocks.items()}
        self._g = {name: self.grads[sl].reshape(shape)
                   for name, (sl, shape) in blocks.items()}

    def __getstate__(self):
        # A pickled or deep-copied view would be a separate array, so copies
        # rebuild the views over their own buffers instead.
        state = self.__dict__.copy()
        del state["_p"], state["_g"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_views()

    def slice_of(self, name: str) -> slice:
        return self.config.blocks[name][0]

    def view(self, name: str) -> np.ndarray:
        return self._p[name]

    # -- forward / backward ---------------------------------------------------

    def features(self, x, t) -> np.ndarray:
        """Feature rows [x, t, sin/cos ladder]; x (B, D) or (D,), t scalar or
        (B,)."""
        cfg = self.config
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # [t, sin, cos, ...]: one row for a scalar t, or one per row of x
        t = np.asarray(t, dtype=float).reshape(-1, 1)
        block = np.empty((t.shape[0], cfg.feature_dim - cfg.dim))
        block[:, :1] = t
        ang = t * self._omegas
        block[:, 1::2] = np.sin(ang)
        block[:, 2::2] = np.cos(ang)
        feat = np.empty((x.shape[0], cfg.feature_dim))
        feat[:, :cfg.dim] = x
        feat[:, cfg.dim:] = block
        return feat

    def forward(self, x, t) -> MomentumParams:
        """Predict mixture parameters at (x, t); records the tape backward
        consumes.  A 1-D x gives an unbatched parameter bundle back."""
        cfg = self.config
        x_arr = np.asarray(x, dtype=float)
        squeeze = x_arr.ndim == 1
        if x_arr.ndim not in (1, 2) or x_arr.shape[-1] != cfg.dim:
            raise InvalidParameterError(
                f"input shape {x_arr.shape} is neither ({cfg.dim},) nor "
                f"(B, {cfg.dim})"
            )
        feat = self.features(x_arr, t)
        batch = feat.shape[0]
        p = self._p

        # in place, in the operation order of np.tanh(h @ W + b)
        acts = [feat]
        h = feat
        for i in range(len(cfg.hidden)):
            h = h @ p[f"body{i}_w"]
            h += p[f"body{i}_b"]
            np.tanh(h, out=h)
            acts.append(h)
        top = h

        # mode-major, so every loop runs along the batch: the max is exact
        # in any order, and _pairwise_sum keeps the row-wise sum's order
        z = (top @ p["gate_w"]).T.copy()
        z += p["gate_b"][:, None]
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= _pairwise_sum(z)
        gating = z.T   # displacement's mode-major copy of it is then free

        vel = top @ p["vel_w"]
        vel += p["vel_b"]
        if cfg.share_velocity:
            base = np.repeat(vel[:, None, :], cfg.num_modes, axis=1)
        else:
            base = vel.reshape(batch, cfg.num_modes, cfg.dim)

        if cfg.gamma_mode == "learnable":
            # frozen + masked offset, added the other way round: IEEE
            # addition commutes
            log_g = top @ p["gam_w"]
            log_g += p["gam_b"]
            log_g *= self._anchor_mask
            log_g += self.frozen_log_gammas
        else:
            log_g = self.frozen_log_gammas
        if log_g.shape != (batch, cfg.num_modes):
            # a shared gamma head's one column, or the frozen row
            log_g = np.broadcast_to(log_g, (batch, cfg.num_modes)).copy()

        self._tape = {"acts": acts, "gating": gating, "squeeze": squeeze}
        if squeeze:
            gating, base, log_g = gating[0], base[0], log_g[0]
        # Every array here is new, so the bundle takes them without a copy.
        return MomentumParams._trusted(gating, base, log_g)

    def backward(self, d_gating, d_base, d_logg) -> np.ndarray:
        """Parameter gradients for the most recent forward.

        d_gating, d_base and d_logg are a loss's gradients with respect to
        that forward's gating, base velocities and log gammas, in their
        shapes; the loss has folded in the gamma powers it computed.  Returns
        the flat gradient buffer, overwritten block by block; the gamma
        blocks of a head that does not learn them stay zero.
        """
        if self._tape is None:
            raise StateError("backward called before forward")
        cfg = self.config
        acts = self._tape["acts"]
        gating = self._tape["gating"]

        lead = (None,) if self._tape["squeeze"] else ()
        g_gate, g_vel, g_logg = (np.asarray(g, dtype=float)[lead]
                                 for g in (d_gating, d_base, d_logg))

        # softmax jacobian
        inner = (g_gate * gating).sum(axis=-1, keepdims=True)
        d_logits = gating * (g_gate - inner)

        if cfg.share_velocity:
            d_vel = g_vel.sum(axis=1)
        else:
            d_vel = g_vel.reshape(g_vel.shape[0], cfg.velocity_dim)

        p, g = self._p, self._g
        top = acts[-1]
        d_top = d_logits @ p["gate_w"].T + d_vel @ p["vel_w"].T
        np.matmul(top.T, d_logits, out=g["gate_w"])
        np.sum(d_logits, axis=0, out=g["gate_b"])
        np.matmul(top.T, d_vel, out=g["vel_w"])
        np.sum(d_vel, axis=0, out=g["vel_b"])

        if cfg.gamma_mode == "learnable":
            if cfg.share_gamma:
                d_off = g_logg.sum(axis=-1, keepdims=True)
            else:
                d_off = g_logg * self._anchor_mask
            d_top = d_top + d_off @ p["gam_w"].T
            np.matmul(top.T, d_off, out=g["gam_w"])
            np.sum(d_off, axis=0, out=g["gam_b"])

        d_h = d_top
        for i in range(len(cfg.hidden) - 1, -1, -1):
            d_z = d_h * (1.0 - acts[i + 1] ** 2)
            np.matmul(acts[i].T, d_z, out=g[f"body{i}_w"])
            np.sum(d_z, axis=0, out=g[f"body{i}_b"])
            d_h = d_z @ p[f"body{i}_w"].T
        return self.grads

    # -- checkpointing ---------------------------------------------------------

    def save(self, path):
        """Binary checkpoint; explicit little-endian layout, bit-exact."""
        cfg = self.config
        out = bytearray()
        out += CHECKPOINT_MAGIC
        out += struct.pack("<II", cfg.dim, cfg.num_modes)
        out += struct.pack("<I", len(cfg.hidden))
        out += struct.pack(f"<{len(cfg.hidden)}I", *cfg.hidden)
        out += struct.pack("<I", len(cfg.time_freqs))
        out += struct.pack(f"<{len(cfg.time_freqs)}d", *cfg.time_freqs)
        out += struct.pack("<BBB", GAMMA_MODES.index(cfg.gamma_mode),
                           int(cfg.share_velocity), int(cfg.share_gamma))
        anchor = -1 if self.anchor_index is None else self.anchor_index
        out += struct.pack("<i", anchor)
        out += struct.pack("<dd", *cfg.gamma_range)
        frozen = np.ascontiguousarray(self.frozen_log_gammas, dtype="<f8")
        out += struct.pack("<I", frozen.size)
        out += frozen.tobytes()
        params = np.ascontiguousarray(self.params, dtype="<f8")
        out += struct.pack("<Q", params.size)
        out += params.tobytes()
        with open(path, "wb") as fh:
            fh.write(bytes(out))

    @classmethod
    def load(cls, path) -> "StudentNet":
        """The net save wrote to path; any other bytes raise
        CheckpointFormatError naming the file."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CheckpointFormatError(
                f"cannot read checkpoint {path}: {exc.strerror}")
        pos = 8   # past the magic

        def take(fmt):
            nonlocal pos
            size = struct.calcsize(fmt)
            if pos + size > len(raw):
                raise CheckpointFormatError(f"truncated checkpoint {path}")
            vals = struct.unpack_from(fmt, raw, pos)
            pos += size
            return vals

        if raw[:8] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(
                f"bad magic {raw[:8]!r} in {path}; expected {CHECKPOINT_MAGIC!r}"
            )
        dim, num_modes, n_hidden = take("<III")
        hidden = take(f"<{n_hidden}I")
        (n_freqs,) = take("<I")
        freqs = take(f"<{n_freqs}d")
        mode_idx, share_v, share_g = take("<BBB")
        (anchor,) = take("<i")
        gamma_range = take("<dd")
        (frozen_len,) = take("<I")
        frozen = np.array(take(f"<{frozen_len}d"))
        (param_count,) = take("<Q")
        if pos + param_count * 8 != len(raw):
            raise CheckpointFormatError(
                f"payload size mismatch in {path}: header promises "
                f"{param_count} parameters, file holds "
                f"{(len(raw) - pos) // 8}"
            )
        if mode_idx >= len(GAMMA_MODES) or share_v > 1 or share_g > 1:
            raise CheckpointFormatError(
                f"unknown momentum mode index {mode_idx} or sharing flags "
                f"({share_v}, {share_g}) other than 0 or 1 in {path}")
        try:
            cfg = NetConfig(dim=dim, num_modes=num_modes, hidden=hidden,
                            time_freqs=freqs, gamma_mode=GAMMA_MODES[mode_idx],
                            share_velocity=bool(share_v),
                            share_gamma=bool(share_g), gamma_range=gamma_range)
            # The frozen log gammas fix the pin; the stored anchor must agree.
            pinned = pinned_mode(cfg, frozen)
            if anchor != (-1 if pinned is None else pinned):
                raise CheckpointFormatError(
                    f"anchor mode {anchor} in {path} is not the mode its "
                    f"frozen log gammas pin ({pinned})")
            return cls(cfg, np.frombuffer(raw, dtype="<f8", offset=pos),
                       frozen)
        except InvalidParameterError as exc:
            raise CheckpointFormatError(f"checkpoint {path}: {exc}") from None


# -- optimization ---------------------------------------------------------------


@dataclass
class OptimState:
    m: np.ndarray
    v: np.ndarray
    step_count: int
    lr: np.ndarray


def init_optim_state(net: StudentNet, base_lr: float) -> OptimState:
    """Fresh Adam moments plus the per-parameter rates: base_lr, and
    GAMMA_LR_SCALE times it for the momentum head."""
    scale = np.ones_like(net.params)
    scale[net.slice_of("gam_w")] = GAMMA_LR_SCALE
    scale[net.slice_of("gam_b")] = GAMMA_LR_SCALE
    return OptimState(np.zeros_like(net.params), np.zeros_like(net.params),
                      0, base_lr * scale)


def adam_step(net: StudentNet, state: OptimState):
    """One Adam update from net.grads at the state's per-parameter rates,
    decoupled weight decay zero.

    Bias-corrected first and second moments with betas (0.9, 0.95).
    """
    g = net.grads
    if not np.isfinite(g).all():
        bad = int(np.count_nonzero(~np.isfinite(g)))
        raise NumericError(f"{bad} non-finite gradient entries in update")
    state.step_count += 1
    # In place, in the operation order of m = b1 m + (1 - b1) g.
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    mhat = state.m / (1.0 - ADAM_BETA1 ** state.step_count)
    vhat = state.v / (1.0 - ADAM_BETA2 ** state.step_count)
    net.params -= state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
