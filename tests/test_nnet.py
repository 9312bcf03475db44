"""Student net: forward structure, reverse-mode gradients, Adam, checkpoints."""

import copy
import dataclasses
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import arcflow
from arcflow import (
    CheckpointFormatError,
    InvalidParameterError,
    NumericError,
    StateError,
)
from arcflow.momentum import init_log_gammas
from arcflow.nnet import (
    NetConfig,
    StudentNet,
    adam_step,
    init_optim_state,
)
from arcflow.verify import grad_check, gradient_suite

ALL_VARIANTS = (
    NetConfig(dim=2, num_modes=4),
    NetConfig(dim=2, num_modes=4, share_velocity=True),
    NetConfig(dim=2, num_modes=4, share_gamma=True),
    NetConfig(dim=2, num_modes=4, share_velocity=True, share_gamma=True),
    NetConfig(dim=2, num_modes=4, gamma_mode="fixed"),
    NetConfig(dim=2, num_modes=1, gamma_mode="frozen_one"),
    NetConfig(dim=3, num_modes=2, hidden=(16,), time_freqs=(1.0, 3.0)),
)


def variant_id(c):
    return (f"{c.gamma_mode}{'-sv' if c.share_velocity else ''}"
            f"{'-sg' if c.share_gamma else ''}-k{c.num_modes}d{c.dim}")


def probe_batch(rng, dim, batch=5):
    return rng.normal(size=(batch, dim)), rng.uniform(size=batch)


def linear_probe_loss(x, t, rng):
    """Deterministic scalar functional of all three output heads: a
    loss(net) callable and a grad(net) callable giving its analytic
    gradient.  The weights are drawn at the first call of either."""
    w_drawn = {}

    def weights(theta):
        if not w_drawn:
            w_drawn["g"] = rng.normal(size=theta.gating.shape)
            w_drawn["v"] = rng.normal(size=theta.base_velocities.shape)
            w_drawn["l"] = rng.normal(size=theta.log_gammas.shape)
        return w_drawn["g"], w_drawn["v"], w_drawn["l"]

    def loss(net):
        theta = net.forward(x, t)
        w_g, w_v, w_l = weights(theta)
        return (float((w_g * theta.gating).sum())
                + float((w_v * theta.base_velocities).sum())
                + float((w_l * theta.log_gammas).sum()))

    def grad(net):
        theta = net.forward(x, t)
        net.zero_grads()
        return net.backward(*weights(theta)).copy()

    return loss, grad


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        NetConfig(dim=0, num_modes=4)
    with pytest.raises(InvalidParameterError):
        NetConfig(dim=2, num_modes=0)
    with pytest.raises(InvalidParameterError):
        NetConfig(dim=2, num_modes=4, gamma_mode="adaptive")
    with pytest.raises(InvalidParameterError):
        NetConfig(dim=2, num_modes=4, hidden=())
    with pytest.raises(InvalidParameterError):
        NetConfig(dim=2, num_modes=4, gamma_range=(0.4, 5.0, 6.0))


def test_config_derived_dims():
    cfg = NetConfig(dim=2, num_modes=4, time_freqs=(1.0, 2.0))
    assert cfg.feature_dim == 2 + 1 + 4
    assert cfg.velocity_dim == 8
    assert cfg.gamma_dim == 4
    shared = NetConfig(dim=2, num_modes=4, share_velocity=True,
                       share_gamma=True)
    assert shared.velocity_dim == 2
    assert shared.gamma_dim == 1


# -- initialization ------------------------------------------------------------


def test_fresh_net_emits_init_ladder_exactly():
    cfg = NetConfig(dim=2, num_modes=8)
    net = StudentNet(cfg, seed=0)
    want, anchor = init_log_gammas(8, *cfg.gamma_range)
    rng = np.random.default_rng(1)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    # momentum head starts at zero, so the offsets vanish and every row is
    # the geometric-progression ladder bit for bit
    for row in theta.log_gammas:
        assert (row == want).all()
    assert net.anchor_index == anchor
    assert (theta.log_gammas[:, anchor] == 0.0).all()


def test_fresh_net_uniform_gating():
    net = StudentNet(NetConfig(dim=2, num_modes=5), seed=0)
    rng = np.random.default_rng(2)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    assert_allclose(theta.gating, np.full((5, 5), 0.2), rtol=0)


def test_fresh_net_velocity_head_random_but_deterministic():
    a = StudentNet(NetConfig(dim=2, num_modes=4), seed=7)
    b = StudentNet(NetConfig(dim=2, num_modes=4), seed=7)
    c = StudentNet(NetConfig(dim=2, num_modes=4), seed=8)
    assert (a.params == b.params).all()
    assert (a.params != c.params).any()


def test_frozen_one_mode_pins_all_log_gammas_to_zero():
    net = StudentNet(NetConfig(dim=2, num_modes=3, gamma_mode="frozen_one"),
                     seed=0)
    rng = np.random.default_rng(3)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    assert (theta.log_gammas == 0.0).all()


def test_fixed_mode_keeps_ladder_under_training_pressure():
    # fixed mode has no learnable momentum head: the ladder never moves even
    # if the head buffers are scribbled on
    cfg = NetConfig(dim=2, num_modes=4, gamma_mode="fixed")
    net = StudentNet(cfg, seed=0)
    net.view("gam_w")[...] = 5.0
    net.view("gam_b")[...] = -3.0
    rng = np.random.default_rng(4)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    want, _ = init_log_gammas(4, *cfg.gamma_range)
    for row in theta.log_gammas:
        assert (row == want).all()


# -- forward structure ------------------------------------------------------------


def test_forward_unbatched_squeeze():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    theta = net.forward(np.array([0.5, -0.5]), 0.7)
    assert theta.gating.shape == (3,)
    assert theta.base_velocities.shape == (3, 2)
    assert theta.log_gammas.shape == (3,)


def rowwise_forward(net, x, t):
    """(gating, base, log_gammas) of a (B, D) batch, written out row-wise:
    np.tanh(h @ W + b) per layer and a softmax along each row's modes."""
    cfg, view = net.config, net.view
    h = net.features(x, t)
    for i in range(len(cfg.hidden)):
        h = np.tanh(h @ view(f"body{i}_w") + view(f"body{i}_b"))
    logits = h @ view("gate_w") + view("gate_b")
    logits = logits - logits.max(axis=-1, keepdims=True)
    expl = np.exp(logits)
    gating = expl / expl.sum(axis=-1, keepdims=True)
    vel = h @ view("vel_w") + view("vel_b")
    shape = (x.shape[0], cfg.num_modes, cfg.dim)
    base = np.broadcast_to(vel[:, None, :], shape) if cfg.share_velocity \
        else vel.reshape(shape)
    log_g = net.frozen_log_gammas
    if cfg.gamma_mode == "learnable":
        off = h @ view("gam_w") + view("gam_b")
        log_g = log_g + off * net._anchor_mask
    return gating, base, np.broadcast_to(log_g, shape[:2])


@pytest.mark.parametrize("modes", (1, 3, 8, 9, 20))
@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_forward_has_the_bits_of_the_rowwise_form(variant, modes):
    # in-place layers and a mode-major softmax summed in numpy's pairwise
    # order keep every bit of the row-wise form; a plain running sum over
    # the modes would not, from 8 modes up
    cfg = dataclasses.replace(variant, num_modes=modes)
    net = StudentNet(cfg, seed=3)
    net.params += 0.5 * np.random.default_rng(30).normal(size=net.num_params)
    rng = np.random.default_rng(31)
    for batch in (None, 7, 64, 2048):
        x, t = probe_batch(rng, cfg.dim, batch or 1)
        if batch is None:
            theta, want = net.forward(x[0], t[0]), rowwise_forward(net, x, t)
            want = [arr[0] for arr in want]
        else:
            theta, want = net.forward(x, t), rowwise_forward(net, x, t)
        for got, ref in zip((theta.gating, theta.base_velocities,
                             theta.log_gammas), want):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (batch, got.shape)


@pytest.mark.parametrize("cfg", ALL_VARIANTS)
def test_forward_bundles_are_read_only(cfg):
    # forward hands its fresh arrays to the bundle without a copy, frozen
    net = StudentNet(cfg, seed=0)
    x, t = probe_batch(np.random.default_rng(20), cfg.dim)
    for theta in (net.forward(x, t), net.forward(x[0], t[0])):
        for arr in (theta.gating, theta.base_velocities, theta.log_gammas):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


def test_copied_net_views_follow_its_own_params():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    x, t = probe_batch(np.random.default_rng(21), 2)
    before = net.forward(x, t).base_velocities.copy()
    for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        twin.params += 0.5
        theta = twin.forward(x, t)
        assert not np.array_equal(theta.base_velocities, before)
        assert np.shares_memory(twin.view("vel_b"), twin.params)
        twin.zero_grads()
        twin.backward(np.ones_like(theta.gating),
                      np.ones_like(theta.base_velocities),
                      np.ones_like(theta.log_gammas))
        assert (twin.grads != 0.0).any()
    assert np.array_equal(net.forward(x, t).base_velocities, before)


def test_forward_rejects_wrong_input_dim():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    with pytest.raises(InvalidParameterError):
        net.forward(np.zeros((4, 3)), 0.5)


def test_forward_deterministic():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    rng = np.random.default_rng(5)
    x, t = probe_batch(rng, 2)
    a = net.forward(x, t)
    b = net.forward(x, t)
    assert (a.gating == b.gating).all()
    assert (a.base_velocities == b.base_velocities).all()


def test_anchor_output_immune_to_momentum_head():
    # the anchor column is masked out of the learnable offset, so its rate
    # stays exactly 1 no matter what the head weights hold
    cfg = NetConfig(dim=2, num_modes=8)
    net = StudentNet(cfg, seed=0)
    rng = np.random.default_rng(6)
    net.view("gam_w")[...] = rng.normal(size=net.view("gam_w").shape)
    net.view("gam_b")[...] = rng.normal(size=net.view("gam_b").shape)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    anchor = net.anchor_index
    assert (theta.log_gammas[:, anchor] == 0.0).all()
    ladder, _ = init_log_gammas(8, *cfg.gamma_range)
    off_anchor = [k for k in range(8) if k != anchor]
    assert (theta.log_gammas[:, off_anchor] != ladder[off_anchor]).any()


def test_anchor_gradient_structurally_zero():
    cfg = NetConfig(dim=2, num_modes=4)
    net = StudentNet(cfg, seed=0)
    rng = np.random.default_rng(7)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    net.zero_grads()
    net.backward(np.zeros_like(theta.gating),
                 np.zeros_like(theta.base_velocities),
                 np.ones_like(theta.log_gammas))
    gam_b_grad = net.grads[net.slice_of("gam_b")]
    assert gam_b_grad[net.anchor_index] == 0.0
    others = np.delete(gam_b_grad, net.anchor_index)
    assert (others != 0.0).all()


def test_share_velocity_ties_base_vectors():
    net = StudentNet(NetConfig(dim=2, num_modes=4, share_velocity=True),
                     seed=0)
    rng = np.random.default_rng(8)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    for k in range(1, 4):
        assert (theta.base_velocities[:, k] == theta.base_velocities[:, 0]).all()


def test_share_gamma_ties_rates():
    net = StudentNet(NetConfig(dim=2, num_modes=4, share_gamma=True), seed=0)
    # scribble on the momentum head so the shared offset is nonzero
    net.view("gam_w")[...] = 0.3
    net.view("gam_b")[...] = 0.1
    rng = np.random.default_rng(9)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    for k in range(1, 4):
        assert (theta.log_gammas[:, k] == theta.log_gammas[:, 0]).all()
    assert (theta.log_gammas != 0.0).all()


# -- backward ----------------------------------------------------------------------


def test_backward_before_forward_raises():
    net = StudentNet(NetConfig(dim=2, num_modes=2), seed=0)
    with pytest.raises(StateError):
        net.backward(np.zeros(2), np.zeros((2, 2)), np.zeros(2))


def test_backward_zero_upstream_gives_zero_grads():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    rng = np.random.default_rng(10)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    net.zero_grads()
    grads = net.backward(np.zeros_like(theta.gating),
                         np.zeros_like(theta.base_velocities),
                         np.zeros_like(theta.log_gammas))
    assert (grads == 0.0).all()


def test_backward_accumulates_across_calls():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    rng = np.random.default_rng(11)
    x, t = probe_batch(rng, 2)
    theta = net.forward(x, t)
    upstream = (np.full_like(theta.gating, 0.3),
                np.full_like(theta.base_velocities, -0.7),
                np.full_like(theta.log_gammas, 0.2))
    net.zero_grads()
    net.backward(*upstream)
    once = net.grads.copy()
    net.forward(x, t)
    net.backward(*upstream)
    assert_allclose(net.grads, 2.0 * once, rtol=1e-15)


@pytest.mark.parametrize("cfg", ALL_VARIANTS, ids=variant_id)
def test_gradients_match_finite_differences(cfg):
    net = StudentNet(cfg, seed=1)
    # move off the zero init so softmax and momentum heads have curvature
    jitter = np.random.default_rng(13)
    net.params += 0.05 * jitter.normal(size=net.num_params)
    x, t = probe_batch(np.random.default_rng(14), cfg.dim, batch=3)
    loss, grad = linear_probe_loss(x, t, np.random.default_rng(15))
    worst = grad_check(net, loss, grad(net), probes=60, h=1e-5,
                       rng=np.random.default_rng(16))
    assert worst <= 1e-4


def test_grad_check_catches_corrupted_gradients():
    # negative control: inflate the analytic gradient by 50 percent and the
    # checker must flag it loudly
    cfg = NetConfig(dim=2, num_modes=3)
    net = StudentNet(cfg, seed=1)
    x, t = probe_batch(np.random.default_rng(17), 2, batch=3)
    loss, grad = linear_probe_loss(x, t, np.random.default_rng(18))
    worst = grad_check(net, loss, 1.5 * grad(net), probes=40,
                       rng=np.random.default_rng(19))
    assert worst > 1e-2


# -- Adam ---------------------------------------------------------------------------


def test_adam_zero_gradients_leave_params_unchanged():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    opt = init_optim_state(net, 1e-3)
    before = net.params.copy()
    net.zero_grads()
    adam_step(net, opt)
    assert (net.params == before).all()


def test_adam_first_step_magnitude_is_learning_rate():
    # with g = 1 everywhere, bias-corrected mhat = 1 and vhat = 1, so the
    # first update is lr / (1 + eps) for base params
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    opt = init_optim_state(net, 0.1)
    before = net.params.copy()
    net.grads[:] = 1.0
    adam_step(net, opt)
    delta = before - net.params
    base = delta[net.slice_of("vel_b")]
    assert_allclose(base, np.full_like(base, 0.1), rtol=1e-7)
    assert opt.step_count == 1


def test_adam_momentum_head_trains_ten_times_slower():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    opt = init_optim_state(net, 0.1)
    before = net.params.copy()
    net.grads[:] = 1.0
    adam_step(net, opt)
    delta = before - net.params
    gam = delta[net.slice_of("gam_b")]
    vel = delta[net.slice_of("vel_b")]
    assert_allclose(gam, 0.1 * vel[: gam.size], rtol=1e-12)


def test_adam_rejects_nonfinite_gradients():
    net = StudentNet(NetConfig(dim=2, num_modes=3), seed=0)
    opt = init_optim_state(net, 1e-3)
    net.grads[:] = 1.0
    net.grads[5] = np.nan
    with pytest.raises(NumericError):
        adam_step(net, opt)


# -- checkpoints -----------------------------------------------------------------------


def _mode_flag_offset(cfg):
    # magic 8 + dims 8 + hidden header 4 + hidden widths 4 each + freq
    # header 4 + freqs 8 each
    return 8 + 8 + 4 + 4 * len(cfg.hidden) + 4 + 8 * len(cfg.time_freqs)


@pytest.mark.parametrize("cfg", ALL_VARIANTS, ids=variant_id)
def test_checkpoint_round_trip_bit_exact(cfg, tmp_path):
    net = StudentNet(cfg, seed=5)
    net.params += 0.01 * np.random.default_rng(20).normal(size=net.num_params)
    path = tmp_path / "net.ckpt"
    net.save(path)
    loaded = StudentNet.load(path)
    assert loaded.config == cfg
    assert (loaded.params == net.params).all()
    assert (loaded.frozen_log_gammas == net.frozen_log_gammas).all()
    assert loaded.anchor_index == net.anchor_index
    x, t = probe_batch(np.random.default_rng(21), cfg.dim)
    a = net.forward(x, t)
    b = loaded.forward(x, t)
    assert (a.gating == b.gating).all()
    assert (a.base_velocities == b.base_velocities).all()
    assert (a.log_gammas == b.log_gammas).all()


def test_checkpoint_rejects_bad_magic(tmp_path):
    net = StudentNet(NetConfig(dim=2, num_modes=2), seed=0)
    path = tmp_path / "net.ckpt"
    net.save(path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTAFLOW"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        StudentNet.load(path)


def test_checkpoint_rejects_truncation(tmp_path):
    net = StudentNet(NetConfig(dim=2, num_modes=2), seed=0)
    path = tmp_path / "net.ckpt"
    net.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointFormatError):
        StudentNet.load(path)


def test_checkpoint_rejects_payload_size_mismatch(tmp_path):
    net = StudentNet(NetConfig(dim=2, num_modes=2), seed=0)
    path = tmp_path / "net.ckpt"
    net.save(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointFormatError):
        StudentNet.load(path)


def test_checkpoint_rejects_unknown_momentum_mode(tmp_path):
    cfg = NetConfig(dim=2, num_modes=2)
    net = StudentNet(cfg, seed=0)
    path = tmp_path / "net.ckpt"
    net.save(path)
    raw = bytearray(path.read_bytes())
    raw[_mode_flag_offset(cfg)] = 250
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        StudentNet.load(path)


@pytest.mark.parametrize("cfg, anchor, frozen_at_anchor", [
    (NetConfig(dim=2, num_modes=4), 5, None),
    (NetConfig(dim=2, num_modes=4), 3, None),
    (NetConfig(dim=2, num_modes=4, gamma_mode="fixed"), None, 0.25),
    (NetConfig(dim=2, num_modes=4, share_gamma=True), 0, None),
], ids=["anchor-out-of-range", "anchor-on-nonzero-mode",
        "nonzero-frozen-at-anchor", "anchor-on-shared-gamma"])
def test_checkpoint_rejects_unpinnable_anchor(cfg, anchor, frozen_at_anchor,
                                              tmp_path):
    """forward trusts the anchor pin, so load must refuse a checkpoint whose
    anchor is out of range, sits on a shared gamma head, or points at a
    frozen log gamma that is not exactly 0."""
    net = StudentNet(cfg, seed=0)
    path = tmp_path / "net.ckpt"
    net.save(path)
    raw = bytearray(path.read_bytes())
    anchor_off = _mode_flag_offset(cfg) + 3
    if anchor is not None:
        raw[anchor_off:anchor_off + 4] = struct.pack("<i", anchor)
    if frozen_at_anchor is not None:
        at = anchor_off + 4 + 16 + 4 + 8 * net.anchor_index
        raw[at:at + 8] = struct.pack("<d", frozen_at_anchor)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="anchor mode"):
        StudentNet.load(path)


@pytest.mark.parametrize("field, value", [
    ("time frequencies", np.nan),
    ("frozen log gammas", -np.inf),
    ("parameters", np.nan),
])
def test_checkpoint_rejects_non_finite_floats(field, value, tmp_path):
    """A non-finite float would load and fail only at the first forward,
    with an error that names neither the file nor the field."""
    cfg = NetConfig(dim=2, num_modes=8)
    net = StudentNet(cfg, seed=0)
    path = tmp_path / "net.ckpt"
    net.save(path)
    raw = bytearray(path.read_bytes())
    # the first time frequency, the last frozen log gamma, the last parameter
    at = {"time frequencies": _mode_flag_offset(cfg) - 8 * len(cfg.time_freqs),
          "frozen log gammas": _mode_flag_offset(cfg) + 3 + 4 + 16 + 4
          + 8 * (net.frozen_log_gammas.size - 1),
          "parameters": len(raw) - 8}[field]
    raw[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError) as err:
        StudentNet.load(path)
    assert str(err.value) == f"non-finite {field} in checkpoint {path}"


@pytest.mark.parametrize("gamma_mode", ["learnable", "frozen_one"])
@pytest.mark.parametrize("bound, value", [(0, np.nan), (0, 2.0),
                                          (1, np.inf), (1, 0.5)])
def test_checkpoint_rejects_bad_gamma_range(gamma_mode, bound, value,
                                            tmp_path, monkeypatch):
    """The range must hold 0 < lo < 1 < hi < inf, and a checkpoint that
    breaks it fails naming the file and the field, before the net is
    allocated."""
    cfg = NetConfig(dim=2, num_modes=8, gamma_mode=gamma_mode)
    path = tmp_path / "net.ckpt"
    StudentNet(cfg, seed=0).save(path)
    raw = bytearray(path.read_bytes())
    at = _mode_flag_offset(cfg) + 3 + 4 + 8 * bound
    raw[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))

    def no_net(*args, **kwargs):
        raise AssertionError("load allocated a net")

    monkeypatch.setattr(StudentNet, "__init__", no_net)
    with pytest.raises(CheckpointFormatError) as err:
        StudentNet.load(path)
    assert str(err.value).startswith(f"checkpoint {path}: gamma_range must ")


def test_corrupt_checkpoints_fail_as_arcflow_errors(tmp_path):
    """tests/checkpoint_fuzz.py under a 1 GiB address-space limit: corrupt
    headers raise CheckpointFormatError before anything large is allocated,
    and mutated, truncated or extended bytes load or raise an ArcFlowError.
    The limit turns a regression into a MemoryError in the child."""
    path = tmp_path / "net.ckpt"
    StudentNet(NetConfig(dim=2, num_modes=8), seed=0).save(path)
    src = str(Path(arcflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # one BLAS thread keeps the child's address space far below the limit
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("checkpoint_fuzz.py")),
         str(path), str(1 << 30)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


# -- grad_check plumbing ------------------------------------------------------------


def test_grad_check_passes_trivial_quadratic():
    net = StudentNet(NetConfig(dim=2, num_modes=2, hidden=(8,)), seed=2)

    def quad(net):
        return 0.5 * float(net.params @ net.params)

    assert grad_check(net, quad, net.params.copy(), probes=30) < 1e-6


def test_gradient_suite_runs_backward_once(monkeypatch):
    # the finite-difference probes evaluate the loss alone
    calls = []
    real = StudentNet.backward

    def counted(self, *upstream):
        calls.append(1)
        return real(self, *upstream)

    monkeypatch.setattr(StudentNet, "backward", counted)
    result = gradient_suite()
    assert result.passed
    assert len(calls) == 1
