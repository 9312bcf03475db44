"""Top-level acceptance gate.

Each test covers one release criterion and prints a single [PASS]/[FAIL]
line with the measured quantity next to its bound, so a log scan shows the
whole gate at a glance.  The first seven run the oracle suites registered
in arcflow.verify, one parametrized test in gate order; the next three
exercise distillation efficacy, the ablation orderings, and bitwise
reproducibility through the public entry points; the last checks the
closed-form coefficient against mpmath, which is a test dependency only, so
that oracle stays, like the training lines, out of the verify module the
installed package ships.

Budget note: the efficacy and ablation tests train real (desk-scale)
students and together take a couple of minutes of CPU.
"""

import dataclasses
import json
import statistics
import time

import numpy as np
import pytest

from arcflow import MomentumParams
from arcflow.cli import main
from arcflow.distill import make_linear_baseline, mixed_integration
from arcflow.harness import RunConfig, run_ablation, run_distillation
from arcflow.solver import displacement
from arcflow.teacher import ring_spec
from arcflow.verify import SUITES


def _emit(capsys, line):
    # Bypass capture so the gate lines always reach the terminal.
    with capsys.disabled():
        print(line)


@pytest.mark.parametrize("suite", SUITES, ids=[s.name for s in SUITES])
def test_oracle_suite(suite, capsys):
    result = suite()
    _emit(capsys, result.line())
    assert result.passed, result.detail


def _with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    return dataclasses.replace(
        cfg, distill=dataclasses.replace(cfg.distill, seed=seed))


def test_two_step_student_beats_linear_baseline(capsys):
    """Paired-seed endpoint MSE at 2 NFE: momentum student vs the one-mode
    constant-velocity baseline trained with identical streams."""
    base = RunConfig()
    ours, linear, slowest = [], [], 0.0
    for seed in range(5):
        tick = time.perf_counter()
        cfg = _with_seed(base, seed)
        report, _, _ = run_distillation(cfg)
        lin_cfg = dataclasses.replace(
            cfg, distill=make_linear_baseline(cfg.distill))
        lin_report, _, _ = run_distillation(lin_cfg)
        ours.append(report.endpoint_mse)
        linear.append(lin_report.endpoint_mse)
        slowest = max(slowest, time.perf_counter() - tick)
    wins = sum(o < b for o, b in zip(ours, linear))
    median_gain = statistics.median(
        1.0 - o / b for o, b in zip(ours, linear))
    ok = wins >= 4 and median_gain >= 0.20 and slowest <= 900.0
    tag = "PASS" if ok else "FAIL"
    _emit(capsys,
          f"[{tag}] distillation_efficacy: beats baseline on {wins}/5 seed "
          f"pairs (need >= 4), median endpoint-mse improvement "
          f"{100 * median_gain:.1f}% (need >= 20%), slowest pair "
          f"{slowest:.1f}s (cap 900s)")
    assert wins >= 4, (ours, linear)
    assert median_gain >= 0.20, (ours, linear)
    assert slowest <= 900.0


def test_ablation_orderings_hold_on_medians(capsys):
    """Median endpoint MSE over 3 paired seeds must reproduce the expected
    orderings in all three studies."""
    rows = run_ablation(RunConfig(), seeds=(0, 1, 2))
    by_cell = {}
    for study, cell, _, mse, _ in rows:
        by_cell.setdefault((study, cell), []).append(mse)
    med = {key: statistics.median(vals) for key, vals in by_cell.items()}

    learnable = med[("gamma_mode", "learnable")]
    fixed = med[("gamma_mode", "fixed")]
    frozen = med[("gamma_mode", "frozen_one")]
    gamma_ok = learnable <= fixed <= frozen

    per_mode = med[("sharing", "all_per_mode")]
    shared_v = med[("sharing", "vel_shared_gamma_per_mode")]
    shared_g = med[("sharing", "vel_per_mode_gamma_shared")]
    sharing_ok = per_mode <= min(shared_v, shared_g)

    m4 = med[("num_modes", "modes_4")]
    m8 = med[("num_modes", "modes_8")]
    m16 = med[("num_modes", "modes_16")]
    modes_ok = m16 <= m8 and abs(m16 - m8) <= abs(m8 - m4)

    ok = gamma_ok and sharing_ok and modes_ok
    tag = "PASS" if ok else "FAIL"
    _emit(capsys,
          f"[{tag}] ablation_orderings: gamma {learnable:.4f} <= {fixed:.4f}"
          f" <= {frozen:.4f} ({'ok' if gamma_ok else 'VIOLATED'}); sharing "
          f"per-mode {per_mode:.4f} <= min({shared_v:.4f}, {shared_g:.4f}) "
          f"({'ok' if sharing_ok else 'VIOLATED'}); modes 16:{m16:.4f} "
          f"8:{m8:.4f} 4:{m4:.4f} with |d(16,8)| <= |d(8,4)| "
          f"({'ok' if modes_ok else 'VIOLATED'})")
    assert gamma_ok, (learnable, fixed, frozen)
    assert sharing_ok, (per_mode, shared_v, shared_g)
    assert modes_ok, (m4, m8, m16)


def test_repeated_cli_runs_are_byte_identical(tmp_path, capsys):
    """Two CLI distillation runs from one config file, written to two
    directories, must leave identical bytes in the loss log, the checkpoint
    and the trajectories, and equal metrics apart from wall-clock time,
    config hash included (it leaves out the output path).  Separate
    directories also show that the trained output does not depend on the
    output path."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[run]\nexport_svg = false\n")
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        code = main(["distill", "--config", str(cfg_path),
                     "--out", str(out)])
        assert code == 0
        files = {name: (out / name).read_bytes()
                 for name in ("loss.csv", "student.ckpt", "trajectories.csv")}
        metrics = json.loads((out / "metrics.json").read_text())
        metrics.pop("wall_time_s")
        files["metrics.json"] = metrics
        runs.append(files)
    same = {name: runs[0][name] == runs[1][name] for name in runs[0]}
    tag = "PASS" if all(same.values()) else "FAIL"
    verdicts = ", ".join(f"{name} {'==' if ok else '!='}"
                         for name, ok in same.items())
    _emit(capsys,
          f"[{tag}] determinism: repeated cli distill runs byte-identical "
          f"({verdicts}; metrics.json without wall_time_s)")
    for name, ok in same.items():
        assert ok, name


def test_coefficient_matches_mpmath(capsys):
    """The closed-form coefficient, read as the displacement of one-mode
    unit bundles, and the anchored rows and the training rollout's
    sub-interval steps of such bundles, against the integral written with
    mpmath's own exp and log at 50 digits: worst relative error in ulps
    over |ln gamma| in [1e-12, 4] on both sides of gamma = 1, ln gamma == 0
    exactly, and intervals from 1e-12 to 1 (to one shelf width, 0.5, for
    the rollout)."""
    import mpmath

    started = time.perf_counter()
    rng = np.random.default_rng(1014)

    def log_uniform(lo, hi, size):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    def signed_log_gammas(size):
        lg = log_uniform(1e-12, 4.0, size) * rng.choice([-1.0, 1.0], size)
        lg[::16] = 0.0
        return lg

    def integral(lg, t_start, t_end):
        # integral of exp((1 - t) lg) over [t_end, t_start], from floats
        lg, t_start, t_end = (mpmath.mpf(float(v))
                              for v in (lg, t_start, t_end))
        if lg == 0:
            return t_start - t_end
        return (mpmath.exp((1 - t_end) * lg)
                - mpmath.exp((1 - t_start) * lg)) / lg

    def worst_ulps(got, want):
        return max(float(abs(mpmath.mpf(float(g)) - w))
                   / np.spacing(abs(float(w))) for g, w in zip(got, want))

    with mpmath.workdps(50):
        n = 2048
        gamma = np.exp(signed_log_gammas(n))
        elapsed = log_uniform(1e-12, 1.0, n)
        t_end = rng.uniform(0.0, 1.0 - elapsed)
        t_start = t_end + elapsed
        # each coefficient is the displacement of a one-mode unit bundle
        unit = np.ones((n, 1))
        got = displacement(MomentumParams(unit, unit[..., None],
                                          np.log(gamma)[:, None]),
                           t_start, t_end)[:, 0]
        want = [integral(mpmath.log(g), ts, te)
                for g, ts, te in zip(gamma, t_start, t_end)]
        coef_ulps = worst_ulps(got, want)

        # rows (time, bundle) of D(1, t) for 64 one-mode bundles with unit
        # gating and velocity (1, 0), so each row is its coefficient
        lg = signed_log_gammas(64)
        times = 1.0 - log_uniform(1e-12, 1.0, 64)
        theta = MomentumParams(np.ones((64, 1)),
                               np.tile([[[1.0, 0.0]]], (64, 1, 1)),
                               lg[:, None])
        rows = displacement(theta, 1.0, times[:, None])[..., 0]
        want = [integral(g, 1.0, t) for t in times for g in lg]
        rows_ulps = worst_ulps(rows.ravel(), want)

        # the lam = 1 rollout of the same bundles from x = 0 over one
        # sub-interval per call, whose anchor is exactly minus its step
        teacher = ring_spec()
        steps, want = [], []
        for width in log_uniform(1e-12, 0.5, 32):
            t_start = rng.uniform(width, 1.0)
            t_end = t_start - width
            anchors, _ = mixed_integration(np.zeros((64, 2)), t_start, theta,
                                           [t_end], 1.0, teacher)
            steps.append(-anchors[0, :, 0])
            want += [integral(g, t_start, t_end) for g in lg]
        steps_ulps = worst_ulps(np.concatenate(steps), want)

    bound = 8.0
    elapsed_s = time.perf_counter() - started
    worst = (coef_ulps, rows_ulps, steps_ulps)
    tag = "PASS" if max(worst) <= bound else "FAIL"
    _emit(capsys,
          f"[{tag}] coefficient_vs_mpmath: worst {coef_ulps:.3g} ulps over "
          f"{n} coefficients, {rows_ulps:.3g} ulps over {rows.size} anchored "
          f"rows, {steps_ulps:.3g} ulps over {len(want)} rollout steps "
          f"(bound {bound:.0f} ulps) ({elapsed_s:.2f}s)")
    for ulps in worst:
        assert ulps <= bound, worst
