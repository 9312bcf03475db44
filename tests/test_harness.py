"""Run configs, metrics, artifact writers, orchestration, and the CLI."""

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import arcflow
from arcflow import (
    ConfigError,
    GmmTeacherSpec,
    InvalidParameterError,
    NumericError,
    TrajectoryRecord,
    euler_sample,
)
from arcflow.distill import MAX_COUNT, DistillConfig, training_streams
from arcflow.harness import (
    RunConfig,
    RunOptions,
    TeacherConfig,
    ablation_budget,
    ablation_cells,
    build_teacher,
    check_trajectory_memory,
    config_hash,
    endpoint_mse,
    energy_distance,
    euler_reference,
    evaluate_student,
    fmt,
    format_run_config,
    load_run_config,
    parse_run_config,
    run_ablation,
    run_distillation,
    trajectory_deviation,
    write_ablation_csv,
    write_loss_csv,
    write_trajectory_csv,
)
from arcflow.svg import trajectory_overlay_svg
from arcflow.teacher import ring_spec
from arcflow import _pool as pool_module
from arcflow import cli as cli_module
from arcflow import harness as harness_module
from arcflow.cli import main


def tiny_run_config(**distill_overrides):
    """A seconds-scale config for orchestration tests."""
    distill = dict(total_steps=40, guidance_steps=10, batch=16, num_modes=2,
                   seed=0)
    distill.update(distill_overrides)
    return RunConfig(
        teacher=TeacherConfig(),
        distill=DistillConfig(**distill),
        run=RunOptions(out="unused", metric_samples=64,
                       trajectory_samples=4, teacher_steps=20,
                       dense_per_shelf=4),
    )


def two_state_record(x_start, x_end, batch=False):
    a = np.asarray(x_start, dtype=float)
    b = np.asarray(x_end, dtype=float)
    return TrajectoryRecord(np.stack((a, b)), [1.0, 0.0])


# -- config text ---------------------------------------------------------------


def test_empty_config_gives_defaults():
    assert parse_run_config("") == RunConfig()


def test_comments_and_blanks_ignored():
    text = "\n# a comment\n\n[distill]\nseed = 5\n# more\n"
    cfg = parse_run_config(text)
    assert cfg.distill.seed == 5


def test_format_parse_round_trip_default():
    cfg = RunConfig()
    assert parse_run_config(format_run_config(cfg)) == cfg


def test_format_parse_round_trip_modified():
    cfg = RunConfig(
        teacher=TeacherConfig(components=4, radius=1.5, std=0.1),
        distill=DistillConfig(nfe=4, num_modes=16, total_steps=123,
                              base_lr=3e-4, gamma_lo=0.5, gamma_hi=4.0,
                              gamma_mode="fixed", share_velocity=True,
                              seed=77),
        run=RunOptions(out="runs/x", metric_samples=256, export_svg=False),
    )
    assert parse_run_config(format_run_config(cfg)) == cfg


def test_format_parse_round_trip_explicit_teacher():
    cfg = RunConfig(teacher=TeacherConfig(
        layout="explicit",
        weights="0.3, 0.7",
        means="1.0, -2.0; -0.5, 0.5",
        stds="0.4, 0.8",
    ))
    again = parse_run_config(format_run_config(cfg))
    spec = again.teacher.spec
    assert_allclose(spec.weights, [0.3, 0.7], rtol=0)
    assert_allclose(spec.means, [[1.0, -2.0], [-0.5, 0.5]], rtol=0)


# The default config text as the formatter has always written it; the file
# format and config_hash must not drift.
DEFAULT_CONFIG_TEXT = """\
[teacher]
kind = analytic
layout = ring
components = 8
radius = 2.0
std = 0.25
dim = 2

[distill]
nfe = 2
num_modes = 8
n_intermediate = 4
guidance_steps = 500
total_steps = 3000
batch = 64
base_lr = 0.0001
gamma_lo = 0.4
gamma_hi = 5.0
gamma_mode = learnable
share_velocity = false
share_gamma = false
seed = 0

[run]
out = runs/ref
metric_samples = 2048
trajectory_samples = 16
teacher_steps = 100
dense_per_shelf = 16
export_csv = true
export_svg = true
"""
DEFAULT_TAIL = DEFAULT_CONFIG_TEXT[DEFAULT_CONFIG_TEXT.index("\n[distill]"):]


@pytest.mark.parametrize("teacher,head", [
    (TeacherConfig(layout="explicit", weights="0.3, 0.7",
                   means="1.0, -2.0; -0.5, 0.5", stds="0.4, 0.8"),
     "kind = analytic\nlayout = explicit\nweights = 0.3, 0.7\n"
     "means = 1.0, -2.0; -0.5, 0.5\nstds = 0.4, 0.8\n"),
], ids=["explicit"])
def test_format_run_config_text_is_pinned(teacher, head):
    text = format_run_config(RunConfig(teacher=teacher))
    assert text == "[teacher]\n" + head + DEFAULT_TAIL


def test_default_config_hash_is_pinned():
    assert config_hash(RunConfig()) == "fc05a8c9ed7c9942"


# A value other than the default for each str-typed key, and the explicit
# layout's keys, which are set together.  kind has no other value: its only
# accepted one is its default, and any other is rejected at the header.
NON_DEFAULT_TEXT = {"layout": "explicit",
                    "weights": "0.25 0.75", "means": "1 0; 0 1",
                    "stds": "0.5 0.5", "gamma_mode": "fixed",
                    "out": "runs/elsewhere"}
EXPLICIT_KEYS = ("layout", "weights", "means", "stds")


def _non_default(field):
    """(text, value) of a valid value other than the field's default."""
    if field.name in NON_DEFAULT_TEXT:
        return NON_DEFAULT_TEXT[field.name], NON_DEFAULT_TEXT[field.name]
    default = field.default
    if isinstance(default, bool):
        return ("false", False) if default else ("true", True)
    if isinstance(default, int):
        return str(default + 1), default + 1
    if isinstance(default, float):
        return repr(default / 2), default / 2
    raise AssertionError(f"no non-default value for config key {field.name!r}")


def test_every_config_field_parses_back_and_round_trips():
    # Loops over the dataclass fields, so a key added later is covered too.
    for section in dataclasses.fields(RunConfig):
        keys = dataclasses.fields(section.default)
        for field in keys:
            if field.name == "kind":
                continue
            names = EXPLICIT_KEYS if field.name in EXPLICIT_KEYS \
                else (field.name,)
            lines = [f"[{section.name}]"] + [
                f"{key.name} = {_non_default(key)[0]}"
                for key in keys if key.name in names]
            when = field.metadata.get("written_when")
            if when is not None and when[0] not in names:
                lines.append(f"{when[0]} = {when[1]}")
            cfg = parse_run_config("\n".join(lines) + "\n")
            text, value = _non_default(field)
            parsed = getattr(getattr(cfg, section.name), field.name)
            assert parsed == value != field.default, field.name
            formatted = format_run_config(cfg)
            assert f"\n{field.name} = {text}\n" in formatted, field.name
            assert parse_run_config(formatted) == cfg, field.name


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("[teacher]\nkind = analytic\n[oven]\n")
    assert str(err.value).startswith("3:")
    assert "oven" in str(err.value)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("[distill]\nnfe = 2\nwarp = 9\n")
    assert str(err.value).startswith("3:")
    assert "warp" in str(err.value)


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("[distill]\nseed = 1\nseed = 2\n")
    assert str(err.value).startswith("3:")
    assert "duplicate" in str(err.value)


def test_bad_value_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("[distill]\nnfe = fast\n")
    assert str(err.value).startswith("2:")


def test_key_outside_section_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("seed = 1\n")
    assert str(err.value).startswith("1:")


def test_malformed_line_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("[distill]\njust words\n")
    assert str(err.value).startswith("2:")


def test_invalid_field_value_becomes_config_error():
    # structurally fine, semantically rejected by the dataclass validation
    with pytest.raises(ConfigError):
        parse_run_config("[distill]\nnfe = 0\n")


@pytest.mark.parametrize("section,key", [
    ("teacher", "radius"), ("teacher", "std"),
    ("distill", "base_lr"), ("distill", "gamma_lo"), ("distill", "gamma_hi"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_reports_line(section, key, value):
    with pytest.raises(ConfigError) as err:
        parse_run_config(f"[{section}]\n# note\n{key} = {value}\n")
    assert str(err.value).startswith("3:")
    assert "finite" in str(err.value)


EXPLICIT = ("[teacher]\nlayout = explicit\nweights = 0.5 0.5\n"
            "means = {means}\nstds = 0.3 0.3\n")


def test_ragged_explicit_means_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config(EXPLICIT.format(means="1 0; 2"))
    assert str(err.value).startswith("4:")
    assert "means" in str(err.value)


def test_explicit_layout_shape_mismatch_reports_section_line():
    text = "[run]\nmetric_samples = 64\n" + EXPLICIT.format(
        means="1 0; 2 1; 3 3")
    with pytest.raises(ConfigError) as err:
        parse_run_config(text)
    assert str(err.value).startswith("3:")
    assert "[teacher]" in str(err.value)


@pytest.mark.parametrize("body", [
    "components = 0", "components = -3",
    "components = 100000000000000000000", "std = 1e200", "kind = neural",
])
def test_teacher_section_rejections_report_header_line(body):
    # each was a raw ZeroDivisionError, ValueError or RuntimeWarning, or
    # (kind = neural) trained a teacher kind the package no longer has
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            parse_run_config(f"[run]\nmetric_samples = 64\n[teacher]\n"
                             f"{body}\n")
    assert str(err.value).startswith("3: [teacher]")


def test_gamma_range_out_of_order_fails_at_parse_with_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("# ref\n[distill]\ngamma_lo = 2.0\n")
    assert str(err.value).startswith("2:")
    assert "gamma_range" in str(err.value)


def test_gamma_range_keys_merge_with_defaults():
    def bounds(text):
        cfg = parse_run_config(text)
        return cfg.distill.gamma_lo, cfg.distill.gamma_hi

    assert bounds("[distill]\ngamma_lo = 0.5\n") == (0.5, 5.0)
    assert bounds("[distill]\ngamma_hi = 4.0\n") == (0.4, 4.0)
    assert bounds("[distill]\ngamma_lo = 0.5\ngamma_hi = 4.0\n") == (0.5, 4.0)


def test_bad_gamma_mode_fails_at_parse_with_file_and_line(tmp_path):
    # it used to parse, then fail when the student was built, with neither
    # the file nor the line in its message
    path = tmp_path / "adaptive.cfg"
    path.write_text("# ref\n[distill]\ngamma_mode = adaptive\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert err.value.path == str(path) and err.value.line == 2
    assert str(err.value).startswith(
        f"{path}:2: [distill] gamma_mode must be one of ")
    assert "'adaptive'" in str(err.value)


def test_run_config_builds_its_mixture_once(monkeypatch):
    # the teacher section builds its ring and keeps it; the run config
    # reads its dim from there, and build_teacher hands out that one spec
    built = []

    def counted(*args):
        built.append(args)
        return ring_spec(*args)

    monkeypatch.setattr(harness_module, "ring_spec", counted)
    cfg = RunConfig(TeacherConfig(components=4))
    assert len(built) == 1
    assert build_teacher(cfg) is cfg.teacher.spec
    assert len(built) == 1
    assert cfg.teacher.spec.weights.size == 4


def test_bool_values_are_strict():
    assert parse_run_config("[run]\nexport_csv = false\n").run.export_csv \
        is False
    with pytest.raises(ConfigError):
        parse_run_config("[run]\nexport_csv = False\n")
    with pytest.raises(ConfigError):
        parse_run_config("[run]\nexport_csv = 1\n")


def test_config_hash_stable_and_sensitive():
    a = config_hash(RunConfig())
    b = config_hash(RunConfig())
    c = config_hash(tiny_run_config())
    assert a == b
    assert a != c
    assert len(a) == 16
    int(a, 16)  # hex


def test_config_hash_ignores_output_directory():
    cfg = RunConfig()
    moved = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run,
                                                             out="else/where"))
    assert config_hash(moved) == config_hash(cfg)
    wider = dataclasses.replace(cfg, run=dataclasses.replace(
        cfg.run, metric_samples=cfg.run.metric_samples + 1))
    assert config_hash(wider) != config_hash(cfg)


# -- metrics ----------------------------------------------------------------------


def test_endpoint_mse_hand_value():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert endpoint_mse(a, b) == pytest.approx(0.5, abs=0)
    assert endpoint_mse(a, a) == 0.0


def test_trajectory_deviation_interpolates_reference_linearly():
    # t = 0.25 lies three quarters of the way from x(1) = 0 to x(0) = 2
    ref = two_state_record([0.0, 0.0], [2.0, 2.0])
    student = TrajectoryRecord([[0.0, 0.0], [1.5, 1.5], [2.0, 2.0]],
                               [1.0, 0.25, 0.0])
    assert trajectory_deviation(student, ref) == 0.0
    moved = TrajectoryRecord(student.positions + [0.0, 3.0], student.times)
    assert trajectory_deviation(moved, ref) == 3.0


def test_trajectory_deviation_hits_reference_grid_points_exactly():
    ref = TrajectoryRecord([[0.0, 1.0], [5.0, -1.0], [7.0, 0.0]],
                           [1.0, 0.4, 0.0])
    assert trajectory_deviation(ref, ref) == 0.0
    moved = TrajectoryRecord(ref.positions + [[0.0, 0.0], [3.0, 4.0],
                                              [0.0, 0.0]], ref.times)
    assert trajectory_deviation(moved, ref) == 5.0 / 3.0


def _vectorized_deviation(student, reference):
    # every student time interpolated at once: the (T+1, ..., D) reference
    # positions that trajectory_deviation no longer builds
    times, grid, pos = student.times, reference.times, reference.positions
    idx = np.searchsorted(-grid, -times, side="left").clip(1, grid.size - 1)
    t_hi, t_lo = grid[idx - 1], grid[idx]
    w = ((t_hi - times) / (t_hi - t_lo)).clip(0.0, 1.0)
    w = w.reshape((times.size,) + (1,) * (pos.ndim - 1))
    ref_at = (1.0 - w) * pos[idx - 1] + w * pos[idx]
    return float(np.mean(np.linalg.norm(student.positions - ref_at,
                                        axis=-1)))


@pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
def test_trajectory_deviation_bits_equal_vectorized_interpolation(batch):
    rng = np.random.default_rng(67)
    # a non-uniform reference grid, and student times between and on it
    grid = np.concatenate(([1.0], np.sort(rng.uniform(0.0, 1.0, 9))[::-1],
                           [0.0]))
    times = np.concatenate(([1.0], np.sort(rng.uniform(0.0, 1.0, 12))[::-1],
                            grid[3:5], [0.0]))
    times = np.unique(times)[::-1]
    ref = TrajectoryRecord(rng.normal(size=(grid.size,) + batch + (3,)), grid)
    student = TrajectoryRecord(rng.normal(size=(times.size,) + batch + (3,)),
                               times)
    want = _vectorized_deviation(student, ref)
    assert trajectory_deviation(student, ref).hex() == want.hex()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_deviation_memory_is_the_gap_array():
    # a vectorized interpolation holds several (T+1, B, D) arrays at once
    rng = np.random.default_rng(68)
    states, batch = 2001, 512
    student = TrajectoryRecord(rng.normal(size=(states, batch, 2)),
                               np.linspace(1.0, 0.0, states))
    ref = TrajectoryRecord(rng.normal(size=(101, batch, 2)),
                           np.linspace(1.0, 0.0, 101))
    peak = _peak_bytes(lambda: trajectory_deviation(student, ref))
    assert peak <= 8 * states * batch + 2**20


def test_overlay_svg_memory_holds_no_trajectory_copy(tmp_path):
    rng = np.random.default_rng(69)
    record = TrajectoryRecord(rng.normal(size=(2001, 512, 2)),
                              np.linspace(1.0, 0.0, 2001))
    peak = _peak_bytes(lambda: trajectory_overlay_svg(
        [("teacher", "#888888", record), ("student", "#1f6fd6", record)],
        tmp_path / "overlay.svg", means=np.zeros((8, 2))))
    assert peak <= record.positions.nbytes // 8


def test_trajectory_deviation_zero_for_identical():
    rec = two_state_record([0.0, 0.0], [2.0, 2.0])
    assert trajectory_deviation(rec, rec) == 0.0


def test_trajectory_deviation_constant_offset():
    base = np.zeros((4, 4, 2)) + np.arange(4.0)[:, None, None]
    times = 1.0 - np.arange(4) / 3
    ref = TrajectoryRecord(base, times)
    moved = TrajectoryRecord(base + np.array([0.3, 0.4]), times)
    assert trajectory_deviation(moved, ref) == pytest.approx(0.5, rel=1e-12)


def naive_energy_distance(xs, ys):
    def mean_pair(a, b):
        total = 0.0
        for p in a:
            for q in b:
                total += float(np.linalg.norm(p - q))
        return total / (len(a) * len(b))

    return 2 * mean_pair(xs, ys) - mean_pair(xs, xs) - mean_pair(ys, ys)


def formed_pairs(n, m, chunk):
    """Pairs energy_distance forms: the whole x.y block, and of each
    self-block one strip per chunk, from the chunk's first row rightwards."""
    def strips(rows):
        return sum(min(chunk, rows - start) * (rows - start)
                   for start in range(0, rows, chunk))
    return n * m + strips(n) + strips(m)


def test_energy_distance_matches_naive_quadratic():
    rng = np.random.default_rng(60)
    xs = rng.normal(size=(40, 2))
    ys = rng.normal(size=(50, 2)) + 0.5
    got = energy_distance(xs, ys)
    want = naive_energy_distance(xs, ys)
    # chunked evaluation sums pair distances in a different order than the loop
    assert_allclose(got, want, rtol=1e-9)


def test_energy_distance_identical_sets_zero():
    rng = np.random.default_rng(61)
    xs = rng.normal(size=(64, 2))
    assert energy_distance(xs, xs.copy()) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 5])
@pytest.mark.parametrize("chunk", [1, 2, 7, 16, 17, 18])
def test_energy_distance_of_a_permuted_copy_is_zero(dim, chunk):
    # every coincident pair, on a self-block's diagonal or across x.y,
    # comes out as exactly 0, whatever product shape computed it
    rng = np.random.default_rng(69 + dim)
    xs = rng.normal(size=(17, dim)) * 20.0 + 2.0
    perm = rng.permutation(17)
    assert energy_distance(xs, xs[perm], chunk=chunk) == pytest.approx(
        0.0, abs=1e-12)


@pytest.mark.parametrize("chunk", [1, 7, 29, 30, 31])
def test_energy_distance_matches_naive_at_equal_sizes(chunk):
    # n == m: chunks n - 1, n and n + 1 put the triangle's edge at the last
    # row, in no chunk, and past the end
    rng = np.random.default_rng(70)
    xs = rng.normal(size=(30, 2))
    ys = rng.normal(size=(30, 2)) + 0.4
    assert_allclose(energy_distance(xs, ys, chunk=chunk),
                    naive_energy_distance(xs, ys), rtol=1e-9)


class _PairProbe:
    """Stands in for numpy in arcflow.harness and adds up the elements of
    every array passed to sqrt: the pairs energy_distance forms."""

    def __init__(self):
        self.pairs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, x, *args, **kwargs):
        out = np.sqrt(x, *args, **kwargs)
        self.pairs += out.size
        return out


@pytest.mark.parametrize("n, m, chunk, pairs", [
    (50, 30, 7, 3_472), (50, 30, 128, 4_900), (50, 30, 1, 3_240),
    (30, 50, 7, 3_472)])
def test_energy_distance_forms_each_self_pair_once(monkeypatch, n, m, chunk,
                                                   pairs):
    probe = _PairProbe()
    monkeypatch.setattr(harness_module, "np", probe)
    rng = np.random.default_rng(71)
    energy_distance(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)),
                    chunk=chunk)
    assert probe.pairs == pairs == formed_pairs(n, m, chunk)


def test_energy_distance_splits_by_pairs_formed(monkeypatch):
    # cutting at half of the full blocks' pairs would give the first
    # process 2.1 times the pairs the second forms
    ranges = []

    def in_caller(work, shared, units, priority=None):
        ranges.extend((shared[1], unit) for unit in units)
        return [work(shared, unit) for unit in units]

    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_module, "map_forked", in_caller)
    rng = np.random.default_rng(72)
    xs, ys = rng.normal(size=(3000, 2)), rng.normal(size=(3000, 2))
    want = energy_distance(xs, ys, chunk=100)
    shares = [sum(math.prod(shape) for *_, shape in chunks[span])
              for chunks, span in ranges]
    assert len(shares) == 2 and sum(shares) == formed_pairs(3000, 3000, 100)
    assert max(shares) - min(shares) <= 2 * 100 * 3000
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 1)
    assert energy_distance(xs, ys, chunk=100).hex() == want.hex()


def test_energy_distance_grows_with_separation():
    rng = np.random.default_rng(62)
    xs = rng.normal(size=(200, 2))
    near = energy_distance(xs, xs + np.array([0.5, 0.0]))
    far = energy_distance(xs, xs + np.array([3.0, 0.0]))
    assert 0.0 < near < far


def test_energy_distance_chunking_invariant():
    rng = np.random.default_rng(63)
    xs = rng.normal(size=(100, 2))
    ys = rng.normal(size=(90, 2)) + 1.0
    assert_allclose(energy_distance(xs, ys, chunk=7),
                    energy_distance(xs, ys, chunk=4096), rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 5, 40])
def test_energy_distance_matches_naive_across_chunks(dim, chunk):
    # 23 and 17 rows: chunk 5 divides neither, 40 exceeds both
    rng = np.random.default_rng(64 + dim)
    xs = rng.normal(size=(23, dim))
    ys = rng.normal(size=(17, dim)) + 0.7
    assert_allclose(energy_distance(xs, ys, chunk=chunk),
                    naive_energy_distance(xs, ys), rtol=1e-9)


def test_energy_distance_repeats_bit_for_bit():
    rng = np.random.default_rng(65)
    xs = rng.normal(size=(700, 2))
    ys = rng.normal(size=(500, 2))
    first = energy_distance(xs, ys)
    assert energy_distance(xs, ys).hex() == first.hex()


@pytest.mark.parametrize("chunk", [64, 256])
def test_energy_distance_memory_is_one_block_buffer(chunk):
    rng = np.random.default_rng(66)
    xs = rng.normal(size=(4000, 2))
    ys = rng.normal(size=(4000, 2))
    tracemalloc.start()
    try:
        energy_distance(xs, ys, chunk=chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * chunk * 4000 * 8 + xs.nbytes + ys.nbytes


@pytest.mark.parametrize("xs, ys, chunk", [
    (np.zeros((3, 2)), np.zeros((4, 3)), 8),        # column counts differ
    (np.zeros((0, 2)), np.zeros((4, 2)), 8),        # empty xs
    (np.zeros((3, 2)), np.zeros((0, 2)), 8),        # empty ys
    (np.zeros(3), np.zeros((4, 1)), 8),             # not 2-D
    (np.array([[0.0, np.nan]]), np.zeros((4, 2)), 8),
    (np.zeros((3, 2)), np.array([[np.inf, 0.0]]), 8),
    (np.zeros((3, 2)), np.zeros((4, 2)), 0),
], ids=["dims", "empty-xs", "empty-ys", "1-d", "nan", "inf", "chunk-0"])
def test_energy_distance_rejects_bad_input(xs, ys, chunk):
    with pytest.raises(InvalidParameterError):
        energy_distance(xs, ys, chunk=chunk)


@pytest.mark.parametrize("cpus", [2, 3])
def test_pooled_energy_distance_has_the_one_process_bits(count_pools, cpus):
    # n != m, and 97 divides neither row count
    rng = np.random.default_rng(67)
    xs = rng.normal(size=(3000, 2))
    ys = rng.normal(size=(2200, 2)) + 0.3
    pairs = formed_pairs(3000, 2200, 97)
    assert pairs >= cpus * harness_module.MIN_PROCESS_PAIRS
    pools = count_pools(cpus)
    pooled = energy_distance(xs, ys, chunk=97)
    assert pools == [cpus]
    assert multiprocessing.active_children() == []
    pools = count_pools(1)
    assert pooled.hex() == energy_distance(xs, ys, chunk=97).hex()
    assert pools == []


def test_pooled_energy_distance_with_a_chunk_over_a_share(monkeypatch,
                                                          count_pools):
    # one chunk, the whole x.x strip, holds 97% of the pairs formed: both
    # cuts of a three-way split fall after it, and the two ranges left run
    monkeypatch.setattr(harness_module, "MIN_PROCESS_PAIRS", 200_000)
    rng = np.random.default_rng(73)
    xs, ys = rng.normal(size=(1000, 2)), rng.normal(size=(30, 2))
    pools = count_pools(3)
    pooled = energy_distance(xs, ys, chunk=4096)
    assert pools == [2]
    count_pools(1)
    assert pooled.hex() == energy_distance(xs, ys, chunk=4096).hex()


@pytest.mark.parametrize("n, m, chunk", [(50, 30, 128), (50, 30, 7),
                                         (1600, 1600, 128),
                                         (1900, 1900, 128)])
def test_energy_distance_below_the_floor_never_forks(monkeypatch, n, m,
                                                     chunk):
    def no_fork(*args, **kwargs):
        raise AssertionError("energy_distance forked below its floor")

    # 1900 rows: 10.8 million pairs in the full blocks, 7.5 million formed
    assert formed_pairs(n, m, chunk) < 2 * harness_module.MIN_PROCESS_PAIRS
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_fork)
    rng = np.random.default_rng(68)
    energy_distance(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)),
                    chunk=chunk)


@pytest.mark.parametrize("xs, ys, chunk", [
    (np.zeros((3000, 2)), np.zeros((3000, 3)), 128),
    (np.full((3000, 2), np.nan), np.zeros((3000, 2)), 128),
    (np.zeros((3000, 2)), np.zeros((3000, 2)), 0),
], ids=["dims", "nan", "chunk-0"])
def test_energy_distance_rejects_bad_input_before_any_fork(monkeypatch, xs,
                                                           ys, chunk):
    def no_fork(*args, **kwargs):
        raise AssertionError("energy_distance forked before its input check")

    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_module, "fork_workers", no_fork)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_fork)
    with pytest.raises(InvalidParameterError):
        energy_distance(xs, ys, chunk=chunk)


# -- artifact writers ------------------------------------------------------------------


def test_fmt_round_trips_doubles():
    for value in (0.1, np.pi, 1e-17, 2.0 / 3.0, 12345.6789):
        assert float(fmt(value)) == value


def test_write_loss_csv(tmp_path):
    rows = [(0, 0.0, 1.5, 1.0), (1, 0.5, 0.75, 0.5)]
    path = tmp_path / "loss.csv"
    write_loss_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,lambda,loss,shelf"
    assert len(lines) == 3
    step, lam, loss, shelf = lines[2].split(",")
    assert int(step) == 1
    assert float(lam) == 0.5 and float(loss) == 0.75 and float(shelf) == 0.5


def test_write_trajectory_csv(tmp_path):
    rec = TrajectoryRecord(np.zeros((3, 3, 2)) + np.arange(3.0)[:, None, None],
                           1.0 - np.arange(3) / 2)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rec, path, limit=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trajectory,t,x0,x1"
    assert len(lines) == 1 + 2 * 3  # limit-2 trajectories, 3 states each
    by_traj = {}
    for line in lines[1:]:
        traj, t, x0, x1 = line.split(",")
        by_traj.setdefault(int(traj), []).append(float(t))
    assert set(by_traj) == {0, 1}
    for times in by_traj.values():
        assert times == [1.0, 0.5, 0.0]


def test_trajectory_writers_take_any_batch_shape(tmp_path):
    # a (2, 3, 2) batch writes the 6 trajectories of the flat (6, 2) batch,
    # and a single (D,) trajectory writes the first of them
    velocity = ring_spec(8, 2.0, 0.25, 2).velocity
    noise = np.random.default_rng(3).standard_normal((6, 2))
    records = {"flat": euler_sample(velocity, noise, 4),
               "nested": euler_sample(velocity, noise.reshape(2, 3, 2), 4),
               "single": euler_sample(velocity, noise[0], 4)}
    for name, record in records.items():
        write_trajectory_csv(record, tmp_path / f"{name}.csv")
        write_trajectory_csv(record, tmp_path / f"{name}_first.csv", limit=1)
        trajectory_overlay_svg([("euler", "#888888", record)],
                               tmp_path / f"{name}.svg")
    flat = (tmp_path / "flat.csv").read_text().splitlines()
    assert len(flat) == 1 + 6 * 5 and flat[-1].startswith("5,0,")
    for suffix in (".csv", "_first.csv", ".svg"):
        want = (tmp_path / f"flat{suffix}").read_bytes()
        assert (tmp_path / f"nested{suffix}").read_bytes() == want
    assert ((tmp_path / "single.csv").read_bytes()
            == (tmp_path / "flat_first.csv").read_bytes())


def test_write_ablation_csv(tmp_path):
    rows = [("gamma_mode", "learnable", 0, 0.25, 0.01)]
    path = tmp_path / "ablation.csv"
    write_ablation_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "study,cell,seed,endpoint_mse,final_loss"
    assert lines[1] == "gamma_mode,learnable,0,0.25,0.01"


# -- teachers and evaluation ---------------------------------------------------------------


def test_build_teacher_analytic_ring():
    cfg = RunConfig()
    teacher = build_teacher(cfg)
    assert teacher is cfg.teacher.spec
    assert isinstance(teacher, GmmTeacherSpec)
    assert teacher.dim == 2
    assert teacher.weights.size == 8


def test_build_teacher_explicit_layout():
    cfg = RunConfig(teacher=TeacherConfig(
        layout="explicit", weights="1.0", means="0.5, -0.5", stds="0.3"))
    teacher = build_teacher(cfg)
    assert teacher is cfg.teacher.spec
    assert teacher.weights.size == 1
    assert_allclose(teacher.means, [[0.5, -0.5]], rtol=0)


def test_evaluate_student_returns_finite_metrics():
    cfg = tiny_run_config()
    teacher = build_teacher(cfg)
    from arcflow.distill import build_student_net, distill_train

    net = build_student_net(cfg.distill, teacher.dim,
                            init_seed=training_streams(0)[0])
    distill_train(teacher, net, cfg.distill)
    out = evaluate_student(net, cfg, euler_reference(cfg))
    for key in ("endpoint_mse", "trajectory_deviation",
                "discretization_floor"):
        assert np.isfinite(out[key]) and out[key] >= 0.0
    assert out["student_record"].times[0] == 1.0


# -- orchestration --------------------------------------------------------------------------


def test_run_distillation_report_without_artifacts(tmp_path):
    cfg = tiny_run_config()
    report, net, log = run_distillation(cfg, out_dir=None)
    assert report.total_steps == 40
    assert report.nfe == cfg.distill.nfe
    assert report.config_hash == config_hash(cfg)
    assert report.final_loss == float(log[-1][2])
    assert np.isfinite(report.endpoint_mse)
    assert len(log) == 40
    assert not list(tmp_path.iterdir())


def test_run_distillation_writes_artifacts(tmp_path):
    cfg = tiny_run_config()
    out = tmp_path / "run"
    report, _, log = run_distillation(cfg, out_dir=out)
    for name in ("config.txt", "student.ckpt", "metrics.json", "loss.csv",
                 "trajectories.csv", "overlay.svg"):
        assert (out / name).exists(), name
    saved = json.loads((out / "metrics.json").read_text())
    assert saved["endpoint_mse"] == report.endpoint_mse
    assert saved["config_hash"] == config_hash(cfg)
    # loss.csv: header plus one row per step
    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + cfg.distill.total_steps
    # config round-trips through the artifact
    assert parse_run_config((out / "config.txt").read_text()) == cfg


def test_run_distillation_on_a_one_dimensional_teacher(tmp_path):
    # every artifact, and an overlay of x (vertical) against t (horizontal):
    # each trajectory starts at t = 1, the right edge of the plot, and each
    # data mean sits at t = 0, the left edge
    cfg = dataclasses.replace(tiny_run_config(), teacher=TeacherConfig(
        layout="explicit", weights="0.5 0.5", means="-1; 1",
        stds="0.3 0.3"))
    out = tmp_path / "run"
    report, net, _ = run_distillation(cfg, out_dir=out)
    assert net.config.dim == 1
    assert np.isfinite(report.endpoint_mse)
    for name in ("config.txt", "student.ckpt", "metrics.json", "loss.csv",
                 "trajectories.csv", "overlay.svg"):
        assert (out / name).exists(), name
    svg = (out / "overlay.svg").read_text()
    lines = [line for line in svg.splitlines() if "<polyline" in line]
    assert len(lines) == 2 * cfg.run.trajectory_samples
    for line in lines:
        xs = [float(p.split(",")[0])
              for p in line.split('points="')[1].split('"')[0].split()]
        assert xs[0] == max(xs) and xs[-1] == min(xs)
    left = min(float(line.split('cx="')[1].split('"')[0])
               for line in svg.splitlines() if 'stroke="#333333"' in line)
    assert left == min(xs)


def test_run_distillation_export_toggles(tmp_path):
    cfg = tiny_run_config()
    cfg = dataclasses.replace(
        cfg, run=dataclasses.replace(cfg.run, export_csv=False,
                                     export_svg=False))
    out = tmp_path / "run"
    run_distillation(cfg, out_dir=out)
    assert (out / "student.ckpt").exists()
    assert not (out / "loss.csv").exists()
    assert not (out / "overlay.svg").exists()


def test_run_distillation_byte_identical_reruns(tmp_path):
    cfg = tiny_run_config()
    a, b = tmp_path / "a", tmp_path / "b"
    run_distillation(cfg, out_dir=a)
    run_distillation(cfg, out_dir=b)
    assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()
    assert (a / "student.ckpt").read_bytes() == \
        (b / "student.ckpt").read_bytes()


# -- ablation plumbing -------------------------------------------------------------------------


def test_ablation_cells_gamma_mode():
    cells = ablation_cells("gamma_mode", DistillConfig())
    names = [name for name, _ in cells]
    assert names == ["frozen_one", "fixed", "learnable"]
    modes = {name: cfg.gamma_mode for name, cfg in cells}
    assert modes["frozen_one"] == "frozen_one"
    assert modes["learnable"] == "learnable"
    assert all(cfg.num_modes == DistillConfig().num_modes
               for name, cfg in cells if name != "frozen_one")


def test_ablation_cells_sharing():
    cells = dict(ablation_cells("sharing", DistillConfig()))
    assert cells["vel_per_mode_gamma_shared"].share_gamma
    assert not cells["vel_per_mode_gamma_shared"].share_velocity
    assert cells["vel_shared_gamma_per_mode"].share_velocity
    assert not cells["all_per_mode"].share_velocity
    assert all(cfg.gamma_mode == "learnable" for cfg in cells.values())


def test_ablation_cells_num_modes():
    cells = dict(ablation_cells("num_modes", DistillConfig()))
    assert cells["modes_4"].num_modes == 4
    assert cells["modes_8"].num_modes == 8
    assert cells["modes_16"].num_modes == 16


def test_ablation_cells_unknown_study():
    with pytest.raises(InvalidParameterError):
        ablation_cells("optimizer", DistillConfig())


def test_ablation_budget_unknown_study_fails_like_its_cells():
    for lookup in (ablation_cells, ablation_budget):
        with pytest.raises(InvalidParameterError,
                           match="^unknown ablation study 'optimizer'$"):
            lookup("optimizer", DistillConfig())


def test_ablation_budget_rule():
    base = DistillConfig(guidance_steps=500, total_steps=3000)
    assert ablation_budget("gamma_mode", base) == 1000
    assert ablation_budget("sharing", base) == 1000
    assert ablation_budget("num_modes", base) == 3000
    short = DistillConfig(guidance_steps=500, total_steps=600)
    assert ablation_budget("gamma_mode", short) == 600


def test_run_ablation_rows():
    cfg = tiny_run_config(total_steps=12, guidance_steps=4, batch=8)
    rows = run_ablation(cfg, studies=("gamma_mode",), seeds=(0,))
    assert len(rows) == 3
    for study, cell, seed, mse, final_loss in rows:
        assert study == "gamma_mode"
        assert cell in ("frozen_one", "fixed", "learnable")
        assert seed == 0
        assert np.isfinite(mse) and np.isfinite(final_loss)


def _hex_rows(rows):
    return [(s, c, k, float(m).hex(), float(l).hex())
            for s, c, k, m, l in rows]


def _standalone_rows(cfg, studies, seeds):
    # one full run_distillation per (study, cell, seed), teacher and
    # reference built inside each run
    rows = []
    for study in studies:
        budget = ablation_budget(study, cfg.distill)
        for name, dcfg in ablation_cells(study, cfg.distill):
            for seed in seeds:
                seeded = dataclasses.replace(dcfg, seed=seed,
                                             total_steps=budget)
                report, _, _ = run_distillation(
                    RunConfig(cfg.teacher, seeded, cfg.run))
                rows.append((study, name, seed, report.endpoint_mse,
                             report.final_loss))
    return rows


def test_run_ablation_rows_equal_standalone_runs():
    cfg = tiny_run_config()
    studies, seeds = ("gamma_mode", "sharing"), (0, 1)
    rows = run_ablation(cfg, studies=studies, seeds=seeds)
    assert _hex_rows(rows) == _hex_rows(_standalone_rows(cfg, studies, seeds))
    by_cell = {row[:3]: row[3:] for row in rows}
    for seed in seeds:
        assert by_cell[("gamma_mode", "learnable", seed)] == \
            by_cell[("sharing", "all_per_mode", seed)]


class _CallCounts(Mapping):
    """Call counts by name, kept in shared memory that forked ablation
    workers inherit, so calls made in a worker count as well."""

    def __init__(self, names):
        self._values = {name: multiprocessing.Value("q", 0) for name in names}

    def add(self, name):
        value = self._values[name]
        with value.get_lock():
            value.value += 1

    def __getitem__(self, name):
        return self._values[name].value

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


def _count_calls(monkeypatch, *names):
    counts = _CallCounts(names)
    for name in names:
        real = getattr(harness_module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness_module, name, counted)
    return counts


def test_run_ablation_trains_each_distinct_cell_once_per_seed(monkeypatch):
    cfg = tiny_run_config()
    counts = _count_calls(monkeypatch, "distill_train", "ring_spec",
                          "euler_sample")
    specs = _CallCounts(("GmmTeacherSpec",))
    real_init = GmmTeacherSpec.__post_init__

    def counted_init(self):
        specs.add("GmmTeacherSpec")
        real_init(self)

    monkeypatch.setattr(GmmTeacherSpec, "__post_init__", counted_init)
    rows = run_ablation(cfg, studies=("gamma_mode", "sharing"), seeds=(0, 1))
    assert len(rows) == 12
    # six cells, of which learnable and all_per_mode are one config
    assert counts["distill_train"] == 5 * 2
    # the mixture was built with the config; the grid builds none
    assert counts["ring_spec"] == 0 and specs["GmmTeacherSpec"] == 0
    # the teacher_steps reference and its doubled-step floor, per seed
    assert counts["euler_sample"] == 2 * 2


def _grid_with_workers(monkeypatch, workers, cfg,
                       studies=("gamma_mode", "num_modes")):
    # num_modes trains twice as long as gamma_mode, so the pool submits
    # its units first, out of serial order.
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: workers)
    return run_ablation(cfg, studies=studies, seeds=(0, 1))


def test_pooled_ablation_rows_equal_in_process_rows(monkeypatch):
    cfg = tiny_run_config()
    pooled = _grid_with_workers(monkeypatch, 2, cfg)
    assert multiprocessing.active_children() == []
    in_process = _grid_with_workers(monkeypatch, 1, cfg)
    assert _hex_rows(pooled) == _hex_rows(in_process)


needs_openblas = pytest.mark.skipif(
    not pool_module._blas_controls(),
    reason="no loaded OpenBLAS exports a known thread-count symbol")


def _blas_counts():
    return tuple(get() for _, get in pool_module._blas_controls())


def _set_blas_counts(counts):
    for (set_count, _), count in zip(pool_module._blas_controls(), counts):
        set_count(count)


def _blas_counts_in_unit(shared, unit):
    if unit == "raise":
        raise NumericError("unit failed")
    return _blas_counts()


@needs_openblas
def test_map_forked_runs_one_blas_thread_and_restores_the_callers(
        monkeypatch):
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    before = _blas_counts()
    _set_blas_counts([3] * len(before))
    try:
        seen = pool_module.map_forked(_blas_counts_in_unit, None,
                                      ["worker"] * 3)
        assert seen == [(1,) * len(before)] * 3
        assert _blas_counts() == (3,) * len(before)
        for units in (["worker", "raise"], ["raise", "worker"]):
            with pytest.raises(NumericError, match="unit failed"):
                pool_module.map_forked(_blas_counts_in_unit, None, units)
            assert _blas_counts() == (3,) * len(before)
        assert multiprocessing.active_children() == []
    finally:
        _set_blas_counts(before)


@needs_openblas
def test_blas_pin_is_a_no_op_without_a_known_symbol(monkeypatch):
    controls = pool_module._blas_controls()
    counts = tuple(get() for _, get in controls)
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pool_module, "BLAS_THREAD_SYMBOLS",
                        (("no_such_set_threads", "no_such_get_threads"),))
    assert pool_module._blas_controls() == []

    def real_counts(shared, unit):
        return tuple(get() for _, get in controls)

    # the workers inherit the caller's counts, untouched
    assert pool_module.map_forked(real_counts, None, [0, 1]) == [counts,
                                                                 counts]
    assert tuple(get() for _, get in controls) == counts


def test_pooled_ablation_rows_equal_without_the_blas_pin(monkeypatch):
    cfg = tiny_run_config()
    pinned = _grid_with_workers(monkeypatch, 2, cfg, studies=("gamma_mode",))
    monkeypatch.setattr(pool_module, "_blas_controls", lambda: [])
    unpinned = _grid_with_workers(monkeypatch, 2, cfg, studies=("gamma_mode",))
    assert _hex_rows(pinned) == _hex_rows(unpinned)


def _pid_or_raise(error, unit):
    if unit == "raise":
        raise error
    return os.getpid()


def _map_in_this_process(units):
    """True when map_forked computed every unit in this process and a
    failing unit's error came out as the very object the unit raised."""
    error = NumericError("unit failed")
    try:
        pids = pool_module.map_forked(_pid_or_raise, error, units)
    except NumericError as exc:
        return exc is error
    return pids == [os.getpid()] * len(units)


def _map_in_daemon(queue, units):
    queue.put(_map_in_this_process(units))


@pytest.mark.parametrize("route", ["one-unit", "one-cpu", "daemon"])
def test_map_forked_computes_in_the_caller_where_one_process(monkeypatch,
                                                            route):
    # the forked daemon inherits the patches that make a pool or a BLAS
    # change fail
    def no_pool(*args, **kwargs):
        raise AssertionError("map_forked started a pool")

    monkeypatch.setattr(pool_module, "usable_cpus",
                        lambda: 1 if route == "one-cpu" else 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(pool_module, "_blas_controls", no_pool)
    grids = ([["ok"], ["raise"]] if route == "one-unit"
             else [["ok", "ok"], ["ok", "raise", "ok"]])
    for units in grids:
        if route != "daemon":
            assert _map_in_this_process(units)
            continue
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_map_in_daemon, args=(queue, units),
                                daemon=True)
        child.start()
        done = queue.get(timeout=60)
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert done
    assert multiprocessing.active_children() == []


def test_map_forked_computes_no_unit_in_the_caller(count_pools):
    pools = count_pools(2)
    pids = pool_module.map_forked(_pid_or_raise, None, ["ok"] * 3)
    assert pools == [2]
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_pooled_ablation_raises_the_in_process_error(monkeypatch):
    cfg = tiny_run_config(base_lr=1e300)
    with pytest.raises(NumericError) as in_process:
        _grid_with_workers(monkeypatch, 1, cfg)
    with pytest.raises(NumericError) as pooled:
        _grid_with_workers(monkeypatch, 2, cfg)
    assert str(pooled.value).startswith(
        "ablation seed 0 gamma_mode/frozen_one: training step ")
    assert str(pooled.value) == str(in_process.value)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_diverging_evaluation_raises_one_error_and_no_warning(monkeypatch,
                                                             workers):
    # sharing/vel_per_mode_gamma_shared, first in serial order, trains to
    # finite but huge log-gammas, so its evaluation samples overflow.
    cfg = tiny_run_config(base_lr=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            _grid_with_workers(monkeypatch, workers, cfg, studies=("sharing",))
    assert str(err.value) == (
        "ablation seed 0 sharing/vel_per_mode_gamma_shared: non-finite "
        "sample state in shelf 1 (0.500000 -> 0.000000), sub-step 0 "
        "(0.500000 -> 0.375000)")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_twin_unit_names_both_cells(monkeypatch, workers):
    def failing(cfg, **kwargs):
        if cfg.distill.gamma_mode == "learnable":
            raise NumericError("diverged")
        return real(cfg, **kwargs)

    real = harness_module.run_distillation
    monkeypatch.setattr(harness_module, "run_distillation", failing)
    with pytest.raises(NumericError) as err:
        _grid_with_workers(monkeypatch, workers, tiny_run_config(),
                           studies=("gamma_mode", "sharing"))
    assert str(err.value) == ("ablation seed 0 gamma_mode/learnable = "
                              "sharing/all_per_mode: diverged")
    assert multiprocessing.active_children() == []


def test_pooled_ablation_raises_the_first_failure_in_serial_order(
        monkeypatch):
    # Every unit fails, and the first unit in serial order fails last.
    def failing(cfg, **_):
        if cfg.distill.gamma_mode == "frozen_one":
            time.sleep(0.5)
        raise NumericError(f"{cfg.distill.gamma_mode} {cfg.distill.seed}")

    monkeypatch.setattr(harness_module, "run_distillation", failing)
    with pytest.raises(NumericError, match="^ablation seed 0 "
                       "gamma_mode/frozen_one: frozen_one 0$"):
        _grid_with_workers(monkeypatch, 2, tiny_run_config())
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("studies, seeds", [
    (("gamma_mode", "bogus"), (0,)),
    (("gamma_mode", "gamma_mode"), (0,)),
    (("gamma_mode",), (0, 0)),
    (("gamma_mode",), (-1,)),
    (("gamma_mode",), (0, 1.5)),
    (("gamma_mode",), ("1",)),
])
def test_run_ablation_rejects_bad_grid_before_training(monkeypatch, studies,
                                                       seeds):
    counts = _count_calls(monkeypatch, "distill_train", "build_teacher")
    with pytest.raises(InvalidParameterError):
        run_ablation(tiny_run_config(), studies=studies, seeds=seeds)
    assert counts == {"distill_train": 0, "build_teacher": 0}


def test_run_distillation_rejects_reference_of_another_seed():
    cfg = tiny_run_config()
    other = dataclasses.replace(
        cfg, distill=dataclasses.replace(cfg.distill, seed=1))
    with pytest.raises(InvalidParameterError):
        run_distillation(cfg, reference=euler_reference(other))


def test_negative_seed_in_config_file_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_run_config("[distill]\nnfe = 2\nseed = -3\n")
    assert str(err.value).startswith("1:")
    assert "seed" in str(err.value)


# -- CLI --------------------------------------------------------------------------------------


def write_tiny_config(tmp_path, **distill_overrides):
    cfg = tiny_run_config(**distill_overrides)
    path = tmp_path / "run.cfg"
    path.write_text(format_run_config(cfg))
    return path


def test_cli_print_defaults_round_trips(capsys):
    assert main(["distill", "--print-defaults"]) == 0
    out = capsys.readouterr().out
    assert parse_run_config(out) == RunConfig()


def test_cli_distill_writes_artifacts(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    out = tmp_path / "run"
    code = main(["distill", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert (out / "student.ckpt").exists()
    assert (out / "loss.csv").exists()
    # report JSON is printed before the artifact pointer line
    payload = json.loads(printed[: printed.rindex("}") + 1])
    assert payload["total_steps"] == 40


def test_cli_distill_zero_steps(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    out = tmp_path / "run0"
    code = main(["distill", "--config", str(cfg_path), "--out", str(out),
                 "--steps", "0"])
    assert code == 0
    assert (out / "student.ckpt").exists()
    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    capsys.readouterr()

    def not_json(name):
        raise ValueError(f"{name} is not JSON")

    # no loss was recorded: final_loss is null, not the non-JSON NaN
    metrics = json.loads((out / "metrics.json").read_text(),
                         parse_constant=not_json)
    assert metrics["final_loss"] is None


def test_cli_seed_override_changes_hash(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    outs = []
    for seed in (0, 1):
        out = tmp_path / f"s{seed}"
        assert main(["distill", "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
        outs.append(json.loads((out / "metrics.json").read_text()))
    capsys.readouterr()
    assert outs[0]["seed"] == 0 and outs[1]["seed"] == 1
    assert outs[0]["config_hash"] != outs[1]["config_hash"]


def test_cli_sample_from_checkpoint(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    run_out = tmp_path / "run"
    assert main(["distill", "--config", str(cfg_path), "--out",
                 str(run_out)]) == 0
    sample_out = tmp_path / "samples"
    code = main(["sample", "--config", str(cfg_path),
                 "--checkpoint", str(run_out / "student.ckpt"),
                 "--baseline", str(run_out / "student.ckpt"),
                 "--out", str(sample_out), "--count", "4"])
    assert code == 0
    capsys.readouterr()
    for name in ("student_trajectories.csv", "teacher_trajectories.csv",
                 "baseline_trajectories.csv", "overlay.svg"):
        assert (sample_out / name).exists(), name


def test_cli_ablate_writes_csv(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path, total_steps=12, guidance_steps=4,
                                 batch=8)
    out = tmp_path / "ablate"
    code = main(["ablate", "--config", str(cfg_path), "--out", str(out),
                 "--studies", "gamma_mode", "--seeds", "0"])
    assert code == 0
    capsys.readouterr()
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "study,cell,seed,endpoint_mse,final_loss"
    assert len(lines) == 4


def test_cli_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[distill]\nnfe = banana\n")
    code = main(["distill", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert ":2:" in captured.err


@pytest.mark.parametrize("section,key", [
    ("distill", "batch"), ("distill", "num_modes"),
    ("distill", "n_intermediate"), ("distill", "nfe"),
    ("run", "dense_per_shelf"), ("run", "metric_samples"),
    ("run", "teacher_steps")])
def test_oversized_count_is_a_config_error_at_its_header(tmp_path, capsys,
                                                         section, key):
    # the ceiling itself parses; one past it, and a count numpy cannot
    # shape at all, fail at the section header before anything allocates
    parse_run_config(f"[{section}]\n{key} = {MAX_COUNT}\n")
    path = tmp_path / "big.cfg"
    for value in (MAX_COUNT + 1, 10 ** 20):
        text = f"# one key\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError) as err:
            parse_run_config(text)
        assert err.value.line == 2 and key in str(err.value)
        path.write_text(text)
        code = main(["distill", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert key in lines[0]
    assert not (tmp_path / "out").exists()


def test_joint_evaluation_size_is_a_config_error_before_training(
        monkeypatch, tmp_path, capsys):
    # each count passes its own ceiling, but the student trace's
    # (nfe * dense_per_shelf + 1) * metric_samples * dim values do not fit
    # one array; so too the doubled Euler reference's
    counts = _count_calls(monkeypatch, "distill_train")
    path = tmp_path / "joint.cfg"
    for text, line, formula in (
            (f"[distill]\nnfe = {MAX_COUNT}\ntotal_steps = 0\n\n"
             f"[run]\ndense_per_shelf = {MAX_COUNT}\n", 5,
             "(nfe * dense_per_shelf + 1)"),
            (f"[run]\nteacher_steps = {MAX_COUNT}\n"
             f"metric_samples = {MAX_COUNT}\n", 1,
             "(2 * teacher_steps + 1)")):
        with pytest.raises(ConfigError) as err:
            parse_run_config(text)
        assert err.value.line == line
        assert formula in str(err.value) and "MAX_ELEMENTS" in str(err.value)
        path.write_text(text)
        for command in (["distill"], ["sample", "--checkpoint", "none.ckpt"]):
            code = main(command + ["--config", str(path),
                                   "--out", str(tmp_path / "out")])
            lines = capsys.readouterr().err.splitlines()
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert counts["distill_train"] == 0
    assert not (tmp_path / "out").exists()


def test_evaluation_past_memory_exits_two_before_training(
        monkeypatch, tmp_path, capsys):
    # nfe = 2**40 passes MAX_COUNT and MAX_ELEMENTS, but the student trace
    # evaluation would hold needs far more memory than any machine has;
    # it used to train every step and then fail as out of memory
    counts = _count_calls(monkeypatch, "distill_train")
    path = tmp_path / "big_nfe.cfg"
    path.write_text(f"[distill]\nnfe = {2**40}\ntotal_steps = 200\n")
    parse_run_config(path.read_text())
    out = tmp_path / "out"
    code = main(["distill", "--config", str(path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "GiB of trajectories" in lines[0] and str(2**40) in lines[0]
    assert counts["distill_train"] == 0
    assert not out.exists()


def _child_env():
    """The environment of a child process that imports this checkout's
    arcflow, with one BLAS thread, which keeps the child's address space
    far below a 1 GiB limit."""
    src = str(Path(arcflow.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _cli_under_address_limit(argv, cwd):
    """(exit code, stderr lines) of `arcflow argv` run in a child process
    whose address space (RLIMIT_AS) is limited to 1 GiB."""
    limited = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
               "from arcflow.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", limited, *argv], cwd=cwd,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stderr.splitlines()


@pytest.mark.parametrize("nfe, gib", [
    # the student trace and its gaps need more than the whole limit
    (6000, "4.39"),
    # under the limit, over what is left once the interpreter and the Euler
    # reference's pooled transport are mapped; the run used to train every
    # step and then fail as out of memory
    pytest.param(1200, "0.879", marks=pytest.mark.skipif(
        pool_module.usable_cpus() < 2,
        reason="on one CPU the reference maps no pool, and the trace fits")),
])
def test_distill_past_what_the_process_can_map_exits_two_before_training(
        tmp_path, nfe, gib):
    (tmp_path / "big.cfg").write_text(
        f"[distill]\nnfe = {nfe}\ntotal_steps = 20\n")
    code, lines = _cli_under_address_limit(
        ["distill", "--config", "big.cfg", "--out", "out"], tmp_path)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert f"the student trace of nfe {nfe}" in lines[0]
    assert f"needs {gib} GiB of trajectories" in lines[0]
    assert not (tmp_path / "out").exists()


def test_ablate_checks_each_euler_reference_before_integrating_it(tmp_path):
    # the plain and doubled records of 20,000 steps need 1.83 GiB; the
    # reference used to integrate for seconds and then fail as out of
    # memory
    (tmp_path / "long.cfg").write_text("[run]\nteacher_steps = 20000\n")
    started = time.perf_counter()
    code, lines = _cli_under_address_limit(
        ["ablate", "--seeds", "0", "--config", "long.cfg", "--out", "out"],
        tmp_path)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "the Euler reference of teacher_steps 20000 and metric_samples " \
           "2048 needs 1.83 GiB of trajectories" in lines[0]
    assert time.perf_counter() - started < 30
    assert not (tmp_path / "out").exists()


def test_cli_ablate_checks_its_references_before_its_output_directory(
        monkeypatch, tmp_path, capsys):
    # the references' check used to run only once the output directory was
    # made, so a refused reference left an empty directory behind
    import mmap

    def refused(fileno, length):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refused)
    out = tmp_path / "ablate"
    line = _cli_error_line(
        ["ablate", "--config", str(write_tiny_config(tmp_path)), "--out",
         str(out), "--studies", "gamma_mode", "--seeds", "0"], capsys)
    assert line == "error: the Euler reference of teacher_steps 20 and " \
                   "metric_samples 64 needs 5.91e-05 GiB of trajectories, " \
                   "more than this process can map"
    assert not out.exists()


def test_cli_sample_counts_a_shelf_of_stacked_sub_steps(tmp_path):
    # at --nfe 1 the shelf of 16,000 stacked sub-steps weighs as much as the
    # trace; left out of the count, the sample passed the check and failed
    # as out of memory once its output directory was made
    (tmp_path / "dense.cfg").write_text("[run]\ndense_per_shelf = 16000\n")
    code, lines = _cli_under_address_limit(
        ["sample", "--checkpoint", str(_saved_student(tmp_path)), "--config",
         "dense.cfg", "--count", "2048", "--nfe", "1", "--out", "out"],
        tmp_path)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "needs 0.983 GiB of trajectories" in lines[0]
    assert not (tmp_path / "out").exists()


def test_trajectory_memory_check_maps_what_it_needs_and_closes_it(
        monkeypatch):
    import mmap

    maps = []

    class Recorded:
        def __init__(self, fileno, length):
            maps.append([fileno, length, False])

        def close(self):
            maps[-1][2] = True

    monkeypatch.setattr(mmap, "mmap", Recorded)
    check_trajectory_memory("x", 3, 5, 2.5)
    assert maps == [[-1, 8 * 3 * 5 * 2.5, True]]

    def refused(fileno, length):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refused)
    with pytest.raises(InvalidParameterError) as err:
        check_trajectory_memory("the x", 2**20, 64, 2)
    assert str(err.value) == "the x needs 1 GiB of trajectories, more than " \
                             "this process can map"


def test_trajectory_memory_check_bounds_by_physical_memory(monkeypatch):
    import mmap

    def never(fileno, length):
        raise AssertionError("mapped past physical memory")

    page = os.sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(mmap, "mmap", never)
    monkeypatch.setattr(os, "sysconf", lambda name: 2**18 if name ==
                        "SC_PHYS_PAGES" else page)
    with pytest.raises(InvalidParameterError) as err:
        check_trajectory_memory("x", 2**18 * page // 16 + 1, 1, 2)
    assert "of trajectories, more than the" in str(err.value)
    assert f"the {2**18 * page / 2**30:.3g} GiB of memory this machine " \
           f"has" in str(err.value)


def test_cli_sample_rejects_a_student_of_another_dim(monkeypatch, tmp_path,
                                                     capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a student of another dim")

    monkeypatch.setattr(cli_module, "student_sample", no_sampling)
    path = tmp_path / "one_d.cfg"
    path.write_text(EXPLICIT.format(means="-1; 1"))
    student = str(_saved_student(tmp_path))
    for flags in (["--checkpoint", student],
                  ["--checkpoint", student, "--baseline", student]):
        line = _cli_error_line(["sample", "--config", str(path), "--out",
                                str(tmp_path / "out")] + flags, capsys)
        assert "--checkpoint is a student of dim 2" in line
        assert "teacher's dim is 1" in line
        assert not (tmp_path / "out").exists()


def test_student_trace_check_counts_a_shelf_of_stacked_sub_steps(
        monkeypatch):
    # Beside the trace, evaluation holds the gap to the reference (1 float
    # per state and row) and, earlier, one shelf's stacked sub-steps (under
    # dim / nfe): at one shelf and two coordinates the sub-steps weigh more.
    def stop_at_the_trace(what, states, rows, dim):
        if what.startswith("the student trace"):
            raise InvalidParameterError(f"{dim} floats")

    monkeypatch.setattr(harness_module, "check_trajectory_memory",
                        stop_at_the_trace)
    for nfe, floats in ((1, 4.0), (2, 3.0), (3, 3.0)):
        with pytest.raises(InvalidParameterError, match=f"^{floats} floats"):
            run_distillation(tiny_run_config(nfe=nfe))


def test_cli_diverging_run_prints_one_error_line(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path, base_lr=1e300)
    # a numpy warning would print above the error line outside pytest
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["distill", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: training step ")


def test_cli_ragged_layout_exits_two_with_line(tmp_path, capsys):
    path = tmp_path / "ragged.cfg"
    path.write_text(EXPLICIT.format(means="1 0; 2"))
    code = main(["distill", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert ":4:" in captured.err


@pytest.mark.parametrize("argv", [
    ["distill", "--seed", "-1"],
    ["ablate", "--studies", "gamma_mode,bogus"],
    ["ablate", "--studies", "gamma_mode,gamma_mode"],
    ["ablate", "--seeds", "0,x"],
    ["ablate", "--seeds=-1"],
    ["ablate", "--seeds", "0,0"],
])
def test_cli_bad_seed_or_study_exits_two_before_training(monkeypatch,
                                                         tmp_path, capsys,
                                                         argv):
    counts = _count_calls(monkeypatch, "distill_train")
    code = main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert counts["distill_train"] == 0
    assert not (tmp_path / "out").exists()


def test_cli_missing_checkpoint_exits_two(tmp_path, capsys):
    # a structurally broken checkpoint must exit through the error path
    path = tmp_path / "broken.ckpt"
    path.write_bytes(b"NOTAFLOWxxxxxxxxxxxxxxxx")
    code = main(["sample", "--checkpoint", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["verify", "distill", "ablate", "sample"])
def test_cli_print_defaults_text_is_pinned(command, capsys):
    assert main([command, "--print-defaults"]) == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG_TEXT


@pytest.mark.parametrize("argv", [
    ["ablate", "--seed", "5"],
    ["verify", "--seed", "3"],
    ["verify", "--config", "nothing"],
    ["verify", "--out", "somewhere"],
])
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_sample_requires_checkpoint(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["sample"])
    assert exit_.value.code == 2
    assert "required: --checkpoint" in capsys.readouterr().err


def _cli_error_line(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def _saved_student(tmp_path):
    from arcflow.distill import build_student_net

    path = tmp_path / "student.ckpt"
    build_student_net(DistillConfig(num_modes=2), dim=2).save(path)
    return path


@pytest.mark.parametrize("count", ["-1", "0"])
def test_cli_sample_count_below_one_exits_two(tmp_path, capsys, count):
    out = tmp_path / "out"
    line = _cli_error_line(["sample", "--checkpoint",
                            str(_saved_student(tmp_path)), "--count", count,
                            "--out", str(out)], capsys)
    assert "--count" in line
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--count", "100000000000"],
                                   ["--nfe", "1000000000"]])
def test_cli_sample_too_big_exits_two_before_the_teacher(
        monkeypatch, tmp_path, capsys, flags):
    # each ended in a raw MemoryError traceback with exit 1
    counts = _count_calls(monkeypatch, "build_teacher")
    out = tmp_path / "out"
    line = _cli_error_line(["sample", "--checkpoint",
                            str(_saved_student(tmp_path)), "--out",
                            str(out)] + flags, capsys)
    assert "GiB of trajectories" in line and flags[1] in line
    assert counts == {"build_teacher": 0}
    assert not out.exists()


def test_cli_memory_error_is_one_error_line(monkeypatch, tmp_path, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.58 GiB for an array")

    monkeypatch.setattr(cli_module, "student_sample", no_memory)
    line = _cli_error_line(["sample", "--checkpoint",
                            str(_saved_student(tmp_path)), "--out",
                            str(tmp_path / "out")], capsys)
    assert line == "error: out of memory: Unable to allocate 3.58 GiB for " \
                   "an array"


def test_config_text_and_argv_fail_as_arcflow_errors(tmp_path):
    """tests/input_fuzz.py under a 1 GiB address-space limit: mutated config
    text parses or raises a ConfigError with a line number, and fuzzed
    `arcflow sample` argv exits 0 or 2 with one error line, with no other
    exception and no warning."""
    path = _saved_student(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("input_fuzz.py")),
         str(1 << 30), str(path), str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


@pytest.mark.parametrize("argv", [
    ["distill", "--config", "{missing}"],
    ["ablate", "--config", "{missing}"],
    ["sample", "--checkpoint", "{missing}"],
    ["sample", "--checkpoint", "{student}", "--baseline", "{missing}"],
])
def test_cli_missing_file_exits_two(monkeypatch, tmp_path, capsys, argv):
    counts = _count_calls(monkeypatch, "distill_train", "build_teacher")
    missing = tmp_path / "nope.file"
    student = _saved_student(tmp_path)
    argv = [arg.format(missing=missing, student=student) for arg in argv]
    out = tmp_path / "out"
    line = _cli_error_line(argv + ["--out", str(out)], capsys)
    assert str(missing) in line
    assert counts == {"distill_train": 0, "build_teacher": 0}
    assert not out.exists()


@pytest.mark.parametrize("argv,module,stage", [
    (["distill"], harness_module, "distill_train"),
    (["ablate"], harness_module, "run_ablation"),
    (["sample", "--checkpoint", "{student}"], cli_module, "student_sample"),
], ids=["distill", "ablate", "sample"])
def test_cli_unwritable_out_exits_two_before_any_work(
        monkeypatch, tmp_path, capsys, argv, module, stage):
    # an --out under a regular file used to fail only once the run was
    # done, with a raw NotADirectoryError and exit 1
    def never(*args, **kwargs):
        raise AssertionError(f"{stage} ran before the output directory")

    monkeypatch.setattr(module, stage, never)
    student = _saved_student(tmp_path)   # a regular file
    out = student / "x"
    argv = [arg.format(student=student) for arg in argv]
    line = _cli_error_line(argv + ["--out", str(out)], capsys)
    assert str(out) in line and "cannot make output directory" in line
    assert "Not a directory" in line
