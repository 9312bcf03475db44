import dataclasses
import json
import time

import numpy as np
import pytest

import arcflow
from arcflow import harness, nnet
from spans import ROOT, SPANS, Tracer, self_times, summarize


def _rec(idx, parent, name, start, end):
    return (idx, parent, name, start, end, 0)


def test_self_time_of_nested_and_back_to_back_spans():
    records = [
        _rec(2, 1, "leaf", 2.0, 3.0),
        _rec(1, 0, "a", 1.0, 4.0),
        _rec(3, 0, "b", 4.0, 7.0),      # starts where "a" ends
        _rec(0, -1, ROOT, 0.0, 10.0),
    ]
    own = self_times(records)
    assert own == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0}
    assert sum(own.values()) == 10.0   # self times add up to the root


def test_summarize_adds_spans_of_one_name():
    records = [
        _rec(1, 0, "f", 1.0, 2.0),
        _rec(2, 0, "f", 3.0, 3.5),
        _rec(0, -1, ROOT, 0.0, 4.0),
    ]
    out = summarize(records)
    assert out["f"] == (2, 1.5, 1.5)
    assert out[ROOT] == (1, 4.0, 2.5)


def _small_run(out_dir, seed=4):
    cfg = harness.RunConfig()
    cfg = dataclasses.replace(
        cfg,
        distill=dataclasses.replace(cfg.distill, total_steps=30, seed=seed),
        run=dataclasses.replace(cfg.run, metric_samples=64, teacher_steps=8))
    harness.run_distillation(cfg, out_dir=out_dir)
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_bytes()
    metrics = json.loads(files.pop("metrics.json"))
    metrics.pop("wall_time_s")
    return files, metrics


def test_traced_run_is_byte_identical_and_restores_the_package(tmp_path):
    originals = {
        "harness.run_distillation": harness.run_distillation,
        "package.student_sample": arcflow.student_sample,
        "forward": nnet.StudentNet.__dict__["forward"],
        "load": nnet.StudentNet.__dict__["load"],
        "view": nnet.StudentNet.__dict__["view"],
    }
    plain = _small_run(tmp_path / "plain")
    tracer = Tracer()
    traced, layers, counts = tracer.run_job(0, _small_run, tmp_path / "t1")
    again, layers2, counts2 = tracer.run_job(1, _small_run, tmp_path / "t2")

    assert traced == plain and again == plain
    assert counts == counts2
    assert {k: v[0] for k, v in layers.items()} == \
        {k: v[0] for k, v in layers2.items()}
    assert layers["nnet.forward"][0] == 30 + 2    # training + 2-NFE eval
    assert layers["harness.write_loss_csv"][0] == 1
    assert counts["nnet.view.calls"] > 0
    # self times of one job add up to its root span
    total = sum(v[2] for v in layers.values())
    assert total == pytest.approx(layers[ROOT][1], rel=1e-9)

    assert harness.run_distillation is originals["harness.run_distillation"]
    assert arcflow.student_sample is originals["package.student_sample"]
    for name in ("forward", "load", "view"):
        assert nnet.StudentNet.__dict__[name] is originals[name]


def test_every_span_target_exists():
    import importlib

    for name, module_name, attr, cls_name in SPANS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert attr in vars(owner), name


def test_energy_distance_and_ablation_counts():
    rng = np.random.default_rng(0)
    xs, ys = rng.standard_normal((50, 2)), rng.standard_normal((30, 2))
    # look the names up at call time, as callers inside the package do
    _, layers, counts = Tracer().run_job(
        0, lambda: harness.energy_distance(xs, ys))
    assert layers["harness.energy_distance"][0] == 1
    pairs = 50 * 30 + 50 * 50 + 30 * 30
    assert counts["harness.energy_distance.pairs"] == pairs
    assert counts["harness.energy_distance.bytes_computed"] == 8 * pairs
    # the blocks are counted as formed, whatever the chunking
    _, _, counts = Tracer().run_job(
        0, lambda: harness.energy_distance(xs, ys, chunk=7))
    assert counts["harness.energy_distance.pairs"] == pairs
    assert harness.np is np

    cfg = harness.RunConfig()
    cfg = dataclasses.replace(
        cfg, distill=dataclasses.replace(cfg.distill, guidance_steps=2),
        run=dataclasses.replace(cfg.run, metric_samples=16, teacher_steps=4))
    rows, layers, counts = Tracer().run_job(
        0, lambda: harness.run_ablation(cfg, ("gamma_mode", "sharing"), (0,)))
    assert len(rows) == 6
    assert counts["harness.run_ablation.cells"] == 6
    assert counts["harness.run_ablation.distinct_cells"] == 5


def test_wrapper_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        time.sleep(0.001)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.run_job(0, boom)
    assert [r[2] for r in tracer.records] == [ROOT]
    assert harness.energy_distance.__module__ == "arcflow.harness"
    assert not hasattr(harness.energy_distance, "__wrapped__")


def test_latent_state_counts_only_bytes_it_copies(monkeypatch):
    from arcflow import momentum

    x = np.zeros((4, 2))
    _, _, counts = Tracer().run_job(0, lambda: momentum.LatentState(x, 0.5))
    assert counts["momentum.LatentState.bytes_copied"] == x.nbytes

    # a construction that keeps the caller's buffer copies nothing
    def keep(arr, dtype=float):
        return np.asarray(arr, dtype=dtype)

    monkeypatch.setattr(momentum, "_as_readonly", keep)
    _, _, counts = Tracer().run_job(0, lambda: momentum.LatentState(x, 0.5))
    assert counts["momentum.LatentState.bytes_copied"] == 0
