"""End-to-end runs of the benchmark command on a seed kept out of tuning."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
HELD_OUT_SEED = 90210
COUNT_SUFFIXES = (".calls", ".rows", ".pairs", ".bytes_copied",
                  ".bytes_computed", ".cells")


def _run(cwd, workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("env ")
    env = json.loads(lines[-2][4:])
    assert {"nproc", "cpu", "python", "numpy", "scipy", "blas", "git_commit",
            "src_lines"} <= set(env)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_held_out_seed_reports_every_end_to_end_metric():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    result = _result(_run(REPO, "sample_2nfe", HELD_OUT_SEED, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
    for spec in bench["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


def test_two_traced_runs_of_one_seed_count_the_same():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    first = _result(_run(REPO, "sample_2nfe", HELD_OUT_SEED, 1))
    second = _result(_run(REPO, "sample_2nfe", HELD_OUT_SEED, 1))
    assert first["correct"] and second["correct"]
    names = [m["name"] for m in bench["per_layer"]]
    assert list(first["metrics"]) == names
    for spec in bench["per_layer"]:
        assert first["metrics"][spec["name"]]["unit"] == spec["unit"]
    counts = [n for n in names if n.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["distill.student_sample.calls"]["value"] == 1
    assert first["metrics"]["solver.sub_interval_displacement.calls"][
        "value"] == 32


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "distill_ref", HELD_OUT_SEED, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
