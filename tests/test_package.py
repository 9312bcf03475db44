"""The package root: what it exports, what importing it loads, and the
README's library example run as written."""

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import arcflow

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTED = {
    "ArcFlowError",
    "CheckpointFormatError",
    "ConfigError",
    "ConvergenceError",
    "InvalidIntervalError",
    "InvalidParameterError",
    "InvalidProblemError",
    "NumericError",
    "StateError",
    "MomentumParams",
    "LatentState",
    "displacement",
    "step",
    "GmmTeacherSpec",
    "TrajectoryRecord",
    "euler_sample",
    "student_sample",
}

# What perfbench/run.py imports, plus the CLI: none of it needs the oracles.
PRODUCTION_IMPORTS = (
    "import arcflow, arcflow.cli\n"
    "from arcflow import distill, harness, momentum, nnet, solver, teacher\n"
)


def fresh_modules(code):
    """sys.modules keys of a new interpreter after it runs code."""
    env = dict(os.environ)
    src = str(Path(arcflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_package_root_exports_the_documented_surface():
    exported = {name for name, value in vars(arcflow).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == DOCUMENTED
    assert arcflow.__version__ == "0.1.0"


def test_package_import_leaves_oracles_and_harness_unloaded():
    loaded = fresh_modules("import arcflow\n")
    assert {"arcflow.verify", "arcflow.harness",
            "arcflow.interpolation"}.isdisjoint(loaded)
    # euler_sample imports its pool and shared buffer on a batch it splits
    assert [m for m in loaded if m.split(".")[0]
            in ("concurrent", "mmap", "multiprocessing")] == []


def test_production_imports_load_no_scipy():
    # the package is numpy-only: not even the oracles of `arcflow verify`
    # need scipy
    loaded = fresh_modules(PRODUCTION_IMPORTS + "import arcflow.verify\n")
    assert {"arcflow.solver", "arcflow.cli", "arcflow.verify"} <= loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_readme_library_surface_block_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert "(256, 2) (17, 256, 2)" in capsys.readouterr().out


def test_harness_and_cli_imports_load_no_process_pool():
    # run_ablation imports its pool lazily, on a grid that uses one
    loaded = fresh_modules("import arcflow.harness, arcflow.cli\n")
    assert "arcflow.harness" in loaded and "arcflow.cli" in loaded
    assert [m for m in loaded
            if m.split(".")[0] in ("concurrent", "multiprocessing")] == []


def test_one_unit_map_loads_no_process_pool():
    loaded = fresh_modules("from arcflow._pool import map_forked\n"
                           "assert map_forked(pow, 2, [10]) == [1024]\n")
    assert [m for m in loaded
            if m.split(".")[0] in ("concurrent", "multiprocessing")] == []
