"""arcflow benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Jobs
run as a closed loop (the next starts when the previous has returned) for
about S seconds: a job starts only if a job as long as the median one so far
would end within S seconds.  A run never does fewer than two, so it can
compare repeated outputs.  Set-up time is taken in fresh processes before the loop.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced jobs on the same inputs, requires their outputs to be byte-identical,
prints the per-layer metrics (per job) and writes every span to
.bench_work/traces/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a readable report and the machine description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("distill_ref", "sample_2nfe", "transport_check",
                  "ablate_grid")
WORK_ROOT = ".bench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def setup_samples(src: Path, wl) -> list:
    """(import_s, build_s) from SETUP_SAMPLES fresh processes, in turn."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src),
           str(wl.config_path)]
    if wl.checkpoint_path is not None:
        cmd.append(str(wl.checkpoint_path))
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((row["import_s"], row["build_s"]))
    return out


class Loop:
    """Runs and checks jobs, and keeps what the report needs of them."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.results = []
        self.times = {"untraced": [], "traced": []}
        self.layers = []       # per traced job: {span: (calls, busy, self)}
        self.counts = []       # per traced job: {counter: value}

    def attempt(self, index, key, traced=False):
        self.attempted += 1
        inputs = self.wl.inputs(key)
        start = time.perf_counter()
        try:
            if traced:
                result, layers, counts = self.tracer.run_job(
                    index, self.wl.job, inputs)
            else:
                result = self.wl.job(inputs)
        except Exception:
            self.times["traced" if traced else "untraced"].append(
                time.perf_counter() - start)
            self._fail(index, traceback.format_exc())
            return
        elapsed = time.perf_counter() - start
        self.times["traced" if traced else "untraced"].append(elapsed)
        result.digest = self.wl.digest(result)
        problems = self.wl.check(key, result)
        first = self.digests.setdefault(key, result.digest)
        if result.digest != first:
            problems.append(f"output differs from an earlier job on input "
                            f"{key}" + (" (traced)" if traced else ""))
        if traced:
            self.layers.append(layers)
            self.counts.append(
                (counts, {n: v[0] for n, v in layers.items()}))
            if self.counts[0] != self.counts[-1]:
                problems.append("per-layer counts differ between traced jobs")
        result.detail = None
        if problems:
            self._fail(index, "; ".join(problems))
        else:
            self.results.append(result)

    def _fail(self, index, why):
        self.failed += 1
        print(f"FAILED job {index}: {why}", file=sys.stderr)

    def run(self, seconds):
        """Jobs until the next one, as long as the median before it, would
        end after seconds; never fewer than two."""
        start = time.perf_counter()
        lengths = []
        index = 0
        while (index < 2 or time.perf_counter() - start
               + statistics.median(lengths) <= seconds):
            began = time.perf_counter()
            key = self.wl.key(index)
            self.attempt(index, key)
            if self.tracer is not None:
                self.attempt(index, key, traced=True)
            lengths.append(time.perf_counter() - began)
            index += 1


def end_to_end(loop, setup) -> tuple:
    times = loop.times["untraced"]
    setup_s = [i + b for i, b in setup]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_s)} fresh processes",
             "run_s": f"median of {len(times)} {loop.wl.job_unit}s"}
    tail = stats.tail_percentile(times)
    if tail is None:
        notes["run_s"] += "; no tail percentile has 10 samples beyond it"
        if len(times) <= 10:
            notes["run_s"] += ": " + " ".join(f"{t:.4g}" for t in times)
    else:
        notes["run_s"] += f"; p{tail[0]:g} {tail[1]!r} s"
    extra = {}
    if loop.wl.name == "sample_2nfe":
        import numpy as np
        from workloads import B_SAMPLE

        ms = [t * 1e3 for t in times]
        extra["samples_per_s"] = (B_SAMPLE * len(times) / sum(times), "1/s")
        p50, p90 = np.percentile(ms, [50, 90])
        extra["call_ms_p50"] = (float(p50), "ms")
        extra["call_ms_p90"] = (float(p90), "ms")
    if loop.results:
        extra.update(loop.wl.summary(loop.results))
    extra["fail_ratio"] = (loop.failed / loop.attempted, "ratio")
    return metrics, notes, extra


def per_layer(loop, setup) -> dict:
    import spans

    metrics = {}
    n = len(loop.layers)
    counts, calls = loop.counts[0] if loop.counts else ({}, {})
    for name, *_ in spans.SPANS:
        busy = sum(job.get(name, (0, 0.0, 0.0))[1] for job in loop.layers)
        own = sum(job.get(name, (0, 0.0, 0.0))[2] for job in loop.layers)
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.busy_s"] = (busy / n if n else 0.0, "s")
        metrics[f"{name}.self_s"] = (own / n if n else 0.0, "s")
    for name in spans.COUNTS:
        metrics[name] = (counts.get(name, 0),
                         "bytes" if ".bytes_" in name else "count")
    metrics["setup.import_s"] = (statistics.median(i for i, _ in setup), "s")
    metrics["setup.build_s"] = (statistics.median(b for _, b in setup), "s")
    root = [job[spans.ROOT] for job in loop.layers]
    metrics["trace.job_s"] = (sum(r[1] for r in root) / n if n else 0.0, "s")
    metrics["trace.unexplained_s"] = (sum(r[2] for r in root) / n
                                      if n else 0.0, "s")
    overhead = 0.0
    if loop.times["traced"] and loop.times["untraced"]:
        overhead = (statistics.median(loop.times["traced"])
                    - statistics.median(loop.times["untraced"]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def print_report(title, metrics, notes, extra):
    print(title)
    for name, (value, unit) in {**metrics, **extra}.items():
        note = notes.get(name, "")
        print(f"  {name:<42} {value!r:>24} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "arcflow" / "__init__.py").is_file():
        print("perfbench: ./src/arcflow not found; run from the root of an "
              "arcflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from arcflow import distill, harness, momentum, nnet, solver, teacher
    from workloads import WORKLOADS

    arc = types.SimpleNamespace(distill=distill, harness=harness,
                                momentum=momentum, nnet=nnet, solver=solver,
                                teacher=teacher)
    workdir = root / WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](arc, args.seed, workdir)
        setup = setup_samples(src, wl)
        wl.warmup()
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        loop = Loop(wl, tracer)
        loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    title = (f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics = per_layer(loop, setup)
        job_s = metrics["trace.job_s"][0]
        gap = stats.ratio_with_base(metrics["trace.unexplained_s"][0], job_s)
        overhead = stats.ratio_with_base(metrics["trace.overhead_s"][0],
                                         statistics.median(
                                             loop.times["untraced"]))
        print_report(title, metrics, {}, {})
        print(f"  self times explain the traced job time except "
              f"{gap['value']!r} s of {gap['base']!r} s "
              f"(share {gap['ratio']!r})")
        print(f"  tracing adds {overhead['value']!r} s to a "
              f"{overhead['base']!r} s job (share {overhead['ratio']!r})")
        cells = metrics["harness.run_ablation.cells"][0]
        if cells:
            useful = stats.ratio_with_base(
                metrics["harness.run_ablation.distinct_cells"][0], cells)
            print(f"  {useful['value']} of the grid's {useful['base']} cells "
                  f"are distinct (share {useful['ratio']!r})")
        traces = root / WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(traces / f"{args.workload}-seed{args.seed}.csv")
    else:
        metrics, notes, extra = end_to_end(loop, setup)
        print_report(title, metrics, notes, extra)
    print("env " + json.dumps(machine_info(root), sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
