"""Run-to-run spread and shift of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--sets 2]
                                [--seconds S]

Runs perfbench/run.py --trace 0 once per seed, one run at a time, from the
current directory, and repeats the whole set of seeds --sets times.  For
each set and metric it prints the median and the distance between the first
and third quartile as a share of the median, flagged when it exceeds a third
of the metric's BENCHMARK.json bound.  With two or more sets it also prints
how much worse the last set's median is than the first's, as a share of the
first, flagged when that exceeds the bound.  Exits 1 if a run fails or is
not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_set(workload, seeds, seconds, label):
    """{metric: [value per seed]} and the number of bad runs."""
    values = {}
    bad = 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"{label} seed {seed}: exit {proc.returncode}\n"
                  f"{proc.stderr}")
            bad += 1
            continue
        result = json.loads(last)
        if not result["correct"]:
            bad += 1
        print(f"{label} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    bad = 0
    for i in range(args.sets):
        values, set_bad = run_set(args.workload, args.seeds, seconds,
                                  f"set {i + 1}")
        sets.append(values)
        bad += set_bad

    for name, bound in bounds.items():
        medians = []
        for i, values in enumerate(sets):
            vals = values.get(name, [])
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            medians.append(med)
            spread = stats.quartile_spread(vals)
            flag = " OVER bound/3" if spread > bound / 3 else ""
            print(f"{args.workload} set {i + 1} {name:<12} median {med:.6g} "
                  f"spread {spread:.4f} (bound {bound}){flag}")
        if len(medians) >= 2:
            shift = (medians[-1] - medians[0]) / medians[0]
            flag = " OVER bound" if shift > bound else ""
            print(f"{args.workload} {name:<12} median shift set 1 -> set "
                  f"{len(medians)} {shift:+.4f} (bound {bound}){flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
