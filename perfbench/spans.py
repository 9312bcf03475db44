"""Span tracing of arcflow's public functions from outside the package.

The tracer swaps each traced function for a wrapper in every arcflow module
namespace that holds it (``from .solver import sub_interval_displacement``
gives distill its own name to patch), and methods on their classes, so the
package itself is not edited.  A span is (id, parent id, name, start, end,
job id); spans and counters stay in memory until the benchmark writes them.

Self time of a span is its duration minus the union of its direct children's
intervals.  Every traced job runs under a root span named ``job``, so the
root's self time is the part of the job no layer span explains, and the self
times of one job add up to its wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from stats import union_length

ROOT = "job"

# (span name, module holding the name, attribute, class or None).
SPANS = (
    ("teacher.gmm_velocity", "arcflow.teacher", "gmm_velocity", None),
    ("teacher.sample_data", "arcflow.teacher", "sample_data", None),
    ("teacher.euler_sample", "arcflow.teacher", "euler_sample", None),
    ("solver.sub_interval_displacement", "arcflow.solver",
     "sub_interval_displacement", None),
    ("solver.displacement", "arcflow.solver", "displacement", None),
    ("momentum.MomentumParams", "arcflow.momentum", "__post_init__",
     "MomentumParams"),
    ("momentum.LatentState", "arcflow.momentum", "__post_init__",
     "LatentState"),
    ("nnet.forward", "arcflow.nnet", "forward", "StudentNet"),
    ("nnet.backward", "arcflow.nnet", "backward", "StudentNet"),
    ("nnet.adam_step", "arcflow.nnet", "adam_step", None),
    ("nnet.save", "arcflow.nnet", "save", "StudentNet"),
    ("nnet.load", "arcflow.nnet", "load", "StudentNet"),
    ("distill.distill_train", "arcflow.distill", "distill_train", None),
    ("distill.init_shelf_state", "arcflow.distill", "init_shelf_state", None),
    ("distill.mixed_integration", "arcflow.distill", "mixed_integration",
     None),
    ("distill.velocity_matching_loss", "arcflow.distill",
     "velocity_matching_loss", None),
    ("distill.student_sample", "arcflow.distill", "student_sample", None),
    ("harness.build_teacher", "arcflow.harness", "build_teacher", None),
    ("harness.evaluate_student", "arcflow.harness", "evaluate_student", None),
    ("harness.run_distillation", "arcflow.harness", "run_distillation", None),
    ("harness.write_loss_csv", "arcflow.harness", "write_loss_csv", None),
    ("harness.write_trajectory_csv", "arcflow.harness",
     "write_trajectory_csv", None),
    ("svg.trajectory_overlay_svg", "arcflow.svg", "trajectory_overlay_svg",
     None),
    ("harness.energy_distance", "arcflow.harness", "energy_distance", None),
    ("harness.run_ablation", "arcflow.harness", "run_ablation", None),
)

# Exact counters, all per job.
COUNTS = (
    "teacher.gmm_velocity.rows",
    "solver.sub_interval_displacement.rows",
    "momentum.LatentState.bytes_copied",
    "nnet.view.calls",
    "harness.energy_distance.pairs",
    "harness.energy_distance.bytes_computed",
    "harness.run_ablation.cells",
    "harness.run_ablation.distinct_cells",
)


def _rows(result):
    return result.size // result.shape[-1]


def _count_gmm(tracer, args):
    def after(result):
        tracer.counts["teacher.gmm_velocity.rows"] += _rows(result)
    return after


def _count_sub_interval(tracer, args):
    def after(result):
        tracer.counts["solver.sub_interval_displacement.rows"] += \
            _rows(result)
    return after


def _count_latent(tracer, args):
    given = args[0].x

    def after(result):
        # Bytes of a new buffer only: a state that keeps the caller's array
        # (or a view of it) copies nothing.
        kept = args[0].x
        if not (isinstance(given, np.ndarray)
                and np.shares_memory(given, kept)):
            tracer.counts["momentum.LatentState.bytes_copied"] += kept.nbytes
    return after


def _count_cell(tracer, args):
    if "harness.run_ablation" in tracer.open_names():
        tracer.counts["harness.run_ablation.cells"] += 1
        tracer.cells_seen.add(args[0])


# A counter is called with the tracer and the call's arguments before the
# call, and returns None or a function that takes the call's result after it.
COUNTERS = {
    "teacher.gmm_velocity": _count_gmm,
    "solver.sub_interval_displacement": _count_sub_interval,
    "momentum.LatentState": _count_latent,
    "harness.run_distillation": _count_cell,
}


class _DistanceProbe:
    """Stands in for numpy in arcflow.harness while traced.  Every pairwise
    distance energy_distance forms passes through np.sqrt, so the arrays it
    takes there while energy_distance is the innermost open span are the
    distance blocks: their elements are the pairs and their bytes the bytes
    computed.  Everything else is numpy itself."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, x, *args, **kwargs):
        out = np.sqrt(x, *args, **kwargs)
        stack = self._tracer._stack
        if stack and stack[-1][1] == "harness.energy_distance":
            counts = self._tracer.counts
            counts["harness.energy_distance.pairs"] += out.size
            counts["harness.energy_distance.bytes_computed"] += out.nbytes
        return out


def self_times(records) -> dict:
    """Self seconds per span id for records (id, parent, name, start, end,
    ...): duration minus the union of the direct children's intervals."""
    children = defaultdict(list)
    for rec in records:
        if rec[1] >= 0:
            children[rec[1]].append((rec[3], rec[4]))
    return {rec[0]: (rec[4] - rec[3])
            - union_length(children.get(rec[0], ()), rec[3], rec[4])
            for rec in records}


def summarize(records) -> dict:
    """Per-name calls, busy seconds and self seconds of one job's spans."""
    selfs = self_times(records)
    out = {}
    for rec in records:
        calls, busy, own = out.get(rec[2], (0, 0.0, 0.0))
        out[rec[2]] = (calls + 1, busy + rec[4] - rec[3], own + selfs[rec[0]])
    return out


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.records = []
        self.counts = Counter()
        self.cells_seen = set()
        self.job = None
        self._stack = []
        self._next = 0
        self._restore = []

    def open_names(self):
        return [name for _, name in self._stack]

    def _wrap(self, name, fn, counter):
        records, stack, clock = self.records, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            after = counter(self, args) if counter is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.append((idx, parent, name, start, end, self.job))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_views(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["nnet.view.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Swap the wrappers in; uninstall() puts the originals back."""
        for _, module_name, _, _ in SPANS:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items()
                   if key == "arcflow" or key.startswith("arcflow.")]
        for name, module_name, attr, cls_name in SPANS:
            module = sys.modules[module_name]
            counter = COUNTERS.get(name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__,
                                                     counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                self._patch(cls, attr, wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, counter)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, wrapped)
        student = sys.modules["arcflow.nnet"].StudentNet
        self._patch(student, "view",
                    self._count_views(student.__dict__["view"]))
        self._patch(sys.modules["arcflow.harness"], "np",
                    _DistanceProbe(self))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as traced job job_id under a root span; returns
        (result, per-job summary, per-job counts)."""
        self.job = job_id
        first = len(self.records)
        self.counts = Counter()
        self.cells_seen = set()
        try:
            self.install()
            result = self._wrap(ROOT, fn, None)(*args)
        finally:
            self.uninstall()
        if self.counts["harness.run_ablation.cells"]:
            self.counts["harness.run_ablation.distinct_cells"] = len(
                self.cells_seen)
        return (result, summarize(self.records[first:]),
                {key: self.counts[key] for key in COUNTS})

    def write_csv(self, path):
        """All spans of the run, one line each, in completion order."""
        lines = ["job,id,parent,name,start,end"]
        for idx, parent, name, start, end, job in self.records:
            lines.append(f"{job},{idx},{parent},{name},{start!r},{end!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

