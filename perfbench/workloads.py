"""The benchmark's four workloads.

Each workload builds its inputs from the run seed in set-up, then serves
jobs: job(inputs(key)) runs one unit of work through arcflow's public API
and is the only timed call.  digest(result) hashes every output the job
promises, so two jobs on the same key must give equal digests, traced or
not.  check(key, result) returns the reasons the result is wrong, empty when
it is right.

The program sees only what set-up writes or draws here: config files,
noise arrays and checkpoints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

B_SAMPLE = 2048
B_TRANSPORT = 10_000
TRANSPORT_STEPS = 200
# harness.ablation_budget trains 2 * guidance_steps per cell; 250 lets two
# or three grids fit in one run's measuring window.
GRID_GUIDANCE_STEPS = 250
GRID_STUDIES = ("gamma_mode", "sharing")
# run_ablation's gamma_mode/learnable and sharing/all_per_mode cells are the
# same configuration.
GRID_TWINS = (("gamma_mode", "learnable"), ("sharing", "all_per_mode"))
ARTIFACTS = ("config.txt", "student.ckpt", "metrics.json", "loss.csv",
             "trajectories.csv", "overlay.svg")


@dataclass
class Result:
    quality: float = float("nan")  # the job's quality figure, if it has one
    detail: object = None          # the raw output; dropped after the check
    digest: str = ""


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _finite(value) -> bool:
    return bool(np.isfinite(value).all())


class Workload:
    name = ""
    job_unit = "job"

    def __init__(self, arc, seed: int, workdir: Path):
        self.arc = arc
        self.seed = int(seed) % 2 ** 32   # numpy seeds are non-negative
        self.workdir = workdir
        self.config_path = workdir / "run.cfg"
        self.checkpoint_path = None

    def write_config(self, cfg):
        self.config_path.write_text(self.arc.harness.format_run_config(cfg))
        return self.arc.harness.load_run_config(self.config_path)

    def key(self, index: int) -> int:
        """The input key of the index-th job; equal keys, equal outputs."""
        return 0

    def inputs(self, key: int):
        """Untimed: the argument job() gets for this key."""
        return key

    def warmup(self):
        raise NotImplementedError

    def job(self, inputs) -> Result:
        raise NotImplementedError

    def digest(self, result: Result) -> str:
        raise NotImplementedError

    def check(self, key: int, result: Result) -> list:
        return []

    def summary(self, results) -> dict:
        """Workload-specific report figures, name -> (value, unit)."""
        return {}


class DistillRef(Workload):
    """One full reference run_distillation with artifacts."""

    name = "distill_ref"
    job_unit = "run"

    def __init__(self, arc, seed, workdir):
        super().__init__(arc, seed, workdir)
        base = arc.harness.RunConfig()
        self.cfg = self.write_config(dataclasses.replace(
            base, distill=dataclasses.replace(base.distill, seed=self.seed)))
        self._runs = 0

    def _run(self, cfg) -> Result:
        out = self.workdir / f"run{self._runs}"
        self._runs += 1
        report, _, _ = self.arc.harness.run_distillation(cfg, out_dir=out)
        return Result(report.endpoint_mse, out)

    def digest(self, result):
        out = result.detail
        missing = [name for name in ARTIFACTS if not (out / name).is_file()]
        if missing:
            return "missing " + ",".join(missing)
        metrics = json.loads((out / "metrics.json").read_text())
        metrics.pop("wall_time_s")
        chunks = [(out / name).read_bytes() for name in ARTIFACTS
                  if name != "metrics.json"]
        chunks.append(json.dumps(metrics, sort_keys=True).encode())
        return _sha(*chunks)

    def warmup(self):
        cfg = dataclasses.replace(
            self.cfg,
            distill=dataclasses.replace(self.cfg.distill, total_steps=20),
            run=dataclasses.replace(self.cfg.run, metric_samples=64,
                                    teacher_steps=10))
        self._run(cfg)

    def job(self, inputs):
        return self._run(self.cfg)

    def check(self, key, result):
        if result.digest.startswith("missing"):
            return [result.digest]
        return [] if _finite(result.quality) else ["non-finite endpoint_mse"]

    def summary(self, results):
        return {"endpoint_mse": (statistics.median(r.quality for r in results),
                                 "dist2")}


class Sample2Nfe(Workload):
    """student_sample calls on fresh noise from a saved and reloaded net."""

    name = "sample_2nfe"
    job_unit = "call"
    nfe = 2
    dense = 16
    # Every this many calls the dense chain is checked against single steps,
    # and the first call's noise is sampled again.
    check_every = 16
    repeat_every = 25

    def __init__(self, arc, seed, workdir):
        super().__init__(arc, seed, workdir)
        self.cfg = self.write_config(arc.harness.RunConfig())
        ref = arc.distill.build_student_net(self.cfg.distill, 2, init_seed=0)
        self.checkpoint_path = workdir / "reference.ckpt"
        ref.save(self.checkpoint_path)
        self.net = arc.nnet.StudentNet.load(self.checkpoint_path)

    def key(self, index):
        return 0 if index % self.repeat_every == self.repeat_every - 1 \
            else index

    def inputs(self, key):
        return np.random.default_rng([self.seed, key]).standard_normal(
            (B_SAMPLE, 2))

    def warmup(self):
        for key in range(3):
            self.job(self.inputs(key))

    def job(self, noise):
        return Result(detail=self.arc.distill.student_sample(
            self.net, noise, self.nfe, self.dense))

    def digest(self, result):
        rec = result.detail
        return _sha(rec.positions.tobytes(), rec.times.tobytes())

    def check(self, key, result):
        rec = result.detail
        if not _finite(rec.positions):
            return ["non-finite sample"]
        if key % self.check_every:
            return []
        # student_sample documents that its anchored dense chain lands on
        # the single whole-shelf step up to a few ulps; tests/test_distill
        # bounds that with rtol 1e-12, atol 1e-13.
        solver, momentum = self.arc.solver, self.arc.momentum
        for shelf in range(self.nfe):
            hi = rec.states[shelf * self.dense]
            lo = rec.states[(shelf + 1) * self.dense]
            theta = self.net.forward(hi.x, hi.t)
            single = solver.step(momentum.LatentState(hi.x, hi.t), theta,
                                 lo.t)
            if not np.allclose(lo.x, single.x, rtol=1e-12, atol=1e-13):
                gap = float(np.max(np.abs(lo.x - single.x)))
                return [f"shelf {shelf}: dense chain off single step by {gap}"]
        return []


class TransportCheck(Workload):
    """The gate's transport oracle: many-step Euler transport of the teacher,
    scored by energy distance against fresh data draws."""

    name = "transport_check"
    job_unit = "check"

    def __init__(self, arc, seed, workdir):
        super().__init__(arc, seed, workdir)
        self.cfg = self.write_config(arc.harness.RunConfig())
        self.teacher = arc.harness.build_teacher(self.cfg)
        rng = np.random.default_rng([self.seed, 0])
        self.noise = rng.standard_normal((B_TRANSPORT, self.teacher.dim))
        self._endpoint = None

    def key(self, index):
        return index

    def _transport(self, noise, data_rng):
        teacher = self.teacher
        rec = self.arc.teacher.euler_sample(teacher.velocity, noise,
                                            TRANSPORT_STEPS)
        data = teacher.sample_data(data_rng, noise.shape[0])
        ed = self.arc.harness.energy_distance(rec.endpoint, data)
        return Result(ed, rec.endpoint)

    def warmup(self):
        self._transport(self.noise[:2048],
                        np.random.default_rng([self.seed, 2]))

    def job(self, key):
        return self._transport(self.noise,
                               np.random.default_rng([self.seed, 1, key]))

    def digest(self, result):
        return _sha(result.detail.tobytes(),
                    np.float64(result.quality).tobytes())

    def check(self, key, result):
        endpoint = result.detail
        if not _finite(endpoint) or not np.isfinite(result.quality):
            return ["non-finite transport"]
        if self._endpoint is None:
            self._endpoint = endpoint.tobytes()
        elif endpoint.tobytes() != self._endpoint:
            return ["Euler endpoints differ from the first check's"]
        return []

    def summary(self, results):
        return {"transport_ed": (statistics.median(r.quality for r in results),
                                 "dist2")}


class AblateGrid(Workload):
    """run_ablation over the momentum-mode and head-sharing studies."""

    name = "ablate_grid"
    job_unit = "grid"

    def __init__(self, arc, seed, workdir):
        super().__init__(arc, seed, workdir)
        base = arc.harness.RunConfig()
        self.cfg = self.write_config(dataclasses.replace(
            base, distill=dataclasses.replace(
                base.distill, guidance_steps=GRID_GUIDANCE_STEPS)))

    def _grid(self, cfg) -> Result:
        rows = self.arc.harness.run_ablation(cfg, studies=GRID_STUDIES,
                                             seeds=(self.seed,))
        return Result(statistics.median(row[3] for row in rows), rows)

    def digest(self, result):
        exact = repr([(s, c, k, float(m).hex(), float(l).hex())
                      for s, c, k, m, l in result.detail])
        return _sha(exact.encode())

    def warmup(self):
        cfg = dataclasses.replace(
            self.cfg,
            distill=dataclasses.replace(self.cfg.distill, guidance_steps=5),
            run=dataclasses.replace(self.cfg.run, metric_samples=64,
                                    teacher_steps=10))
        self._grid(cfg)

    def job(self, inputs):
        return self._grid(self.cfg)

    def check(self, key, result):
        rows = result.detail
        values = [v for row in rows for v in row[3:]]
        if not _finite(values):
            return ["non-finite ablation row"]
        twins = [row[3:] for row in rows if (row[0], row[1]) in GRID_TWINS]
        if len(twins) != 2 or twins[0] != twins[1]:
            return [f"identical cells disagree: {twins}"]
        return []

    def summary(self, results):
        return {"endpoint_mse": (statistics.median(r.quality for r in results),
                                 "dist2")}


WORKLOADS = {w.name: w for w in (DistillRef, Sample2Nfe, TransportCheck,
                                 AblateGrid)}
