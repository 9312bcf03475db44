"""Run configuration, metrics and artifact export.

Config files are plain text with [teacher], [distill] and [run] sections of
key = value lines; full-line # comments are allowed.  The sections are the
fields of RunConfig and their keys the fields of each section's dataclass,
parsed and written by the type of their defaults.  Unknown sections or keys
are hard errors with the offending line number, as are duplicate keys.
The default config IS the desk-scale reference task: an eight-component ring
mixture in 2-D distilled into a two-evaluation student.

Metrics compare the few-step student against a many-step Euler reference of
the same teacher from the same noise draws.  endpoint_mse is the mean squared
euclidean gap at t = 0; trajectory_deviation averages the gap along the whole
path; discretization_floor is the same endpoint gap between the reference and
a doubled-step reference, which bounds how much of the student gap is just
reference discretization.  Everything derived from (config, seed) is
byte-deterministic except wall-clock metadata.  metrics.json carries
config_hash, which covers every config key except [run] out, so it names
the experiment whatever directory the run was written to.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # no address-space limits to read on this platform
    resource = None

from ._pool import fork_workers, map_forked
from .distill import (
    DistillConfig,
    _check_counts,
    build_student_net,
    distill_train,
    student_sample,
    training_streams,
)
from .errors import ArcFlowError, ConfigError, InvalidParameterError
from .nnet import StudentNet
from .teacher import (
    GmmTeacherSpec,
    TrajectoryRecord,
    euler_sample,
    ring_spec,
)


# -- config text format ----------------------------------------------------------


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_vector(text: str) -> np.ndarray:
    return np.array([_parse_float(v) for v in text.replace(",", " ").split()])


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_vector(r) for r in text.split(";") if r.strip()]
    if not rows or len({r.size for r in rows}) > 1:
        raise ValueError(f"expected ';'-separated rows of equal length, "
                         f"got {text!r}")
    return np.stack(rows)


def _teacher_key(default, written_when, check=None):
    """A [teacher] field that only one layout reads: format_run_config
    writes it only when written_when = (key, value) holds.  check, for array
    text kept verbatim, parses the text so a malformed value fails on its
    own line."""
    return dataclasses.field(default=default, metadata={
        "written_when": written_when, "check": check})


@dataclass(frozen=True)
class TeacherConfig:
    """[teacher] section: either a ring layout or an explicit mixture, served
    by the closed-form field.  kind has one accepted value, analytic; it is
    kept so that config text and config_hash keep their bytes.  The mixture
    is built once, at construction, and kept as spec."""

    kind: str = "analytic"
    layout: str = "ring"          # ring | explicit
    components: int = _teacher_key(8, ("layout", "ring"))
    radius: float = _teacher_key(2.0, ("layout", "ring"))
    std: float = _teacher_key(0.25, ("layout", "ring"))
    dim: int = _teacher_key(2, ("layout", "ring"))
    weights: str | None = _teacher_key(None, ("layout", "explicit"),
                                       _parse_vector)
    means: str | None = _teacher_key(None, ("layout", "explicit"),
                                     _parse_matrix)
    stds: str | None = _teacher_key(None, ("layout", "explicit"),
                                    _parse_vector)

    def __post_init__(self):
        if self.kind != "analytic":
            raise InvalidParameterError(f"unknown teacher kind {self.kind!r}")
        if self.layout not in ("ring", "explicit"):
            raise InvalidParameterError(f"unknown teacher layout {self.layout!r}")
        if self.layout == "explicit" and None in (self.weights, self.means,
                                                  self.stds):
            raise InvalidParameterError(
                "explicit teacher layout needs weights, means and stds"
            )
        # A mixture that would be rejected fails here, when it is parsed.
        if self.layout == "ring":
            spec = ring_spec(self.components, self.radius, self.std, self.dim)
        else:
            try:
                weights = _parse_vector(self.weights)
                stds = _parse_vector(self.stds)
                means = _parse_matrix(self.means)
            except ValueError as exc:
                raise InvalidParameterError(f"explicit teacher layout: {exc}")
            spec = GmmTeacherSpec(weights, means, stds)
        object.__setattr__(self, "spec", spec)


@dataclass(frozen=True)
class RunOptions:
    """[run] section: artifact destinations and evaluation sizes."""

    out: str = "runs/ref"
    metric_samples: int = 2048
    trajectory_samples: int = 16
    teacher_steps: int = 100
    dense_per_shelf: int = 16
    export_csv: bool = True
    export_svg: bool = True

    def __post_init__(self):
        _check_counts(self, 2, "metric_samples")
        _check_counts(self, 1, "teacher_steps", "dense_per_shelf")
        if self.trajectory_samples < 1:
            raise InvalidParameterError("trajectory_samples must be >= 1")


# The most values an evaluation array, sized by a product of counts, may
# hold: numpy cannot shape 2**63 bytes.  One count at MAX_COUNT stays below.
MAX_ELEMENTS = 2**60 - 1


@dataclass(frozen=True)
class RunConfig:
    teacher: TeacherConfig = TeacherConfig()
    distill: DistillConfig = DistillConfig()
    run: RunOptions = RunOptions()

    def __post_init__(self):
        # each count is capped alone; the trajectory arrays multiply them
        per_state = self.run.metric_samples * self.teacher.spec.dim
        for formula, states in self.evaluation_trajectories():
            if states * per_state > MAX_ELEMENTS:
                raise InvalidParameterError(
                    f"{formula} * metric_samples * dim = "
                    f"{states * per_state} values in one evaluation array, "
                    f"above MAX_ELEMENTS = {MAX_ELEMENTS}")

    def evaluation_trajectories(self):
        """(formula, states) for each trajectory that evaluation holds at
        once, every state metric_samples * dim floats: the student's dense
        trace, the doubled Euler reference, then the plain one, which is
        never the first to break a bound."""
        steps = self.run.teacher_steps
        return (("(nfe * dense_per_shelf + 1)",
                 self.distill.nfe * self.run.dense_per_shelf + 1),
                ("(2 * teacher_steps + 1)", 2 * steps + 1),
                ("(teacher_steps + 1)", steps + 1))


@dataclass(frozen=True)
class MetricsReport:
    endpoint_mse: float
    trajectory_deviation: float
    discretization_floor: float
    final_loss: float
    nfe: int
    total_steps: int
    metric_samples: int
    seed: int
    config_hash: str
    wall_time_s: float

    def to_dict(self) -> dict:
        """Fields as JSON values: a non-finite float, such as the NaN
        final_loss of a zero-step run, becomes None (JSON null)."""
        return {key: None if isinstance(value, float)
                and not math.isfinite(value) else value
                for key, value in dataclasses.asdict(self).items()}


# The text form of a config value, by the type of its field's default:
# (parse, format).
_TEXT_FORMS = {
    int: (int, str),
    float: (_parse_float, repr),
    bool: (_parse_bool, lambda value: "true" if value else "false"),
    str: (str, str),
}


def _text_form(field):
    check = field.metadata.get("check")
    if check is None:
        return _TEXT_FORMS[type(field.default)]

    def parse(text: str) -> str:
        check(text)
        return text
    return parse, str


def _written(field, section) -> bool:
    when = field.metadata.get("written_when")
    return when is None or getattr(section, when[0]) == when[1]


def parse_run_config(text: str, path=None) -> RunConfig:
    """Parse config text; malformed lines, unknown names, duplicate keys and
    bad values raise ConfigError carrying the line number.  Values that are
    fine one by one but rejected by their section's config together carry
    the line of that section's header."""
    kinds = {s.name: type(s.default) for s in dataclasses.fields(RunConfig)}
    keys = {name: {f.name: f for f in dataclasses.fields(kind)}
            for name, kind in kinds.items()}
    sections = {name: {} for name in kinds}
    headers = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ConfigError(f"unknown section [{name}]", path, lineno)
            current = name
            headers.setdefault(name, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", path, lineno)
        if current is None:
            raise ConfigError("key outside any [section]", path, lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", path, lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        parse, _ = _text_form(keys[current][key])
        try:
            sections[current][key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", path, lineno)

    built = {}
    for name, kind in kinds.items():
        try:
            built[name] = kind(**sections[name])
        except ArcFlowError as exc:
            raise ConfigError(f"[{name}] {exc}", path, headers.get(name))
    try:
        return RunConfig(**built)
    except ArcFlowError as exc:
        # sizes from several sections: all are known at the last header
        raise ConfigError(str(exc), path, max(headers.values()))


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc.strerror}", str(path))
    return parse_run_config(text, path=str(path))


def format_run_config(cfg: RunConfig) -> str:
    """Emit config text: each section's fields as key = value lines, in
    field order.  A [teacher] key that the config's layout does not read is
    left out, so it parses back as its default; the text parses back to an
    equal RunConfig when every left-out key holds its default."""
    lines = []
    for section in dataclasses.fields(RunConfig):
        values = getattr(cfg, section.name)
        lines.append(f"[{section.name}]")
        lines += [f"{f.name} = {_text_form(f)[1](getattr(values, f.name))}"
                  for f in dataclasses.fields(values) if _written(f, values)]
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 prefix of the formatted config without its [run] out line:
    it covers every setting that shapes the artifacts, so one experiment
    written to two directories reports one hash."""
    kept = [line for line in format_run_config(cfg).split("\n")
            if not line.startswith("out = ")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


# -- metrics ---------------------------------------------------------------------


def endpoint_mse(endpoints_a, endpoints_b) -> float:
    """Mean over the batch of the squared euclidean endpoint gap."""
    diff = np.asarray(endpoints_a, dtype=float) - np.asarray(endpoints_b,
                                                             dtype=float)
    return float(np.mean(np.sum(diff * diff, axis=-1)))


def positions_at(record: TrajectoryRecord, times) -> np.ndarray:
    """Linear interpolation of a trajectory's positions at query times.

    Works on the record's own (strictly decreasing) grid, so it applies to
    non-uniform traces too.
    """
    times = np.asarray(times, dtype=float)
    grid = record.times
    pos = record.positions
    # np.interp wants increasing coordinates
    idx = np.searchsorted(-grid, -times, side="left").clip(1, grid.size - 1)
    t_hi, t_lo = grid[idx - 1], grid[idx]
    w = ((t_hi - times) / (t_hi - t_lo)).clip(0.0, 1.0)
    w = w.reshape((times.size,) + (1,) * (pos.ndim - 1))
    return (1.0 - w) * pos[idx - 1] + w * pos[idx]


def trajectory_deviation(student: TrajectoryRecord,
                         reference: TrajectoryRecord) -> float:
    """Mean euclidean gap between the two trajectories, averaged over the
    student's recorded times and the batch."""
    ref_at = positions_at(reference, student.times)
    gap = np.linalg.norm(student.positions - ref_at, axis=-1)
    return float(np.mean(gap))


# Distance pairs each process must get before energy_distance splits its
# chunks: below it, forking and joining a worker (about 12 ms) costs more
# than the process's share of the pairs.  On a 2-core VM, n = m = 1,300
# (5.1 million pairs) took 27 ms in one process and 33 ms in two, and
# n = m = 1,600 (7.7 million) 42 ms against 37 ms.
MIN_PROCESS_PAIRS = 4_000_000


def energy_distance(xs, ys, chunk=128) -> float:
    """Squared energy distance 2 E|x-y| - E|x-x'| - E|y-y'| with V-statistic
    means over the full x.y, x.x and y.y pair blocks.

    Pairwise distances come from the gram expansion |x-y|^2 =
    |x|^2 + |y|^2 - 2 x.y with a clip against tiny negative round-off, one
    chunk of at most `chunk` rows of a block at a time.  Each block's mean
    is the sum of its chunks' distance sums, added in serial chunk order.

    A call with at least MIN_PROCESS_PAIRS pairs per process splits the
    chunks of the three blocks, in that order, into contiguous ranges of
    about equal pair counts, one per usable CPU, each computed by a forked
    worker while the caller waits, and every range sends back its per-chunk
    sums.  The sums and their order are those of a one-process run, so the
    result has its bits; a smaller call, one CPU, a platform without fork
    and a daemon caller get one range, computed in the caller.  Memory is
    bounded by one float64 buffer of chunk * max(n, m) entries per process,
    allocated once per call.  xs (n, D) and ys (m, D) must be finite, with
    at least one row each; otherwise InvalidParameterError, before any
    fork."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or not (xs.shape[0] and ys.shape[0]):
        raise InvalidParameterError(
            f"energy distance needs two non-empty (rows, dim) sample sets, "
            f"got shapes {xs.shape} and {ys.shape}")
    if xs.shape[1] != ys.shape[1]:
        raise InvalidParameterError(
            f"energy distance sample dims differ: {xs.shape[1]} vs "
            f"{ys.shape[1]}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InvalidParameterError("energy distance samples must be finite")
    if not (isinstance(chunk, (int, np.integer)) and chunk >= 1):
        raise InvalidParameterError(f"chunk must be an int >= 1, got {chunk!r}")
    blocks = ((xs, ys), (xs, xs), (ys, ys))
    chunks = [(block, start) for block, (a, _) in enumerate(blocks)
              for start in range(0, a.shape[0], chunk)]
    shared = (blocks, chunk, chunks)
    sizes = [a.shape[0] * b.shape[0] for a, b in blocks]
    processes = fork_workers(min(len(chunks),
                                 sum(sizes) // MIN_PROCESS_PAIRS))
    # cut after the chunk that reaches each k / processes share of pairs
    pairs = np.cumsum([min(chunk, len(blocks[block][0]) - start)
                       * len(blocks[block][1]) for block, start in chunks])
    cuts = np.searchsorted(pairs, [k * pairs[-1] / processes
                                   for k in range(1, processes)]) + 1
    edges = [0, *cuts.tolist(), len(chunks)]
    sums = [total for part in map_forked(
                _chunk_sums, shared,
                [slice(lo, hi) for lo, hi in zip(edges, edges[1:])])
            for total in part]
    totals = [0.0] * len(blocks)
    for (block, _), total in zip(chunks, sums):
        totals[block] += total
    mean_xy, mean_xx, mean_yy = (total / size
                                 for total, size in zip(totals, sizes))
    return 2.0 * mean_xy - mean_xx - mean_yy


def _chunk_sums(shared, span):
    """The distance sum of each (block, start row) chunk in chunks[span], in
    order, from one buffer allocated here."""
    blocks, chunk, chunks = shared
    width = max(blocks[0][0].shape[0], blocks[0][1].shape[0])
    buf = np.empty(min(chunk, width) * width)
    sums, current = [], None
    for block, start in chunks[span]:
        a, b = blocks[block]
        if block != current:
            current = block
            # -2 a is exact, so scaling the small operand gives the bits of
            # scaling the block product
            a_m2 = -2.0 * a
            a_sq = np.sum(a * a, axis=1)[:, None]
            b_sq = np.sum(b * b, axis=1)
        stop = min(start + chunk, a.shape[0])
        sq = buf[:(stop - start) * b.shape[0]].reshape(stop - start,
                                                      b.shape[0])
        np.matmul(a_m2[start:stop], b.T, out=sq)
        sq += a_sq[start:stop]
        sq += b_sq
        np.maximum(sq, 0.0, out=sq)
        sums.append(float(np.sqrt(sq, out=sq).sum()))
    return sums


# -- orchestration ----------------------------------------------------------------


def build_teacher(cfg: RunConfig) -> GmmTeacherSpec:
    """The closed-form teacher of a run config: its [teacher] mixture."""
    return cfg.teacher.spec


@dataclass(frozen=True)
class EulerReference:
    """What evaluation reads of the teacher for one seed: the shared noise,
    the teacher_steps Euler record from it, and the endpoint of the
    doubled-step run (all discretization_floor needs of it)."""

    seed: int
    noise: np.ndarray
    record: TrajectoryRecord
    doubled_endpoint: np.ndarray


def euler_reference(teacher, cfg: RunConfig) -> EulerReference:
    """Draw the evaluation noise from the evaluation stream of
    cfg.distill.seed and transport it with the teacher's Euler reference.
    It depends only on the teacher, that seed and [run], so every cell of a
    paired-seed grid can share one."""
    opts = cfg.run
    eval_rng = np.random.default_rng(training_streams(cfg.distill.seed)[2])
    noise = eval_rng.standard_normal((opts.metric_samples, teacher.dim))
    record = euler_sample(teacher.velocity, noise, opts.teacher_steps)
    doubled = euler_sample(teacher.velocity, noise, 2 * opts.teacher_steps)
    return EulerReference(cfg.distill.seed, noise, record, doubled.endpoint)


def evaluate_student(net: StudentNet, cfg: RunConfig,
                     reference: EulerReference) -> dict:
    """Shared-noise comparison of the distilled student against the Euler
    reference; returns the raw metric values."""
    student = student_sample(net, reference.noise, cfg.distill.nfe,
                             cfg.run.dense_per_shelf)
    return {
        "endpoint_mse": endpoint_mse(student.endpoint,
                                     reference.record.endpoint),
        "trajectory_deviation": trajectory_deviation(student,
                                                     reference.record),
        "discretization_floor": endpoint_mse(reference.doubled_endpoint,
                                             reference.record.endpoint),
        "student_record": student,
        "reference_record": reference.record,
    }


def _address_space_in_use() -> int:
    """Bytes of address space this process maps now, the first field of
    /proc/self/statm in pages; 0 where the platform does not report it."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def check_trajectory_memory(what: str, states, rows, dim) -> None:
    """InvalidParameterError unless states (rows, dim) float64 arrays fit in
    this machine's memory and in what is left of this process's soft
    address-space limit (RLIMIT_AS), where one is set: the trajectories a
    command holds at once."""
    need = 8 * rows * dim * states
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if resource is not None:
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            have = min(have, max(limit - _address_space_in_use(), 0))
    if need > have:
        raise InvalidParameterError(
            f"{what} needs {need / 2**30:.3g} GiB of trajectories, more than "
            f"the {have / 2**30:.3g} GiB of memory this process has left")


def run_distillation(cfg: RunConfig, out_dir=None, *, teacher=None,
                     reference: EulerReference | None = None):
    """Train a student per the config, evaluate it, optionally write
    artifacts.  Returns (report, net, loss_log).

    teacher and reference default to build_teacher(cfg) and
    euler_reference(teacher, cfg).  A caller running several configs at one
    seed may pass in ones it built for that seed, [teacher] and [run]; they
    must be what those defaults would build, or the report is not that of
    cfg.  A reference drawn for another seed or sample count is rejected."""
    from .svg import trajectory_overlay_svg  # local import, no cycle

    started = time.perf_counter()
    if teacher is None:
        teacher = build_teacher(cfg)
    if reference is not None and (
            reference.seed != cfg.distill.seed
            or reference.noise.shape != (cfg.run.metric_samples, teacher.dim)):
        raise InvalidParameterError(
            f"Euler reference of seed {reference.seed} with noise "
            f"{reference.noise.shape} does not fit seed {cfg.distill.seed} "
            f"with {cfg.run.metric_samples} samples")
    runs = cfg.run
    check_trajectory_memory(
        f"nfe {cfg.distill.nfe}, teacher_steps {runs.teacher_steps} and "
        f"metric_samples {runs.metric_samples}",
        sum(states for _, states in cfg.evaluation_trajectories()),
        runs.metric_samples, teacher.dim)
    net = build_student_net(cfg.distill, teacher.dim)
    log = distill_train(teacher, net, cfg.distill)
    if reference is None:
        reference = euler_reference(teacher, cfg)
    evaluation = evaluate_student(net, cfg, reference)
    report = MetricsReport(
        endpoint_mse=evaluation["endpoint_mse"],
        trajectory_deviation=evaluation["trajectory_deviation"],
        discretization_floor=evaluation["discretization_floor"],
        final_loss=float(log[-1][2]) if log else float("nan"),
        nfe=cfg.distill.nfe,
        total_steps=cfg.distill.total_steps,
        metric_samples=cfg.run.metric_samples,
        seed=cfg.distill.seed,
        config_hash=config_hash(cfg),
        wall_time_s=time.perf_counter() - started,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_text(format_run_config(cfg))
        net.save(out / "student.ckpt")
        (out / "metrics.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
        if cfg.run.export_csv:
            write_loss_csv(log, out / "loss.csv")
            subset = evaluation["student_record"]
            write_trajectory_csv(subset, out / "trajectories.csv",
                                 limit=cfg.run.trajectory_samples)
        if cfg.run.export_svg:
            trajectory_overlay_svg(
                [("teacher", "#888888", evaluation["reference_record"]),
                 ("student", "#1f6fd6", evaluation["student_record"])],
                out / "overlay.svg",
                means=teacher.means,
                limit=cfg.run.trajectory_samples,
            )
    return report, net, log


ABLATION_STUDIES = ("gamma_mode", "sharing", "num_modes")


def ablation_cells(study: str, base: DistillConfig):
    """The configuration cells of one ablation study, derived from a base
    config by replacing only the studied fields."""
    rep = dataclasses.replace
    if study == "gamma_mode":
        return [(mode, rep(base, gamma_mode=mode))
                for mode in ("frozen_one", "fixed", "learnable")]
    if study == "sharing":
        return [
            ("vel_per_mode_gamma_shared",
             rep(base, gamma_mode="learnable", share_velocity=False,
                 share_gamma=True)),
            ("vel_shared_gamma_per_mode",
             rep(base, gamma_mode="learnable", share_velocity=True,
                 share_gamma=False)),
            ("all_per_mode",
             rep(base, gamma_mode="learnable", share_velocity=False,
                 share_gamma=False)),
        ]
    if study == "num_modes":
        return [(f"modes_{k}", rep(base, num_modes=k)) for k in (4, 8, 16)]
    raise InvalidParameterError(f"unknown ablation study {study!r}")


def ablation_budget(study: str, base: DistillConfig) -> int:
    """Per-study training budget.

    The momentum-dynamics and head-sharing studies compare how the cells
    track the teacher right after the guidance ramp, where the adaptive and
    the per-mode variants separate most cleanly, so they train for twice the
    ramp length.  The mode-count study compares capacity, which only binds
    at the full budget.
    """
    if study in ("gamma_mode", "sharing"):
        return min(2 * base.guidance_steps, base.total_steps)
    return base.total_steps


def run_ablation(cfg: RunConfig, studies=ABLATION_STUDIES, seeds=(0, 1, 2)):
    """Paired-seed ablation grid.  Every cell at a given seed shares the
    net-init/training/evaluation streams, so differences come from the cell's
    configuration alone.  Returns rows (study, cell, seed, endpoint_mse,
    final_loss) in study, cell, seed order.

    Each seed's teacher and Euler reference are built once, in the calling
    process, and shared by that seed's cells.  Each distinct (seed, cell
    config) unit is trained once through run_distillation: twin cells such
    as gamma_mode/learnable and sharing/all_per_mode give equal rows by
    construction.  The units run in one worker process per CPU this process
    may run on, at most one per unit; the workers are forked, so they
    inherit the teachers and references, and only a unit's DistillConfig
    goes to a worker and only its two figures come back.  The rows are
    identical to a one-process run, which is what one CPU or a platform
    without fork gets.  A failing grid raises the error the one-process run
    raises first, its text led by the failing unit's seed and study/cell
    names (all of them for twin cells), and no worker outlives the call.
    Unknown or repeated studies and negative, non-integer or repeated seeds
    raise InvalidParameterError before any training."""
    studies, seeds = tuple(studies), tuple(seeds)
    if len(set(studies)) != len(studies):
        raise InvalidParameterError(f"repeated ablation study in {studies}")
    if len(set(seeds)) != len(seeds):
        raise InvalidParameterError(f"repeated ablation seed in {seeds}")
    cells = [(study, name, dataclasses.replace(
                  dcfg, total_steps=ablation_budget(study, cfg.distill)))
             for study in studies
             for name, dcfg in ablation_cells(study, cfg.distill)]
    # DistillConfig rejects a bad seed before the first cell trains
    for seed in seeds:
        dataclasses.replace(cfg.distill, seed=seed)
    seeds = tuple(int(seed) for seed in seeds)
    # seeds outermost, as a one-process run trains them
    names = {}
    for seed in seeds:
        for study, name, dcfg in cells:
            names.setdefault(dataclasses.replace(dcfg, seed=seed),
                             []).append(f"{study}/{name}")
    units = list(names)
    shared = (cfg, {seed: _seed_context(cfg, seed) for seed in seeds}, names)
    # Longest budget first, so the long cells do not form a pool's tail.
    results = dict(zip(units, map_forked(
        _ablation_unit, shared, units,
        priority=lambda unit: -unit.total_steps)))
    return [(study, name, seed,
             *results[dataclasses.replace(dcfg, seed=seed)])
            for study, name, dcfg in cells for seed in seeds]


def _seed_context(cfg: RunConfig, seed: int):
    """The teacher and Euler reference every cell at this seed shares."""
    seed_cfg = RunConfig(cfg.teacher,
                         dataclasses.replace(cfg.distill, seed=seed), cfg.run)
    teacher = build_teacher(seed_cfg)
    return teacher, euler_reference(teacher, seed_cfg)


def _ablation_unit(shared, dcfg: DistillConfig):
    """(endpoint_mse, final_loss) of one seeded cell config, in a worker or
    in the calling process alike, so both raise the same text."""
    cfg, contexts, names = shared
    teacher, reference = contexts[dcfg.seed]
    try:
        report, _, _ = run_distillation(RunConfig(cfg.teacher, dcfg, cfg.run),
                                        teacher=teacher, reference=reference)
    except ArcFlowError as exc:
        raise type(exc)(f"ablation seed {dcfg.seed} "
                        f"{' = '.join(names[dcfg])}: {exc}") from exc
    return report.endpoint_mse, report.final_loss


# -- artifact writers -------------------------------------------------------------


def fmt(value: float) -> str:
    """Floats are serialized with 17 significant digits so reading them back
    reproduces the exact double."""
    return f"{value:.17g}"


def write_loss_csv(rows, path):
    lines = ["step,lambda,loss,shelf"]
    for step_idx, lam, loss, shelf in rows:
        lines.append(f"{step_idx},{fmt(lam)},{fmt(loss)},{fmt(shelf)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_csv(record: TrajectoryRecord, path, limit=None):
    pos = record.positions
    pos = pos.reshape(pos.shape[0], -1, pos.shape[-1])  # (T+1, N, D)
    count = pos.shape[1] if limit is None else min(int(limit), pos.shape[1])
    dim = pos.shape[2]
    header = "trajectory,t," + ",".join(f"x{d}" for d in range(dim))
    lines = [header]
    times = record.times
    for b in range(count):
        for i, t in enumerate(times):
            coords = ",".join(fmt(pos[i, b, d]) for d in range(dim))
            lines.append(f"{b},{fmt(t)},{coords}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_ablation_csv(rows, path):
    lines = ["study,cell,seed,endpoint_mse,final_loss"]
    for study, cell, seed, mse, loss in rows:
        lines.append(f"{study},{cell},{seed},{fmt(mse)},{fmt(loss)}")
    Path(path).write_text("\n".join(lines) + "\n")
