"""Command line entry points.

    arcflow verify
    arcflow distill --config PATH [--seed N] [--steps N] [--out DIR]
    arcflow ablate  [--config PATH] [--out DIR] [--studies a,b] [--seeds a,b]
    arcflow sample  --checkpoint PATH [--config PATH] [--seed N] [--count N]
                    [--nfe N] [--baseline PATH] [--out DIR]

Every subcommand accepts --print-defaults, which prints the default config
text (the desk-scale reference task) and exits.  verify runs the full
invariant suites and exits nonzero if any fails; distill trains and reports
metrics; ablate runs the paired-seed studies; sample rolls trajectories from
a checkpoint and writes CSV/SVG overlays against the many-step teacher.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import harness
from .distill import student_sample
from .errors import ArcFlowError, InvalidParameterError
from .nnet import StudentNet
from .svg import trajectory_overlay_svg
from .teacher import euler_sample

# Euler steps of the teacher reference that arcflow sample draws.
REFERENCE_STEPS = 200


def _load_config(args) -> harness.RunConfig:
    cfg = (harness.load_run_config(args.config)
           if getattr(args, "config", None) else harness.RunConfig())
    distill = {key: value for key, value in (
        ("seed", getattr(args, "seed", None)),
        ("total_steps", getattr(args, "steps", None))) if value is not None}
    run = {"out": args.out} if getattr(args, "out", None) else {}
    return dataclasses.replace(
        cfg, distill=dataclasses.replace(cfg.distill, **distill),
        run=dataclasses.replace(cfg.run, **run))


def cli_verify(args) -> int:
    from .verify import TOLERANCES, run_all_suites

    print("tolerances:")
    for name, tol in TOLERANCES.items():
        print(f"  {name}: {tol}")
    print()
    results = run_all_suites()
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print()
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


def cli_distill(args) -> int:
    cfg = _load_config(args)
    report, _, _ = harness.run_distillation(cfg, out_dir=cfg.run.out)
    print(json.dumps(report.to_dict(), indent=2))
    print(f"artifacts in {cfg.run.out}")
    return 0


def cli_ablate(args) -> int:
    cfg = _load_config(args)
    studies = tuple(args.studies.split(",")) if args.studies \
        else harness.ABLATION_STUDIES
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise InvalidParameterError(
            f"--seeds takes a comma list of integers, got {args.seeds!r}")
    # a bad grid, or Euler references past what memory holds, fail before
    # the output directory is made, and that before any training
    harness.ablation_grid(cfg, studies, seeds)
    harness.check_reference_memory(cfg)
    out = harness.make_output_dir(cfg.run.out)
    rows = harness.run_ablation(cfg, studies=studies, seeds=seeds)
    harness.write_ablation_csv(rows, out / "ablation.csv")
    by_cell = {}
    for study, cell, _, mse, _ in rows:
        by_cell.setdefault((study, cell), []).append(mse)
    print("study/cell medians (endpoint_mse):")
    for (study, cell), values in by_cell.items():
        print(f"  {study:12s} {cell:28s} {float(np.median(values)):.6f}")
    print(f"rows in {out / 'ablation.csv'}")
    return 0


def cli_sample(args) -> int:
    count = args.count
    if count < 1:
        raise InvalidParameterError(f"--count must be >= 1, got {count}")
    cfg = _load_config(args)
    net = StudentNet.load(args.checkpoint)
    base_net = StudentNet.load(args.baseline) if args.baseline else None
    nfe = args.nfe if args.nfe is not None else cfg.distill.nfe
    if nfe < 1:
        raise InvalidParameterError(f"--nfe must be >= 1, got {nfe}")
    dim = cfg.teacher.spec.dim
    for flag, checked in (("--checkpoint", net), ("--baseline", base_net)):
        if checked is not None and checked.config.dim != dim:
            raise InvalidParameterError(
                f"{flag} is a student of dim {checked.config.dim}, but the "
                f"teacher's dim is {dim}")
    # the student's (and the baseline's) trajectory, the reference, and the
    # one shelf of stacked sub-steps student_sample holds beside its trace
    dense = cfg.run.dense_per_shelf
    records = 2 if base_net is not None else 1
    harness.check_trajectory_memory(
        f"--count {count} at --nfe {nfe}",
        (nfe * dense + 1) * records + REFERENCE_STEPS + 1 + dense, count, dim)
    out = harness.make_output_dir(cfg.run.out)
    teacher = harness.build_teacher(cfg)
    rng = np.random.default_rng(args.seed if args.seed is not None
                                else cfg.distill.seed)
    noise = rng.standard_normal((count, teacher.dim))
    student = student_sample(net, noise, nfe, dense)
    reference = euler_sample(teacher.velocity, noise, REFERENCE_STEPS)
    harness.write_trajectory_csv(student, out / "student_trajectories.csv")
    harness.write_trajectory_csv(reference, out / "teacher_trajectories.csv")
    records = [(f"teacher_{REFERENCE_STEPS}", "#888888", reference)]
    if base_net is not None:
        baseline = student_sample(base_net, noise, nfe, dense)
        harness.write_trajectory_csv(baseline,
                                     out / "baseline_trajectories.csv")
        records.append((f"linear_{nfe}", "#d97706", baseline))
    records.append((f"student_{nfe}", "#1f6fd6", student))
    trajectory_overlay_svg(records, out / "overlay.svg",
                           means=teacher.means, limit=count)
    print(f"wrote {count} trajectories to {out}")
    return 0


def _add_run_flags(parser, seed=True):
    parser.add_argument("--config", help="run config file")
    if seed:
        parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="override the output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arcflow",
        description="momentum-mixture flow distillation, desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary):
        # no abbreviations: ablate's --seed would silently mean --seeds
        command = sub.add_parser(name, help=summary, allow_abbrev=False)
        command.add_argument("--print-defaults", action="store_true",
                             help="print the default config text and exit")
        return command

    p_verify = add_command("verify", "run all invariant suites")
    p_verify.set_defaults(func=cli_verify)

    p_distill = add_command("distill", "train and evaluate a student")
    _add_run_flags(p_distill)
    p_distill.add_argument("--steps", type=int,
                           help="override total training steps")
    p_distill.set_defaults(func=cli_distill)

    p_ablate = add_command("ablate", "paired-seed ablation studies")
    # --seeds sets every cell's seed, so ablate takes no --seed
    _add_run_flags(p_ablate, seed=False)
    p_ablate.add_argument("--studies",
                          help="comma list from: "
                               + ",".join(harness.ABLATION_STUDIES))
    p_ablate.add_argument("--seeds", default="0,1,2",
                          help="comma list of paired seeds")
    p_ablate.set_defaults(func=cli_ablate)

    p_sample = add_command("sample", "roll trajectories from a checkpoint")
    _add_run_flags(p_sample)
    # required unless --print-defaults, which main checks first
    p_sample.add_argument("--checkpoint")
    p_sample.add_argument("--baseline",
                          help="optional second checkpoint drawn alongside")
    p_sample.add_argument("--count", type=int, default=8)
    p_sample.add_argument("--nfe", type=int)
    p_sample.set_defaults(func=cli_sample)

    args = parser.parse_args(argv)
    if args.print_defaults:
        print(harness.format_run_config(harness.RunConfig()), end="")
        return 0
    if args.command == "sample" and args.checkpoint is None:
        p_sample.error("the following arguments are required: --checkpoint")
    try:
        return args.func(args)
    except ArcFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
