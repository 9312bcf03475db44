"""Set-up time of a fresh process: import arcflow, parse the run config,
build the teacher and the student (or load the student's checkpoint).

    python3 perfbench/setup_probe.py SRC_DIR CONFIG [CHECKPOINT]

Prints one JSON line {"import_s": ..., "build_s": ...}.
"""

import sys
import time


def main(argv):
    src, config = argv[1], argv[2]
    checkpoint = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, src)
    start = time.perf_counter()
    from arcflow import distill, harness, nnet
    imported = time.perf_counter()
    cfg = harness.load_run_config(config)
    teacher = harness.build_teacher(cfg)
    if checkpoint is None:
        distill.build_student_net(cfg.distill, teacher.dim)
    else:
        nnet.StudentNet.load(checkpoint)
    built = time.perf_counter()
    print('{"import_s": %r, "build_s": %r}'
          % (imported - start, built - imported))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
