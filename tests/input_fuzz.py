"""Fuzz properties for the two text boundaries: config text through
parse_run_config, and argv through cli.main.

    python tests/input_fuzz.py LIMIT_BYTES CKPT WORKDIR

runs both.  Config: mutated config text parses, or raises a ConfigError
that carries a line number, and nothing else; a ring too big to allocate
fails at the [teacher] header line, and counts whose evaluation arrays
numpy cannot shape fail at the last header line.  Argv: `arcflow sample`
with fuzzed --count, --nfe and --seed against the checkpoint at CKPT
returns 0, or returns 2 with one `error:` line on stderr; an argparse
rejection exits 2 with its usage and one error line.  Neither may raise
another exception or emit a warning.

Both run under an address-space limit of LIMIT_BYTES, set before numpy is
imported, so a size that cannot be allocated fails here as a MemoryError
instead of exhausting the machine.  Examples are derandomized and no
database is kept, so every run draws the same inputs.  Exits nonzero with
hypothesis's falsifying example on stderr when a property fails.  pytest
does not collect this file; tests/test_harness.py runs it in a child
process.
"""

import resource
import sys


def config_property():
    import warnings

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from arcflow.errors import ConfigError
    from arcflow.harness import RunConfig, format_run_config, parse_run_config
    from arcflow.teacher import GmmTeacherSpec

    # the default ring layout writes every [teacher] key a ring reads
    lines = format_run_config(RunConfig()).splitlines()
    keys = [i for i, line in enumerate(lines) if " = " in line]
    sizes = [i for i in keys if lines[i].split(" = ")[0] in (
        "components", "dim", "nfe", "num_modes", "n_intermediate", "batch",
        "metric_samples", "teacher_steps", "dense_per_shelf")]

    def parses_or_config_error(text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                spec = parse_run_config(text).teacher.spec
            except ConfigError as exc:
                assert exc.line is not None, exc
                return exc
            # the teacher was built, and so checked, at parse time
            assert isinstance(spec, GmmTeacherSpec)
        return None

    # rings past the address space fail at the [teacher] header, which
    # only the limit makes safe to ask for on every host
    for body in ("components = 1000000000000", "dim = 1000000000000"):
        exc = parses_or_config_error(f"[distill]\nseed = 3\n\n[teacher]\n"
                                     f"{body}\n")
        assert exc is not None and exc.line == 4, (body, exc)
    # counts each under its own ceiling whose evaluation array numpy cannot
    # shape fail at the last header, where every size is known
    exc = parses_or_config_error(f"[distill]\nnfe = {2 ** 40}\n\n[run]\n"
                                 f"dense_per_shelf = {2 ** 40}\n")
    assert exc is not None and exc.line == 4, exc

    numbers = st.one_of(
        st.integers(-3, 3).map(str), st.integers(-10 ** 30, 10 ** 30).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["1e200", "1e-320", "-0.0", "0", "nan", "inf",
                         "true", "analytic", "explicit", "ring", "",
                         "1_0"]))
    values = st.one_of(numbers, st.lists(numbers, max_size=4).map(" ".join),
                       st.text(max_size=8))
    large = st.sampled_from([2 ** 20, 2 ** 30, 2 ** 40, 2 ** 40 + 1,
                             10 ** 20]).map(str)
    # each strategy draws a list of edits applied in order
    edit = st.one_of(
        st.tuples(st.sampled_from(keys), values).map(
            lambda kv: [("set", kv[0], kv[1])]),
        st.tuples(st.integers(0, len(lines)),
                  st.sampled_from(["kind = analytic", "layout = explicit",
                                   "weights = 0.5 0.5", "stds = 0.1 0.2",
                                   "means = 0 0; 1 1", "[teacher]",
                                   "[run]", "[bogus]", "x"])).map(
            lambda at: [("insert", *at)]),
        st.integers(0, len(lines) - 1).map(lambda at: [("drop", at, None)]),
        # two size keys large at once: each may pass its own ceiling while
        # the arrays they size together cannot be shaped
        st.tuples(st.lists(st.sampled_from(sizes), min_size=2, max_size=2,
                           unique=True), large, large).map(
            lambda kv: [("set", kv[0][0], kv[1]),
                        ("set", kv[0][1], kv[2])]))

    def apply(groups):
        out = list(lines)
        for kind, at, value in (edit for group in groups for edit in group):
            if kind == "set" and at < len(out) and " = " in out[at]:
                out[at] = f"{out[at].split(' = ')[0]} = {value}"
            elif kind == "insert":
                out.insert(min(at, len(out)), value)
            elif kind == "drop" and at < len(out):
                del out[at]
        return "\n".join(out)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(st.lists(edit, min_size=1, max_size=4).map(apply))
    def mutated_text(text):
        parses_or_config_error(text)

    mutated_text()


def argv_property(checkpoint, workdir):
    import contextlib
    import io
    import warnings
    from pathlib import Path

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from arcflow.cli import main

    config = Path(workdir) / "tiny.cfg"
    config.write_text("[run]\ndense_per_shelf = 2\n")
    out = str(Path(workdir) / "out")
    base = ["sample", "--config", str(config), "--checkpoint", checkpoint,
            "--out", out]

    def exits_zero_or_one_error_line(argv):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse: usage, then one error
                assert exc.code == 2, (argv, exc.code)
                assert ": error: " in err.getvalue().splitlines()[-1], argv
                return
        if code == 0:
            return
        assert code == 2, (argv, code)
        text = err.getvalue().splitlines()
        assert len(text) == 1 and text[0].startswith("error: "), (argv, text)

    # counts and step counts that are cheap to run or far too big to hold
    sizes = st.one_of(st.integers(-2 ** 70, 6),
                      st.integers(10 ** 8, 2 ** 80)).map(str)
    flag = st.one_of(
        st.tuples(st.just("--count"), sizes),
        st.tuples(st.just("--nfe"), sizes),
        st.tuples(st.just("--seed"),
                  st.integers(-2 ** 70, 2 ** 70).map(str)),
        st.tuples(st.sampled_from(["--count", "--nfe", "--seed", "--bogus"]),
                  st.sampled_from(["", "x", "1.5", "-", "0x10"])))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=50)
    @given(st.lists(flag, max_size=3))
    def fuzzed_flags(flags):
        exits_zero_or_one_error_line(
            base + [token for pair in flags for token in pair])

    fuzzed_flags()


if __name__ == "__main__":
    limit = int(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    config_property()
    argv_property(sys.argv[2], sys.argv[3])
