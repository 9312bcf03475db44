"""Fuzz property for StudentNet.load: mutated, truncated and extended
checkpoint bytes load or raise an ArcFlowError, and nothing else; a NaN or
infinity written over a time frequency, a gamma range bound, a frozen log
gamma or a parameter raises CheckpointFormatError.

    python tests/checkpoint_fuzz.py CKPT LIMIT_BYTES

runs the property against the checkpoint at CKPT under an address-space
limit of LIMIT_BYTES, set before numpy is imported, so a loader that
allocates what a corrupt header asks for fails here as a MemoryError
instead of exhausting the machine.  Exits nonzero with hypothesis's
falsifying example on stderr when the property fails.  pytest does not
collect this file; tests/test_nnet.py runs it in a child process.
"""

import math
import resource
import struct
import sys


def main(path, limit):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    import warnings
    from pathlib import Path

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from arcflow import ArcFlowError, CheckpointFormatError
    from arcflow.nnet import StudentNet

    seed = Path(path).read_bytes()
    target = Path(path).with_suffix(".mutated")
    net = StudentNet.load(path)
    # (offset, size) of every header field after the magic, in file order
    sizes = [4, 4, 4, *[4] * len(net.config.hidden), 4,
             *[8] * len(net.config.time_freqs), 1, 1, 1, 4, 8, 8,
             4, *[8] * net.frozen_log_gammas.size, 8]
    offsets = [8 + sum(sizes[:i]) for i in range(len(sizes))]
    header_end = offsets[-1] + sizes[-1]
    hidden_at = offsets[3]
    frozen_len_at = offsets[-2 - net.frozen_log_gammas.size]
    freqs_from = 4 + len(net.config.hidden)
    # every float of the header the net is built from: the time
    # frequencies, the gamma range and the frozen log gammas
    header_floats = [
        *offsets[freqs_from:freqs_from + len(net.config.time_freqs)],
        *offsets[-4 - net.frozen_log_gammas.size:
                 -2 - net.frozen_log_gammas.size],
        *offsets[-1 - net.frozen_log_gammas.size:-1]]

    def with_int(offset, size, value):
        raw = bytearray(seed)
        raw[offset:offset + size] = value.to_bytes(size, "little")
        return bytes(raw)

    def with_bytes(replacements):
        raw = bytearray(seed)
        for at, value in replacements:
            raw[at] = value
        return bytes(raw)

    field = st.sampled_from(list(zip(offsets, sizes)))
    mutated = st.one_of(
        field.flatmap(lambda f: st.integers(0, 256 ** f[1] - 1).map(
            lambda value: with_int(*f, value))),
        st.lists(st.tuples(st.integers(0, header_end + 63),
                           st.integers(0, 255)),
                 min_size=1, max_size=4).map(with_bytes),
        st.integers(0, len(seed) - 1).map(lambda n: seed[:n]),
        st.binary(min_size=1, max_size=64).map(lambda tail: seed + tail),
    )

    # the two headers that once made load allocate first: a hidden width
    # that asks for a 9.5 GiB net, and a frozen length past the file's end
    for raw in (with_int(hidden_at, 4, 0x00ffffff),
                with_int(frozen_len_at, 4, 10_000_000)):
        target.write_bytes(raw)
        try:
            StudentNet.load(target)
        except CheckpointFormatError:
            continue
        raise AssertionError("a corrupt header loaded")

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(mutated)
    def loads_or_raises_arcflow_error(raw):
        target.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                StudentNet.load(target)
            except ArcFlowError:
                pass

    loads_or_raises_arcflow_error()

    non_finite = [math.nan, math.inf, -math.inf]

    def non_finite_float_raises(at, value):
        raw = bytearray(seed)
        raw[at:at + 8] = struct.pack("<d", value)
        target.write_bytes(bytes(raw))
        try:
            StudentNet.load(target)
        except CheckpointFormatError:
            return
        raise AssertionError(f"{value} at byte {at} loaded")

    # the few header floats all, the many parameters by sample
    for at in header_floats:
        for value in non_finite:
            non_finite_float_raises(at, value)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(st.sampled_from(range(header_end, len(seed), 8)),
           st.sampled_from(non_finite))
    def non_finite_parameters_raise(at, value):
        non_finite_float_raises(at, value)

    non_finite_parameters_raise()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
