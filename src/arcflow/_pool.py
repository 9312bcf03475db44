"""Forked worker processes whose results come back in serial order.

Three callers use it: run_ablation trains its distinct units here,
euler_sample integrates its row blocks here and energy_distance sums its
row chunks here.  The workers are forked, not spawned: they inherit the
caller's state (teachers, Euler references, a shared positions buffer,
sample sets) through the initializer's arguments, so none of it is
pickled, and a unit is computed by the same code on the same values as in
the caller.  multiprocessing and concurrent.futures are imported only by a
call that forks, so importing the package loads neither.

While a pool runs, every loaded OpenBLAS runs one thread per process: the
caller sets one thread before the workers fork, they inherit that count,
and the caller gets its own counts back when the call ends, however it
ends.  Otherwise each of one process per CPU would run one BLAS thread per
CPU.  OpenBLAS splits a matrix product across threads by blocks of its
output, so the count does not change its bits; the tests check this for
every caller.
"""

from __future__ import annotations

import os

_shared = None  # (work, shared) in each forked worker, never in the caller

# (set, get) thread-count symbols an OpenBLAS build may export; the first
# pair a library has is used.  numpy's wheels load scipy-openblas, whose
# symbols carry a 64-bit-integer suffix.
BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_blas_libraries = {}  # path -> ctypes handle of each OpenBLAS seen loaded


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can ask
        return os.cpu_count() or 1


def fork_workers(wanted: int) -> int:
    """How many processes a call with `wanted` independent units may use:
    one per usable CPU, at most one per unit.  1 where the platform has no
    fork and in a daemon process, which may not have children."""
    workers = min(wanted, usable_cpus())
    if workers <= 1:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return workers


def map_forked(work, shared, units, workers, in_caller=0, priority=None):
    """[work(shared, unit) for unit in units], with the first in_caller
    units computed by the caller and the rest by `workers` forked
    processes, started before the caller's own units.

    The pool gets its units in the order of `priority` (a sort key; ties
    and the default keep serial order) and the results come back in serial
    order, so a failing map raises the error the first failing unit in
    serial order raises.  BLAS runs one thread in the caller and in every
    worker for the duration of the call.  No worker outlives the call."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    threads = blas_threads()
    set_blas_threads([1] * len(threads))
    try:
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_enter_worker, initargs=(work, shared))
        try:
            pooled = sorted(range(in_caller, len(units)),
                            key=None if priority is None
                            else lambda k: priority(units[k]))
            futures = {k: pool.submit(_work_in_worker, units[k])
                       for k in pooled}
            results = [work(shared, unit) for unit in units[:in_caller]]
            return results + [futures[k].result()
                              for k in range(in_caller, len(units))]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    finally:
        set_blas_threads(threads)


def blas_threads() -> tuple:
    """The thread count of each OpenBLAS this process has loaded; () where
    none exports a pair of BLAS_THREAD_SYMBOLS."""
    return tuple(get() for _, get in _blas_controls())


def set_blas_threads(counts) -> None:
    """Set the thread count of each loaded OpenBLAS, in blas_threads order;
    nothing where none exports a pair of BLAS_THREAD_SYMBOLS."""
    for (set_count, _), count in zip(_blas_controls(), counts):
        set_count(int(count))


def _blas_controls() -> list:
    """(set, get) of each OpenBLAS this process has loaded, in path order:
    the libraries are found by path in /proc/self/maps, so one loaded after
    an earlier call is found too."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in maps if "openblas" in line})
    except OSError:  # no procfs on this platform
        return []
    import ctypes

    controls = []
    for path in paths:
        if path not in _blas_libraries:
            try:
                _blas_libraries[path] = ctypes.CDLL(path)
            except OSError:
                _blas_libraries[path] = None
        library = _blas_libraries[path]
        for set_name, get_name in BLAS_THREAD_SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                # void set(int) and int get(void), also in 64-bit builds
                set_count = getattr(library, set_name)
                get = getattr(library, get_name)
                set_count.argtypes, set_count.restype = [ctypes.c_int], None
                get.argtypes, get.restype = [], ctypes.c_int
                controls.append((set_count, get))
                break
    return controls


def _enter_worker(work, shared):
    global _shared
    _shared = (work, shared)


def _work_in_worker(unit):
    work, shared = _shared
    return work(shared, unit)
