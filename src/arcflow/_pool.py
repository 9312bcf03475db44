"""Forked worker processes whose results come back in serial order.

Three callers use it: run_ablation trains its distinct units here,
euler_sample integrates its row blocks here and energy_distance sums its
row chunks here.  A map with one unit, on one usable CPU, on a platform
without fork or in a daemon caller computes its units in the caller;
otherwise every unit goes to a forked worker and the caller only waits.
The workers are forked, not spawned: they inherit the caller's state
(teachers, Euler references, a shared positions buffer, sample sets)
through the initializer's arguments, so none of it is pickled, and a unit
is computed by the same code on the same values as in the caller.
multiprocessing and concurrent.futures are imported only by a call that
may fork, so importing the package loads neither.

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


def map_forked(work, shared, units, priority=None):
    """[work(shared, unit) for unit in units], computed by one forked
    process per unit and usable CPU (fork_workers), or by the caller where
    that is one process.

    The pool gets its units in the order of `priority` (a sort key; ties
    and the default keep serial order) and the results come back in serial
    order, so a failing map raises the error the first failing unit in
    serial order raises, as the caller's own loop does.  BLAS runs one
    thread in the caller and in every worker for the duration of a pooled
    call.  No worker outlives the call."""
    workers = fork_workers(len(units))
    if workers == 1:
        return [work(shared, unit) for unit in units]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    controls = _blas_controls()
    threads = [get() for _, get in controls]
    for set_count, _ in controls:
        set_count(1)
    try:
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_enter_worker, initargs=(work, shared))
        try:
            order = sorted(range(len(units)),
                           key=None if priority is None
                           else lambda k: priority(units[k]))
            futures = {k: pool.submit(_work_in_worker, units[k])
                       for k in order}
            return [futures[k].result() for k in range(len(units))]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    finally:
        for (set_count, _), count in zip(controls, threads):
            set_count(count)


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
