"""Forked worker processes whose results come back in serial order.

run_ablation trains its distinct units here and euler_sample integrates its
row blocks here.  The workers are forked, not spawned: they inherit the
caller's state (teachers, Euler references, a shared positions buffer)
through the initializer's arguments, so none of it is pickled, and a unit
is computed by the same code on the same values as in the caller.
multiprocessing and concurrent.futures are imported only by a call that
forks, so importing the package loads neither.
"""

from __future__ import annotations

import os

_shared = None  # (work, shared) in each forked worker, never in the caller


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
    serial order raises.  No worker outlives the call."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_enter_worker,
                               initargs=(work, shared))
    try:
        pooled = sorted(range(in_caller, len(units)),
                        key=None if priority is None
                        else lambda k: priority(units[k]))
        futures = {k: pool.submit(_work_in_worker, units[k]) for k in pooled}
        results = [work(shared, unit) for unit in units[:in_caller]]
        return results + [futures[k].result()
                          for k in range(in_caller, len(units))]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _enter_worker(work, shared):
    global _shared
    _shared = (work, shared)


def _work_in_worker(unit):
    work, shared = _shared
    return work(shared, unit)
