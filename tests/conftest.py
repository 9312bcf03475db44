"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest

from arcflow import _pool as pool_module


@pytest.fixture
def count_pools(monkeypatch):
    """count_pools(cpus) pretends to have `cpus` usable CPUs and returns a
    list that grows by the worker count of every process pool map_forked
    starts from then on."""

    def count(cpus):
        pools = []
        real = concurrent.futures.ProcessPoolExecutor

        def counted(workers, *args, **kwargs):
            pools.append(workers)
            return real(workers, *args, **kwargs)

        monkeypatch.setattr(pool_module, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            counted)
        return pools

    return count
