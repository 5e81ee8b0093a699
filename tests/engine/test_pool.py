"""PersistentPool: lifetime, dispatch and failure behaviour."""

from __future__ import annotations

import gc

import pytest

from repro.engine import (
    PersistentPool,
    SerialBackend,
    ThreadBackend,
    live_pool_count,
)
from repro.exceptions import ConfigurationError


def _echo(static, dynamic, task):
    return (static, dynamic, task)


def _double(static, dynamic, task):
    return task * 2


def _boom(static, dynamic, task):
    raise ValueError(f"kernel failed on task {task}")


class TestLifecycle:
    def test_one_session_per_pool(self):
        backend = ThreadBackend(n_jobs=2)
        with PersistentPool(backend) as pool:
            for _ in range(5):
                assert pool.run(_double, [1, 2, 3]) == [2, 4, 6]
        assert backend.sessions_opened == 1

    def test_live_pool_count_balances(self):
        baseline = live_pool_count()
        pool = PersistentPool(SerialBackend())
        assert live_pool_count() == baseline + 1
        pool.close()
        assert live_pool_count() == baseline

    def test_close_is_idempotent(self):
        pool = PersistentPool(SerialBackend())
        opened = live_pool_count()
        pool.close()
        pool.close()  # second close must not double-decrement
        assert live_pool_count() == opened - 1
        assert pool.closed

    def test_closed_pool_rejects_work(self):
        pool = PersistentPool(SerialBackend())
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.run(_double, [1])

    def test_static_payload_reaches_every_dispatch(self):
        with PersistentPool(SerialBackend(), static="payload") as pool:
            results = pool.run(_echo, ["a", "b"], dynamic=1)
        assert results == [("payload", 1, "a"), ("payload", 1, "b")]

    def test_unclosed_pool_reclaimed_by_gc_stops_counting(self):
        baseline = live_pool_count()
        pool = PersistentPool(ThreadBackend(n_jobs=1))
        assert pool.run(_double, [4]) == [8]
        assert live_pool_count() == baseline + 1
        del pool
        gc.collect()
        assert live_pool_count() == baseline


class TestFailureBehaviour:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ThreadBackend(n_jobs=2)],
        ids=["serial", "thread"],
    )
    def test_kernel_exception_does_not_poison_the_pool(self, backend_factory):
        with PersistentPool(backend_factory()) as pool:
            with pytest.raises(ValueError, match="kernel failed"):
                pool.run(_boom, [1, 2])
            assert pool.run(_double, [3, 4]) == [6, 8]
