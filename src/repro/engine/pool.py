"""Persistent worker pools: one pool, many dispatches, explicit lifetime.

A fit maps chunk kernels over its items phase after phase, and a
:class:`repro.serve.ModelServer` answers an unbounded stream of predict
batches; both want their workers warm *across* calls.
:class:`PersistentPool` is the lifetime-owning object they share:

* it opens exactly one worker pool over a backend (counted by
  ``backend.sessions_opened``, which is how the one-pool-per-fit and
  one-pool-per-server contracts are asserted in tests) — a
  :class:`~concurrent.futures.ThreadPoolExecutor` for the thread
  backend, nothing at all for serial, whose tasks run in the caller;
* :meth:`run` may be called any number of times, from any thread, and
  a kernel exception leaves the pool usable — the failed call raises,
  the next call proceeds;
* :meth:`close` is idempotent, and the module-level
  :func:`live_pool_count` lets leak tests assert that every pool
  opened in a block was torn down (a pool the garbage collector
  reclaims without ``close()`` stops counting as live too).
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.engine.backends import ExecutionBackend
from repro.exceptions import ServerClosedError
from repro.resilience.faults import active_faults

__all__ = ["PersistentPool", "live_pool_count"]

#: Kernel signature every pool maps over tasks.
Kernel = Callable[[Any, Any, Any], Any]

_LIVE_LOCK = threading.Lock()
_LIVE_POOLS = 0


def _count_pool(delta: int) -> None:
    global _LIVE_POOLS
    with _LIVE_LOCK:
        _LIVE_POOLS += delta


def live_pool_count() -> int:
    """Pools currently open in this process (0 when nothing leaks)."""
    with _LIVE_LOCK:
        return _LIVE_POOLS


class PersistentPool:
    """A worker pool bound to one static payload, alive until closed.

    Parameters
    ----------
    backend:
        The :class:`~repro.engine.backends.ExecutionBackend` whose
        workers execute dispatched kernels.  Serial backends are legal
        (the "pool" then runs in the calling thread), so callers need
        one code path.
    static:
        Bulky read-only state handed to every kernel call for the
        pool's lifetime.  Workers share the caller's address space, so
        it is passed by reference and never copied.
    """

    def __init__(self, backend: ExecutionBackend, static: Any = None):
        self.backend = backend
        self._static = static
        backend.sessions_opened += 1
        self._executor: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(
                max_workers=backend.n_jobs, thread_name_prefix="repro-engine"
            )
            if backend.is_parallel
            else None
        )
        self._closed = False
        self._close_lock = threading.Lock()
        _count_pool(+1)
        # A pool reclaimed by the GC without close() is no longer live:
        # the leak counter must drop either way.  weakref.finalize runs
        # at most once, so close() calling it too cannot double-count.
        self._count_finalizer = weakref.finalize(self, _count_pool, -1)

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the workers.

        Idempotent and safe to race: exactly one caller tears down.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._count_finalizer()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosedError("this PersistentPool is closed")

    # -- dispatch --------------------------------------------------------

    def run(self, fn: Kernel, tasks: list, dynamic: Any = None) -> list:
        """Apply ``fn(static, dynamic, task)`` to every task, in order.

        A kernel exception propagates to the caller but does not poison
        the pool: subsequent :meth:`run` calls work normally.
        """
        self._check_open()
        # Fault injection (deadline tests) counts and delays every
        # kernel call; production pays one module-global read.
        faults = active_faults()
        if faults is not None:
            fn = faults.wrap(fn)
        static = self._static
        if self._executor is None:
            return [fn(static, dynamic, task) for task in tasks]
        return list(
            self._executor.map(lambda task: fn(static, dynamic, task), tasks)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"PersistentPool(backend={self.backend.name!r}, {state})"
