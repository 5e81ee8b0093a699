"""Execution backends: where the engine's chunk kernels run.

Every parallel phase of the engine is phrased the same way: a
module-level *kernel* ``fn(static, dynamic, task)`` is mapped over a
list of small tasks (usually item spans) by a
:class:`~repro.engine.pool.PersistentPool`, where

* ``static`` is bulky read-only state fixed for the pool's lifetime
  (the item matrix and the model's kernels — the engine opens **one**
  pool per fit and it serves every phase);
* ``dynamic`` is small per-call state (current centroids and labels);
* ``task`` is the unit of work (a ``(start, stop)`` span, a shard id).

A backend only says *where* those calls run:

``serial``
    In the calling thread, one task at a time.  Zero overhead, and the
    engine additionally routes the assignment loop through the paper's
    exact online per-item pass (see :mod:`repro.engine.parallel`).
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` of ``n_jobs``
    workers.  The chunk kernels spend their time in NumPy and in the
    ctypes-loaded compiled kernels, both of which release the GIL, so
    threads scale the distance- and hashing-dominated phases while
    sharing ``static`` and every array by reference.
"""

from __future__ import annotations

import os

from repro.exceptions import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "check_backend_name",
    "resolve_backend",
]

#: Backend names accepted by every ``backend=`` parameter, spec field
#: and CLI ``--backend`` flag, in the order the documentation presents
#: them.
BACKEND_NAMES = ("serial", "thread")


def check_backend_name(name) -> None:
    """Raise :class:`ConfigurationError` unless ``name`` is a backend."""
    if name in BACKEND_NAMES:
        return
    hint = (
        "; the process backend was removed, use 'thread' (the kernels "
        "release the GIL, so threads run them in parallel)"
        if name == "process"
        else ""
    )
    raise ConfigurationError(
        f"backend must be one of {BACKEND_NAMES}, got {name!r}{hint}"
    )


class ExecutionBackend:
    """Where engine kernels execute, and on how many workers.

    Parameters
    ----------
    n_jobs:
        Worker count (default: one per CPU; always 1 for serial).
    """

    #: Identifier used in ``backend=`` parameters and run statistics.
    name: str = "serial"

    def __init__(self, n_jobs: int | None = None):
        if n_jobs is not None and n_jobs <= 0:
            raise ConfigurationError(f"n_jobs must be positive, got {n_jobs}")
        self.n_jobs = int(n_jobs) if n_jobs is not None else (os.cpu_count() or 1)
        #: Worker pools opened over this backend's lifetime.  The
        #: engine's contract is *one* pool per fit or server (pools are
        #: expensive); tests assert it through this counter.
        self.sessions_opened = 0

    @property
    def is_parallel(self) -> bool:
        """Whether this backend runs tasks outside the calling thread."""
        return self.name != "serial"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


class SerialBackend(ExecutionBackend):
    """Run every task in the calling thread (the default)."""

    name = "serial"

    def __init__(self, n_jobs: int | None = None):
        super().__init__(1 if n_jobs is None else n_jobs)


class ThreadBackend(ExecutionBackend):
    """Run tasks on a thread pool of ``n_jobs`` workers."""

    name = "thread"


_BACKEND_CLASSES: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
}


def resolve_backend(
    backend: str | ExecutionBackend, n_jobs: int | None = None
) -> ExecutionBackend:
    """Turn a ``backend=`` argument into an :class:`ExecutionBackend`.

    Parameters
    ----------
    backend:
        A backend name from :data:`BACKEND_NAMES` or an already
        constructed backend (returned unchanged; ``n_jobs`` must then
        be ``None``).
    n_jobs:
        Worker count for named backends; defaults to one worker per
        CPU for the thread backend and is fixed at 1 for serial.
    """
    if isinstance(backend, ExecutionBackend):
        if n_jobs is not None and n_jobs != backend.n_jobs:
            raise ConfigurationError(
                f"n_jobs={n_jobs} conflicts with the provided backend's "
                f"n_jobs={backend.n_jobs}; configure one or the other"
            )
        return backend
    check_backend_name(backend)
    return _BACKEND_CLASSES[backend](n_jobs)
