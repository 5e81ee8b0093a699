"""Deterministic fault injection for the deadline and shutdown tests.

Deadline, drain and overload behaviour cannot be tested unless
something makes kernels slow, on schedule.  A :class:`FaultPlan` says
how slow: ``delay_s`` makes every kernel call a pool dispatches sleep
first.  :func:`inject_faults` arms the plan process-wide; the armed
:class:`FaultState` counts every kernel call it wrapped
(:attr:`FaultState.chunks_seen`, 1-based, across all worker threads).

:meth:`repro.engine.pool.PersistentPool.run` checks
:func:`active_faults` once per dispatch; when no plan is armed the
production path pays a single global read and nothing else.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "FaultPlan",
    "FaultState",
    "active_faults",
    "install_faults",
    "clear_faults",
    "inject_faults",
]


@dataclass(frozen=True)
class FaultPlan:
    """How every kernel call misbehaves while the plan is armed.

    >>> FaultPlan(delay_s=0.25)
    FaultPlan(delay_s=0.25)
    """

    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.delay_s, (int, float)) or self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s must be a non-negative number, got {self.delay_s!r}"
            )


class FaultState:
    """An armed :class:`FaultPlan` plus its kernel-call counter."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def chunks_seen(self) -> int:
        """Kernel invocations counted so far (across all worker threads)."""
        with self._lock:
            return self._calls

    def on_chunk(self) -> None:
        """Count one kernel call, then apply the plan's delay."""
        with self._lock:
            self._calls += 1
        if self.plan.delay_s:
            time.sleep(self.plan.delay_s)

    def wrap(self, fn):
        """``fn`` with :meth:`on_chunk` run before every call."""

        def faulted(static, dynamic, task):
            self.on_chunk()
            return fn(static, dynamic, task)

        return faulted


#: The armed plan, if any; ``None`` keeps the production path one read.
_ACTIVE: FaultState | None = None


def active_faults() -> FaultState | None:
    """The armed :class:`FaultState`, or ``None`` (the production case)."""
    return _ACTIVE


def install_faults(plan: FaultPlan) -> FaultState:
    """Arm ``plan`` process-wide; returns its :class:`FaultState`."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ConfigurationError(
            "a fault plan is already installed; clear_faults() first "
            "(fault plans do not nest)"
        )
    _ACTIVE = FaultState(plan)
    return _ACTIVE


def clear_faults() -> None:
    """Disarm any installed plan (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def inject_faults(plan: FaultPlan):
    """Context manager: arm ``plan``, yield its state, always disarm.

    >>> with inject_faults(FaultPlan(delay_s=0.0)) as state:
    ...     state.chunks_seen
    0
    >>> active_faults() is None
    True
    """
    state = install_faults(plan)
    try:
        yield state
    finally:
        clear_faults()
