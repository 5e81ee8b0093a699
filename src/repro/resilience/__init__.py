"""repro.resilience — admission control and fault injection.

The serving stack's overload toolkit, in two parts:

* :class:`AdmissionQueue` (``queue.py``) — bounded admission +
  micro-batching in front of :class:`repro.serve.ModelServer`, with
  per-request deadlines;
* :class:`FaultPlan` / :func:`inject_faults` (``faults.py``) —
  deterministic kernel delays for the deadline and shutdown tests in
  ``tests/resilience/``.

Configuration lives in :class:`repro.api.ResilienceSpec`, hanging off
:class:`repro.api.ServeSpec`.
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultState,
    active_faults,
    clear_faults,
    inject_faults,
    install_faults,
)
from repro.resilience.queue import AdmissionQueue

__all__ = [
    "AdmissionQueue",
    "FaultPlan",
    "FaultState",
    "active_faults",
    "install_faults",
    "clear_faults",
    "inject_faults",
]
