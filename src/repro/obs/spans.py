"""Tracing spans: one wall-clock emitter for fit, extend, and serve.

A :class:`span` is a context manager built on
:class:`repro.instrumentation.Timer` that (a) measures one wall-clock
interval, (b) nests — each thread keeps a span stack, so a span knows
its parent, depth, and completed children — (c) rolls its duration
into a :class:`~repro.obs.registry.MetricsRegistry` as the
``repro_span_seconds_total`` / ``repro_span_calls_total`` counter pair
labelled by span name, and (d) emits a structured JSON trace event
when tracing is enabled (:func:`repro.obs.events.enable_tracing`).

The phase dicts the estimators expose (``RunStats.phase_s``,
``StreamingMHKModes.extend_stats_``) are fed by :class:`PhaseSpans`, a
thin accumulator over :class:`span`: the measured interval is the
*same* ``Timer`` reading the old hand-rolled code recorded, so the
published values keep their exact semantics while also landing in the
registry and the trace stream.
"""

from __future__ import annotations

import contextlib
import threading
from types import TracebackType
from typing import Callable

from repro.instrumentation.timer import Timer
from repro.obs import events
from repro.obs.registry import MetricsRegistry, metrics

__all__ = ["span", "current_span", "traced", "PhaseSpans"]

_LOCAL = threading.local()


def _span_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def current_span() -> "span | None":
    """The innermost span open on this thread (``None`` outside spans)."""
    stack = _span_stack()
    return stack[-1] if stack else None


class span:
    """Measure one named wall-clock interval; nest freely.

    Parameters
    ----------
    name:
        Dotted span name (``"fit.signatures"``, ``"serve.predict_chunk"``).
        Becomes the ``span`` label on the registry counters and the
        ``name`` field of trace events.
    registry:
        Target registry; ``None`` records into the process default
        (:func:`repro.obs.metrics`) — resolved at *exit*, so spans
        inside :func:`~repro.obs.capture_metrics` land in the captured
        registry.
    **attributes:
        Arbitrary JSON-safe values attached to the trace event.

    After exit, ``wall_s`` (alias ``elapsed_s``) holds the duration and
    ``children`` the completed sub-spans entered on the same thread.
    """

    def __init__(
        self, name: str, registry: MetricsRegistry | None = None, **attributes
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.wall_s = 0.0
        self.depth = 0
        self.parent: span | None = None
        self.children: list[span] = []
        self._registry = registry
        self._timer = Timer()

    @property
    def elapsed_s(self) -> float:
        return self.wall_s

    def __enter__(self) -> "span":
        stack = _span_stack()
        self.parent = stack[-1] if stack else None
        self.depth = len(stack)
        stack.append(self)
        self._timer.__enter__()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._timer.__exit__(exc_type, exc, tb)
        self.wall_s = self._timer.elapsed_s
        stack = _span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self.parent is not None:
            self.parent.children.append(self)
        registry = self._registry if self._registry is not None else metrics()
        registry.counter(
            "repro_span_seconds_total",
            help="Wall-clock seconds spent inside each span.",
            labels={"span": self.name},
        ).inc(self.wall_s)
        registry.counter(
            "repro_span_calls_total",
            help="Times each span was entered.",
            labels={"span": self.name},
        ).inc()
        if events.tracing_enabled():
            events.emit_event(
                "span",
                name=self.name,
                wall_s=self.wall_s,
                depth=self.depth,
                error=exc_type.__name__ if exc_type is not None else None,
                **self.attributes,
            )


def traced(name: str, registry: MetricsRegistry | None = None):
    """Decorator form of :class:`span` — wrap every call of a function.

    Used on the engine's worker kernels: each kernel call records one
    ``repro_span_*`` sample into the process-local default registry,
    from whichever worker thread runs it.
    """

    def decorate(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name, registry=registry):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


class PhaseSpans:
    """Accumulate named phase durations through the span emitter.

    The estimator-facing face of the span API: ``totals[name]`` sums
    every completed ``phases.span(name)`` interval — exactly what the
    old hand-rolled ``Timer`` + ``dict`` code published as ``phase_s``
    and ``extend_stats_`` — while each interval also reaches the
    registry (span ``"<prefix>.<name>"``) and the trace stream.

    Parameters
    ----------
    prefix:
        Prepended to phase names for the emitted span (``"fit"`` →
        span ``"fit.signatures"``); totals stay keyed by the bare name.
    totals:
        Accumulate into this dict instead of a fresh one (pre-seeded
        zeros keep a fixed key set).
    registry:
        Forwarded to each :class:`span`.
    on_phase:
        ``(name, seconds)`` callback after each phase completes — the
        streaming estimator uses it to keep lifetime cumulative totals
        next to the per-call snapshot.
    """

    def __init__(
        self,
        prefix: str,
        totals: dict[str, float] | None = None,
        registry: MetricsRegistry | None = None,
        on_phase: Callable[[str, float], None] | None = None,
    ) -> None:
        self.prefix = prefix
        self.totals: dict[str, float] = {} if totals is None else totals
        self._registry = registry
        self._on_phase = on_phase

    @contextlib.contextmanager
    def span(self, name: str, **attributes):
        with span(
            f"{self.prefix}.{name}", registry=self._registry, **attributes
        ) as active:
            yield active
        self.totals[name] = self.totals.get(name, 0.0) + active.wall_s
        if self._on_phase is not None:
            self._on_phase(name, active.wall_s)
