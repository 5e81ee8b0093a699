"""Unified observability: metrics, tracing spans, structured events.

``repro.obs`` grows the measurement layer (:mod:`repro.instrumentation`
keeps the paper-shaped ``Timer``/``RunStats`` primitives) into the
production-facing one:

* :class:`MetricsRegistry` — process-local counters / gauges /
  fixed-bucket histograms with a snapshot/merge protocol
  (:meth:`~repro.obs.registry.MetricsRegistry.merge`), and
  :func:`capture_metrics` to scope a measurement to one block;
* :class:`span` / :class:`PhaseSpans` — the one wall-clock emitter
  behind ``RunStats.phase_s``, ``extend_stats_`` and the serving
  request metrics, nesting per thread and feeding the registry;
* :mod:`repro.obs.events` — opt-in JSON-lines trace output
  (``--trace`` on the CLI);
* :func:`format_phase_timings` — the shared CLI phase pretty-printer.

``GET /metrics`` on ``repro serve --http`` renders a registry with
:meth:`~repro.obs.registry.MetricsRegistry.to_prometheus`.
"""

from repro.obs.events import (
    disable_tracing,
    emit_event,
    enable_tracing,
    tracing_enabled,
)
from repro.obs.format import format_phase_timings
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    capture_metrics,
    metrics,
)
from repro.obs.spans import PhaseSpans, current_span, span, traced

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "metrics",
    "capture_metrics",
    "span",
    "current_span",
    "traced",
    "PhaseSpans",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "emit_event",
    "format_phase_timings",
]
