"""Process-local metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per scope (the process default from
:func:`metrics`, or a private one per :class:`repro.serve.ModelServer`)
holds every instrument behind a single lock.  Three properties shape
the design:

* **Fixed buckets.**  Histograms never rebucket; observation is an
  O(log buckets) bisect plus two adds, cheap enough for per-request
  hot paths, and two histograms with identical buckets merge by plain
  element-wise addition.
* **Snapshot/merge.**  :meth:`MetricsRegistry.snapshot` renders the
  whole registry into a JSON-safe dict and
  :meth:`MetricsRegistry.merge` folds such a dict back in (counters
  and histograms add, gauges last-write-win).  A server merges its
  private request registry with the process default this way, and
  :func:`capture_metrics` scopes a measurement to one block.
* **Prometheus text.**  :meth:`MetricsRegistry.to_prometheus` renders
  the standard exposition format served by ``GET /metrics``.
"""

from __future__ import annotations

import contextlib
import re
import threading
from bisect import bisect_left
from typing import Iterator

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "metrics",
    "capture_metrics",
]

#: Request-latency buckets (seconds): sub-millisecond serving up to
#: ten-second batch jobs.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Batch-size buckets (rows): single-row pushes up to max-batch sweeps.
DEFAULT_SIZE_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigurationError(
            f"metric names must match {_NAME_RE.pattern}, got {name!r}"
        )
    return name


def _check_labels(labels: dict | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    items = []
    for key, value in sorted(labels.items()):
        if not isinstance(key, str) or not _LABEL_RE.match(key):
            raise ConfigurationError(
                f"label names must match {_LABEL_RE.pattern}, got {key!r}"
            )
        items.append((key, str(value)))
    return tuple(items)


class _Instrument:
    """Shared identity bits: ``(name, sorted labels)`` keys a metric."""

    kind = "abstract"

    def __init__(
        self, name: str, labels: tuple[tuple[str, str], ...], help: str
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.name, self.labels)


class Counter(_Instrument):
    """A monotonically increasing value (requests, errors, seconds)."""

    kind = "counter"

    def __init__(self, name, labels=(), help="") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative; counters never go down)."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only increase; got inc({amount!r})"
            )
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can go both ways (in-flight requests, pool size)."""

    kind = "gauge"

    def __init__(self, name, labels=(), help="") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Fixed-bucket distribution with a cumulative ``+Inf`` tail.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket always follows.  ``bucket_counts[i]`` is
    the number of observations with ``value <= buckets[i]`` minus those
    in earlier buckets (per-bucket counts; the Prometheus renderer
    cumulates them).
    """

    kind = "histogram"

    def __init__(
        self, name, labels=(), help="", buckets=DEFAULT_LATENCY_BUCKETS_S
    ) -> None:
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigurationError(
                f"histogram buckets must be a non-empty strictly increasing "
                f"sequence, got {buckets!r}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf tail
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def bucket_counts(self) -> list[int]:
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation.

        The estimate interpolates within the bucket holding the target
        rank (the standard Prometheus ``histogram_quantile`` scheme);
        observations beyond the last finite bound clamp to it.  An
        empty histogram estimates 0.0.

        The first bucket's span starts at 0.0 only when its bound is
        positive (latency-style histograms); a non-positive first bound
        estimates the bound itself, never a value above it.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        lower = min(0.0, self.buckets[0])
        for upper, count in zip(self.buckets, counts):
            if count and cumulative + count >= rank:
                fraction = max(rank - cumulative, 0.0) / count
                return lower + (upper - lower) * fraction
            cumulative += count
            lower = upper
        return self.buckets[-1]

    def _merge_counts(self, bucket_counts: list[int], total_sum: float) -> None:
        with self._lock:
            for i, count in enumerate(bucket_counts):
                self._counts[i] += int(count)
            self._sum += float(total_sum)


class MetricsRegistry:
    """Get-or-create home for every instrument in one scope.

    All three factories are idempotent: asking again with the same
    ``(name, labels)`` returns the existing instrument; asking with a
    conflicting kind (or conflicting histogram buckets) raises
    :class:`~repro.exceptions.ConfigurationError`.  The registry lock
    only guards the instrument table — each instrument carries its own
    lock, so hot-path updates never contend with registration.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, _Instrument] = {}

    # -- factories -------------------------------------------------------

    def _get_or_create(self, cls, name, labels, help, **kwargs):
        key = (_check_name(name), _check_labels(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                wanted = kwargs.get("buckets")
                if wanted is not None and tuple(
                    float(b) for b in wanted
                ) != existing.buckets:
                    raise ConfigurationError(
                        f"histogram {name!r} is already registered with "
                        f"buckets {existing.buckets}"
                    )
                return existing
            instrument = cls(key[0], key[1], help, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets=DEFAULT_LATENCY_BUCKETS_S,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, help, buckets=buckets
        )

    # -- read surface ----------------------------------------------------

    def get(self, name: str, labels: dict | None = None) -> _Instrument | None:
        """The registered instrument for ``(name, labels)``, or ``None``."""
        with self._lock:
            return self._instruments.get((name, _check_labels(labels)))

    def value(self, name: str, labels: dict | None = None) -> float | None:
        """Counter/gauge value (histograms: observation count)."""
        instrument = self.get(name, labels)
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value

    def __iter__(self) -> Iterator[_Instrument]:
        with self._lock:
            return iter(list(self._instruments.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as a JSON-safe dict (see :meth:`merge`)."""
        counters, gauges, histograms = [], [], []
        for instrument in self:
            entry = {
                "name": instrument.name,
                "labels": dict(instrument.labels),
                "help": instrument.help,
            }
            if isinstance(instrument, Counter):
                counters.append({**entry, "value": instrument.value})
            elif isinstance(instrument, Gauge):
                gauges.append({**entry, "value": instrument.value})
            else:
                assert isinstance(instrument, Histogram)
                with instrument._lock:
                    counts = list(instrument._counts)
                    total = instrument._sum
                histograms.append(
                    {
                        **entry,
                        "buckets": list(instrument.buckets),
                        "bucket_counts": counts,
                        "sum": total,
                    }
                )
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters and histogram buckets **add** (the snapshot is a delta
        or a sibling scope's totals); gauges **overwrite** (a gauge is
        a level, and the snapshot's reading is the newer one).  Unknown
        instruments are created on first sight, so merging into an
        empty registry reconstructs the source exactly.
        """
        for entry in snapshot.get("counters", ()):
            self.counter(
                entry["name"], help=entry.get("help", ""), labels=entry["labels"]
            ).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(
                entry["name"], help=entry.get("help", ""), labels=entry["labels"]
            ).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            histogram = self.histogram(
                entry["name"],
                help=entry.get("help", ""),
                labels=entry["labels"],
                buckets=entry["buckets"],
            )
            histogram._merge_counts(entry["bucket_counts"], entry["sum"])

    # -- Prometheus text exposition --------------------------------------

    def to_prometheus(self) -> str:
        """Render the standard text exposition format (one family per
        metric name: ``# HELP``/``# TYPE`` headers, then every labelled
        series; histograms expand to cumulative ``_bucket`` series plus
        ``_sum`` and ``_count``)."""
        families: dict[str, list[_Instrument]] = {}
        for instrument in self:
            families.setdefault(instrument.name, []).append(instrument)
        lines: list[str] = []
        for name, instruments in families.items():
            first = instruments[0]
            if first.help:
                lines.append(f"# HELP {name} {_escape_help(first.help)}")
            lines.append(f"# TYPE {name} {first.kind}")
            for instrument in instruments:
                if isinstance(instrument, Histogram):
                    _render_histogram(lines, instrument)
                else:
                    lines.append(
                        f"{name}{_label_text(instrument.labels)} "
                        f"{_format_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = tuple(labels) + tuple(extra)
    if not items:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in items)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _format_bound(bound: float) -> str:
    return str(int(bound)) if float(bound).is_integer() else repr(float(bound))


def _render_histogram(lines: list[str], histogram: Histogram) -> None:
    cumulative = 0
    counts = histogram.bucket_counts
    for bound, count in zip(histogram.buckets, counts):
        cumulative += count
        lines.append(
            f"{histogram.name}_bucket"
            f"{_label_text(histogram.labels, (('le', _format_bound(bound)),))}"
            f" {cumulative}"
        )
    cumulative += counts[-1]
    lines.append(
        f"{histogram.name}_bucket"
        f"{_label_text(histogram.labels, (('le', '+Inf'),))} {cumulative}"
    )
    lines.append(
        f"{histogram.name}_sum{_label_text(histogram.labels)} "
        f"{_format_value(histogram.sum)}"
    )
    lines.append(
        f"{histogram.name}_count{_label_text(histogram.labels)} {cumulative}"
    )


# ----------------------------------------------------------------------
# the process-local default registry
# ----------------------------------------------------------------------

_default_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-local default registry.

    Spans (:func:`repro.obs.span`) record here unless pointed at a
    private registry — including spans recorded on engine worker
    threads, which share the process and therefore this registry.
    """
    return _default_registry


@contextlib.contextmanager
def capture_metrics():
    """Swap in a fresh default registry for the duration of a block.

    Yields the fresh registry; everything recorded through
    :func:`metrics` inside the block lands there, and the previous
    default is restored afterwards.  This is how tests and benchmarks
    scope a measurement to one run.  Swapping a module global is not
    atomic with respect to other threads' recording — a span that
    another thread records while the swap happens may land in either
    registry, so capture around work whose threads start and finish
    inside the block.
    """
    global _default_registry
    previous = _default_registry
    fresh = MetricsRegistry()
    _default_registry = fresh
    try:
        yield fresh
    finally:
        _default_registry = previous
