"""Thread-safe metrics primitives: counters, gauges, histograms.

The registry is the engine's measurement backbone.  Design constraints
(see DESIGN.md and docs/observability.md):

* **Leaf locking.**  Every metric owns a small leaf lock; recording a
  sample never acquires the engine latch — so instrumentation can run
  *inside* its critical sections without extending the lock order.
* **Near-zero cost when disabled.**  Call sites guard with the registry's
  ``enabled`` flag (one attribute load and a bool test); a disabled
  registry also short-circuits :meth:`MetricsRegistry.timed` to a shared
  no-op context manager, so nothing touches the clock.
* **Exactness.**  Counter increments and histogram observations are
  mutated under the metric's lock, so totals are exact under arbitrary
  thread interleavings (asserted by the 8-thread hammer test).

Export formats: :meth:`MetricsRegistry.snapshot` (a plain dict, embedded
in benchmark JSON artifacts) and :meth:`MetricsRegistry.render_text`
(Prometheus text exposition format).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Fixed latency buckets (seconds): 50µs .. 10s, roughly logarithmic.
#: An implicit +Inf bucket always exists.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (k, labels[k]) for k in sorted(labels)
    )


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return "Counter(%s%s=%d)" % (self.name, _label_key(self.labels), self.value)


class Gauge:
    """A point-in-time value: set directly, or computed by a callback at
    read time (used to mirror the engine's :class:`ObservableStats`
    counters into the registry without double-counting on the hot path)."""

    __slots__ = ("name", "labels", "_lock", "_value", "_callback")

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        if self._callback is not None:
            return self._callback()
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return "Gauge(%s%s=%r)" % (self.name, _label_key(self.labels), self.value)


class Histogram:
    """A fixed-bucket histogram with percentile estimation.

    Buckets are cumulative upper bounds (Prometheus style); an implicit
    +Inf bucket catches the tail.  Percentiles are estimated by linear
    interpolation within the bucket containing the target rank, which is
    exact enough for latency reporting (the error is bounded by the
    bucket width).
    """

    __slots__ = ("name", "labels", "_lock", "_bounds", "_counts", "_sum", "_count", "_max")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        # Bisect without the module import: bucket lists are short (~17).
        bounds = self._bounds
        index = len(bounds)
        for i, bound in enumerate(bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = q * total
            cumulative = 0
            lower = 0.0
            for i, bound in enumerate(self._bounds):
                previous = cumulative
                cumulative += self._counts[i]
                if cumulative >= rank:
                    if self._counts[i] == 0:
                        return bound
                    fraction = (rank - previous) / self._counts[i]
                    return lower + fraction * (bound - lower)
                lower = bound
            return self._max  # rank landed in the +Inf bucket

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
            max_seen = self._max
        summary: Dict[str, Any] = {
            "count": total,
            "sum": round(total_sum, 9),
            "max": round(max_seen, 9),
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
        }
        summary["buckets"] = {
            _bound_label(bound): count
            for bound, count in zip(self._bounds + (math.inf,), counts)
        }
        return summary

    def __repr__(self) -> str:
        return "Histogram(%s, count=%d)" % (self.name, self.count)


def _bound_label(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else repr(bound)


class _Timer:
    """Context manager observing elapsed wall time into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._histogram.observe(time.monotonic() - self._start)


class _NoopTimer:
    """Shared do-nothing context manager for disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NOOP_TIMER = _NoopTimer()


def timed(histogram: Histogram) -> _Timer:
    """Time a block into ``histogram``:

    ``with timed(h): ...``
    """
    return _Timer(histogram)


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Metric constructors are idempotent: asking for an existing
    name+labels pair returns the same object, so call sites can resolve
    metrics lazily without coordination.  The registry lock only guards
    the name table — samples go through each metric's own leaf lock.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- metric constructors (idempotent) ---------------------------------

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = name + _label_key(labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, labels)
            return metric

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        key = name + _label_key(labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, labels, callback)
            elif callback is not None:
                metric._callback = callback
            return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = name + _label_key(labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, buckets, labels)
            return metric

    def timed(self, name: str) -> Any:
        """Time a block into the named histogram — a no-op (and no clock
        read) when the registry is disabled."""
        if not self.enabled:
            return _NOOP_TIMER
        return _Timer(self.histogram(name))

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything the registry holds, as one JSON-serializable dict."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {key: metric.value for key, metric in counters},
            "gauges": {key: metric.value for key, metric in gauges},
            "histograms": {
                key: metric.snapshot() for key, metric in histograms
            },
        }

    def render_text(self) -> str:
        """Prometheus text exposition format (one sample per line)."""
        with self._lock:
            counters = sorted(self._counters.values(), key=lambda m: m.name)
            gauges = sorted(self._gauges.values(), key=lambda m: m.name)
            histograms = sorted(self._histograms.values(), key=lambda m: m.name)
        lines: List[str] = []
        seen_types: set = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append("# TYPE %s %s" % (name, kind))

        for metric in counters:
            type_line(metric.name, "counter")
            lines.append(
                "%s%s %d" % (metric.name, _label_key(metric.labels), metric.value)
            )
        for metric in gauges:
            type_line(metric.name, "gauge")
            lines.append(
                "%s%s %s" % (metric.name, _label_key(metric.labels), _fmt(metric.value))
            )
        for metric in histograms:
            type_line(metric.name, "histogram")
            data = metric.snapshot()
            base_labels = dict(metric.labels)
            cumulative = 0
            for bound, count in data["buckets"].items():
                cumulative += count
                bucket_labels = dict(base_labels)
                bucket_labels["le"] = bound
                lines.append(
                    "%s_bucket%s %d"
                    % (metric.name, _label_key(bucket_labels), cumulative)
                )
            lines.append(
                "%s_sum%s %s"
                % (metric.name, _label_key(base_labels), _fmt(data["sum"]))
            )
            lines.append(
                "%s_count%s %d"
                % (metric.name, _label_key(base_labels), data["count"])
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
