"""A small metrics registry: counters, gauges, fixed-bucket histograms.

Deliberately not a process-global singleton: every
:class:`MetricsRegistry` is an independent namespace, created by whoever
needs one (an :class:`repro.obs.runtime.Observability`, a test) and
garbage-collected with it — nothing leaks between tests or between two
services running in one process.  Registering the same metric name twice
in one registry is a hard :class:`repro.errors.DuplicateMetricError`;
silent double registration is how counter values become unexplainable.

All mutation goes through one lock per metric family, so concurrent
requests on the serve thread pool can increment freely.  Label values
are stringified; a family's samples are keyed by the tuple of label
values in ``labelnames`` order.  Hot callers resolve that key once with
:meth:`~_Metric.key` and update through the ``*_key`` methods, which
skip the per-call label handling; counters that are always updated
together can share one lock and be updated in one acquisition with
:func:`inc_counters`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.errors import DuplicateMetricError

__all__ = [
    "inc_counters",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "MICRO_TIME_BUCKETS",
]

#: fixed latency buckets in seconds, spanning sub-µs simulated kernels
#: to multi-second wall clock stalls.
DEFAULT_TIME_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

#: microsecond-resolution preset for solve/segment timings: the
#: simulated solve latencies of the suite land between ~10 µs and ~5 ms,
#: where :data:`DEFAULT_TIME_BUCKETS` offers only two bounds per decade.
#: Wall-clock families (request latency, queue wait) keep the default
#: preset; simulated-time families use this one.
MICRO_TIME_BUCKETS = (
    1e-7, 2.5e-7, 5e-7,
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 5e-2, 0.1, 1.0,
)


class _Metric:
    """Shared plumbing of one metric family."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: tuple, lock=None
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock if lock is not None else threading.Lock()

    def key(self, **labels) -> tuple:
        """The sample key of ``labels``: their stringified values in
        ``labelnames`` order, validated once for reuse."""
        return self._key(labels)

    def _key(self, labels: dict) -> tuple:
        # Every inc/observe with keyword labels builds a key.  A
        # matching length plus one successful lookup per labelname
        # proves set equality without materialising two sets per call.
        names = self.labelnames
        if len(labels) == len(names):
            try:
                return tuple([str(labels[ln]) for ln in names])
            except KeyError:
                pass
        raise ValueError(
            f"metric {self.name!r} takes labels {self.labelnames}, "
            f"got {tuple(sorted(labels))}"
        )


class Counter(_Metric):
    """A monotonically increasing sum per label combination."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: tuple = (), lock=None
    ) -> None:
        super().__init__(name, help, labelnames, lock)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.inc_key(self._key(labels), amount)

    def inc_key(self, key: tuple, amount: float = 1.0) -> None:
        """:meth:`inc` under a key from :meth:`key`."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> list[tuple[dict, float]]:
        with self._lock:
            items = list(self._values.items())
        return [(dict(zip(self.labelnames, k)), v) for k, v in items]


def inc_counters(lock, updates) -> None:
    """Add ``(counter, pairs)`` updates with one acquisition of ``lock``,
    which every counter in ``updates`` must have been created with;
    ``pairs`` are ``(key, amount)`` with keys from :meth:`Counter.key`
    and non-negative amounts."""
    for counter, _ in updates:
        if counter._lock is not lock:
            raise ValueError(
                f"counter {counter.name!r} is not guarded by the given lock"
            )
    with lock:
        for counter, pairs in updates:
            values = counter._values
            for key, amount in pairs:
                values[key] = values.get(key, 0.0) + amount


class Gauge(_Metric):
    """A value that can go anywhere (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        self.set_key(self._key(labels), value)

    def set_key(self, key: tuple, value: float) -> None:
        """:meth:`set` under a key from :meth:`key`."""
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[dict, float]]:
        with self._lock:
            items = list(self._values.items())
        return [(dict(zip(self.labelnames, k)), v) for k, v in items]


class Histogram(_Metric):
    """Fixed-bucket distribution; exports cumulative Prometheus buckets.

    ``observe(..., exemplar=...)`` retains one exemplar per bucket (last
    write wins): a short opaque reference — in this code base always a
    span ``trace_id`` — that lets a reader jump from "the p99 bucket"
    to the exact trace that landed there.  Exemplars ride along in both
    exporters (OpenMetrics ``# {trace_id="..."} value`` suffix on bucket
    samples, an ``exemplars`` map in the JSON form).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple = (),
        buckets: tuple = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bl = tuple(sorted(float(b) for b in buckets))
        if not bl:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bl
        #: per label key: [per-bucket counts incl. +Inf, sum, count,
        #: per-bucket exemplar (trace ref, observed value) or None]
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, exemplar=None, **labels) -> None:
        self.observe_key(self._key(labels), value, exemplar)

    def observe_key(self, key: tuple, value: float, exemplar=None) -> None:
        """:meth:`observe` under a key from :meth:`key`."""
        idx = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [
                    [0] * (len(self.buckets) + 1), 0.0, 0,
                    [None] * (len(self.buckets) + 1),
                ]
            series[0][idx] += 1
            series[1] += value
            series[2] += 1
            if exemplar is not None:
                series[3][idx] = (exemplar, value)

    def exemplars(self, **labels) -> dict:
        """``{le_bound: {"exemplar": ref, "value": v}}`` for buckets that
        retained one (``le_bound`` is the bucket's upper bound; the
        overflow bucket appears as ``inf``)."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {}
            stored = list(series[3])
        bounds = list(self.buckets) + [float("inf")]
        return {
            bound: {"exemplar": str(ex[0]), "value": ex[1]}
            for bound, ex in zip(bounds, stored)
            if ex is not None
        }

    def snapshot(self, **labels) -> dict:
        """``{"buckets": {le: cumulative}, "sum": s, "count": n}``."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                counts, total, n = [0] * (len(self.buckets) + 1), 0.0, 0
            else:
                counts, total, n = list(series[0]), series[1], series[2]
        cum, cumulative = 0, {}
        for bound, c in zip(self.buckets, counts):
            cum += c
            cumulative[bound] = cum
        cumulative[float("inf")] = cum + counts[-1]
        return {"buckets": cumulative, "sum": total, "count": n}

    def series_keys(self) -> list[dict]:
        with self._lock:
            keys = list(self._series)
        return [dict(zip(self.labelnames, k)) for k in keys]


class MetricsRegistry:
    """An isolated namespace of metric families.

    >>> reg = MetricsRegistry()
    >>> hits = reg.counter("cache_hits_total", "plan cache hits")
    >>> hits.inc()
    >>> reg.counter("cache_hits_total")          # doctest: +SKIP
    DuplicateMetricError: ...
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise DuplicateMetricError(
                    f"metric {metric.name!r} is already registered as a "
                    f"{self._metrics[metric.name].kind}; use one registry "
                    "per observability scope or reuse the existing handle"
                )
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple = (), *, lock=None
    ) -> Counter:
        """Register a counter; counters that are always updated together
        may share one ``lock`` (see :func:`inc_counters`)."""
        return self._register(Counter(name, help, labelnames, lock))

    def gauge(self, name: str, help: str = "", labelnames: tuple = ()) -> Gauge:
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple = (),
        buckets: tuple = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labelnames, buckets))

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> list[_Metric]:
        """Registered families in registration order."""
        with self._lock:
            return list(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
