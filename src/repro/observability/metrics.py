"""Metrics: counters, gauges, and histograms with labels.

Figure 3 shows the manager aggregating "metrics, traces, logs" from every
envelope.  This module is the in-process half: components and the framework
record into a :class:`MetricsRegistry`; envelopes snapshot it and ship it to
the manager, which merges snapshots across proclets
(:meth:`MetricsRegistry.merge_snapshot`).

Histograms use fixed exponential buckets, so merging across processes is
exact (same bucket boundaries everywhere) and quantile estimates are cheap.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Any

Labels = tuple[tuple[str, str], ...]


def _labels(kwargs: dict[str, str]) -> Labels:
    return tuple(sorted(kwargs.items()))


#: Default latency-oriented buckets: 50µs .. ~105s, exponential x2.
DEFAULT_BUCKETS = tuple(50e-6 * 2**i for i in range(21))


@dataclass
class CounterValue:
    value: float = 0.0


@dataclass
class GaugeValue:
    value: float = 0.0


@dataclass
class HistogramValue:
    buckets: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    #: bucket index -> (observed value, trace_id): the most recent traced
    #: observation that landed in that bucket.  A latency spike in bucket i
    #: pivots straight to ``exemplars[i]``'s trace.
    exemplars: dict[int, tuple[float, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float, exemplar: int = 0) -> None:
        index = bisect.bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.total += value
        self.count += 1
        if exemplar:
            self.exemplars[index] = (value, exemplar)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile from bucket midpoints (upper bound bias)."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                if i == 0:
                    return self.buckets[0] / 2
                if i >= len(self.buckets):
                    return self.buckets[-1]
                return (self.buckets[i - 1] + self.buckets[i]) / 2
        return self.buckets[-1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "HistogramValue") -> None:
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count
        self.exemplars.update(other.exemplars)


class BoundMetric:
    """One cell with its labels pre-resolved — the hot-path handle.

    ``Metric.inc/observe`` resolve the label set to a cell on every call
    (sort + tuple + dict lookup); call sites that record per-RPC bind the
    cell once and skip all of that.
    """

    __slots__ = ("_cell",)

    def __init__(self, cell: Any) -> None:
        self._cell = cell

    def inc(self, value: float = 1.0) -> None:
        self._cell.value += value

    def set(self, value: float) -> None:
        self._cell.value = value

    def observe(self, value: float, exemplar: int = 0) -> None:
        self._cell.observe(value, exemplar)


class BoundHistogram(BoundMetric):
    """Histogram cell handle with the bucket math inlined."""

    __slots__ = ("_buckets", "_counts")

    def __init__(self, cell: HistogramValue) -> None:
        super().__init__(cell)
        self._buckets = cell.buckets
        self._counts = cell.counts

    def observe(self, value: float, exemplar: int = 0) -> None:
        index = bisect.bisect_left(self._buckets, value)
        self._counts[index] += 1
        cell = self._cell
        cell.total += value
        cell.count += 1
        if exemplar:
            cell.exemplars[index] = (value, exemplar)


class Metric:
    """One named metric family; label sets select time series within it."""

    def __init__(self, name: str, kind: str, registry: "MetricsRegistry", buckets=DEFAULT_BUCKETS):
        self.name = name
        self.kind = kind
        self._registry = registry
        self._buckets = buckets

    def _cell(self, kwargs: dict[str, str]) -> Any:
        return self._registry._cell(self.name, self.kind, _labels(kwargs), self._buckets)

    # counter
    def inc(self, value: float = 1.0, **labels: str) -> None:
        self._cell(labels).value += value

    # gauge
    def set(self, value: float, **labels: str) -> None:
        self._cell(labels).value = value

    # histogram
    def observe(self, value: float, exemplar: int = 0, **labels: str) -> None:
        self._cell(labels).observe(value, exemplar)

    def get(self, **labels: str) -> Any:
        return self._cell(labels)

    def bind(self, **labels: str) -> BoundMetric:
        """Pre-resolve one label set for per-call recording."""
        cell = self._cell(labels)
        if isinstance(cell, HistogramValue):
            return BoundHistogram(cell)
        return BoundMetric(cell)


class MetricsRegistry:
    """The home of every metric in one process (no lock: one event loop)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._cells: dict[tuple[str, Labels], Any] = {}
        self._kinds: dict[str, str] = {}

    def counter(self, name: str) -> Metric:
        return self._metric(name, "counter")

    def gauge(self, name: str) -> Metric:
        return self._metric(name, "gauge")

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Metric:
        return self._metric(name, "histogram", buckets)

    def _metric(self, name: str, kind: str, buckets=DEFAULT_BUCKETS) -> Metric:
        existing = self._kinds.get(name)
        if existing is not None and existing != kind:
            raise ValueError(f"metric {name!r} already registered as {existing}")
        self._kinds[name] = kind
        metric = self._metrics.get(name)
        if metric is None:
            metric = Metric(name, kind, self, buckets)
            self._metrics[name] = metric
        return metric

    def _cell(self, name: str, kind: str, labels: Labels, buckets) -> Any:
        key = (name, labels)
        cell = self._cells.get(key)
        if cell is None:
            if kind == "counter":
                cell = CounterValue()
            elif kind == "gauge":
                cell = GaugeValue()
            else:
                cell = HistogramValue(buckets)
            self._cells[key] = cell
        return cell

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able snapshot, shipped envelope -> manager."""
        out: dict[str, Any] = {}
        for (name, labels), cell in self._cells.items():
            entry = {"labels": list(labels), "kind": self._kinds[name]}
            if isinstance(cell, (CounterValue, GaugeValue)):
                entry["value"] = cell.value
            else:
                entry["buckets"] = list(cell.buckets)
                entry["counts"] = list(cell.counts)
                entry["total"] = cell.total
                entry["count"] = cell.count
                if cell.exemplars:
                    # JSON object keys must be strings.
                    entry["exemplars"] = {
                        str(i): [v, tid] for i, (v, tid) in cell.exemplars.items()
                    }
            out.setdefault(name, []).append(entry)
        return out

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Merge a snapshot from another process into this registry."""
        for name, entries in snapshot.items():
            for entry in entries:
                kind = entry["kind"]
                labels = tuple(tuple(kv) for kv in entry["labels"])
                self._kinds.setdefault(name, kind)
                cell = self._cell(
                    name,
                    kind,
                    labels,
                    tuple(entry.get("buckets", DEFAULT_BUCKETS)),
                )
                if kind == "counter":
                    cell.value += entry["value"]
                elif kind == "gauge":
                    cell.value = entry["value"]
                else:
                    incoming = HistogramValue(
                        tuple(entry["buckets"]),
                        list(entry["counts"]),
                        entry["total"],
                        entry["count"],
                        {
                            int(i): (v, tid)
                            for i, (v, tid) in entry.get("exemplars", {}).items()
                        },
                    )
                    cell.merge(incoming)

    def cells(self) -> dict[tuple[str, Labels], Any]:
        return dict(self._cells)


def render_prometheus(registry: "MetricsRegistry") -> str:
    """Render the registry in the Prometheus text exposition format.

    Figure 3's manager "aggregates metrics"; this is the standard way to
    hand them onward to an external scraper.  Histograms use the
    cumulative ``_bucket``/``_sum``/``_count`` convention.
    """
    lines: list[str] = []
    by_name: dict[str, list[tuple[Labels, Any]]] = {}
    for (name, labels), cell in registry.cells().items():
        by_name.setdefault(name, []).append((labels, cell))
    for name in sorted(by_name):
        kind = registry._kinds.get(name, "untyped")
        prom_type = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}[kind]
        lines.append(f"# TYPE {name} {prom_type}")
        for labels, cell in sorted(by_name[name]):
            label_str = _prom_labels(labels)
            if isinstance(cell, (CounterValue, GaugeValue)):
                lines.append(f"{name}{label_str} {_prom_num(cell.value)}")
            else:
                cumulative = 0
                for bound, count in zip(cell.buckets, cell.counts):
                    cumulative += count
                    le = _prom_labels(labels + (("le", _prom_num(bound)),))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += cell.counts[-1]
                inf = _prom_labels(labels + (("le", "+Inf"),))
                lines.append(f"{name}_bucket{inf} {cumulative}")
                lines.append(f"{name}_sum{label_str} {_prom_num(cell.total)}")
                lines.append(f"{name}_count{label_str} {cell.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _prom_escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Timer:
    """Context manager observing elapsed seconds into a histogram metric."""

    def __init__(self, metric: Metric, **labels: str) -> None:
        self._metric = metric
        self._labels = labels
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._metric.observe(self.elapsed, **self._labels)


#: Process-wide default registry (deployments may create private ones).
DEFAULT = MetricsRegistry()
