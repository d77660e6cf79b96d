"""Per-second time series derived from the manager's telemetry tick.

The metrics pipe ships *cumulative* snapshots; trends live in the deltas.
Every tick (1s by default) the :class:`TelemetryPipeline` diffs the merged
deployment-wide registry against the previous tick and appends one point
per derived series — request rate, error rate, latency quantiles from
histogram bucket deltas, breaker trips — into bounded ring buffers with
a windowed query API.

This is the substrate the signal layer (EWMA anomaly detection, SLO burn
rates) and the live dashboard read from, and the input the closed-loop
remediation controller consumes.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.observability.metrics import HistogramValue, MetricsRegistry

#: Retention per series: ~10 minutes at one point per second.
DEFAULT_CAPACITY = 600


@dataclass
class Point:
    ts: float
    value: float


class RingSeries:
    """One bounded series of (timestamp, value) points: two ``array('d')``
    that grow to ``capacity``, then overwrite the oldest point in place."""

    __slots__ = ("name", "_capacity", "_ts", "_values", "_next")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self._capacity = capacity
        self._ts = array("d")
        self._values = array("d")
        self._next = 0  # the oldest point's slot once full; 0 until then

    def __len__(self) -> int:
        return len(self._ts)

    def append(self, ts: float, value: float) -> None:
        if len(self._ts) < self._capacity:
            self._ts.append(ts)
            self._values.append(value)
            return
        self._ts[self._next] = ts
        self._values[self._next] = value
        self._next = (self._next + 1) % self._capacity

    def points(self, since: float = 0.0) -> list[Point]:
        """Points with ts >= ``since``, oldest first.

        Walks back from the newest point and stops at the first one older
        than ``since``, so a short window costs its own length, not the
        ring's.  That relies on timestamps never decreasing along the
        ring, which holds because each series is written by one telemetry
        tick at a time.
        """
        ts, n = self._ts, len(self._ts)
        count = 0
        while count < n and ts[(self._next - 1 - count) % n] >= since:
            count += 1
        return self.tail(count)

    def tail(self, last: int) -> list[Point]:
        """The newest ``last`` points, oldest first (no walk of the whole ring)."""
        n = len(self._ts)
        return [
            Point(self._ts[i % n], self._values[i % n])
            for i in range(self._next - min(last, n), self._next)
        ]

    def latest(self) -> Optional[Point]:
        if not self._ts:
            return None
        idx = (self._next - 1) % len(self._ts)
        return Point(self._ts[idx], self._values[idx])

    def window_sum(self, window_s: float, now: Optional[float] = None) -> float:
        now = time.time() if now is None else now
        return sum(p.value for p in self.points(since=now - window_s))

    def window_mean(self, window_s: float, now: Optional[float] = None) -> float:
        now = time.time() if now is None else now
        pts = self.points(since=now - window_s)
        return sum(p.value for p in pts) / len(pts) if pts else 0.0


class TimeSeriesStore:
    """Keyed collection of ring series; the manager holds one per deployment.

    Keys are ``(series_name, scope)`` where scope is a component name or
    ``"_total"`` for the deployment-wide roll-up.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._series: dict[tuple[str, str], RingSeries] = {}
        self._capacity = capacity
        # to_wire's (last, answer) until a series or a point is added.
        self._wire: Optional[tuple[int, dict[str, Any]]] = None

    def series(self, name: str, scope: str = "_total") -> RingSeries:
        """The series at (name, scope), or an empty one stored nowhere."""
        s = self._series.get((name, scope))
        return RingSeries(name, 0) if s is None else s

    def record(self, name: str, scope: str, ts: float, value: float) -> None:
        self._wire = None
        s = self._series.get((name, scope))
        if s is None:
            s = self._series[(name, scope)] = RingSeries(name, self._capacity)
        s.append(ts, value)

    def names(self) -> list[tuple[str, str]]:
        return sorted(self._series)

    def query(
        self, name: str, scope: str = "_total", *, window_s: Optional[float] = None
    ) -> list[Point]:
        s = self.series(name, scope)
        if window_s is None:
            return s.points()
        latest = s.latest()
        anchor = latest.ts if latest else time.time()
        return s.points(since=anchor - window_s)

    def latest(self, name: str, scope: str = "_total") -> Optional[float]:
        p = self.series(name, scope).latest()
        return p.value if p else None

    def to_wire(self, *, last: int = 120) -> dict[str, Any]:
        """JSON-able tails of every series for dashboards and the CLI; one
        read-only answer per telemetry tick (only a tick records points)."""
        if self._wire is not None and self._wire[0] == last:
            return self._wire[1]
        out: dict[str, Any] = {}
        for name, scope in self.names():
            pts = self.series(name, scope).tail(last)
            out.setdefault(name, {})[scope] = [
                [round(p.ts, 3), _round(p.value)] for p in pts
            ]
        self._wire = (last, out)
        return out


def _round(v: float) -> float:
    if not math.isfinite(v):
        return 0.0
    return round(v, 6)


# -- cumulative-snapshot differencing ----------------------------------------


def _component_of(labels: tuple[tuple[str, str], ...]) -> str:
    for k, v in labels:
        if k == "component":
            return v
    return "_unlabelled"


class TelemetryPipeline:
    """Turns successive merged metric registries into per-second series.

    ``tick(registry)`` diffs counters and histogram buckets against the
    previous tick (per cell, so replica churn cannot produce negative
    deltas as long as dead proclets' cumulative cells are retained — the
    manager keeps the last snapshot of every proclet it ever saw).
    """

    #: Histogram families diffed into latency series, keyed by prefix of
    #: the emitted series names: server-side method latency and the RPC
    #: client view (which sees retries, hedges and injected faults).
    LATENCY_FAMILIES = (
        ("component_method_latency_s", ""),
        ("rpc_client_latency_s", "client_"),
    )

    def __init__(self, store: TimeSeriesStore, *, slow_threshold_s: float = 0.25) -> None:
        self.store = store
        #: Latency SLO objective: a request slower than this is "bad".
        self.slow_threshold_s = slow_threshold_s
        self._last: dict[tuple[str, Any], Any] = {}
        self._last_ts: Optional[float] = None

    def tick(self, registry: MetricsRegistry, now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        interval = now - self._last_ts if self._last_ts is not None else None
        self._last_ts = now
        if interval is not None and interval <= 0:
            return

        cells = registry.cells()
        requests: dict[str, float] = {}
        errors: dict[str, float] = {}
        trips: dict[str, float] = {"_total": 0.0}
        half_opens: dict[str, float] = {"_total": 0.0}
        drains: dict[str, float] = {"_total": 0.0}
        lat_deltas: dict[str, dict[str, HistogramValue]] = {}

        def _bump(per: dict[str, float], comp: str, d: float) -> None:
            per[comp] = per.get(comp, 0.0) + d
            per["_total"] += d

        for (name, labels), cell in cells.items():
            if name == "component_method_calls" or name == "component_method_errors":
                per = requests if name == "component_method_calls" else errors
                d = self._delta(("c", name, labels), cell.value)
                comp = _component_of(labels)
                per[comp] = per.get(comp, 0.0) + d
                per["_total"] = per.get("_total", 0.0) + d
            elif name == "breaker_transitions":
                # Per-component first-class series, not just status
                # snapshots: trips and half-open probes are the breaker
                # evidence the remediation controller and dashboards read.
                to = dict(labels).get("to")
                if to == "open":
                    _bump(trips, _component_of(labels),
                          self._delta(("c", name, labels), cell.value))
                elif to == "half_open":
                    _bump(half_opens, _component_of(labels),
                          self._delta(("c", name, labels), cell.value))
            elif name == "replica_drains":
                _bump(drains, _component_of(labels),
                      self._delta(("c", name, labels), cell.value))
            else:
                for family, prefix in self.LATENCY_FAMILIES:
                    if name == family and isinstance(cell, HistogramValue):
                        delta = self._hist_delta(("h", name, labels), cell)
                        comp = _component_of(labels)
                        per = lat_deltas.setdefault(prefix, {})
                        _merge_hist(per, comp, delta)
                        _merge_hist(per, "_total", delta)

        # First tick establishes the baseline; no deltas to record yet.
        if interval is None:
            return

        scopes = set(requests) | set(errors)
        for scope in scopes:
            req = requests.get(scope, 0.0)
            err = errors.get(scope, 0.0)
            self.store.record("requests", scope, now, req)
            self.store.record("errors", scope, now, err)
            self.store.record("rps", scope, now, req / interval)
            self.store.record("error_rate", scope, now, err / req if req else 0.0)
        for series_name, per in (
            ("breaker_trips", trips),
            ("breaker_half_opens", half_opens),
            ("drains", drains),
        ):
            for scope, value in per.items():
                self.store.record(series_name, scope, now, value)

        for prefix, per_scope in lat_deltas.items():
            for scope, hist in per_scope.items():
                if hist.count == 0:
                    continue
                for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                    self.store.record(
                        f"{prefix}{label}_ms", scope, now, hist.quantile(q) * 1000.0
                    )
                if prefix == "":
                    self.store.record(
                        "slow_requests", scope, now, _slow_count(hist, self.slow_threshold_s)
                    )

    def _delta(self, key: tuple, value: float) -> float:
        prev = self._last.get(key, 0.0)
        self._last[key] = value
        return max(0.0, value - prev)

    def _hist_delta(self, key: tuple, cell: HistogramValue) -> HistogramValue:
        prev = self._last.get(key)
        counts = list(cell.counts)
        total, count = cell.total, cell.count
        if prev is not None:
            counts = [max(0, c - p) for c, p in zip(counts, prev[0])]
            total = max(0.0, total - prev[1])
            count = max(0, count - prev[2])
        self._last[key] = (list(cell.counts), cell.total, cell.count)
        return HistogramValue(cell.buckets, counts, total, count)


def _slow_count(hist: HistogramValue, threshold_s: float) -> float:
    """Observations in buckets wholly above ``threshold_s`` (plus overflow)."""
    slow = hist.counts[-1]
    for i in range(1, len(hist.buckets)):
        if hist.buckets[i - 1] >= threshold_s:
            slow += hist.counts[i]
    return float(slow)


def _merge_hist(per: dict[str, HistogramValue], scope: str, delta: HistogramValue) -> None:
    per.setdefault(scope, HistogramValue(delta.buckets)).merge(delta)


def sparkline(values: Iterable[float], width: int = 30) -> str:
    """Unicode sparkline of the last ``width`` values (dashboard helper)."""
    bars = "▁▂▃▄▅▆▇█"
    vals = list(values)[-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return bars[0] * len(vals)
    return "".join(bars[int((v - lo) / (hi - lo) * (len(bars) - 1))] for v in vals)
