"""Anomaly and SLO burn-rate signals over the telemetry time series.

Two detector families, both cheap enough to run every telemetry tick:

* :class:`EwmaDetector` — an exponentially-weighted mean/variance tracker
  with a z-score trigger, watched over error-rate and p99 series.  The
  baseline *freezes* while a signal fires, so an incident does not get
  absorbed into "normal" and silently un-fire.
* :class:`Slo` — Google-SRE-style multi-window burn rates: a signal fires
  only when both a fast window (seconds — catches onset quickly) and a
  slow window (tens of seconds — filters blips) burn error budget faster
  than their thresholds.

The :class:`SignalBoard` owns both, publishes machine-readable state
(``to_wire``), and keeps a bounded transition log.  This is the input
surface the closed-loop remediation controller consumes.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.observability.timeseries import TimeSeriesStore


@dataclass
class Signal:
    """One evaluated detector: its current verdict plus the evidence."""

    kind: str  # "anomaly" | "slo"
    name: str  # e.g. "p99_ms" or "availability"
    scope: str  # component name or "_total"
    firing: bool
    value: float
    baseline: float
    detail: str
    since: Optional[float] = None  # wall time the current firing began

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.name}:{self.scope}"

    def to_wire(self) -> dict[str, Any]:
        wire = asdict(self)
        wire.update(value=round(self.value, 6), baseline=round(self.baseline, 6))
        return wire


class EwmaDetector:
    """EWMA mean/variance with a z-score trigger and frozen-while-firing baseline."""

    def __init__(
        self,
        *,
        alpha: float = 0.3,
        z_threshold: float = 3.0,
        min_ratio: float = 1.5,
        min_value: float = 0.0,
        min_samples: int = 5,
    ) -> None:
        self.alpha = alpha
        self.z_threshold = z_threshold
        #: Guard against firing on microscopic absolute moves: the value
        #: must also exceed baseline * min_ratio and an absolute floor.
        self.min_ratio = min_ratio
        self.min_value = min_value
        self.min_samples = min_samples
        self.mean = 0.0
        self.var = 0.0
        self.samples = 0
        self.firing = False
        self.since: Optional[float] = None
        self.last_z = 0.0

    def update(self, value: float, now: Optional[float] = None) -> bool:
        now = time.time() if now is None else now
        diff = value - self.mean
        std = math.sqrt(self.var)
        z = diff / std if std > 1e-12 else (math.inf if diff > 1e-12 else 0.0)
        warmed = self.samples >= self.min_samples
        anomalous = (
            warmed
            and z >= self.z_threshold
            and value >= self.mean * self.min_ratio
            and value >= self.min_value
        )
        self.last_z = z if math.isfinite(z) else 99.0
        if anomalous:
            if not self.firing:
                self.firing = True
                self.since = now
            # Baseline frozen: the anomaly must not become the new normal.
            return True
        self.firing = False
        self.since = None
        if self.samples == 0:
            self.mean = value
        else:
            incr = self.alpha * diff
            self.mean += incr
            self.var = (1 - self.alpha) * (self.var + self.alpha * diff * diff)
        self.samples += 1
        return False


@dataclass
class Slo:
    """A service-level objective evaluated as multi-window burn rates.

    ``bad/good`` name series in the store recording per-tick counts; the
    budget is the allowed long-run bad fraction (0.01 == 99% objective).
    Burn rate = (windowed bad fraction) / budget; 1.0 burns the budget
    exactly at the sustainable pace.
    """

    name: str
    good: str  # series of per-tick totals, e.g. "requests"
    bad: str  # series of per-tick bad counts, e.g. "errors"
    budget: float = 0.01
    fast_window_s: float = 5.0
    slow_window_s: float = 30.0
    fast_burn: float = 10.0
    slow_burn: float = 3.0
    scope: str = "_total"
    _since: Optional[float] = field(default=None, repr=False)

    def evaluate(self, store: TimeSeriesStore, now: Optional[float] = None) -> Signal:
        now = time.time() if now is None else now
        burns = []
        for window in (self.fast_window_s, self.slow_window_s):
            total = store.series(self.good, self.scope).window_sum(window, now)
            bad = store.series(self.bad, self.scope).window_sum(window, now)
            frac = bad / total if total > 0 else 0.0
            burns.append(frac / self.budget if self.budget > 0 else 0.0)
        fast, slow = burns
        firing = fast >= self.fast_burn and slow >= self.slow_burn
        if firing and self._since is None:
            self._since = now
        elif not firing:
            self._since = None
        return Signal(
            kind="slo",
            name=self.name,
            scope=self.scope,
            firing=firing,
            value=fast,
            baseline=self.fast_burn,
            detail=(
                f"burn fast({self.fast_window_s:.0f}s)={fast:.1f}x "
                f"slow({self.slow_window_s:.0f}s)={slow:.1f}x "
                f"(fire at {self.fast_burn:.0f}x/{self.slow_burn:.0f}x, "
                f"budget {self.budget:.2%})"
            ),
            since=self._since,
        )


#: (series name, detector kwargs) pairs the board watches per scope.
DEFAULT_ANOMALY_SERIES: tuple[tuple[str, dict], ...] = (
    ("error_rate", {"min_value": 0.02, "min_ratio": 2.0}),
    ("p99_ms", {"min_value": 1.0}),
    ("client_p99_ms", {"min_value": 1.0}),
)


def default_slos(
    *, error_budget: float = 0.01, latency_budget: float = 0.05
) -> list[Slo]:
    return [
        Slo(name="availability", good="requests", bad="errors", budget=error_budget),
        Slo(name="latency", good="requests", bad="slow_requests", budget=latency_budget),
    ]


class SignalBoard:
    """Evaluates every detector each tick and keeps the current picture."""

    def __init__(
        self,
        store: TimeSeriesStore,
        *,
        slos: Optional[list[Slo]] = None,
        anomaly_series: tuple[tuple[str, dict], ...] = DEFAULT_ANOMALY_SERIES,
        max_events: int = 200,
    ) -> None:
        self.store = store
        self.slos = default_slos() if slos is None else slos
        self._anomaly_series = anomaly_series
        self._detectors: dict[tuple[str, str], EwmaDetector] = {}
        self._signals: dict[str, Signal] = {}
        self.events: deque[dict[str, Any]] = deque(maxlen=max_events)

    def evaluate(self, now: Optional[float] = None) -> list[Signal]:
        now = time.time() if now is None else now
        fresh: list[Signal] = []
        scopes_by_series: dict[str, list[str]] = {}
        for name, scope in self.store.names():
            scopes_by_series.setdefault(name, []).append(scope)
        for series, kwargs in self._anomaly_series:
            for scope in scopes_by_series.get(series, []):
                ring = self.store.series(series, scope)
                point = ring.latest()
                if point is None:
                    continue
                det = self._detectors.get((series, scope))
                if det is None:
                    det = EwmaDetector(**kwargs)
                    self._detectors[(series, scope)] = det
                det.update(point.value, now)
                fresh.append(
                    Signal(
                        kind="anomaly",
                        name=series,
                        scope=scope,
                        firing=det.firing,
                        value=point.value,
                        baseline=det.mean,
                        detail=f"z={det.last_z:.1f} ewma={det.mean:.3f} n={det.samples}",
                        since=det.since,
                    )
                )
        for slo in self.slos:
            fresh.append(slo.evaluate(self.store, now))
        for signal in fresh:
            previous = self._signals.get(signal.key)
            if (previous.firing if previous else False) != signal.firing:
                self.events.append(
                    {
                        "ts": now,
                        "key": signal.key,
                        "firing": signal.firing,
                        "detail": signal.detail,
                    }
                )
            self._signals[signal.key] = signal
        return fresh

    def signals(self) -> list[Signal]:
        return list(self._signals.values())

    def firing(self) -> list[Signal]:
        return [s for s in self._signals.values() if s.firing]

    def to_wire(self) -> dict[str, Any]:
        return {
            "signals": [s.to_wire() for s in self.signals()],
            "firing": [s.key for s in self.firing()],
            "events": list(self.events),
        }
