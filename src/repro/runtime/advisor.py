"""Learning which methods benefit from affinity routing (§5.2).

    "The runtime could also learn which methods benefit the most from
    routing and route them automatically."

The :class:`RoutingAdvisor` watches method invocations and keeps bounded
per-argument statistics: how often values repeat, and over how many
distinct values traffic spreads.  A parameter makes a good routing key
when

* values **repeat** (affinity pays: the same key hits a warm replica) —
  measured as ``repeat_rate = 1 - distinct/calls``;
* values **spread** (the key space is shardable: routing on a near-
  constant funnels all traffic to one replica) — measured by requiring a
  minimum number of distinct values;
* only hashable, cheaply comparable argument types are considered
  (strings, ints — the things :func:`repro.runtime.routing.key_hash`
  handles well).

The advisor is wired into every proclet's local invoker and served-method
thunks, so a deployment accumulates advice as it serves; ``suggestions()``
is what a human (or an auto-router) reads.  Boutique's ``CartStore``
methods — annotated ``@routed(by="user_id")`` by hand — are exactly what
it rediscovers, which is the test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

#: Per-parameter cap on tracked distinct values; beyond it we only count.
MAX_TRACKED_VALUES = 4096


@dataclass
class ParamStats:
    calls: int = 0
    unhashable: bool = False
    #: Distinct observed values (bounded); overflow counts distinct only.
    values: set = field(default_factory=set)
    overflowed: bool = False

    def observe(self, value: Any) -> None:
        self.calls += 1
        if self.unhashable or self.overflowed:
            return  # nothing more to learn: only the count moves
        try:
            key = hash((type(value).__name__, value))
        except TypeError:
            self.unhashable = True
            self.values.clear()
            return
        if len(self.values) < MAX_TRACKED_VALUES:
            self.values.add(key)
        elif key not in self.values:
            self.overflowed = True

    def reset(self) -> None:
        self.calls = 0
        self.unhashable = self.overflowed = False
        self.values.clear()

    @property
    def distinct(self) -> int:
        return len(self.values)

    @property
    def repeat_rate(self) -> float:
        if self.calls == 0 or self.unhashable:
            return 0.0
        if self.overflowed:
            return 0.0  # effectively unique values: no affinity to exploit
        return 1.0 - self.distinct / self.calls


@dataclass(frozen=True)
class RoutingSuggestion:
    component: str
    method: str
    param: str
    repeat_rate: float
    distinct_values: int
    calls: int

    def __str__(self) -> str:
        return (
            f"@routed(by={self.param!r}) suggested for "
            f"{self.component.rsplit('.', 1)[-1]}.{self.method} "
            f"(repeat rate {self.repeat_rate:.0%} over {self.calls} calls, "
            f"{self.distinct_values} distinct keys)"
        )


class RoutingAdvisor:
    """Accumulates argument statistics and emits routing suggestions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[tuple[str, str, str], ParamStats] = {}
        #: (component, method) pairs already routed (no advice needed).
        self._already_routed: set[tuple[str, str]] = set()

    def bind(
        self,
        component: str,
        method: str,
        arg_names: tuple[str, ...],
        *,
        already_routed: bool = False,
    ) -> tuple[ParamStats, ...]:
        """One method's per-argument stats, in argument order, for a caller
        that binds them once and feeds them itself (a served method's
        thunk): ``stats.observe(value)`` per argument, no lock.  A method
        already routed needs no advice and gets none."""
        with self._lock:
            if already_routed:
                self._already_routed.add((component, method))
                return ()
            return tuple(self._param((component, method, name)) for name in arg_names)

    def observe(
        self,
        component: str,
        method: str,
        arg_names: tuple[str, ...],
        args: tuple,
        *,
        already_routed: bool = False,
    ) -> None:
        if already_routed:
            with self._lock:
                self._already_routed.add((component, method))
            return
        with self._lock:
            for name, value in zip(arg_names, args):
                self._param((component, method, name)).observe(value)

    def _param(self, key: tuple[str, str, str]) -> ParamStats:
        stats = self._stats.get(key)  # the caller holds the lock
        if stats is None:
            stats = self._stats[key] = ParamStats()
        return stats

    def suggestions(
        self,
        *,
        min_calls: int = 20,
        min_repeat_rate: float = 0.3,
        min_distinct: int = 3,
    ) -> list[RoutingSuggestion]:
        """Ranked advice: best routing-key candidate per method."""
        with self._lock:
            stats = dict(self._stats)
            routed = set(self._already_routed)
        best: dict[tuple[str, str], RoutingSuggestion] = {}
        for (component, method, param), s in stats.items():
            if (component, method) in routed:
                continue
            if s.calls < min_calls or s.unhashable or s.overflowed:
                continue
            if s.distinct < min_distinct or s.repeat_rate < min_repeat_rate:
                continue
            suggestion = RoutingSuggestion(
                component, method, param, s.repeat_rate, s.distinct, s.calls
            )
            incumbent = best.get((component, method))
            if incumbent is None or suggestion.repeat_rate > incumbent.repeat_rate:
                best[(component, method)] = suggestion
        return sorted(best.values(), key=lambda s: s.repeat_rate, reverse=True)

    def reset(self) -> None:
        # Zeroed in place: thunks keep feeding the stats they bound.
        with self._lock:
            for stats in self._stats.values():
                stats.reset()
