"""Learning which methods benefit from affinity routing (§5.2).

    "The runtime could also learn which methods benefit the most from
    routing and route them automatically."

The :class:`RoutingAdvisor` watches method invocations and keeps bounded
per-argument statistics: how often values repeat, and over how many
distinct values traffic spreads (a bottom-k sketch: exact up to
``SKETCH_K`` distinct values, an estimate beyond).  A parameter makes a
good routing key when

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
from heapq import heappush, heapreplace
from typing import Any

#: Bottom-k sketch size: ``distinct`` is exact below K distinct values and
#: an estimate (relative error ~1/sqrt(K)) above, in bounded memory.
SKETCH_K = 256
_NO_CUTOFF = 1 << 63  # above every hash: ``hash`` is a signed 64-bit int


@dataclass
class ParamStats:
    calls: int = 0
    unhashable: bool = False
    #: The K smallest distinct hashes seen (a bottom-k sketch), and the
    #: same hashes negated in a heap, so the largest is at ``_heap[0]``.
    hashes: set = field(default_factory=set)
    _heap: list = field(default_factory=list)
    #: The largest kept hash once K are kept: only smaller ones get in.
    _cutoff: int = _NO_CUTOFF

    def observe(self, value: Any) -> None:
        self.calls += 1
        if self.unhashable:
            return  # nothing more to learn: only the count moves
        try:
            key = hash((type(value), value))
        except TypeError:
            self.unhashable = True  # the sketch stays as it is: bounded
            return
        # Compared before the set is touched: once K are kept, almost
        # every new value hashes above the cutoff.
        if key >= self._cutoff or key in self.hashes:
            return
        self.hashes.add(key)
        if len(self._heap) < SKETCH_K:
            heappush(self._heap, -key)
        else:
            self.hashes.discard(-heapreplace(self._heap, -key))
        if len(self._heap) == SKETCH_K:
            self._cutoff = -self._heap[0]

    def reset(self) -> None:
        self.calls, self.unhashable, self._cutoff = 0, False, _NO_CUTOFF
        self.hashes.clear()
        self._heap.clear()

    @property
    def distinct(self) -> int:
        if len(self.hashes) < SKETCH_K:
            return len(self.hashes)
        # The K-th smallest of n uniform hashes sits near K/n of the range.
        estimate = (SKETCH_K - 1) * 2**64 / (self._cutoff + _NO_CUTOFF)
        return min(self.calls, round(estimate))

    @property
    def repeat_rate(self) -> float:
        if self.calls == 0 or self.unhashable:
            return 0.0
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
            if s.calls < min_calls or s.unhashable:
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
