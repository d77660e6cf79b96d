"""Trace store v2: tail-based sampling, bounded retention, call trees.

The manager used to keep a flat, truncate-on-full span list.  This store
buffers spans per trace while the trace is still arriving (spans from
different proclets ship on independent heartbeats), and makes the keep
decision only once the trace has gone quiet — *tail-based* sampling, so
the decision can look at the whole tree:

* always keep traces containing an error or deadline-exceeded span,
* always keep traces whose root lands in the slow tail (above a rolling
  duration percentile),
* otherwise keep with probability ``sample_rate``.

Retention is bounded (``max_traces`` kept traces, oldest evicted) and
every discard path is counted — sampling and eviction are policies, not
silent data loss.  Query API is a superset of the old ``Tracer`` surface
(``spans``/``traces``/``trace_tree``/``ingest``/``reset``) plus
critical-path analysis over assembled cross-proclet trees.  A trace is
stored as packed records (:data:`_RECORD`); only queries build ``Span`` objects.
"""

from __future__ import annotations

import heapq
import random
import struct
import time
from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Callable, Optional

from repro.observability.metrics import DEFAULT_BUCKETS, HistogramValue
from repro.observability.tracing import Span, assemble_tree, is_site

#: Error statuses / codes that force a trace to be kept.
_ERROR_STATUSES = ("error",)
_ERROR_CODES = ("deadline_exceeded",)

#: One span: span id, parent id (-1 for none), start, end, then two
#: indexes: the (name, status) pair and the attributes.  An index i >= 0
#: is a slot of the store's tables, i < 0 is ``own[~i]`` of the trace.  Ids
#: are the tracer's 63-bit ids.  40 bytes.
_RECORD = struct.Struct("<qqddii")

#: Distinct (name, status) pairs the store interns; any more stay with
#: their trace, so the table cannot grow with ad-hoc span names.
_MAX_NAMES = 4096


class _Trace:
    """One trace's records, and what only its spans name (``own``)."""

    __slots__ = ("records", "own", "last_seen", "hot")

    def __init__(self, last_seen: float) -> None:
        self.records: Any = bytearray()  # bytes once the trace is kept
        self.own: list[Any] = []
        self.last_seen = last_seen
        self.hot = False  # holds an error or deadline-exceeded span

    def keep(self, value: Any) -> int:
        self.own.append(value)
        return ~(len(self.own) - 1)


class TraceStore:
    """Tail-sampling, bounded trace storage on the manager."""

    def __init__(
        self,
        *,
        max_traces: int = 2000,
        sample_rate: float = 1.0,
        quiescence_s: float = 1.0,
        slow_percentile: float = 0.95,
        slow_margin: float = 1.25,
        max_spans_per_trace: int = 4000,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.max_traces = max_traces
        self.sample_rate = sample_rate
        self.quiescence_s = quiescence_s
        self.slow_percentile = slow_percentile
        #: The slow-tail rule requires root >= margin * p<slow_percentile>.
        #: Quantiles are bucket midpoints, so without a margin a perfectly
        #: uniform workload reads as "everything is at p95" and the rule
        #: would keep every trace.
        self.slow_margin = slow_margin
        self.max_spans_per_trace = max_spans_per_trace
        self._rng = rng or random.Random()
        self._clock = clock
        self._pending: "OrderedDict[int, _Trace]" = OrderedDict()
        self._kept: "OrderedDict[int, _Trace]" = OrderedDict()
        # Interned (name, status) pairs, and site attributes by identity
        # (canonical per content, held alive here); slot 0: no attributes.
        self._names: list[tuple[str, str]] = []
        self._name_index: dict[tuple[str, str], int] = {}
        self._sites: list[Any] = [MappingProxyType({})]
        self._site_index: dict[int, int] = {}
        # Rolling distribution of finalized root durations: the basis of
        # the "slow tail" keep rule.
        self._root_durations = HistogramValue(DEFAULT_BUCKETS)
        # Slow-tail threshold, refreshed every ``_threshold_every`` roots:
        # scanning histogram buckets per finalized trace is measurable at
        # high trace rates, and the rolling p95 moves slowly.
        self._slow_threshold = float("inf")
        self._threshold_every = 32
        # Negative start: the first eligible finalize computes immediately.
        self._threshold_at = -32
        # Drop accounting — everything discarded is counted somewhere.
        self.kept_traces = 0
        self.sampled_out_traces = 0
        self.sampled_out_spans = 0
        self.evicted_traces = 0
        self.evicted_spans = 0
        self.dropped_spans = 0  # over the per-trace span cap

    # -- ingest ---------------------------------------------------------------

    def ingest(self, spans: list[Span]) -> None:
        now = self._clock()
        pending, kept = self._pending, self._kept
        cap = self.max_spans_per_trace * _RECORD.size
        names, sites, pack = self._name_index, self._site_index, _RECORD.pack
        for span in spans:
            trace_id = span.trace_id
            trace = pending.get(trace_id)
            if trace is None:
                # Re-opened kept trace (late spans): append directly.
                trace = kept.get(trace_id)
                if trace is None:
                    # A fresh entry lands at the end already; only traces
                    # that were pending before need re-ordering.
                    trace = pending[trace_id] = _Trace(now)
            else:
                pending.move_to_end(trace_id)
                trace.last_seen = now
            if len(trace.records) >= cap:
                self.dropped_spans += 1
                continue
            status, attributes = span.status, span.attributes
            name = names.get((span.name, status))
            if name is None:
                name = self._intern_name(span.name, status, trace)
            if not attributes:
                site = 0
            elif type(attributes) is MappingProxyType:
                site = sites.get(id(attributes))
                if site is None:
                    site = self._intern_site(attributes, trace)
            else:
                site = trace.keep(attributes)
            if status in _ERROR_STATUSES or attributes and attributes.get("code") in _ERROR_CODES:
                trace.hot = True
            parent_id = -1 if span.parent_id is None else span.parent_id
            trace.records += pack(span.span_id, parent_id, span.start_s, span.end_s, name, site)
        # Bound the pending set: finalize the stalest early.
        while len(pending) > self.max_traces:
            self._finalize(*pending.popitem(last=False))

    def _intern_name(self, name: str, status: str, trace: _Trace) -> int:
        if len(self._names) >= _MAX_NAMES:
            return trace.keep((name, status))
        index = self._name_index[name, status] = len(self._names)
        self._names.append((name, status))
        return index

    def _intern_site(self, attributes: Any, trace: _Trace) -> int:
        if not is_site(attributes):
            return trace.keep(attributes)  # read-only, but not a site's
        index = self._site_index[id(attributes)] = len(self._sites)
        self._sites.append(attributes)
        return index

    def maintain(self, now: Optional[float] = None) -> None:
        """Finalize traces quiet for longer than ``quiescence_s``."""
        now = self._clock() if now is None else now
        q = self.quiescence_s
        for tid in [t for t, trace in self._pending.items() if now - trace.last_seen >= q]:
            self._finalize(tid, self._pending.pop(tid))

    def _finalize(self, trace_id: int, trace: _Trace) -> None:
        records = list(_RECORD.iter_unpack(trace.records))
        known = {r[0] for r in records}
        # The root is the longest span whose parent is not in the trace.
        durations = [max(0.0, r[3] - r[2]) for r in records if r[1] not in known]
        root = max(durations) if durations else None
        if root is not None:
            self._root_durations.observe(root)
        if trace.hot or self._should_keep(root):
            trace.records = bytes(trace.records)
            self._kept[trace_id] = trace
            self.kept_traces += 1
            while len(self._kept) > self.max_traces:
                _, evicted = self._kept.popitem(last=False)
                self.evicted_traces += 1
                self.evicted_spans += len(evicted.records) // _RECORD.size
        else:
            self.sampled_out_traces += 1
            self.sampled_out_spans += len(records)

    def _should_keep(self, root: Optional[float]) -> bool:
        if root is not None and self._root_durations.count >= 20:
            if self._root_durations.count - self._threshold_at >= self._threshold_every:
                self._slow_threshold = self.slow_margin * self._root_durations.quantile(
                    self.slow_percentile
                )
                self._threshold_at = self._root_durations.count
            if root >= self._slow_threshold:
                return True
        if self.sample_rate >= 1.0:
            return True
        return self._rng.random() < self.sample_rate

    # -- queries (Tracer-compatible surface + extensions) ---------------------

    def _spans(self, trace_id: int, trace: _Trace) -> list[Span]:
        """Materialize one trace's records, in arrival order."""
        names, sites, own = self._names, self._sites, trace.own
        out: list[Span] = []
        for span_id, parent_id, start_s, end_s, name, site in _RECORD.iter_unpack(trace.records):
            name, status = names[name] if name >= 0 else own[~name]
            attributes = sites[site] if site >= 0 else own[~site]
            parent = None if parent_id < 0 else parent_id
            out.append(Span(trace_id, span_id, parent, name, start_s, end_s, attributes, status))
        return out

    def _all(self) -> list[tuple[int, _Trace]]:
        return [*self._kept.items(), *self._pending.items()]

    def spans(self) -> list[Span]:
        return [span for spans in self.traces().values() for span in spans]

    def traces(self) -> dict[int, list[Span]]:
        return {tid: self._spans(tid, trace) for tid, trace in self._all()}

    def largest(self, n: int) -> list[tuple[int, list[Span]]]:
        """The ``n`` traces with the most spans, largest first (ties in
        :meth:`traces` order); only those are materialized."""
        top = heapq.nlargest(n, self._all(), key=lambda kv: len(kv[1].records))
        return [(tid, self._spans(tid, trace)) for tid, trace in top]

    def trace(self, trace_id: int) -> list[Span]:
        trace = self._kept.get(trace_id) or self._pending.get(trace_id)
        return self._spans(trace_id, trace) if trace is not None else []

    def trace_tree(self, trace_id: int) -> list[tuple[int, Span]]:
        return assemble_tree(self.trace(trace_id))

    def critical_path(self, trace_id: int) -> list[tuple[Span, float]]:
        """The chain of spans that bounds the trace's wall time.

        Walks from the root, at each step descending into the child that
        *finishes last* (the one the parent waits on).  Returns
        ``(span, exclusive_s)`` pairs where exclusive time is the span's
        duration not covered by its on-path child — where the time
        actually went.
        """
        spans = self.trace(trace_id)
        if not spans:
            return []
        known = {s.span_id: s for s in spans}
        children: dict[int, list[Span]] = {}
        roots: list[Span] = []
        for s in spans:
            if s.parent_id in known:
                children.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)
        # With no parent-less span (ids forming a cycle), start from the
        # earliest; a span already on the path is never taken again.
        root = (
            max(roots, key=lambda s: s.duration_s)
            if roots
            else min(spans, key=lambda s: s.start_s)
        )
        path = [root]
        on_path = {id(root)}
        while True:
            nexts = [c for c in children.get(path[-1].span_id, ()) if id(c) not in on_path]
            if not nexts:
                break
            path.append(max(nexts, key=lambda s: s.end_s))
            on_path.add(id(path[-1]))
        out: list[tuple[Span, float]] = []
        for i, span in enumerate(path):
            child = path[i + 1] if i + 1 < len(path) else None
            exclusive = span.duration_s - (child.duration_s if child else 0.0)
            out.append((span, max(0.0, exclusive)))
        return out

    def reset(self) -> None:
        self._pending.clear()
        self._kept.clear()

    def stats(self) -> dict[str, Any]:
        return {
            "kept": len(self._kept),
            "pending": len(self._pending),
            "kept_traces": self.kept_traces,
            "sampled_out_traces": self.sampled_out_traces,
            "sampled_out_spans": self.sampled_out_spans,
            "evicted_traces": self.evicted_traces,
            "evicted_spans": self.evicted_spans,
            "dropped_spans": self.dropped_spans,
            "sample_rate": self.sample_rate,
        }
