"""Differential oracle: the packed TraceStore against a list-based reference.

The reference is the list-of-``Span`` store the packed one replaced, kept
here verbatim in behaviour.  Both stores see the same span batches, the
same clock and equally seeded rngs; after every ``ingest`` and ``maintain``
every query must answer the same.
"""

from __future__ import annotations

import heapq
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.observability.metrics import HistogramValue
from repro.observability.tracestore import TraceStore
from repro.observability.tracing import Span, assemble_tree, site_attributes

_ERROR_STATUSES = ("error",)
_ERROR_CODES = ("deadline_exceeded",)


@dataclass
class _Pending:
    spans: list[Span] = field(default_factory=list)
    last_seen: float = 0.0


class ListTraceStore:
    """The list-based store: one retained ``Span`` object per span."""

    def __init__(
        self, *, max_traces=2000, sample_rate=1.0, quiescence_s=1.0,
        slow_percentile=0.95, slow_margin=1.25, max_spans_per_trace=4000,
        rng=None, clock=None,
    ):
        self.max_traces = max_traces
        self.sample_rate = sample_rate
        self.quiescence_s = quiescence_s
        self.slow_percentile = slow_percentile
        self.slow_margin = slow_margin
        self.max_spans_per_trace = max_spans_per_trace
        self._rng = rng
        self._clock = clock
        self._pending: OrderedDict[int, _Pending] = OrderedDict()
        self._kept: OrderedDict[int, list[Span]] = OrderedDict()
        self._root_durations = HistogramValue(tuple(50e-6 * 2**i for i in range(21)))
        self._slow_threshold = float("inf")
        self._threshold_every = 32
        self._threshold_at = -32
        self.kept_traces = 0
        self.sampled_out_traces = 0
        self.sampled_out_spans = 0
        self.evicted_traces = 0
        self.evicted_spans = 0
        self.dropped_spans = 0

    def ingest(self, spans):
        now = self._clock()
        for span in spans:
            pending = self._pending.get(span.trace_id)
            if pending is None:
                kept = self._kept.get(span.trace_id)
                if kept is not None:
                    if len(kept) < self.max_spans_per_trace:
                        kept.append(span)
                    else:
                        self.dropped_spans += 1
                    continue
                pending = _Pending()
                self._pending[span.trace_id] = pending
            else:
                self._pending.move_to_end(span.trace_id)
            if len(pending.spans) < self.max_spans_per_trace:
                pending.spans.append(span)
            else:
                self.dropped_spans += 1
            pending.last_seen = now
        while len(self._pending) > self.max_traces:
            trace_id, pending = self._pending.popitem(last=False)
            self._finalize(trace_id, pending)

    def maintain(self, now=None):
        now = self._clock() if now is None else now
        ripe = [
            tid for tid, p in self._pending.items() if now - p.last_seen >= self.quiescence_s
        ]
        for tid in ripe:
            self._finalize(tid, self._pending.pop(tid))

    def _finalize(self, trace_id, pending):
        spans = pending.spans
        root = _root_of(spans)
        if root is not None:
            self._root_durations.observe(root.duration_s)
        if self._should_keep(spans, root):
            self._kept[trace_id] = spans
            self._kept.move_to_end(trace_id)
            self.kept_traces += 1
            while len(self._kept) > self.max_traces:
                _, evicted = self._kept.popitem(last=False)
                self.evicted_traces += 1
                self.evicted_spans += len(evicted)
        else:
            self.sampled_out_traces += 1
            self.sampled_out_spans += len(spans)

    def _should_keep(self, spans, root):
        for span in spans:
            if span.status in _ERROR_STATUSES:
                return True
            if span.attributes.get("code") in _ERROR_CODES:
                return True
        if root is not None and self._root_durations.count >= 20:
            if self._root_durations.count - self._threshold_at >= self._threshold_every:
                self._slow_threshold = self.slow_margin * self._root_durations.quantile(
                    self.slow_percentile
                )
                self._threshold_at = self._root_durations.count
            if root.duration_s >= self._slow_threshold:
                return True
        if self.sample_rate >= 1.0:
            return True
        return self._rng.random() < self.sample_rate

    def spans(self):
        out = []
        for spans in self._kept.values():
            out.extend(spans)
        for pending in self._pending.values():
            out.extend(pending.spans)
        return out

    def traces(self):
        out = {tid: list(spans) for tid, spans in self._kept.items()}
        for tid, pending in self._pending.items():
            out.setdefault(tid, []).extend(pending.spans)
        return out

    def trace(self, trace_id):
        out = list(self._kept.get(trace_id, ()))
        pending = self._pending.get(trace_id)
        if pending is not None:
            out.extend(pending.spans)
        return out

    def trace_tree(self, trace_id):
        return assemble_tree(self.trace(trace_id))

    def critical_path(self, trace_id):
        spans = self.trace(trace_id)
        if not spans:
            return []
        known = {s.span_id: s for s in spans}
        children: dict[int, list[Span]] = {}
        roots = []
        for s in spans:
            if s.parent_id in known:
                children.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)
        root = max(roots, key=lambda s: s.duration_s)
        path = [root]
        while children.get(path[-1].span_id):
            path.append(max(children[path[-1].span_id], key=lambda s: s.end_s))
        out = []
        for i, span in enumerate(path):
            child = path[i + 1] if i + 1 < len(path) else None
            exclusive = span.duration_s - (child.duration_s if child else 0.0)
            out.append((span, max(0.0, exclusive)))
        return out

    def stats(self):
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


def _root_of(spans):
    if not spans:
        return None
    known = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id not in known]
    if not roots:
        return None
    return max(roots, key=lambda s: s.duration_s)


class Clock:
    def __init__(self) -> None:
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t


# -- generated span batches ---------------------------------------------------

TRACE_IDS = range(1, 7)
SPAN_IDS = range(1, 25)

#: Attribute choices: shared site mappings (one with a forcing code), a
#: plain dict shared by many spans, and per-span dicts built fresh.
_SHARED_PLAIN = {"side": "client", "caller": "app.Frontend"}
ATTRIBUTES: list[Any] = [
    lambda i: site_attributes(side="client", caller="app.Frontend"),
    lambda i: site_attributes(side="server"),
    lambda i: site_attributes(side="local", caller="app.Checkout"),
    lambda i: site_attributes(side="client", code="deadline_exceeded"),
    lambda i: _SHARED_PLAIN,
    lambda i: {},
    lambda i: {"side": "server", "exception": f"ValueError('boom {i}')"},
    lambda i: {"address": f"127.0.0.1:{9000 + i}", "attempt": i % 3, "code": "unavailable"},
    lambda i: {"address": "127.0.0.1:9000", "attempt": 1, "code": "deadline_exceeded"},
]


@st.composite
def span_strategy(draw: Any) -> Span:
    start = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    duration = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        )
    )
    return Span(
        draw(st.sampled_from(TRACE_IDS)),
        draw(st.sampled_from(SPAN_IDS)),
        draw(st.one_of(st.none(), st.sampled_from(SPAN_IDS), st.sampled_from([0, 999]))),
        draw(st.sampled_from(["rpc Cart.add", "Cart.add", "attempt Cart.add#1", "root"])),
        start,
        start + duration,
        ATTRIBUTES[draw(st.integers(0, len(ATTRIBUTES) - 1))](draw(st.integers(0, 5))),
        draw(st.sampled_from(["ok", "ok", "error"])),
    )


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.lists(span_strategy(), max_size=8)),
        st.tuples(st.just("maintain"), st.floats(min_value=0.0, max_value=2.5)),
    ),
    max_size=40,
)


def acyclic(span: Span) -> bool:
    return span.parent_id is None or span.parent_id < span.span_id or span.parent_id == 999


def assert_same(store: TraceStore, ref: ListTraceStore) -> None:
    assert store.stats() == ref.stats()
    assert store.spans() == ref.spans()
    traces = ref.traces()
    assert store.traces() == traces
    assert list(store.traces()) == list(traces)
    expected = heapq.nlargest(50, traces.items(), key=lambda kv: len(kv[1]))
    assert store.largest(50) == expected
    for tid in [*TRACE_IDS, 12345]:
        assert store.trace(tid) == ref.trace(tid)
        assert store.trace_tree(tid) == ref.trace_tree(tid)
        assert store.critical_path(tid) == ref.critical_path(tid)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=OPS,
    sample_rate=st.sampled_from([0.0, 0.5, 1.0]),
    max_traces=st.integers(1, 4),
    max_spans=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_packed_store_answers_like_the_list_store(ops, sample_rate, max_traces, max_spans, seed):
    clock = Clock()
    kwargs = dict(sample_rate=sample_rate, max_traces=max_traces, max_spans_per_trace=max_spans)
    store = TraceStore(rng=random.Random(seed), clock=clock, **kwargs)
    ref = ListTraceStore(rng=random.Random(seed), clock=clock, **kwargs)
    seen: set[tuple[int, int]] = set()
    for op, arg in ops:
        if op == "ingest":
            # Span ids are unique in a trace and parents precede children,
            # as the tracer makes them: a cycle of ids has no tree.
            batch = [s for s in arg if (s.trace_id, s.span_id) not in seen and acyclic(s)]
            seen.update((s.trace_id, s.span_id) for s in batch)
            store.ingest(batch)
            ref.ingest(batch)
        else:
            clock.t += arg
            store.maintain()
            ref.maintain()
        assert_same(store, ref)


def test_slow_tail_rule_agrees_once_the_distribution_warms():
    """Enough finalized roots (>= 20, refreshed every 32) that the slow-tail
    threshold decides keeps: generated runs are too short to reach it.
    Half the roots are orphans, whose parent never arrived."""
    clock = Clock()
    rng = random.Random(3)
    store = TraceStore(sample_rate=0.1, rng=random.Random(5), clock=clock)
    ref = ListTraceStore(sample_rate=0.1, rng=random.Random(5), clock=clock)
    site = site_attributes(side="server")
    for trace_id in range(1, 400):
        duration = 0.5 if rng.random() < 0.04 else rng.choice([0.001, 0.002, 0.004])
        batch = [
            Span(trace_id, 1, None if trace_id % 2 else 999, "root", 1.0, 1.0 + duration, site),
            Span(trace_id, 2, 1, "child", 1.0, 1.0 + duration / 2, {}),
        ]
        store.ingest(batch)
        ref.ingest(batch)
        clock.t += 2.0
        store.maintain()
        ref.maintain()
    assert store.stats() == ref.stats()
    assert store.traces() == ref.traces()
    slow = [tid for tid, spans in ref.traces().items() if spans[0].duration_s == 0.5]
    assert 0 < store.stats()["kept"] < 399 and len(slow) >= 5
