"""The trace store's memory: bytes retained per span, and bounded tables.

A full store (2,000 kept traces of 17 spans, the size of a boutique
journey's trace) is built from spans a real :class:`Tracer` made with
site-bound attributes, then measured with ``tracemalloc`` once the input
spans are gone.  A store of ``Span`` objects retained ~388 B per span.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.observability.tracestore import TraceStore
from repro.observability.tracing import Tracer, site_attributes

TRACES = 2_000
SPANS_PER_TRACE = 17


class Clock:
    def __init__(self) -> None:
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t


def journey(tracer: Tracer, number: int) -> None:
    """One trace: a client root and 8 client/server pairs below it."""
    client = site_attributes(side="client", caller="app.Frontend")
    server = site_attributes(side="server")
    with tracer.start_span("rpc Frontend.checkout", client):
        for i in range(8):
            with tracer.start_span(f"rpc Component{i}.call", client) as span:
                with tracer.start_span(f"Component{i}.call", server, (span.trace_id, span.span_id)):
                    pass


def test_full_store_retains_at_most_96_bytes_per_span():
    clock = Clock()
    tracer = Tracer()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        store = TraceStore(clock=clock)
        for number in range(TRACES):
            journey(tracer, number)
            store.ingest(tracer.drain())
            if number % 100 == 99:
                clock.t += 2.0
                store.maintain()
        clock.t += 2.0
        store.maintain()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stats = store.stats()
    assert stats["kept"] == TRACES and stats["pending"] == 0
    spans = TRACES * SPANS_PER_TRACE
    assert len(store.spans()) == spans
    assert retained / spans <= 96, f"{retained / spans:.0f} B per span"


def test_unique_error_attributes_and_names_leave_the_tables_bounded():
    clock = Clock()
    tracer = Tracer()
    store = TraceStore(clock=clock, max_traces=100)
    site = site_attributes(side="server")
    for i in range(100_000):
        try:
            with tracer.start_span(f"op {i}", site):
                raise ValueError(f"boom {i}")  # the error span's own attributes
        except ValueError:
            pass
        if i % 1_000 == 999:
            store.ingest(tracer.drain())
            clock.t += 2.0
            store.maintain()
    stats = store.stats()
    assert stats["kept_traces"] == 100_000 and stats["kept"] == 100
    assert len(store._sites) == 1  # "no attributes": error spans keep their own
    assert len(store._names) <= 4_096  # the rest stay with their trace
    (span,) = store.trace(next(iter(store.traces())))
    assert span.status == "error" and span.attributes["side"] == "server"
    assert "boom" in span.attributes["exception"]
