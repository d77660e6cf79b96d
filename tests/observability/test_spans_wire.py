"""Spans across the subprocess telemetry pipe: ``spans_to_wire`` -> JSON ->
``spans_from_wire`` -> the manager's trace store."""

from __future__ import annotations

import json
from types import MappingProxyType

from repro.observability import tracing
from repro.observability.tracestore import TraceStore
from repro.observability.tracing import Tracer, site_attributes, spans_from_wire, spans_to_wire


def test_spans_from_a_subprocess_keep_no_attribute_dict_per_span():
    """Once back from the pipe, a call site's spans share one attribute
    mapping in the store, as they do when they never left the process, and
    an error span keeps its own attributes."""
    tracer = Tracer()
    site = site_attributes(side="server", caller="app.Wire")
    for _ in range(100):
        with tracer.start_span("Wire.call", site):
            pass
    for i in range(10):
        try:
            with tracer.start_span("Wire.call", site):
                raise ValueError(f"boom {i}")
        except ValueError:
            pass
    sites = len(tracing._SITES)
    spans = spans_from_wire(json.loads(json.dumps(spans_to_wire(tracer.drain()))))
    assert len(tracing._SITES) == sites  # the errors' attributes were not interned
    store = TraceStore()
    store.ingest(spans)
    assert sum(len(trace.own) for trace in store._pending.values()) == 10
    assert len(store._sites) == 2  # "no attributes", and the one site
    errors = [s for s in store.spans() if s.status == "error"]
    assert sorted(s.attributes["exception"] for s in errors) == sorted(
        repr(ValueError(f"boom {i}")) for i in range(10)
    )
    assert all(s.attributes["caller"] == "app.Wire" for s in errors)
    assert sum(s.attributes is site for s in store.spans()) == 100


def test_a_read_only_mapping_that_is_no_site_stays_the_spans_own():
    own = MappingProxyType({"side": "server", "note": "not bound at a site"})
    span = tracing.Span(1, 2, None, "x", 1.0, 2.0, own)
    (back,) = spans_from_wire(json.loads(json.dumps(spans_to_wire([span]))))
    assert type(back.attributes) is dict and back.attributes == dict(own)
