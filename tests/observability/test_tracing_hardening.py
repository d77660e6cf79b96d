"""Tracing hardening: drop accounting, retroactive spans, per-process ids."""

from __future__ import annotations

import os
import struct

import pytest

from repro.observability.logs import LogBuffer, LogRecord
from repro.observability.tracing import Span, Tracer, assemble_tree, current_context


class TestDropAccounting:
    def test_tracer_counts_dropped_spans_instead_of_silence(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.start_span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 3
        assert tracer.dropped == 2

    def test_ingest_counts_overflow(self):
        tracer = Tracer(max_spans=2)
        spans = [
            Span(trace_id=1, span_id=i, parent_id=None, name="x", start_s=0.0)
            for i in range(5)
        ]
        tracer.ingest(spans)
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 3

    def test_log_buffer_counts_dropped_records(self):
        buf = LogBuffer(capacity=2)
        for i in range(5):
            buf.append(
                LogRecord(
                    timestamp=float(i),
                    level="info",
                    component="C",
                    replica_id=0,
                    message=str(i),
                )
            )
        assert len(buf) == 2
        assert buf.dropped == 3


class TestRecordSpan:
    def test_retroactive_span_joins_given_context(self):
        tracer = Tracer()
        s = tracer.record_span(
            "attempt Cart.add#1",
            trace=(42, 7),
            start_s=100.0,
            end_s=100.5,
            status="error",
            code="unavailable",
        )
        assert s.trace_id == 42 and s.parent_id == 7
        assert s.duration_s == 0.5
        assert tracer.spans() == [s]

    def test_retroactive_span_without_context_starts_a_trace(self):
        tracer = Tracer()
        s = tracer.record_span("solo", trace=(0, None), start_s=1.0, end_s=2.0)
        assert s.trace_id != 0 and s.parent_id is None

    def test_retroactive_span_inside_an_unsampled_trace_is_not_recorded(self):
        tracer = Tracer(trace_rate=1.0, trace_burst=0.0)  # samples nothing
        with tracer.start_span("root"):
            trace = current_context()
            assert tracer.record_span("attempt", trace=trace, start_s=1.0, end_s=2.0) is None
        assert trace == (0, 1) and tracer.spans() == []


class TestAssembleTree:
    def test_orphans_render_as_roots(self):
        spans = [
            Span(trace_id=1, span_id=2, parent_id=999, name="orphan", start_s=1.0),
            Span(trace_id=1, span_id=3, parent_id=2, name="child", start_s=2.0),
        ]
        tree = assemble_tree(spans)
        assert [(d, s.name) for d, s in tree] == [(0, "orphan"), (1, "child")]

    def test_siblings_ordered_by_start(self):
        root = Span(trace_id=1, span_id=1, parent_id=None, name="r", start_s=0.0)
        b = Span(trace_id=1, span_id=3, parent_id=1, name="b", start_s=2.0)
        a = Span(trace_id=1, span_id=2, parent_id=1, name="a", start_s=1.0)
        tree = assemble_tree([root, b, a])
        assert [s.name for _, s in tree] == ["r", "a", "b"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-based test")
class TestPerProcessIds:
    def test_forked_child_generates_different_ids(self):
        """The id RNG reseeds after fork, so parent and child sequences
        diverge (identical sequences would collide span ids across
        proclets when the manager merges their spans)."""
        from repro.observability import tracing

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            ids = [tracing._new_id() for _ in range(8)]
            os.write(write_fd, struct.pack("<8Q", *ids))
            os.close(write_fd)
            os._exit(0)
        os.close(write_fd)
        data = b""
        while len(data) < 64:
            chunk = os.read(read_fd, 64 - len(data))
            if not chunk:
                break
            data += chunk
        os.close(read_fd)
        os.waitpid(pid, 0)
        child_ids = set(struct.unpack("<8Q", data))
        parent_ids = {tracing._new_id() for _ in range(8)}
        assert not child_ids & parent_ids
