"""Distributed tracing across component calls.

Because the whole application is one logical program, tracing needs no
header-propagation protocol between teams: the framework stamps every stub
invocation with the ambient trace context (a ``contextvars`` value that
flows through ``await`` naturally) and the manager can assemble exact call
trees — the "bird's-eye view" the paper leans on for placement and
debugging (§5.1, Figure 3).
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

# Trace/span ids must be unique *across processes* (spans from many
# proclets merge into one tree at the manager), so they are random 63-bit
# values rather than a per-process counter.  A fork copies this module's
# RNG state into the child, so parent and child would emit identical id
# sequences; reseed from the OS entropy pool in every new process.
_id_rng = random.Random()


def _seed_rng() -> None:
    _id_rng.seed(int.from_bytes(os.urandom(16), "big") ^ os.getpid())


_seed_rng()
if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_seed_rng)


# Bound method, not the module-global Random: seeding mutates the instance
# in place, so the binding survives the after-fork reseed.
_getrandbits = _id_rng.getrandbits


def _new_id() -> int:
    return _getrandbits(63) | 1  # never zero: zero means "absent"


_current_span: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_current_span", default=None
)


@dataclass(slots=True)
class Span:
    """One timed operation within a trace."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class Tracer:
    """Creates spans and collects finished ones.

    ``trace_rate`` enables *adaptive head sampling*: new traces are
    admitted through a token bucket (``trace_rate`` traces/s, burst
    ``trace_burst``), so low-rate traffic — tests, interactive use — is
    always fully traced while a saturated hot path pays span cost for at
    most a bounded rate of traces.  Metrics are unaffected (histograms
    and counters record every call), sampled-out traces are counted in
    ``unsampled``, and the manager's tail sampler still decides what to
    *retain* among the traces that arrive.  ``trace_rate=None`` (the
    default, used by directly-constructed tracers) traces everything.
    """

    def __init__(
        self,
        max_spans: int = 100_000,
        *,
        trace_rate: Optional[float] = None,
        trace_burst: Optional[float] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._max_spans = max_spans
        #: Spans discarded because the buffer was full.  Exported as a
        #: metric by the proclet heartbeat — truncation is never silent.
        self.dropped = 0
        #: Traces never started because the head sampler was out of
        #: tokens.  Also exported by the heartbeat.
        self.unsampled = 0
        self._trace_rate = trace_rate
        self._trace_burst = (
            trace_burst if trace_burst is not None else max(2 * (trace_rate or 0), 64.0)
        )
        self._tokens = self._trace_burst
        self._token_t = time.monotonic()

    def _take_token(self) -> bool:
        # Approximate under concurrent callers by design: a lock here
        # would cost more than an occasional extra sampled trace.
        now = time.monotonic()
        tokens = min(
            self._trace_burst,
            self._tokens + (now - self._token_t) * self._trace_rate,
        )
        self._token_t = now
        if tokens >= 1.0:
            self._tokens = tokens - 1.0
            return True
        self._tokens = tokens
        return False

    def start_span(
        self,
        name: str,
        *,
        remote_parent: Optional[tuple[int, int]] = None,
        **attributes: Any,
    ) -> "ActiveSpan":
        """Open a span under the ambient parent, or under ``remote_parent``.

        ``remote_parent`` is a ``(trace_id, span_id)`` pair received over
        the wire — how a callee proclet joins the caller's trace.
        """
        if remote_parent is not None and remote_parent[0]:
            trace_id, parent_id = remote_parent
        else:
            parent = _current_span.get()
            if parent is None:
                if self._trace_rate is not None and not self._take_token():
                    self.unsampled += 1
                    return _NoopActiveSpan()
                trace_id = _new_id()
                parent_id = None
            elif parent.trace_id == 0:
                # Inside an unsampled trace: stay unsampled, and skip even
                # the per-use noop (the ambient sentinel is already set).
                return NOOP_SPAN
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
        # ``attributes`` is already a fresh dict (it's **kwargs) — no copy.
        span = Span(
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            name=name,
            start_s=time.time(),
            attributes=attributes,
        )
        return ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        span.end_s = time.time()
        with self._lock:
            if len(self._finished) < self._max_spans:
                self._finished.append(span)
            else:
                self.dropped += 1

    def record_span(
        self,
        name: str,
        *,
        trace: tuple[int, Optional[int]],
        start_s: float,
        end_s: float,
        status: str = "ok",
        **attributes: Any,
    ) -> Span:
        """Record an already-timed span retroactively.

        Used where opening a context manager per event would tax the hot
        path — e.g. per-attempt RPC spans that are only materialised for
        retries and failures.
        """
        span = Span(
            trace_id=trace[0] or _new_id(),
            span_id=_new_id(),
            parent_id=trace[1] or None,
            name=name,
            start_s=start_s,
            end_s=end_s,
            attributes=attributes,
            status=status,
        )
        with self._lock:
            if len(self._finished) < self._max_spans:
                self._finished.append(span)
            else:
                self.dropped += 1
        return span

    # -- queries --------------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def traces(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans():
            out.setdefault(span.trace_id, []).append(span)
        return out

    def trace_tree(self, trace_id: int) -> list[tuple[int, Span]]:
        """The spans of one trace as (depth, span), pre-order.

        Spans whose parent has not been collected (e.g. its proclet has
        not shipped a heartbeat yet) are rendered as roots rather than
        dropped — a partial distributed trace is still a trace.
        """
        return assemble_tree(self.traces().get(trace_id, []))

    def drain(self) -> list[Span]:
        """Remove and return finished spans (proclets ship increments)."""
        with self._lock:
            out = list(self._finished)
            self._finished.clear()
            return out

    def ingest(self, spans: list[Span]) -> None:
        """Manager-side merge of spans shipped from proclets."""
        with self._lock:
            room = self._max_spans - len(self._finished)
            self._finished.extend(spans[:room])
            if len(spans) > room:
                self.dropped += len(spans) - room

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()


class ActiveSpan:
    """Context manager binding a span to the ambient context."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self._token = _current_span.set(self.span)
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.span.status = "error"
            self.span.attributes["exception"] = repr(exc)
        if self._token is not None:
            _current_span.reset(self._token)
        self._tracer._finish(self.span)


#: Ambient marker for "this request is inside an unsampled trace".  Its
#: zero ids make ``current_context()`` report (0, 0) — nothing propagates
#: over the wire — and zero exemplar ids keep histograms exemplar-free
#: for unsampled calls.
_UNSAMPLED = Span(
    trace_id=0, span_id=0, parent_id=None, name="unsampled", start_s=0.0
)


class _NoopActiveSpan:
    """Stand-in for ActiveSpan on unsampled roots: binds the sentinel."""

    __slots__ = ("_token",)
    span = _UNSAMPLED

    def __enter__(self) -> Span:
        self._token = _current_span.set(_UNSAMPLED)
        return _UNSAMPLED

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        _current_span.reset(self._token)


class _NoopSpan:
    """Shared no-op for spans nested inside an unsampled trace, and for
    callers that have no tracer: binds nothing, records nothing."""

    __slots__ = ()
    span = _UNSAMPLED

    def __enter__(self) -> Span:
        return _UNSAMPLED

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def assemble_tree(spans: list[Span]) -> list[tuple[int, Span]]:
    """Assemble spans into (depth, span) pre-order, tolerating orphans."""
    known = {s.span_id for s in spans}
    children: dict[Optional[int], list[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in known else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start_s)
    out: list[tuple[int, Span]] = []

    def walk(parent: Optional[int], depth: int) -> None:
        for s in children.get(parent, ()):
            out.append((depth, s))
            walk(s.span_id, depth + 1)

    walk(None, 0)
    return out


def current_span() -> Optional[Span]:
    """The span active in this task's context, if any."""
    return _current_span.get()


#: Process-wide default tracer.
DEFAULT = Tracer()


def current_context() -> tuple[int, int]:
    """The ambient (trace_id, span_id), or (0, 0) outside any span.

    This is what the RPC layer stamps onto outgoing requests so callee
    proclets can join the trace (the cross-process propagation the paper
    gets "for free" from the single-program model).
    """
    span = _current_span.get()
    if span is None:
        return (0, 0)
    return (span.trace_id, span.span_id)


def spans_to_wire(spans: list[Span]) -> list[dict]:
    """JSON-able form for the proclet -> manager telemetry pipe."""
    return [
        {
            "trace_id": s.trace_id,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "name": s.name,
            "start_s": s.start_s,
            "end_s": s.end_s,
            "attributes": dict(s.attributes),
            "status": s.status,
        }
        for s in spans
    ]


def spans_from_wire(raw: list[dict]) -> list[Span]:
    return [
        Span(
            trace_id=e["trace_id"],
            span_id=e["span_id"],
            parent_id=e.get("parent_id"),
            name=e["name"],
            start_s=e["start_s"],
            end_s=e["end_s"],
            attributes=dict(e.get("attributes", {})),
            status=e.get("status", "ok"),
        )
        for e in raw
    ]
