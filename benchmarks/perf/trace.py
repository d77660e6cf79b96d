"""Spans recorded from outside the program, around calls into each layer.

Nothing under ``src/`` knows about this file.  :class:`Tracing` replaces a
fixed table of public functions and methods (:data:`SEAMS`) with wrappers
that time them, and puts the originals back on exit.

**Self time on one thread.**  Every proclet of an ``inproc`` deployment
shares one event loop, so a span's wall duration mixes its own work with
whatever other task the loop ran while it was suspended.  Subtracting the
children's *durations* would charge a span for that.  The recorder instead
times *run segments*: a synchronous seam is one segment; a coroutine seam
is driven step by step (:func:`_drive`) and each step — from resume to the
next suspension — is one segment.  Segments nest exactly like the Python
call stack, so

* ``busy``  = the sum of a span's segments (it or something it called was
  executing),
* ``self``  = ``busy`` minus the segments of seams that ran nested inside it,
* ``wait``  = ``end - start - busy`` (it was suspended).

Summed over all spans, ``self`` never counts a nanosecond twice, which is
what lets ``trace.coverage_ratio`` compare it with the wall clock.

Each span also records name, start, end, parent and the load generator's
op id.  The parent is the seam running around it; the server-side root of
an RPC (``runtime.proclet.handle``) is joined to the client's
``transport.connection.call`` span by the (request id, component id,
method index) both sides put on the wire.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import struct
import types
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Optional

#: The op span of the task the load generator is running, so the first
#: seam an op enters knows which op it belongs to.
_current_op: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "perf_current_op", default=None
)

_COLUMNS = (
    "name", "id", "parent", "op", "start_ns", "end_ns", "busy_ns", "self_ns",
    "n", "bytes",
)

#: Packs one ended span (array("q").extend costs 2.5x as much per span).
_ROW = struct.Struct(f"={len(_COLUMNS)}q").pack

# A span that has started and not yet ended is a plain list (a wrapper runs
# per call into a layer; a list literal costs a fifth of an object with
# __init__).  These are its slots.
_NAME, _ID, _PARENT, _OP, _START, _BUSY, _CHILD, _N, _BYTES = range(9)


@dataclass
class Totals:
    """Per-seam sums over a recording."""

    count: int = 0
    self_ns: int = 0
    busy_ns: int = 0
    wall_ns: int = 0
    n: int = 0
    bytes: int = 0


class Recorder:
    """All spans of one traced interval, kept in memory as packed int64 rows.

    The wrappers read the clock four times per run segment: tightly around
    the wrapped call (the segment itself) and at their own entry and exit.
    The enclosing span is charged the outer pair as child time, so the
    wrappers' own bookkeeping lands in nobody's self time — it shows up as
    uncovered wall clock and in ``trace.overhead_ratio`` instead.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._packed = bytearray()  # one _ROW record per ended span
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        #: (req_id, component_id, method_index) -> (client span id, op) of
        #: requests written to a socket and not yet seen by a server.
        self.pending: dict[tuple[int, int, int], tuple[int, int]] = {}
        #: Key of the request frame the read loop decoded last.
        self.inbound: Optional[tuple[int, int, int]] = None

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span lifecycle ------------------------------------------------------

    def begin(self, name: int, start: int, join: bool = False) -> list:
        """Start a span under the seam running around it.

        With nothing around it, a ``join`` span (a server-side root) takes
        the client span that sent the request just decoded; any other span
        takes the task's op span.
        """
        stack = self._stack
        if stack:
            top = stack[-1]
            parent, op = top[_ID], top[_OP]
        elif join:
            key, self.inbound = self.inbound, None
            parent, op = self.pending.pop(key, (0, 0))
        else:
            root = _current_op.get()
            parent, op = (root[_ID], root[_OP]) if root is not None else (0, 0)
        return [name, next(self._ids), parent, op, start, 0, 0, 1, 0]

    def finish(self, live: list, end: int) -> None:
        busy = live[_BUSY]
        self._packed += _ROW(
            live[_NAME], live[_ID], live[_PARENT], live[_OP], live[_START], end,
            busy, busy - live[_CHILD], live[_N], live[_BYTES],
        )

    # -- the load generator's op spans ----------------------------------------

    def begin_op(self, op: int) -> tuple[list, contextvars.Token]:
        live = [self.name_id("op"), next(self._ids), 0, op, perf_counter_ns(), 0, 0, 1, 0]
        return live, _current_op.set(live)

    def end_op(self, live: list, token: contextvars.Token) -> None:
        _current_op.reset(token)
        self.finish(live, perf_counter_ns())

    # -- wrappers --------------------------------------------------------------

    def wrap_sync(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Time a plain function as one run segment.  ``note(live, args,
        result)`` may record a count and a byte size on the span."""
        nid = self.name_id(name)
        stack, begin, finish, clock = self._stack, self.begin, self.finish, perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = clock()
            top = stack[-1] if stack else None
            live = begin(nid, entered)
            stack.append(live)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
                if note is not None:
                    note(live, args, result)
                return result
            except BaseException:
                t1 = clock()
                raise
            finally:
                stack.pop()
                live[_BUSY] = t1 - t0
                finish(live, t1)
                if top is not None:
                    top[_CHILD] += clock() - entered

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, name: str, fn: Callable, *, join: bool = False) -> Callable:
        """Time a coroutine function step by step (see the module docstring)."""
        nid = self.name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return _drive(self, nid, join, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- reading back ----------------------------------------------------------

    def clear(self) -> None:
        """Forget the spans recorded so far (the warm-up's)."""
        del self._packed[:]
        self.pending.clear()

    def _rows(self) -> array:
        rows = array("q")
        rows.frombytes(bytes(self._packed))
        return rows

    def __len__(self) -> int:
        return len(self._packed) // (8 * len(_COLUMNS))

    def spans(self) -> Iterator[dict[str, Any]]:
        rows, width = self._rows(), len(_COLUMNS)
        for base in range(0, len(rows), width):
            span = dict(zip(_COLUMNS, rows[base : base + width]))
            span["name"] = self.names[span["name"]]
            yield span

    def totals(self) -> dict[str, Totals]:
        out = [Totals() for _ in self.names]
        rows, width = self._rows(), len(_COLUMNS)
        name, _id, _parent, _op, start, end, busy, self_, n, size = (
            rows[column::width] for column in range(width)
        )
        for i, t0, t1, b, s, count, nbytes in zip(name, start, end, busy, self_, n, size):
            t = out[i]
            t.count += 1
            t.wall_ns += t1 - t0
            t.busy_ns += b
            t.self_ns += s
            t.n += count
            t.bytes += nbytes
        return dict(zip(self.names, out))

    def write(self, path: str, limit: int = 50_000) -> int:
        """One JSON object per span, in the order the spans ended.

        Every span stays in memory and enters :meth:`totals`; the file
        holds the first ``limit`` (a 6 s traced interval is close to a
        million spans, 250 bytes each as JSON).  Returns how many it wrote.
        """
        with open(path, "w", encoding="utf-8") as f:
            for span in itertools.islice(self.spans(), limit):
                f.write(json.dumps(span, separators=(",", ":")))
                f.write("\n")
        return min(limit, len(self))


@types.coroutine
def _drive(rec: Recorder, name: int, join: bool, coro: Any) -> Any:
    """``return (yield from coro)`` with every step timed as a run segment.

    The span begins at the first step, not at the call, so a coroutine
    that is created and scheduled later is not charged for the wait.
    """
    clock, stack = perf_counter_ns, rec._stack
    entered = clock()
    live = rec.begin(name, entered, join)
    resume, value = coro.send, None
    try:
        while True:
            top = stack[-1] if stack else None
            stack.append(live)
            t0 = clock()
            try:
                yielded = resume(value)
            except StopIteration as stop:
                return stop.value
            finally:
                t1 = clock()
                stack.pop()
                live[_BUSY] += t1 - t0
                if top is not None:
                    top[_CHILD] += clock() - entered
            try:
                resume, value = coro.send, (yield yielded)
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:
                resume, value = coro.throw, exc
            entered = clock()
    finally:
        rec.finish(live, t1)


# -- the seam table ------------------------------------------------------------


def _note_encode(live: list, args: tuple, result: Any) -> None:
    live[_BYTES] = len(args[3])  # encode_into(self, schema, value, out): out is fresh


def _note_decode(live: list, args: tuple, result: Any) -> None:
    live[_BYTES] = len(args[2])  # decode(self, schema, data)


def _note_feed(live: list, args: tuple, result: Any) -> None:
    live[_N] = len(result)  # frames completed by this read
    live[_BYTES] = len(args[1])


def _note_span(live: list, args: tuple, result: Any) -> None:
    live[_N] = 1 if type(result).__name__ == "ActiveSpan" else 0  # sampled?


def _note_wal(live: list, args: tuple, result: Any) -> None:
    live[_BYTES] = len(result)


#: (span name, module, class or None, attribute, kind).  ``kind`` is
#: "sync", "async", or "join" (async server-side root, see Recorder.begin).
#: Span names are layer names: layers.py turns them into the metric table.
SEAMS: tuple[tuple[str, str, Optional[str], str, str], ...] = (
    ("core.stub.local_invoke", "repro.core.stub", "LocalInvoker", "invoke", "async"),
    ("core.call_graph.record", "repro.core.call_graph", "CallGraph", "record", "sync"),
    ("transport.rpc.invoke", "repro.transport.rpc", "RemoteInvoker", "invoke", "async"),
    ("transport.server.dispatch", "repro.transport.rpc", "Dispatcher", "handle", "async"),
    ("transport.connection.call", "repro.transport.connection", "Connection", "call", "async"),
    ("transport.message.build", "repro.transport.message", None, "encode_request_prefix", "sync"),
    ("transport.message.build", "repro.transport.message", None, "encode_response_prefix", "sync"),
    ("transport.message.parse", "repro.transport.message", None, "decode", "sync"),
    ("transport.framing.feed", "repro.transport.framing", "FrameParser", "feed", "sync"),
    ("serde.encode", "repro.serde.compact", "CompactCodec", "encode_into", "sync"),
    ("serde.decode", "repro.serde.compact", "CompactCodec", "decode", "sync"),
    ("runtime.proclet.handle", "repro.runtime.proclet", "Proclet", "_handle_rpc", "join"),
    ("runtime.routing.resolve", "repro.runtime.routing", "RoutingTable", "pick", "sync"),
    ("observability.tracing.span", "repro.observability.tracing", "Tracer", "start_span", "sync"),
    ("observability.metrics.record", "repro.observability.metrics", "BoundMetric", "inc", "sync"),
    ("observability.metrics.record", "repro.observability.metrics", "BoundMetric", "observe", "sync"),
    ("observability.metrics.record", "repro.observability.metrics", "BoundHistogram", "observe", "sync"),
    ("observability.export", "repro.observability.metrics", "MetricsRegistry", "snapshot", "sync"),
    ("observability.export", "repro.observability.tracing", "Tracer", "drain", "sync"),
    ("observability.export", "repro.core.call_graph", "CallGraph", "to_wire", "sync"),
    ("observability.export", "repro.runtime.manager", "Manager", "export_metrics", "async"),
    ("observability.export", "repro.runtime.manager", "Manager", "export_call_graph", "async"),
    ("observability.export", "repro.runtime.manager", "Manager", "export_logs", "async"),
    ("observability.export", "repro.runtime.manager", "Manager", "ingest_spans", "sync"),
    ("observability.export", "repro.runtime.manager", "Manager", "telemetry_tick", "sync"),
    ("state.get", "repro.state.runtime", "ComponentState", "get", "async"),
    ("state.put", "repro.state.runtime", "ComponentState", "put", "async"),
    ("state.put", "repro.state.runtime", "ComponentState", "update", "async"),
    ("state.put", "repro.state.runtime", "ComponentState", "delete", "async"),
    ("state.wal", "repro.state.wal", "WalRecord", "to_line", "sync"),
)

_NOTES: dict[tuple[str, str], Callable] = {
    ("CompactCodec", "encode_into"): _note_encode,
    ("CompactCodec", "decode"): _note_decode,
    ("FrameParser", "feed"): _note_feed,
    ("Tracer", "start_span"): _note_span,
    ("WalRecord", "to_line"): _note_wal,
}

#: Modules that imported ``make_stub`` by name; generated stub classes are
#: reached through it (they have no importable name of their own).
_MAKE_STUB_USERS = ("repro.core.stub", "repro.core.app", "repro.runtime.proclet")


class Tracing:
    """Context manager: install the seam table around a :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> Recorder:
        from repro.transport import message

        rec = self.recorder
        for name, module_name, cls_name, attr, kind in SEAMS:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            original = owner.__dict__[attr]
            if kind == "sync":
                traced = rec.wrap_sync(name, original, _NOTES.get((cls_name, attr)))
            else:
                traced = rec.wrap_async(name, original, join=kind == "join")
            self._replace(owner, attr, traced)

        # The two ends of the client/server join ride on the message seams:
        # the request prefix is built inside the client's Connection.call,
        # and the server's read loop decodes the frame right before it
        # calls the handler.
        build = message.encode_request_prefix
        parse = message.decode

        def encode_request_prefix(out, req_id, component_id, method_index, *rest):
            if rec._stack:
                caller = rec._stack[-1]
                rec.pending[(req_id, component_id, method_index)] = (caller[_ID], caller[_OP])
            return build(out, req_id, component_id, method_index, *rest)

        def decode(frame):
            m = parse(frame)
            if type(m) is message.Request:
                rec.inbound = (m.req_id, m.component_id, m.method_index)
            return m

        self._replace(message, "encode_request_prefix", encode_request_prefix)
        self._replace(message, "decode", decode)

        wrapped_classes: set[type] = set()

        def wrap_stub_class(cls: type) -> None:
            if cls in wrapped_classes:
                return
            wrapped_classes.add(cls)
            for attr, value in list(cls.__dict__.items()):
                if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                    self._replace(cls, attr, rec.wrap_async("core.stub.call", value))

        for module_name in _MAKE_STUB_USERS:
            module = importlib.import_module(module_name)

            def make_stub(*args, _orig=module.__dict__["make_stub"], **kwargs):
                stub = _orig(*args, **kwargs)
                wrap_stub_class(type(stub))
                return stub

            self._replace(module, "make_stub", make_stub)
        return rec

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class InstanceLog:
    """Remembers every instance of a few classes created while active.

    The transport keeps its per-connection counters (``flushes``,
    ``frames_sent``, ``direct_writes``) and the admission controller's
    ``shed_count`` on objects only private fields point to; hooking
    ``__init__`` costs nothing per call and needs no private name.
    """

    def __init__(self, *classes: type) -> None:
        self._classes = classes
        self._seen: dict[type, list[Any]] = {cls: [] for cls in classes}
        self._originals: dict[type, Callable] = {}

    def of(self, cls: type) -> list[Any]:
        return self._seen[cls]

    def __enter__(self) -> "InstanceLog":
        for cls in self._classes:
            original = cls.__dict__["__init__"]
            self._originals[cls] = original

            def init(obj, *args, _orig=original, _seen=self._seen[cls], **kwargs):
                _orig(obj, *args, **kwargs)
                _seen.append(obj)

            cls.__init__ = init
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls, original in self._originals.items():
            cls.__init__ = original
        self._originals.clear()
