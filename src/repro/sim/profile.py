"""Workload profiling: derive simulation inputs from the real application.

The cluster simulator needs, for each request type (home, browse,
add-to-cart, checkout, ...):

* the *call tree* — which components call which, in what order,
* per-call *self CPU* — business-logic time excluding nested calls,
* per-call *payload sizes* under each wire format.

Rather than inventing these, we record them from the actual implementation:
a :class:`RecordingApp` runs the request single-process with an invoker
that times each call and subtracts child time; once the request is done,
every argument and result is encoded with all three codecs to get true
wire sizes (outside the timed windows, so no call is charged for the
recorder's own encoding).  The simulated
workload is therefore exactly as chatty, exactly as heavy, and exactly as
byte-fat as the code in :mod:`repro.boutique` really is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Optional

from repro.codegen.compiler import MethodSpec
from repro.core.app import SingleProcessApp
from repro.core.call_graph import ROOT
from repro.core.config import AppConfig
from repro.core.errors import EncodeError
from repro.core.registry import Registration, Registry, global_registry
from repro.core.stub import LocalInvoker
from repro.serde import codec_by_name

CODEC_NAMES = ("compact", "tagged", "json")


@dataclass
class CallNode:
    """One recorded invocation (and, recursively, everything below it)."""

    component: str
    method: str
    self_cpu_s: float = 0.0
    request_bytes: dict[str, int] = field(default_factory=dict)
    response_bytes: dict[str, int] = field(default_factory=dict)
    children: list["CallNode"] = field(default_factory=list)

    def total_calls(self) -> int:
        return 1 + sum(c.total_calls() for c in self.children)

    def total_self_cpu_s(self) -> float:
        return self.self_cpu_s + sum(c.total_self_cpu_s() for c in self.children)

    def total_bytes(self, codec: str) -> int:
        own = self.request_bytes.get(codec, 0) + self.response_bytes.get(codec, 0)
        return own + sum(c.total_bytes(codec) for c in self.children)

    def components(self) -> set[str]:
        out = {self.component}
        for c in self.children:
            out |= c.components()
        return out

    def scale_cpu(self, factor: float) -> "CallNode":
        """A copy with all self-CPU multiplied by ``factor`` (what-if knob)."""
        return CallNode(
            self.component,
            self.method,
            self.self_cpu_s * factor,
            dict(self.request_bytes),
            dict(self.response_bytes),
            [c.scale_cpu(factor) for c in self.children],
        )


class RecordingInvoker(LocalInvoker):
    """LocalInvoker that builds a :class:`CallNode` tree as it executes.

    Calls made outside a recording (``stack`` empty) pass straight through.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.stack: list[CallNode] = []
        #: (node, method, args, result) of each recorded call, sized by
        #: :meth:`measure_payloads` once the recording is over.
        self.payloads: list[tuple[CallNode, MethodSpec, tuple, Any]] = []

    async def invoke(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        caller: str,
        *,
        options: Any = None,
    ) -> Any:
        if not self.stack:
            return await super().invoke(reg, method, args, caller, options=options)
        node = CallNode(component=reg.name, method=method.name)
        self.stack[-1].children.append(node)
        self.stack.append(node)
        start = time.perf_counter()
        try:
            result = await super().invoke(reg, method, args, caller, options=options)
        finally:
            total = time.perf_counter() - start
            self.stack.pop()
            node.self_cpu_s = max(0.0, total - _subtree_total(node))
        self.payloads.append((node, method, args, result))
        return result

    def measure_payloads(self) -> None:
        """Size every recorded call's args and result under each codec."""
        for node, method, args, result in self.payloads:
            for codec_name in CODEC_NAMES:
                codec = codec_by_name(codec_name)
                node.request_bytes[codec_name] = _encoded_size(
                    codec, method.arg_schema, args
                )
                node.response_bytes[codec_name] = _encoded_size(
                    codec, method.result_schema, result
                )
        self.payloads = []


def _encoded_size(codec: Any, schema: Any, value: Any) -> int:
    try:
        return len(codec.encode(schema, value))
    except EncodeError:
        return 0


def _subtree_cpu(node: CallNode) -> float:
    return sum(c.self_cpu_s + _subtree_cpu(c) for c in node.children)


def _subtree_total(node: CallNode) -> float:
    """Wall time consumed by direct children (self + their subtrees)."""
    return sum(c.self_cpu_s + _subtree_cpu(c) for c in node.children)


class RecordingApp(SingleProcessApp):
    """Single-process app whose invocations are recorded into call trees."""

    def __init__(self, build: Any, config: AppConfig) -> None:
        super().__init__(build, config)
        self._invoker = RecordingInvoker(
            version=build.version,
            call_graph=self.call_graph,
            resolver=self,
            settings=config.settings,
        )

    async def record(
        self, request: Callable[["RecordingApp"], Awaitable[Any]], name: str = "request"
    ) -> CallNode:
        """Run one request function and return its recorded tree.

        The returned root is synthetic (component ``<root>``) and holds the
        top-level calls the request made, in order.
        """
        root = CallNode(component=ROOT, method=name)
        self._invoker.stack = [root]
        start = time.perf_counter()
        try:
            await request(self)
        finally:
            total = time.perf_counter() - start
            self._invoker.stack = []
            self._invoker.measure_payloads()
        root.self_cpu_s = max(0.0, total - _subtree_cpu(root))
        return root


async def recording_app(
    components: Optional[list[type]] = None,
    *,
    registry: Optional[Registry] = None,
    config: Optional[AppConfig] = None,
) -> RecordingApp:
    reg = registry or global_registry()
    build = reg.freeze(components=components)
    return RecordingApp(build, config or AppConfig())
