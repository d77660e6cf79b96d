"""Workload profiling: derive simulation inputs from the real application.

The cluster simulator needs, for each request type (home, browse,
add-to-cart, checkout, ...):

* the *call tree* — which components call which, in what order,
* per-call *self CPU* — business-logic time excluding nested calls,
* per-call *payload sizes* under each wire format.

Rather than inventing these, we read them from the runtime's own
telemetry.  :func:`profile_requests` runs each request on a traced
:func:`~repro.baseline.service.deploy_baseline` once per codec: every host
shares the app's one tracer and one call graph, so a request's spans and
the edges it crossed are all in this process.  The tree is the spans'
parentage (client span → server span → the server span's client spans); a
call's self CPU is its server span minus its direct client spans; its
bytes are the :class:`~repro.core.call_graph.EdgeStats` the
:class:`~repro.transport.rpc.RemoteInvoker` counted on its edge during
that request.  The simulated workload is therefore exactly as chatty,
exactly as heavy, and exactly as byte-fat as the code in
:mod:`repro.boutique` really is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Mapping, Optional

from repro.baseline.service import BaselineApp, deploy_baseline
from repro.core.call_graph import ROOT
from repro.core.registry import Registry
from repro.observability.tracing import Span

CODEC_NAMES = ("compact", "tagged", "json")

#: One request type: an async function of the application it runs against.
Request = Callable[[BaselineApp], Awaitable[Any]]


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


async def profile_requests(
    requests: Mapping[str, Request],
    *,
    components: Optional[list[type]] = None,
    registry: Optional[Registry] = None,
    repeats: int,
    prepare: Optional[Mapping[str, Request]] = None,
) -> dict[str, CallNode]:
    """Profile each named request into a :class:`CallNode` tree.

    The returned root is synthetic (component ``<root>``) and holds the
    top-level calls the request made, in order.  ``prepare[name]``, if
    given, runs unprofiled before each run of ``name`` (a checkout needs a
    filled cart).  Per codec, one discarded pass of every request comes
    first: instantiating components and first-use work are not per-request
    business CPU.  Then every request runs once per round, for
    ``repeats`` rounds, and each type's **minimum**-CPU tree is kept:
    scheduler interference and cache misses only ever add time, so the
    minimum is the least-biased estimate of intrinsic business-logic CPU
    (the same reasoning behind ``timeit``'s min).  The trees and self CPU are the first codec's; the other codecs'
    runs add only their bytes, and a differently shaped tree is an error.
    """
    trees: dict[str, CallNode] = {}
    for codec in CODEC_NAMES:
        app = await deploy_baseline(components=components, registry=registry, codec_name=codec)

        async def run(name: str) -> CallNode:
            if prepare and name in prepare:
                await prepare[name](app)
            app.tracer.reset()
            app.call_graph.reset()  # zeroed in place: what it holds next is this request's
            await requests[name](app)
            return _tree(app, name, codec)

        try:
            for name in requests:
                await run(name)
            # Round-robin, so one burst of interference lands on one sample
            # of several types rather than on every sample of one.
            best: dict[str, CallNode] = {}
            for _ in range(repeats):
                for name in requests:
                    tree = await run(name)
                    if name not in best or tree.total_self_cpu_s() < best[name].total_self_cpu_s():
                        best[name] = tree
            for name, tree in best.items():
                if name not in trees:
                    trees[name] = tree
                elif _shape(tree) != _shape(trees[name]):
                    raise ValueError(f"the {codec} run of {name} makes other calls than the first")
                else:
                    _add_bytes(trees[name], tree)
        finally:
            await app.shutdown()
    return trees


def _tree(app: BaselineApp, name: str, codec: str) -> CallNode:
    """The tree of the request just run, from the spans it finished and the
    call-graph edges it moved."""
    edges = {(e.caller, e.callee, e.method): e for e in app.call_graph.edges()}
    children: dict[Optional[int], list[Span]] = {}
    for span in sorted(app.tracer.drain(), key=lambda s: s.start_s):
        children.setdefault(span.parent_id, []).append(span)

    def below(span_id: Optional[int], side: str) -> list[Span]:
        return [s for s in children.get(span_id, ()) if s.attributes.get("side") == side]

    def node(client: Span) -> CallNode:
        servers = below(client.span_id, "server")
        if len(servers) != 1:
            raise ValueError(f"{name}: {client.name} has {len(servers)} server spans, not 1")
        (server,) = servers
        # A span names its component by the short name (``CartStore.get``).
        short, _, method = server.name.partition(".")
        full = [r.name for r in app.build if r.name.rsplit(".", 1)[-1] == short]
        if len(full) != 1:
            raise ValueError(f"{name}: span {server.name!r} names components {full}")
        (component,) = full
        edge = edges.get((client.attributes["caller"], component, method))
        if edge is None:
            raise ValueError(f"{name}: the call graph holds no call of {server.name}")
        calls = below(server.span_id, "client")
        return CallNode(
            component,
            method,
            max(0.0, server.duration_s - sum(c.duration_s for c in calls)),
            {codec: round(edge.bytes_sent / edge.calls)},
            {codec: round(edge.bytes_received / edge.calls)},
            [node(c) for c in calls],
        )

    return CallNode(ROOT, name, children=[node(c) for c in below(None, "client")])


def _shape(node: CallNode) -> tuple:
    return (node.component, node.method, [_shape(c) for c in node.children])


def _add_bytes(into: CallNode, other: CallNode) -> None:
    into.request_bytes.update(other.request_bytes)
    into.response_bytes.update(other.response_bytes)
    for a, b in zip(into.children, other.children):
        _add_bytes(a, b)
