"""Cross-process trace assembly under the multi deployer.

The client span is created in the caller's proclet, the server span in the
callee's; they reach the manager on *independent* heartbeats and must still
assemble into one tree: client span -> wire context -> server span parent
linkage.  Failed attempts are recorded retroactively as siblings under the
client span, so a failover retry is visible in the assembled trace.
"""

from __future__ import annotations

from repro.core.config import AppConfig
from repro.testing.harness import weavertest

from tests.conftest import Adder, Flaky, Greeter, until


async def _spans_matching(app, predicate, timeout_s: float = 8.0):
    """Wait for heartbeats to land spans satisfying ``predicate``."""
    return await until(
        lambda: [s for s in app.manager.tracer.spans() if predicate(s)],
        timeout_s,
        "no matching span reached the manager",
    )


def _by_trace(spans):
    out = {}
    for s in spans:
        out.setdefault(s.trace_id, []).append(s)
    return out


class TestClientServerLinkage:
    async def test_server_span_parents_to_client_span(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await app.get(Adder).add(2, 3)
            clients = await _spans_matching(
                app, lambda s: s.name == "rpc Adder.add"
            )
            assert clients, "driver's client span never reached the manager"
            client = clients[0]
            assert client.attributes.get("side") == "client"

            servers = await _spans_matching(
                app,
                lambda s: s.name == "Adder.add"
                and s.attributes.get("side") == "server"
                and s.trace_id == client.trace_id,
            )
            assert servers, "server span never joined the client's trace"
            server = servers[0]
            # The linkage the wire context exists for: the server-side span
            # hangs directly off the client-side span.
            assert server.parent_id == client.span_id
            assert server.attributes.get("side") == "server"

    async def test_two_hop_trace_assembles_into_one_tree(self, demo_registry):
        """driver -> Greeter -> Adder: three proclets, one tree."""
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await app.get(Greeter).greet("ada")
            clients = await _spans_matching(
                app, lambda s: s.name == "rpc Greeter.greet"
            )
            assert clients
            tid = clients[0].trace_id
            # Wait for the deepest hop to land too.
            assert await _spans_matching(
                app, lambda s: s.name == "Adder.add" and s.trace_id == tid
            )
            tree = app.manager.tracer.trace_tree(tid)
            depths = {}
            for depth, span in tree:
                depths.setdefault(span.name, depth)
            assert depths["rpc Greeter.greet"] < depths["Greeter.greet"]
            assert depths["Greeter.greet"] < depths["rpc Adder.add"]
            assert depths["rpc Adder.add"] < depths["Adder.add"]


class TestFailoverRetrySiblings:
    async def test_retried_attempts_are_siblings_under_client_span(
        self, demo_registry
    ):
        """A server-side Unavailable retried by the runtime leaves an error
        attempt span and a success attempt span, siblings in the trace."""
        async with weavertest(registry=demo_registry, mode="multi") as app:
            assert await app.get(Flaky).work(1) == "done"

            failed = await _spans_matching(
                app, lambda s: s.name == "attempt Flaky.work#0"
            )
            assert failed, "failed attempt span missing from the trace"
            retried = await _spans_matching(
                app,
                lambda s: s.name == "attempt Flaky.work#1"
                and s.trace_id == failed[0].trace_id,
            )
            assert retried, "retry attempt span missing from the trace"

            assert failed[0].status == "error"
            assert failed[0].attributes.get("code") == "unavailable"
            assert retried[0].status == "ok"
            # Siblings: both parented to the same client span.
            assert failed[0].parent_id == retried[0].parent_id
            clients = [
                s
                for s in app.manager.tracer.trace(failed[0].trace_id)
                if s.name == "rpc Flaky.work"
            ]
            assert clients and clients[0].span_id == failed[0].parent_id

    async def test_replica_failover_produces_sibling_attempts(
        self, demo_registry
    ):
        """Kill one of two replicas without telling the manager: the stale
        route fails an attempt, the retry lands on the survivor, and the
        trace shows both attempts against *different* addresses."""
        config = AppConfig(name="t", replicas={Adder: 2})
        async with weavertest(
            registry=demo_registry, mode="multi", config=config
        ) as app:
            adder = app.get(Adder)
            assert await adder.add(1, 1) == 2

            name = app.build.by_iface(Adder).name
            victim = next(
                proclet_id
                for proclet_id, env in app.envelopes.items()
                if name in env.proclet.hosted
            )
            app.kill_replica(victim, silent=True)

            # Round-robin over the stale route table: within a few calls
            # one attempt hits the dead replica and fails over.
            for i in range(10):
                assert await adder.add(i, i) == 2 * i

            attempts = await _spans_matching(
                app, lambda s: s.name.startswith("attempt Adder.add#")
            )
            assert attempts, "failover never produced attempt spans"
            by_trace = _by_trace(attempts)
            tid, siblings = max(by_trace.items(), key=lambda kv: len(kv[1]))
            assert len(siblings) >= 2, "expected failed + retried attempts"
            statuses = {s.status for s in siblings}
            assert statuses == {"error", "ok"}
            addresses = {s.attributes.get("address") for s in siblings}
            assert len(addresses) >= 2, "retry should move to another replica"
            assert len({s.parent_id for s in siblings}) == 1
