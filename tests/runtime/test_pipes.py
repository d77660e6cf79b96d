"""The proclet <-> runtime control-pipe protocol."""

from __future__ import annotations

import asyncio
import inspect
import json

import pytest

from repro.core.call_graph import CallGraph
from repro.core.config import AppConfig
from repro.core.errors import RuntimeControlError
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Span
from repro.runtime import pipes
from repro.runtime.envelope import SubprocessEnvelope
from repro.runtime.manager import Manager
from repro.runtime.pipes import (
    ControlEndpoint,
    PipeRuntimeAPI,
    StreamPipe,
    connect_unix,
    listen_unix,
    memory_pipe_pair,
)

from tests.conftest import NoopLauncher


async def echo_handler(type_: str, body: dict) -> dict:
    if type_ == "boom":
        raise ValueError("handler exploded")
    return {"type": type_, "echo": body}


async def endpoints(handler_a=None, handler_b=echo_handler):
    a_pipe, b_pipe = memory_pipe_pair()
    a = ControlEndpoint(a_pipe, handler_a, name="a")
    b = ControlEndpoint(b_pipe, handler_b, name="b")
    a.start()
    b.start()
    return a, b


class TestMemoryPipes:
    async def test_request_response(self):
        a, b = await endpoints()
        resp = await a.request("register_replica", {"proclet_id": "p1"})
        assert resp == {"type": "register_replica", "echo": {"proclet_id": "p1"}}
        await a.close()
        await b.close()

    async def test_concurrent_requests_matched_by_id(self):
        a, b = await endpoints()
        results = await asyncio.gather(
            *[a.request("t", {"i": i}) for i in range(50)]
        )
        assert [r["echo"]["i"] for r in results] == list(range(50))
        await a.close()
        await b.close()

    async def test_handler_error_becomes_control_error(self):
        a, b = await endpoints()
        with pytest.raises(RuntimeControlError, match="handler exploded"):
            await a.request("boom")
        await a.close()
        await b.close()

    async def test_no_handler_rejects_requests(self):
        a, b = await endpoints(handler_b=None)
        with pytest.raises(RuntimeControlError, match="no handler"):
            await a.request("anything")
        await a.close()
        await b.close()

    async def test_notify_is_fire_and_forget(self):
        received = []

        async def collect(type_, body):
            received.append((type_, body))
            return {}

        a, b = await endpoints(handler_b=collect)
        await a.notify("metrics", {"x": 1})
        await asyncio.sleep(0.01)
        assert received == [("metrics", {"x": 1})]
        await a.close()
        await b.close()

    async def test_bidirectional(self):
        a, b = await endpoints(handler_a=echo_handler)
        assert (await b.request("from_b"))["type"] == "from_b"
        assert (await a.request("from_a"))["type"] == "from_a"
        await a.close()
        await b.close()

    async def test_close_fails_pending_requests(self):
        async def never(type_, body):
            await asyncio.sleep(100)
            return {}

        a, b = await endpoints(handler_b=never)
        task = asyncio.ensure_future(a.request("stuck"))
        await asyncio.sleep(0.01)
        await a.close()
        with pytest.raises(RuntimeControlError):
            await task
        await b.close()

    async def test_peer_close_detected(self):
        a, b = await endpoints()
        await b.close()
        await asyncio.sleep(0.01)
        with pytest.raises(RuntimeControlError):
            await a.request("after-close", timeout=0.2)
        await a.close()

    async def test_request_timeout(self):
        async def slow(type_, body):
            await asyncio.sleep(1.0)
            return {}

        a, b = await endpoints(handler_b=slow)
        with pytest.raises(RuntimeControlError, match="timed out"):
            await a.request("slow", timeout=0.05)
        await a.close()
        await b.close()


class TestStreamPipes:
    async def test_over_real_unix_socket(self, tmp_path):
        path = str(tmp_path / "ctl.sock")
        server_ep = {}
        connected = asyncio.Event()

        async def on_connect(reader, writer):
            ep = ControlEndpoint(StreamPipe(reader, writer), echo_handler, name="srv")
            ep.start()
            server_ep["ep"] = ep
            connected.set()

        server = await asyncio.start_unix_server(on_connect, path)
        reader, writer = await asyncio.open_unix_connection(path)
        client = ControlEndpoint(StreamPipe(reader, writer), name="cli")
        client.start()
        await connected.wait()

        resp = await client.request("components_to_host", {"proclet_id": "p9"})
        assert resp["echo"]["proclet_id"] == "p9"

        # Unicode and nesting survive JSON framing.
        resp = await client.request("t", {"nested": {"λ": [1, 2, {"k": "ü"}]}})
        assert resp["echo"]["nested"]["λ"][2]["k"] == "ü"

        await client.close()
        await server_ep["ep"].close()
        server.close()
        await server.wait_closed()

    async def test_megabyte_message_round_trips(self, tmp_path):
        """Span batches run to hundreds of KiB: far past asyncio's 64 KiB
        default reader limit, well under MAX_LINE."""
        path = str(tmp_path / "ctl.sock")
        accepted: asyncio.Queue = asyncio.Queue()
        server = await listen_unix(accepted.put_nowait, path)
        client = await connect_unix(path)
        envelope_end = await accepted.get()

        blob = "x" * (1 << 20)
        await client.send({"blob": blob})
        assert (await envelope_end.recv())["blob"] == blob
        await envelope_end.send({"blob": blob})
        assert (await client.recv())["blob"] == blob

        client.close()
        envelope_end.close()
        server.close()
        await server.wait_closed()

    async def test_line_over_max_line_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipes, "MAX_LINE", 256 * 1024)
        path = str(tmp_path / "ctl.sock")
        accepted: asyncio.Queue = asyncio.Queue()
        server = await listen_unix(accepted.put_nowait, path)
        client = await connect_unix(path)
        envelope_end = await accepted.get()

        send = asyncio.ensure_future(client.send({"blob": "x" * (300 * 1024)}))
        with pytest.raises(RuntimeControlError, match="read failed"):
            await envelope_end.recv()

        envelope_end.close()
        client.close()
        await asyncio.gather(send, return_exceptions=True)
        server.close()
        await server.wait_closed()


# -- the API table: both paths reach the same Manager call ---------------------


def spied_manager(build, calls: list) -> Manager:
    """A real Manager whose every API method records its bound arguments."""
    manager = Manager(build, AppConfig().resolve(build.names()), NoopLauncher())
    for name in pipes.API:
        original = getattr(manager, name)
        signature = inspect.signature(original)

        async def spy(*args, _name=name, _sig=signature, _orig=original, **kwargs):
            calls.append((_name, dict(_sig.bind(*args, **kwargs).arguments)))
            return await _orig(*args, **kwargs)

        setattr(manager, name, spy)
    return manager


async def pipe_runtime(manager: Manager, tmp_path) -> tuple[PipeRuntimeAPI, list]:
    """A PipeRuntimeAPI served by a SubprocessEnvelope's own handler."""
    proclet_end, envelope_end = memory_pipe_pair()
    envelope = SubprocessEnvelope(
        "p1", 0, manager, spec={}, control_dir=str(tmp_path)
    )
    envelope._accept(envelope_end)
    endpoint = ControlEndpoint(proclet_end, name="proclet")
    endpoint.start()
    return PipeRuntimeAPI(endpoint), [endpoint, envelope._endpoint]


def api_calls(build) -> list[tuple[str, tuple]]:
    """One call per API row, in an order a real manager accepts."""
    first_group = build.names()[0]
    metrics = MetricsRegistry()
    metrics.counter("calls").inc(component=first_group)
    graph = CallGraph()
    graph.record("A", "B", "m", latency_s=0.001, local=False)
    records = [
        {
            "timestamp": 1.0,
            "level": "info",
            "component": first_group,
            "replica_id": 0,
            "message": "hello",
            "attributes": [["k", "v"]],
        }
    ]
    spans = [Span(7, 1, None, "root", 1.0, 1.5, {"k": "v"}), Span(7, 2, 1, "child", 1.1, 1.2)]
    calls = [
        ("register_replica", ("p1", "tcp://127.0.0.1:9001", 0)),
        ("components_to_host", ("p1",)),
        ("start_component", (first_group,)),
        ("routing_info", (first_group,)),
        ("heartbeat", ("p1", 0.25)),
        # JSON-native, as a snapshot is once it has crossed any pipe.
        ("export_metrics", ("p1", json.loads(json.dumps(metrics.snapshot())))),
        ("export_logs", ("p1", records)),
        ("export_call_graph", ("p1", graph.to_wire())),
        ("export_spans", ("p1", spans)),
    ]
    assert [name for name, _ in calls] == list(pipes.API), "one call per row"
    return calls


async def settle(calls: list, n: int) -> None:
    """Wait for one-way notes to be served."""
    for _ in range(200):
        if len(calls) >= n:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"only {len(calls)} of {n} calls arrived")


class TestApiTable:
    async def test_pipe_and_in_process_paths_make_the_same_manager_calls(
        self, demo_build, tmp_path
    ):
        direct_calls: list = []
        direct = spied_manager(demo_build, direct_calls)
        piped_calls: list = []
        piped = spied_manager(demo_build, piped_calls)
        runtime, endpoints = await pipe_runtime(piped, tmp_path)

        for i, (name, args) in enumerate(api_calls(demo_build)):
            want = await getattr(direct, name)(*args)
            got = await getattr(runtime, name)(*args)
            await settle(piped_calls, i + 1)
            assert got == want, name
            assert piped_calls[i] == direct_calls[i], name
        assert direct.tracer.traces() == piped.tracer.traces()
        for endpoint in endpoints:
            await endpoint.close()

    async def test_one_row_and_its_manager_method_add_a_control_method(
        self, demo_build, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(
            pipes.API, "echo", pipes.ApiMethod("echo", ("proclet_id", "text"))
        )

        async def echo(self, proclet_id: str, text: str) -> str:
            return f"{proclet_id}: {text}"

        monkeypatch.setattr(Manager, "echo", echo, raising=False)
        manager = Manager(
            demo_build, AppConfig().resolve(demo_build.names()), NoopLauncher()
        )
        runtime, endpoints = await pipe_runtime(manager, tmp_path)
        assert await runtime.echo("p1", "hi") == "p1: hi"
        for endpoint in endpoints:
            await endpoint.close()

    async def test_unknown_type_and_unexpected_keys_are_refused(
        self, demo_build, tmp_path
    ):
        manager = Manager(
            demo_build, AppConfig().resolve(demo_build.names()), NoopLauncher()
        )
        runtime, (endpoint, _) = await pipe_runtime(manager, tmp_path)
        with pytest.raises(RuntimeControlError, match="unknown control request"):
            await endpoint.request("export_traces", {"proclet_id": "p1", "spans": []})
        with pytest.raises(RuntimeControlError, match="takes"):
            await endpoint.request("heartbeat", {"proclet_id": "p1", "load": 0.0, "x": 1})
        with pytest.raises(RuntimeControlError, match="takes"):
            await endpoint.request("heartbeat", {"proclet_id": "p1"})
        with pytest.raises(AttributeError):
            runtime.export_traces
        await endpoint.close()
