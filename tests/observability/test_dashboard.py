"""The live dashboard: HTTP surfaces, terminal renderer, CLI fetch path."""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import logging
import re

import pytest

from repro.cli import main
from repro.core.config import AppConfig
from repro.observability import dashboard
from repro.observability.dashboard import fetch, fetch_json, render_dashboard
from repro.runtime.status import (
    render_remediation,
    render_sections,
    render_status,
    render_trace,
    status_wire,
)
from repro.testing.harness import weavertest

from tests.conftest import Greeter, until


async def _warm(app, calls: int = 5) -> None:
    g = app.get(Greeter)
    for i in range(calls):
        await g.greet(f"user{i}")
    # Spans and metrics ship on heartbeats; ticks derive series from them.
    # Wait until both of Greeter's hops have shipped their server spans
    # and their call counts.
    names = {"Greeter.greet", "Adder.add"}

    def landed() -> bool:
        app.manager.telemetry_tick()
        served = {s.name for s in app.manager.tracer.spans()}
        counted = {
            dict(labels).get("method")
            for name, labels in app.manager.metrics.cells()
            if name == "component_method_calls"
        }
        return names <= served and {"greet", "add"} <= counted

    await until(landed, 10.0, "Greeter's and Adder's telemetry never landed")


class TestDashboardServer:
    async def test_routes_serve_live_telemetry(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await _warm(app)
            url = await app.serve_dashboard(port=0)

            html = await asyncio.to_thread(fetch, f"{url}/")
            assert "<!doctype html>" in html and "repro live dashboard" in html

            status = await asyncio.to_thread(fetch_json, f"{url}/status.json")
            assert status["replicas"] >= 1
            assert "signals" in status and "series" in status
            assert status["trace_stats"]["sample_rate"] == 1.0

            text = await asyncio.to_thread(fetch, f"{url}/dashboard.txt")
            assert "deployment" in text and "replicas:" in text

            prom = await asyncio.to_thread(fetch, f"{url}/metrics")
            assert "component_method_calls" in prom

    async def test_trace_route_renders_tree(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await _warm(app)
            url = await app.serve_dashboard(port=0)
            spans = app.manager.tracer.spans()
            assert spans
            tid = spans[0].trace_id
            body = await asyncio.to_thread(fetch, f"{url}/trace/{tid:x}")
            assert f"trace {tid:x}" in body

    async def test_unknown_routes_and_bad_ids(self, demo_registry):
        from urllib.error import HTTPError

        async with weavertest(registry=demo_registry, mode="multi") as app:
            url = await app.serve_dashboard(port=0)
            for path, code in (("/nope", 404), ("/trace/zzz", 400)):
                try:
                    await asyncio.to_thread(fetch, f"{url}{path}")
                    raise AssertionError("expected HTTPError")
                except HTTPError as exc:
                    assert exc.code == code

    async def test_serve_dashboard_is_idempotent(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            first = await app.serve_dashboard(port=0)
            second = await app.serve_dashboard(port=0)
            assert first == second


class TestRenderDashboard:
    async def test_plain_frame_has_all_sections(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await _warm(app)
            frame = render_dashboard(app.manager, color=False)
            assert "signals nominal" in frame or "FIRING" in frame
            assert "replicas:" in frame
            assert "\x1b[" not in frame  # no ANSI without color

    async def test_color_frame_has_ansi(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            frame = render_dashboard(app.manager, color=True, clear=True)
            assert "\x1b[" in frame


class TestStatusWire:
    async def test_wire_is_json_serializable(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await _warm(app)
            wire = status_wire(app.manager)
            encoded = json.dumps(wire)
            assert "Greeter" in encoded
            assert wire["traces"], "trace index should not be empty after calls"

    async def test_render_trace_not_found(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            assert "not found" in render_trace(app.manager, 0xDEAD)


class TestCli:
    async def test_status_and_top_and_trace_subcommands(self, demo_registry):
        import contextlib
        import io

        from repro.cli import main

        async with weavertest(registry=demo_registry, mode="multi") as app:
            await _warm(app)
            url = await app.serve_dashboard(port=0)
            tid = app.manager.tracer.spans()[0].trace_id

            def run(*argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    # main() uses asyncio.run, which cannot nest inside the
                    # running test loop; run it in a thread instead (also
                    # exactly how a real shell invocation executes).
                    code = main(list(argv))
                return code, buf.getvalue()

            code, out = await asyncio.to_thread(
                run, "status", "--json", "--address", url
            )
            assert code == 0
            assert json.loads(out)["replicas"] >= 1

            code, out = await asyncio.to_thread(run, "status", "--address", url)
            assert code == 0 and "replicas:" in out

            code, out = await asyncio.to_thread(
                run, "top", "--once", "--address", url
            )
            assert code == 0 and "deployment" in out

            code, out = await asyncio.to_thread(
                run, "trace", f"{tid:x}", "--address", url
            )
            assert code == 0 and f"trace {tid:x}" in out

    async def test_actions_subcommand_shows_the_journal(self, demo_registry):
        """``repro actions`` reads status.json's journal: remediation's
        decisions and every replica change, each with its cause."""
        import contextlib
        import io

        from repro.cli import main

        config = AppConfig(name="actions", remediation="observe")
        async with weavertest(registry=demo_registry, config=config, mode="multi") as app:
            victim = next(iter(app.envelopes))
            app.kill_replica(victim)
            await app.manager.reconcile()
            url = await app.serve_dashboard(port=0)

            def run(*argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(list(argv))
                return code, buf.getvalue()

            code, out = await asyncio.to_thread(run, "actions", "--address", url)
            assert code == 0
            assert "remediation (mode=observe)" in out
            assert "stop_replica" in out and victim in out and "health -> ok" in out

            code, out = await asyncio.to_thread(run, "actions", "--json", "--address", url)
            assert code == 0
            wire = json.loads(out)
            assert wire["mode"] == "observe"
            changes = [(e["action"], e["reason"]) for e in wire["journal"]]
            assert ("stop_replica", "health") in changes
            assert ("start_replica", "health") in changes

    async def test_cli_reports_unreachable_dashboard(self):
        from repro.cli import main

        code = await asyncio.to_thread(
            main, ["status", "--address", "http://127.0.0.1:1"]
        )
        assert code == 1


def _cli(*argv: str) -> tuple[int, str]:
    """Run ``repro <argv>``; call it in a thread (main() runs its own loop)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


#: The first line of each report section -> the model key it shows.
SECTION_KEYS = {
    "deployment ": "app",
    "signals (": "signals",
    "telemetry (": "series",
    "replicas:": "groups",
    "durable state ": "state",
    "failure domains ": "breakers",
    "remediation (": "remediation",
    "call graph ": "call_graph",
    "server-side method latency:": "latencies",
    "traces (": "traces",
    "recent log records ": "logs",
}


class TestOneStatusModel:
    """Every surface renders the one model that ``/status.json`` serves."""

    async def test_report_trace_ids_resolve(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await _warm(app)
            url = await app.serve_dashboard(port=0)
            ids = re.findall(r"^ +trace ([0-9a-f]+) \(", render_status(app.manager), re.M)
            assert ids
            for raw in ids:
                assert "not found" not in render_trace(app.manager, int(raw, 16))
                body = await asyncio.to_thread(fetch, f"{url}/trace/{raw}")
                assert body.startswith(f"trace {raw} (")

    async def test_trace_durations_have_no_float_noise(self, demo_registry):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            await _warm(app, calls=20)
            durations = [t["duration_ms"] for t in status_wire(app.manager)["traces"]]
            assert durations
            assert all(d == round(d, 3) for d in durations)

    async def test_cli_surfaces_render_the_fetched_model(self, demo_registry, monkeypatch):
        fetched: list[str] = []

        def recording_fetch(url: str, timeout_s: float = 5.0) -> str:
            fetched.append(real_fetch(url, timeout_s))
            return fetched[-1]

        real_fetch = dashboard.fetch
        monkeypatch.setattr(dashboard, "fetch", recording_fetch)
        config = AppConfig(name="surfaces", remediation="observe")
        async with weavertest(registry=demo_registry, config=config, mode="multi") as app:
            await _warm(app)
            app.kill_replica(next(iter(app.envelopes)))
            await app.manager.reconcile()
            url = await app.serve_dashboard(port=0)

            code, out = await asyncio.to_thread(_cli, "status", "--json", "--address", url)
            assert code == 0
            new_keys = {"state", "breakers", "call_graph", "latencies", "logs"}
            assert new_keys <= json.loads(out).keys()

            code, out = await asyncio.to_thread(_cli, "status", "--address", url)
            status = json.loads(fetched[-1])
            assert code == 0 and out == render_sections(status) + "\n"
            for section in out.rstrip("\n").split("\n\n"):
                header = section.splitlines()[0]
                key = next(k for h, k in SECTION_KEYS.items() if header.startswith(h))
                assert status[key], header

            code, out = await asyncio.to_thread(_cli, "actions", "--last", "2", "--address", url)
            status = json.loads(fetched[-1])
            assert status["remediation"]["journal"]
            assert code == 0
            assert out == render_remediation(status["remediation"], max_entries=2) + "\n"


    async def test_quiet_sections_render_from_the_model_alone(self, demo_registry):
        """State, breakers and logs stay empty under the demo's traffic."""
        async with weavertest(registry=demo_registry, mode="multi") as app:
            status = json.loads(json.dumps(status_wire(app.manager)))
        row = {"writes": 3.0, "wrong_owner_rejects": 0.0, "ring_gen": 2, "owners": 1}
        status["state"]["components"]["app.Cart"] = row
        row = {"open_now": 1.0, "tripped": 2.0, "recovered": 1.0, "skipped_picks": 5.0}
        status["breakers"]["components"]["app.Cart"] = row
        status["logs"]["recent"] = [
            {"level": "info", "component": "app.Cart", "replica_id": 0,
             "message": "hello", "attributes": {"k": 1}}
        ]
        state, breakers, logs = render_sections(status, ("state", "breakers", "logs")).split("\n\n")
        assert state.splitlines()[1].split() == [
            "Cart", "writes=3", "wrong_owner_rejects=0", "ring_gen=2", "owners=1"
        ]
        assert breakers.splitlines()[1].split() == [
            "Cart", "open_now=1", "tripped=2", "recovered=1", "skipped_picks=5"
        ]
        assert logs.splitlines()[1] == "  [info   ] Cart/0: hello {'k': 1}"


class TestMalformedRequests:
    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    async def test_malformed_content_length_closes_quietly(self, demo_registry, caplog, length):
        async with weavertest(registry=demo_registry, mode="multi") as app:
            url = await app.serve_dashboard(port=0)
            host, port = url.removeprefix("http://").split(":")
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(b"GET / HTTP/1.1\r\ncontent-length: " + length + b"\r\n\r\n")
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            await writer.wait_closed()
            assert json.loads(await asyncio.to_thread(fetch, f"{url}/status.json"))["replicas"]
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
