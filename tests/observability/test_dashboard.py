"""The live dashboard: HTTP surfaces, terminal renderer, CLI fetch path."""

from __future__ import annotations

import asyncio
import json

from repro.core.config import AppConfig
from repro.observability.dashboard import fetch, fetch_json, render_dashboard
from repro.runtime.status import render_trace, status_wire
from repro.testing.harness import weavertest

from tests.conftest import Greeter


async def _warm(app, calls: int = 5) -> None:
    g = app.get(Greeter)
    for i in range(calls):
        await g.greet(f"user{i}")
    # Spans/metrics ship on heartbeats; ticks derive series from them.
    for _ in range(30):
        await asyncio.sleep(0.1)
        app.manager.telemetry_tick()
        if app.manager.tracer.spans():
            break


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
            assert "remediation mode=observe" in out
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
