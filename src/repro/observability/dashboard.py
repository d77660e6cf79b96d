"""Live deployment dashboard: ANSI terminal view + single-file HTML server.

The paper's Figure 3 puts a "Web UI / Debugging Tools" box on top of the
manager's aggregated telemetry; this module is that box.  Its routes run
on the repo's one HTTP/1.1 server (:class:`~repro.transport.http_rpc.HttpServer`)
next to the manager and serve:

* ``/``               — a self-contained auto-refreshing HTML page
* ``/status.json``    — the machine-readable status (CLI / remediation)
* ``/dashboard.txt``  — the rendered text dashboard (``repro top`` body)
* ``/trace/<id>``     — one trace: call tree + critical path (text)
* ``/metrics``        — Prometheus text exposition

The terminal renderer (:func:`render_dashboard`) is the same content with
ANSI color, consumed by ``repro top``.
"""

from __future__ import annotations

import json
import time
from typing import Any

from repro.transport.http_rpc import HttpServer

RESET = "\x1b[0m"
BOLD = "\x1b[1m"
DIM = "\x1b[2m"
RED = "\x1b[31m"
GREEN = "\x1b[32m"
CLEAR = "\x1b[2J\x1b[H"


#: The dashboard's sections: a subset of the report's, by model key.
DASHBOARD_SECTIONS = (
    "app", "signals", "series", "groups", "remediation", "call_graph", "latencies"
)


def render_dashboard(manager: Any, *, color: bool = True, clear: bool = False) -> str:
    """The live terminal dashboard (one frame): a signal banner over a
    subset of the status report, rendered from the same status model."""
    from repro.runtime.status import render_sections, status_wire

    def paint(text: str, code: str) -> str:
        return f"{code}{text}{RESET}" if color else text

    status = status_wire(manager)
    firing = status["signals"]["firing"]
    banner = (
        paint(f"◆ {len(firing)} SIGNAL(S) FIRING", RED + BOLD)
        if firing
        else paint("● all signals nominal", GREEN)
    )
    stamp = paint(time.strftime("%H:%M:%S"), DIM)
    body = f"{banner}   {stamp}\n\n" + render_sections(status, DASHBOARD_SECTIONS)
    return (CLEAR + body) if (clear and color) else body


#: The page shows ``/dashboard.txt``; its state badge is the banner line.
_HTML = """<!doctype html>
<html><head><meta charset="utf-8"><title>repro dashboard</title>
<style>
 body { background:#101418; color:#d8dee9; font-family:ui-monospace,monospace;
        margin:1.5rem; }
 h1 { font-size:1.1rem; } .ok { color:#a3be8c; } .bad { color:#bf616a; }
 pre { background:#161b22; padding:1rem; border-radius:6px; overflow-x:auto; }
</style></head>
<body>
<h1>repro live dashboard <span id="state" class="ok">connecting…</span></h1>
<pre id="body">loading…</pre>
<script>
async function tick() {
  const state = document.getElementById('state');
  try {
    const txt = await fetch('/dashboard.txt').then(r => r.text());
    const banner = txt.split('\\n', 1)[0];
    state.textContent = banner;
    state.className = banner.includes('FIRING') ? 'bad' : 'ok';
    document.getElementById('body').textContent = txt.slice(banner.length).trim();
  } catch (e) {
    state.textContent = 'disconnected';
    state.className = 'bad';
  }
  setTimeout(tick, 1000);
}
tick();
</script>
</body></html>
"""


class DashboardServer(HttpServer):
    """The manager's live telemetry, routed on the shared HTTP/1.1 server.

    A browser keeps its connection alive between polls; one that sends
    nothing for 5 s is closed.
    """

    def __init__(self, manager: Any, *, port: int = 0) -> None:
        super().__init__(
            self._respond, address=f"tcp://127.0.0.1:{port}", read_timeout_s=5.0
        )
        self.manager = manager

    @property
    def url(self) -> str:
        return "http://" + self.address[len("tcp://") :]

    async def _respond(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        status, ctype, text = self._route(target.split("?", 1)[0])
        return (
            status,
            {"content-type": f"{ctype}; charset=utf-8", "cache-control": "no-store"},
            text.encode("utf-8"),
        )

    def _route(self, path: str) -> tuple[int, str, str]:
        from repro.observability.metrics import render_prometheus
        from repro.runtime.status import render_trace, status_wire

        if path == "/":
            return 200, "text/html", _HTML
        if path == "/status.json":
            body = json.dumps(status_wire(self.manager), default=str)
            return 200, "application/json", body
        if path == "/dashboard.txt":
            return 200, "text/plain", render_dashboard(self.manager, color=False)
        if path == "/metrics":
            return 200, "text/plain", render_prometheus(self.manager.metrics)
        if path.startswith("/trace/"):
            raw = path[len("/trace/") :]
            # Ids render as hex but status.json carries decimals; an
            # all-digit string is ambiguous, so try both and prefer the
            # reading that names a known trace.
            candidates: list[int] = []
            for base in (10, 16) if raw.isdigit() else (16,):
                try:
                    tid = int(raw, base)
                except ValueError:
                    continue
                if tid not in candidates:
                    candidates.append(tid)
            if not candidates:
                return 400, "text/plain", f"bad trace id {raw!r}\n"
            for tid in candidates:
                if self.manager.tracer.trace(tid):
                    return 200, "text/plain", render_trace(self.manager, tid)
            return 200, "text/plain", render_trace(self.manager, candidates[0])
        return 404, "text/plain", f"no route {path!r}\n"


def fetch(url: str, timeout_s: float = 5.0) -> str:
    """Blocking GET helper for the CLI (stdlib only)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout_s) as resp:  # noqa: S310 (local dashboard)
        return resp.read().decode("utf-8")


def fetch_json(url: str, timeout_s: float = 5.0) -> Any:
    return json.loads(fetch(url, timeout_s))
