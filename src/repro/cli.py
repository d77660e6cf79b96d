"""Command-line interface: deploy and inspect applications from a shell.

The Go prototype ships ``weaver multi deploy config.toml``; this is the
Python mirror::

    python -m repro deploy app.toml --module repro.boutique
    python -m repro deploy app.toml --module repro.boutique --subprocess
    python -m repro components --module repro.boutique
    python -m repro version --module repro.boutique

``deploy`` imports the named modules (running their ``@implements``
registrations), deploys every registered component per the TOML config,
optionally drives a load burst against the boutique frontend, and prints
the aggregated status report (Figure 3's dashboard) before shutting down.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import json
import sys
from typing import Optional

from repro.core.config import AppConfig
from repro.core.errors import WeaverError
from repro.core.registry import global_registry


def _import_modules(modules: list[str]) -> None:
    for module in modules:
        importlib.import_module(module)


def _build_config(args: argparse.Namespace) -> AppConfig:
    if args.config:
        return AppConfig.load(args.config)
    return AppConfig(name="cli-app")


DEFAULT_DASHBOARD = "http://127.0.0.1:8090"


async def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.runtime.deployers.multi import deploy_multiprocess
    from repro.runtime.status import render_status

    _import_modules(args.module)
    config = _build_config(args)
    mode = "subprocess" if args.subprocess else "inproc"
    print(f"deploying {config.name!r} (mode={mode}) ...", file=sys.stderr)
    app = await deploy_multiprocess(config, mode=mode, autoscale=args.autoscale)
    try:
        print(
            f"version {app.version}, {app.manager.total_replicas()} proclet(s) running",
            file=sys.stderr,
        )
        if args.dashboard is not None:
            url = await app.serve_dashboard(port=args.dashboard)
            print(f"dashboard at {url}", file=sys.stderr)
        if args.drive_boutique:
            from repro.sim.realtime import drive_boutique

            result = await drive_boutique(
                app, qps=args.qps, duration_s=args.duration, users=10
            )
            print(
                f"drove {result.requests} requests at ~{result.achieved_qps:.0f} QPS: "
                f"median {result.median_latency_ms:.2f}ms, "
                f"p95 {result.p95_latency_ms:.2f}ms, errors {result.errors}",
                file=sys.stderr,
            )
            await asyncio.sleep(1.0)  # let telemetry heartbeats land
        elif args.duration > 0:
            print(f"serving for {args.duration:.0f}s ...", file=sys.stderr)
            await asyncio.sleep(args.duration)
        print(render_status(app.manager))
    finally:
        await app.shutdown()
    return 0


async def _cmd_status(args: argparse.Namespace) -> int:
    """Print a running deployment's status report (or its model, as JSON)."""
    from repro.observability.dashboard import fetch
    from repro.runtime.status import render_sections

    body = await asyncio.to_thread(fetch, f"{args.address}/status.json")
    print(body if args.json else render_sections(json.loads(body)))
    return 0


async def _cmd_top(args: argparse.Namespace) -> int:
    """Live auto-refreshing terminal dashboard (like ``top``, for proclets)."""
    from repro.observability.dashboard import CLEAR, fetch

    color = sys.stdout.isatty()
    while True:
        body = await asyncio.to_thread(fetch, f"{args.address}/dashboard.txt")
        if color:
            sys.stdout.write(CLEAR)
        sys.stdout.write(body + "\n")
        sys.stdout.flush()
        if args.once:
            return 0
        await asyncio.sleep(args.interval)


async def _cmd_actions(args: argparse.Namespace) -> int:
    """Show the remediation controller's action journal and guardrail state."""
    from repro.observability.dashboard import fetch_json
    from repro.runtime.status import render_remediation

    status = await asyncio.to_thread(fetch_json, f"{args.address}/status.json")
    if args.json:
        print(json.dumps(status["remediation"], indent=2))
    else:
        text = render_remediation(status["remediation"], max_entries=args.last)
        print(text or "remediation is off and its journal is empty")
    return 0


async def _cmd_trace(args: argparse.Namespace) -> int:
    """Render one trace (call tree + critical path) from a running deployment."""
    from repro.observability.dashboard import fetch

    print(await asyncio.to_thread(fetch, f"{args.address}/trace/{args.trace_id}"))
    return 0


async def _cmd_components(args: argparse.Namespace) -> int:
    _import_modules(args.module)
    build = global_registry().freeze()
    print(f"deployment version: {build.version}")
    for reg in build:
        methods = ", ".join(
            m.name + (f"@{m.routing_key}" if m.routing_key else "")
            for m in reg.spec.methods
        )
        print(f"  [{reg.component_id:2d}] {reg.name}")
        print(f"       impl: {reg.impl.__module__}.{reg.impl.__qualname__}")
        print(f"       methods: {methods}")
    return 0


async def _cmd_version(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__}")
    if args.module:
        _import_modules(args.module)
        build = global_registry().freeze()
        print(f"deployment version: {build.version} ({len(build)} components)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    deploy = sub.add_parser("deploy", help="deploy registered components")
    deploy.add_argument("config", nargs="?", default=None, help="TOML config file")
    deploy.add_argument(
        "--module",
        action="append",
        default=[],
        required=True,
        help="module(s) to import for @implements registrations",
    )
    deploy.add_argument(
        "--subprocess", action="store_true", help="one OS process per proclet"
    )
    deploy.add_argument("--autoscale", action="store_true", help="enable the HPA loop")
    deploy.add_argument(
        "--drive-boutique",
        action="store_true",
        help="drive the Locust mix against the boutique frontend",
    )
    deploy.add_argument("--qps", type=float, default=50.0)
    deploy.add_argument("--duration", type=float, default=3.0)
    deploy.add_argument(
        "--dashboard",
        type=int,
        nargs="?",
        const=8090,
        default=None,
        metavar="PORT",
        help="serve the live dashboard on PORT (default 8090)",
    )
    deploy.set_defaults(handler=_cmd_deploy)

    status = sub.add_parser("status", help="query a running deployment's status")
    status.add_argument("--address", default=DEFAULT_DASHBOARD)
    status.add_argument(
        "--json", action="store_true", help="machine-readable status JSON"
    )
    status.set_defaults(handler=_cmd_status)

    top = sub.add_parser("top", help="live auto-refreshing dashboard")
    top.add_argument("--address", default=DEFAULT_DASHBOARD)
    top.add_argument("--interval", type=float, default=1.0)
    top.add_argument("--once", action="store_true", help="render one frame and exit")
    top.set_defaults(handler=_cmd_top)

    actions = sub.add_parser(
        "actions", help="show the remediation controller's action journal"
    )
    actions.add_argument("--address", default=DEFAULT_DASHBOARD)
    actions.add_argument(
        "--json", action="store_true", help="raw remediation wire JSON"
    )
    actions.add_argument(
        "--last", type=int, default=20, help="journal entries to show (default 20)"
    )
    actions.set_defaults(handler=_cmd_actions)

    trace = sub.add_parser("trace", help="show one trace's call tree")
    trace.add_argument("trace_id", help="trace id (hex or decimal)")
    trace.add_argument("--address", default=DEFAULT_DASHBOARD)
    trace.set_defaults(handler=_cmd_trace)

    components = sub.add_parser("components", help="list registered components")
    components.add_argument("--module", action="append", default=[], required=True)
    components.set_defaults(handler=_cmd_components)

    version = sub.add_parser("version", help="print versions")
    version.add_argument("--module", action="append", default=[])
    version.set_defaults(handler=_cmd_version)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(args.handler(args))
    except (WeaverError, OSError) as exc:  # OSError: dashboard unreachable, bad port, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
