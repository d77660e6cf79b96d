"""Entry point for subprocess proclets: ``python -m repro.runtime.procmain``.

The envelope launches this module with two arguments: the path of the
control UNIX socket to connect back on, and the path of a JSON spec::

    {
      "proclet_id":  "app-g2-r0",
      "group_id":    2,
      "modules":     ["repro.boutique"],      # imported to run @implements
      "components":  ["...Cart", "..."],      # the full deployment set
      "version":     "9a1b...",               # parent's version, must match
      "config":      { ... AppConfig fields ... }
    }

The child rebuilds the *same* frozen registry the parent has (same modules,
same component subset => same component ids and deployment version) and
refuses to start on a mismatch: a proclet from a stale build must never
join the deployment (§4.4).
"""

from __future__ import annotations

import asyncio
import importlib
import json
import sys

from repro.core.config import AppConfig
from repro.core.registry import global_registry
from repro.runtime.pipes import ControlEndpoint, StreamPipe
from repro.runtime.proclet import PipeRuntimeAPI, Proclet


async def amain(socket_path: str, spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)

    for module in spec.get("modules", []):
        importlib.import_module(module)

    registry = global_registry()
    wanted = set(spec["components"])
    # Freeze over exactly the parent's component set, found by name.
    from repro.core.component import component_name

    ifaces = [i for i in registry.interfaces() if component_name(i) in wanted]
    missing = wanted - {component_name(i) for i in ifaces}
    if missing:
        print(f"procmain: components not registered: {sorted(missing)}", file=sys.stderr)
        return 2
    build = registry.freeze(
        components=sorted(ifaces, key=component_name), salt=spec.get("salt", "")
    )
    if build.version != spec["version"]:
        print(
            f"procmain: version mismatch: built {build.version}, "
            f"parent expects {spec['version']} — refusing to join deployment",
            file=sys.stderr,
        )
        return 3

    config = AppConfig.from_dict(spec.get("config", {}))

    reader, writer = await asyncio.open_unix_connection(socket_path)
    pipe = StreamPipe(reader, writer)

    done = asyncio.Event()
    proclet: Proclet | None = None

    async def handle(type_: str, body: dict) -> dict:
        assert proclet is not None
        result = await proclet.handle_control(type_, body)
        if type_ == "shutdown":
            done.set()
        return result

    endpoint = ControlEndpoint(pipe, handle, name=spec["proclet_id"])
    endpoint.start()
    runtime = PipeRuntimeAPI(endpoint)

    proclet = Proclet(
        spec["proclet_id"],
        build,
        config,
        runtime,
        group_id=spec["group_id"],
        replica_index=spec.get("replica_index", 0),
    )
    await proclet.start()

    # Serve until shutdown is pushed or the control pipe dies (orphaned
    # proclets must not outlive their envelope).
    while not done.is_set() and not endpoint.closed:
        try:
            await asyncio.wait_for(done.wait(), timeout=0.5)
        except asyncio.TimeoutError:
            pass
    if not done.is_set() and config.drain_deadline_s > 0:
        # The control pipe died without an orderly shutdown (or drain);
        # give in-flight RPCs a short grace period before exiting instead
        # of dropping them mid-execution.
        try:
            await proclet.drain(min(1.0, config.drain_deadline_s))
        except Exception:
            pass
    await proclet.stop()
    await endpoint.close()
    return 0


def main() -> None:
    if len(sys.argv) != 3:
        print("usage: python -m repro.runtime.procmain <socket> <spec.json>", file=sys.stderr)
        raise SystemExit(64)
    raise SystemExit(asyncio.run(amain(sys.argv[1], sys.argv[2])))


if __name__ == "__main__":
    main()
