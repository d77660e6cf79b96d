"""Envelopes: the per-proclet side of the deployer (§4.3, Figure 3).

    "An envelope runs as the parent process to a proclet and relays API
    calls to the manager."

An envelope owns exactly one proclet and is the only thing the manager
talks to it through.  What the proclet asks (the methods of
:data:`repro.runtime.pipes.API`) reaches the
:class:`~repro.runtime.manager.Manager`; what the manager decides about
this proclet (new hosted set, routing, state handover, drain, shutdown)
is pushed down through the envelope's one :meth:`~BaseEnvelope.control`.

Two implementations:

* :class:`InProcessEnvelope` — the proclet runs in the same OS process and
  event loop and calls the manager directly; pushes call its
  ``handle_control``.  The process boundary collapses but every other
  mechanism (registration, routing, RPC between proclets over real
  sockets) is identical.  Used by fast tests and the in-process
  multiprocess deployer.
* :class:`SubprocessEnvelope` — the real thing: forks
  ``python -m repro.runtime.procmain``, talks JSON-lines over a UNIX-domain
  socket (standing in for the paper's UNIX pipe: a socketpair *is* a
  bidirectional pipe), serves the proclet's calls with
  :func:`repro.runtime.pipes.serve`, watches the child, and reports its
  death.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import os
import sys
from typing import Any, Optional

from repro.core.config import AppConfig
from repro.core.errors import RuntimeControlError
from repro.core.registry import FrozenRegistry
from repro.runtime import pipes
from repro.runtime.manager import Manager
from repro.runtime.pipes import ControlEndpoint, StreamPipe
from repro.runtime.proclet import Proclet

log = logging.getLogger("repro.runtime.envelope")


class BaseEnvelope:
    """Common envelope state, and the runtime -> proclet pushes.

    Each push goes through :meth:`control`, the one thing a subclass says
    about how its proclet is reached.
    """

    def __init__(self, proclet_id: str, group_id: int, manager: Manager) -> None:
        self.proclet_id = proclet_id
        self.group_id = group_id
        self.manager = manager
        self.stopped = False

    async def start(self) -> None:
        raise NotImplementedError

    async def stop(self) -> None:
        raise NotImplementedError

    async def control(
        self, type_: str, body: dict[str, Any], *, timeout: float = 30.0
    ) -> dict[str, Any]:
        """Send one push to the proclet and return its reply; ``timeout``
        bounds a round trip over a pipe.  Raises RuntimeControlError when
        the proclet cannot be reached."""
        raise NotImplementedError

    async def drain(self, deadline_s: float) -> Optional[dict[str, Any]]:
        """Ask the proclet to finish in-flight RPCs before stop().

        Returns the proclet's drain response — ``{"drained_s": ...,
        "handover": [shard manifests]}`` — so the manager can re-home the
        retiring replica's flushed state shards.  Best-effort: a proclet
        that cannot be reached (already dead, pipe gone) gives None — the
        subsequent hard stop is the fallback either way, and recovery then
        happens lazily from the shared WAL directory.
        """
        if self.stopped:
            return None
        try:
            return await self.control(
                pipes.DRAIN, {"deadline_s": deadline_s}, timeout=deadline_s + 5.0
            )
        except RuntimeControlError:
            return None  # child died or wedged mid-drain; stop() will clean up

    async def push_hosted(self, components: list[str]) -> None:
        """Manager decided this proclet should host a different set."""
        await self.control(pipes.HOST_COMPONENTS, {"components": components})

    async def push_routing(self, component: str, info: dict[str, Any]) -> None:
        """Manager proactively pushes a fresh assignment (ring changed), so
        ownership checks and caller caches update without waiting for a
        miss.  Best-effort: the proclet also learns on its next miss."""
        if self.stopped:
            return
        try:
            await self.control(pipes.ROUTING_INFO, info)
        except RuntimeControlError:
            pass

    async def push_state(self, shards: list[dict[str, Any]]) -> int:
        """Hand flushed shard manifests to this proclet for eager replay.

        Returns the number of WAL records the proclet replayed (0 when
        unreachable: a survivor replays lazily from the shared WAL dir);
        the manager uses the count for handover metrics.
        """
        if self.stopped:
            return 0
        try:
            resp = await self.control(pipes.STATE_HANDOVER, {"shards": shards})
        except RuntimeControlError:
            return 0
        return int(resp.get("replayed", 0))


class InProcessEnvelope(BaseEnvelope):
    """Envelope whose proclet shares our event loop (no fork)."""

    def __init__(
        self,
        proclet_id: str,
        group_id: int,
        manager: Manager,
        build: FrozenRegistry,
        config: AppConfig,
        *,
        replica_index: int = 0,
        heartbeat_interval_s: float = 0.2,
    ) -> None:
        super().__init__(proclet_id, group_id, manager)
        self.proclet = Proclet(
            proclet_id,
            build,
            config,
            manager,
            group_id=group_id,
            replica_index=replica_index,
            heartbeat_interval_s=heartbeat_interval_s,
        )

    async def start(self) -> None:
        await self.proclet.start()

    async def stop(self) -> None:
        if not self.stopped:
            self.stopped = True
            await self.proclet.stop()

    async def control(
        self, type_: str, body: dict[str, Any], *, timeout: float = 30.0
    ) -> dict[str, Any]:
        return await self.proclet.handle_control(type_, body)

    def kill(self) -> None:
        """Abrupt, unclean stop — the chaos-testing hook."""
        self.stopped = True
        asyncio.ensure_future(self.proclet.stop())


class SubprocessEnvelope(BaseEnvelope):
    """Envelope that runs its proclet as a real child OS process."""

    def __init__(
        self,
        proclet_id: str,
        group_id: int,
        manager: Manager,
        *,
        spec: dict[str, Any],
        control_dir: str,
    ) -> None:
        super().__init__(proclet_id, group_id, manager)
        self._spec = spec
        self._control_dir = control_dir
        self._process: Optional[asyncio.subprocess.Process] = None
        self._endpoint: Optional[ControlEndpoint] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connected = asyncio.Event()
        self._stderr_task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        socket_path = os.path.join(self._control_dir, f"{self.proclet_id}.sock")
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self._server = await pipes.listen_unix(self._accept, socket_path)

        spec_path = os.path.join(self._control_dir, f"{self.proclet_id}.spec.json")
        with open(spec_path, "w") as f:
            json.dump(self._spec, f)

        self._process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.runtime.procmain",
            socket_path,
            spec_path,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
        )
        self._stderr_task = asyncio.ensure_future(self._pump_stderr())
        try:
            await asyncio.wait_for(self._connected.wait(), timeout=30.0)
        except asyncio.TimeoutError:
            raise RuntimeControlError(
                f"proclet {self.proclet_id} did not connect its control socket"
            ) from None

    def _accept(self, pipe: StreamPipe) -> None:
        self._endpoint = ControlEndpoint(
            pipe, functools.partial(pipes.serve, self.manager), name=f"env-{self.proclet_id}"
        )
        self._endpoint.start()
        self._connected.set()

    async def _pump_stderr(self) -> None:
        """Forward the child's stderr into our log (debuggability)."""
        assert self._process is not None and self._process.stderr is not None
        try:
            async for line in self._process.stderr:
                log.info("[%s] %s", self.proclet_id, line.decode(errors="replace").rstrip())
        except (asyncio.CancelledError, ValueError):
            pass

    async def control(
        self, type_: str, body: dict[str, Any], *, timeout: float = 30.0
    ) -> dict[str, Any]:
        if self._endpoint is None or self._endpoint.closed:
            raise RuntimeControlError(f"{self.proclet_id}: no control pipe")
        return await self._endpoint.request(type_, body, timeout=timeout)

    async def stop(self) -> None:
        if not self.stopped:
            self.stopped = True
            try:
                await self.control(pipes.SHUTDOWN, {}, timeout=5.0)
            except RuntimeControlError:
                pass
        # Even after kill() or the child's death, the pipe, the child and
        # the server are still ours to close.
        if self._endpoint is not None:
            await self._endpoint.close()
        if self._process is not None:
            try:
                await asyncio.wait_for(self._process.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                self._process.kill()
                await self._process.wait()
        if self._stderr_task is not None:
            self._stderr_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def kill(self) -> None:
        """SIGKILL the child without ceremony (chaos-testing hook)."""
        self.stopped = True
        if self._process is not None and self._process.returncode is None:
            self._process.kill()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process else None

    @property
    def returncode(self) -> Optional[int]:
        return self._process.returncode if self._process else None
