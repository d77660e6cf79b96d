"""The e2e test harness: run a whole distributed app inside one test (§5.3).

    "Because applications are written as single binaries in a single
    programming language, end-to-end tests become simple unit tests."

:func:`weavertest` deploys an application in any of three modes and hands
the test a ready app handle::

    async with weavertest(components=[Frontend, ...], mode="multi") as app:
        fe = app.get(Frontend)
        assert (await fe.home("u", "USD")).products

Modes: ``single`` (all local), ``multi`` (one process-equivalent per
component, in-process envelopes, real RPC), ``subprocess`` (real child
processes).  Faults can be injected with a :class:`FaultPlan`.
"""

from __future__ import annotations

import contextlib
from typing import Any, AsyncIterator, Optional

from repro.core.app import init
from repro.core.config import AppConfig
from repro.core.errors import ConfigError
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.testing.faults import FaultPlan


@contextlib.asynccontextmanager
async def weavertest(
    *,
    components: Optional[list[type]] = None,
    registry: Optional[Registry] = None,
    config: Optional[AppConfig] = None,
    mode: str = "single",
    faults: Optional[FaultPlan] = None,
    autoscale: bool = False,
) -> AsyncIterator[Any]:
    """Deploy an application for the duration of a test."""
    config = config or AppConfig()
    if mode == "single":
        app = await init(config, components=components, registry=registry)
        if faults is not None:
            app._invoker.fault_plan = faults
    elif mode in ("multi", "subprocess"):
        app = await deploy_multiprocess(
            config,
            components=components,
            registry=registry,
            mode="inproc" if mode == "multi" else "subprocess",
            autoscale=autoscale,
        )
        if faults is not None:
            _inject_everywhere(app, faults)
    else:
        raise ConfigError(f"unknown weavertest mode {mode!r}")
    try:
        yield app
    finally:
        await app.shutdown()


def _inject_everywhere(app: Any, plan: FaultPlan) -> None:
    """Attach the fault plan to the driver's and every in-process proclet's
    invokers (existing stubs pick it up, since the plan is consulted per
    call).  Subprocess proclets cannot be reached from here — kill their
    envelopes instead, via ChaosMonkey."""
    app._driver._remote.fault_plan = plan
    for envelope in app.envelopes.values():
        proclet = getattr(envelope, "proclet", None)
        if proclet is not None:
            proclet._remote.fault_plan = plan
            proclet._local.fault_plan = plan
