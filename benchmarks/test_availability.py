"""E15 — availability under replica failure: breakers + drain vs neither.

The failure-domain gate.  A replicated echo component takes paced load
while replicas are *silently* killed — no report to the manager, so the
only signals are missed heartbeats (slow, authoritative) and failed calls
(fast, client-side).  Two interleaved configurations run in the same
process:

* **on** — per-replica circuit breakers eject the dead address after a few
  failed calls, and planned shutdown drains in-flight work.
* **off** — callers keep picking the dead replica until the manager's
  health sweep notices the silence; planned shutdown is a hard stop.

Retries are disabled (``max_retries=0``) so every routing mistake is
visible in the success rate rather than hidden by the retry budget.

Results land in ``BENCH_4.json`` at the repo root.  Gates: breakers must
lift the chaos success rate at least 1.2x, and recover service at least
2x faster after a silent kill.  ``REPRO_BENCH_QUICK=1`` shrinks the run
and relaxes the gates for CI smoke: short windows under-sample the
outage, so the smoke job checks direction, not magnitude.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from benchmarks.conftest import print_table
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.testing.chaos import ChaosMonkey, ChaosReport

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
REPEATS = 1 if QUICK else 2
REQUESTS = 300 if QUICK else 900
KILL_EVERY = 100 if QUICK else 300
PACE_S = 0.004
#: Shortened detection thresholds so the manager-only baseline recovers
#: within the benchmark window (heartbeats tick every 0.2s in-proc).
SUSPECT_AFTER_S = 0.4 if QUICK else 0.6
DEAD_AFTER_S = 0.8 if QUICK else 1.2
MIN_SUCCESS_RATIO = 1.05 if QUICK else 1.2
MIN_RECOVERY_RATIO = 1.2 if QUICK else 2.0
RECOVERY_STREAK = 10 if QUICK else 25
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_4.json")


class Echo(Component):
    async def echo(self, value: int) -> int: ...

    async def slow_echo(self, value: int, delay_s: float) -> int: ...


class EchoImpl:
    async def echo(self, value: int) -> int:
        return value

    async def slow_echo(self, value: int, delay_s: float) -> int:
        await asyncio.sleep(delay_s)
        return value


def _registry() -> Registry:
    registry = Registry()
    registry.register(Echo, EchoImpl)
    return registry


def _recovery_s(report: ChaosReport, end_t: float) -> float:
    """Mean seconds-to-steady after each kill.

    A run that never got back to steady before it ended scores the time it
    stayed black — a floor, which only understates the slow configuration.
    """
    samples = []
    for kill_t in report.kill_times:
        r = report.time_to_recover(kill_t, consecutive=RECOVERY_STREAK)
        samples.append(r if r is not None else max(0.0, end_t - kill_t))
    return sum(samples) / len(samples) if samples else 0.0


async def _scenario(enabled: bool, seed: int) -> dict:
    config = AppConfig(
        name="avail",
        replicas={Echo: 3},
        max_retries=0,
        breakers_enabled=enabled,
        drain_deadline_s=5.0 if enabled else 0.0,
    )
    app = await deploy_multiprocess(config, registry=_registry())
    app.manager.health._suspect_after_s = SUSPECT_AFTER_S
    app.manager.health._dead_after_s = DEAD_AFTER_S
    monkey = ChaosMonkey(app, seed=seed)
    echo = app.get(Echo)
    counter = {"n": 0}

    async def workload():
        counter["n"] += 1
        assert await echo.echo(counter["n"]) == counter["n"]
        await asyncio.sleep(PACE_S)  # paced load: outages span wall time

    report = await monkey.rampage(
        workload, requests=REQUESTS, kill_every=KILL_EVERY, silent_kills=True
    )
    end_t = time.monotonic()
    # Let the reconcile pass finish repairing before the planned-shutdown probe.
    for _ in range(40):
        live = [e for e in app.envelopes.values() if not e.stopped]
        if len(live) >= 3:
            break
        await asyncio.sleep(0.1)

    # The storm leaves the driver with cached addresses of long-dead
    # replicas (kept by their open breakers, occasionally probed).  The
    # planned-shutdown probe measures drain in steady state, so refresh
    # the routing view first — what any long-lived caller converges to.
    app.driver._table.invalidate(app.build.by_iface(Echo).name)
    assert await echo.echo(-1) == -1

    # Planned shutdown: shrink the echo group while slow calls are in
    # flight.  With drain the retiring replica finishes them; without, the
    # hard stop cuts them off mid-execution.
    calls = [
        asyncio.ensure_future(echo.slow_echo(i, 0.25)) for i in range(12)
    ]
    await asyncio.sleep(0.05)
    group = next(
        g for g in app.manager.group_states().values() if g.group_id >= 0
    )
    group.target_replicas = max(1, len(group.proclets) - 1)
    await app.manager.reconcile()
    outcomes = await asyncio.gather(*calls, return_exceptions=True)
    shutdown_failures = sum(1 for o in outcomes if isinstance(o, BaseException))

    await app.shutdown()
    return {
        "mode": "breakers+drain" if enabled else "manager-only",
        "requests": report.requests_attempted,
        "succeeded": report.requests_succeeded,
        "success_rate": report.success_rate,
        "kills": len(report.kills),
        "recovery_s": _recovery_s(report, end_t),
        "shutdown_failures": shutdown_failures,
        "errors": dict(report.errors),
    }


def _best(runs: list[dict]) -> dict:
    """Best-of-N: noise (CI stalls, GC pauses) only ever hurts a run."""
    return max(runs, key=lambda r: (r["success_rate"], -r["recovery_s"]))


def test_availability_gate(benchmark):
    def run_all() -> tuple[list[dict], list[dict]]:
        on_runs, off_runs = [], []
        # Interleaved so machine-wide slow periods tax both modes equally.
        for i in range(REPEATS):
            on_runs.append(asyncio.run(_scenario(True, seed=10 + i)))
            off_runs.append(asyncio.run(_scenario(False, seed=10 + i)))
        return on_runs, off_runs

    on_runs, off_runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    on, off = _best(on_runs), _best(off_runs)

    success_ratio = (
        on["success_rate"] / off["success_rate"] if off["success_rate"] else float("inf")
    )
    recovery_ratio = (
        off["recovery_s"] / on["recovery_s"] if on["recovery_s"] else float("inf")
    )

    results = {
        "benchmark": "availability",
        "quick": QUICK,
        "repeats": REPEATS,
        "requests": REQUESTS,
        "detection": {
            "suspect_after_s": SUSPECT_AFTER_S,
            "dead_after_s": DEAD_AFTER_S,
        },
        "on": on_runs,
        "off": off_runs,
        "gate": {
            "min_success_ratio": MIN_SUCCESS_RATIO,
            "success_ratio": success_ratio,
            "min_recovery_ratio": MIN_RECOVERY_RATIO,
            "recovery_ratio": recovery_ratio,
        },
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2)

    print_table(
        "E15 — availability under silent replica kills",
        [on, off],
        ["mode", "requests", "succeeded", "success_rate", "kills",
         "recovery_s", "shutdown_failures"],
    )
    print_table(
        "E15 gate",
        [
            {"ratio": "success (on/off)", "value": success_ratio,
             "required": MIN_SUCCESS_RATIO},
            {"ratio": "recovery (off/on)", "value": recovery_ratio,
             "required": MIN_RECOVERY_RATIO},
        ],
        ["ratio", "value", "required"],
    )

    assert on["kills"] >= 2 and off["kills"] >= 2
    # Drain keeps planned shutdown invisible to callers.
    assert on["shutdown_failures"] == 0, on
    assert success_ratio >= MIN_SUCCESS_RATIO, (
        f"breakers lift success rate only {success_ratio:.2f}x "
        f"(on={on['success_rate']:.3f} off={off['success_rate']:.3f}), "
        f"below the {MIN_SUCCESS_RATIO}x gate"
    )
    assert recovery_ratio >= MIN_RECOVERY_RATIO, (
        f"breakers recover only {recovery_ratio:.2f}x faster "
        f"(on={on['recovery_s']:.3f}s off={off['recovery_s']:.3f}s), "
        f"below the {MIN_RECOVERY_RATIO}x gate"
    )
