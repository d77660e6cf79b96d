"""E20 — closed-loop remediation: recovery speedup and guardrail ceilings.

The control-plane gate for the remediation controller.  Two scenarios:

**Rampage** — a replicated echo component takes paced load while replicas
are *silently* killed.  Breakers and retries are disabled on both sides,
so the only healer is the control plane.  With ``remediation: off`` the
manager's reconcile pass repairs at ``dead_after_s`` (the conservative,
authoritative signal); with ``remediation: on`` the controller restarts
replicas at *suspect* — the whole point of closing the loop.  Gate: the
controller recovers at least 1.5x faster **or** lifts the chaos success
rate at least 1.2x.

**Storm** — flapping injected latency (``metric_storm``) makes the p99
anomaly detector fire, resolve, and fire again in a loop.  An unguarded
controller would translate every firing into an action; the gate proves
the rolling-minute budget caps *executed* actions at the configured
ceiling, that the suppressions are journaled (auditable, not silent), and
that the replica count never oscillates — it only ever steps up, by at
most the budget.

Results land in ``BENCH_10.json`` at the repo root (both scenarios merge
into one file).  ``REPRO_BENCH_QUICK=1`` shrinks the run and relaxes the
rampage gate to a direction check; the storm ceilings are exact at any
size.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from benchmarks.conftest import print_table
from repro.core.component import Component
from repro.core.config import AppConfig, AutoscaleConfig
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.testing.chaos import ChaosMonkey, ChaosReport, metric_storm

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
REPEATS = 1 if QUICK else 2
REQUESTS = 400 if QUICK else 900
KILL_EVERY = 150 if QUICK else 300
PACE_S = 0.004
#: Detection thresholds: the controller acts at SUSPECT, the baseline
#: health step at DEAD — the spread is the speedup being measured (in-proc
#: heartbeats tick every 0.2s, the reconcile pass every TELEMETRY_TICK_S).
SUSPECT_AFTER_S = 0.3 if QUICK else 0.4
DEAD_AFTER_S = 1.2 if QUICK else 2.0
TELEMETRY_TICK_S = 0.25
RECOVERY_STREAK = 8 if QUICK else 20
MIN_RECOVERY_RATIO = 1.15 if QUICK else 1.5
MIN_SUCCESS_RATIO = 1.02 if QUICK else 1.2

#: Storm scenario: executed-action budget and run shape.
STORM_BUDGET = 3
STORM_DURATION_S = 6.0 if QUICK else 12.0
STORM_HIGH_DELAY_S = 0.25

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_10.json")


class Echo(Component):
    async def echo(self, value: int) -> int: ...


class EchoImpl:
    async def echo(self, value: int) -> int:
        return value


def _registry() -> Registry:
    registry = Registry()
    registry.register(Echo, EchoImpl)
    return registry


def _merge_results(section: str, payload: dict) -> None:
    """Both scenarios write one BENCH_10.json, whichever runs first."""
    results: dict = {"benchmark": "remediation", "quick": QUICK}
    if os.path.exists(RESULTS_PATH):
        try:
            with open(RESULTS_PATH, "r", encoding="utf-8") as f:
                results = json.load(f)
        except (OSError, ValueError):
            pass
    results[section] = payload
    with open(RESULTS_PATH, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2)


# -- scenario 1: silent-kill rampage, controller on vs off --------------------


def _recovery_s(report: ChaosReport, end_t: float) -> float:
    """Mean seconds-to-steady after each kill (floor: time left black)."""
    samples = []
    for kill_t in report.kill_times:
        r = report.time_to_recover(kill_t, consecutive=RECOVERY_STREAK)
        samples.append(r if r is not None else max(0.0, end_t - kill_t))
    return sum(samples) / len(samples) if samples else 0.0


async def _rampage(remediation: str, seed: int) -> dict:
    config = AppConfig(
        name="rem-rampage",
        replicas={Echo: 3},
        max_retries=0,
        breakers_enabled=False,
        drain_deadline_s=0.0,
        remediation=remediation,
        remediation_cooldown_s=1.0,
        remediation_max_actions_per_min=30,
        telemetry_tick_s=TELEMETRY_TICK_S,
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
    wire = app.manager.remediation.to_wire()
    await app.shutdown()
    return {
        "mode": f"remediation-{remediation}",
        "requests": report.requests_attempted,
        "succeeded": report.requests_succeeded,
        "success_rate": report.success_rate,
        "kills": len(report.kills),
        "recovery_s": _recovery_s(report, end_t),
        "actions_fired": wire["counts"]["fired"],
        "errors": dict(report.errors),
    }


def _best(runs: list[dict]) -> dict:
    """Best-of-N: noise (CI stalls, GC pauses) only ever hurts a run."""
    return max(runs, key=lambda r: (r["success_rate"], -r["recovery_s"]))


def test_remediation_recovery_gate(benchmark):
    def run_all() -> tuple[list[dict], list[dict]]:
        on_runs, off_runs = [], []
        # Interleaved so machine-wide slow periods tax both modes equally.
        for i in range(REPEATS):
            on_runs.append(asyncio.run(_rampage("on", seed=20 + i)))
            off_runs.append(asyncio.run(_rampage("off", seed=20 + i)))
        return on_runs, off_runs

    on_runs, off_runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    on, off = _best(on_runs), _best(off_runs)

    recovery_ratio = (
        off["recovery_s"] / on["recovery_s"] if on["recovery_s"] else float("inf")
    )
    success_ratio = (
        on["success_rate"] / off["success_rate"] if off["success_rate"] else float("inf")
    )

    _merge_results(
        "rampage",
        {
            "repeats": REPEATS,
            "requests": REQUESTS,
            "detection": {
                "suspect_after_s": SUSPECT_AFTER_S,
                "dead_after_s": DEAD_AFTER_S,
                "telemetry_tick_s": TELEMETRY_TICK_S,
            },
            "on": on_runs,
            "off": off_runs,
            "gate": {
                "min_recovery_ratio": MIN_RECOVERY_RATIO,
                "recovery_ratio": recovery_ratio,
                "min_success_ratio": MIN_SUCCESS_RATIO,
                "success_ratio": success_ratio,
            },
        },
    )

    print_table(
        "E20 — recovery from silent kills, controller on vs off",
        [on, off],
        ["mode", "requests", "succeeded", "success_rate", "kills",
         "recovery_s", "actions_fired"],
    )
    print_table(
        "E20 rampage gate (either ratio may carry it)",
        [
            {"ratio": "recovery (off/on)", "value": recovery_ratio,
             "required": MIN_RECOVERY_RATIO},
            {"ratio": "success (on/off)", "value": success_ratio,
             "required": MIN_SUCCESS_RATIO},
        ],
        ["ratio", "value", "required"],
    )

    assert on["kills"] >= 2 and off["kills"] >= 2
    assert on["actions_fired"] >= 1, "controller-on run never acted"
    assert off["actions_fired"] == 0, "controller-off run acted"
    assert (
        recovery_ratio >= MIN_RECOVERY_RATIO or success_ratio >= MIN_SUCCESS_RATIO
    ), (
        f"controller recovers only {recovery_ratio:.2f}x faster "
        f"(on={on['recovery_s']:.3f}s off={off['recovery_s']:.3f}s) and lifts "
        f"success only {success_ratio:.2f}x "
        f"(on={on['success_rate']:.3f} off={off['success_rate']:.3f}); "
        f"gates: {MIN_RECOVERY_RATIO}x recovery or {MIN_SUCCESS_RATIO}x success"
    )


# -- scenario 2: metric storm vs the guardrails -------------------------------


async def _storm() -> dict:
    config = AppConfig(
        name="rem-storm",
        replicas={Echo: 1},
        remediation="on",
        remediation_cooldown_s=0.5,
        remediation_max_actions_per_min=STORM_BUDGET,
        telemetry_tick_s=TELEMETRY_TICK_S,
        autoscale=AutoscaleConfig(max_replicas=8, scale_down_stabilization_s=0.0),
    )
    app = await deploy_multiprocess(config, registry=_registry())
    echo = app.get(Echo)
    stop = asyncio.Event()

    async def load() -> None:
        i = 0
        while not stop.is_set():
            i += 1
            await echo.echo(i)
            await asyncio.sleep(0.01)

    driver = asyncio.ensure_future(load())
    group = next(iter(app.manager.group_states().values()))
    target_samples = [group.target_replicas]
    try:
        # Warm the client_p99_ms detector (min_samples healthy ticks).
        board = app.manager.signals
        for _ in range(200):
            dets = [
                d
                for (series, _), d in board._detectors.items()
                if series == "client_p99_ms"
            ]
            if dets and all(d.samples >= d.min_samples for d in dets):
                break
            await asyncio.sleep(0.1)
        else:
            raise AssertionError("client_p99_ms detector never warmed up")
        assert not board.firing(), "signals firing before the storm"
        initial_target = group.target_replicas

        storm = metric_storm(
            app, high_delay_s=STORM_HIGH_DELAY_S, period_s=2.0, high_s=1.0
        )
        deadline = time.monotonic() + STORM_DURATION_S
        while time.monotonic() < deadline:
            target_samples.append(group.target_replicas)
            await asyncio.sleep(0.1)
        storm.revert()
    finally:
        stop.set()
        driver.cancel()
        wire = app.manager.remediation.to_wire()
        await app.shutdown()

    verdicts: dict[str, int] = {}
    for entry in wire["journal"]:
        verdicts[entry["verdict"]] = verdicts.get(entry["verdict"], 0) + 1
    return {
        "budget": STORM_BUDGET,
        "duration_s": STORM_DURATION_S,
        "initial_target": initial_target,
        "final_target": group.target_replicas,
        "target_samples": target_samples,
        "fired": wire["counts"]["fired"],
        "suppressed": wire["counts"]["suppressed"],
        "verdicts": verdicts,
        "budget_available_after": wire["budget"]["available"],
    }


def test_remediation_guardrail_gate(benchmark):
    result = benchmark.pedantic(
        lambda: asyncio.run(_storm()), rounds=1, iterations=1
    )

    _merge_results("storm", result)

    print_table(
        "E20 — metric storm vs the action budget",
        [result],
        ["budget", "duration_s", "fired", "suppressed",
         "initial_target", "final_target"],
    )

    # The storm produced decisions — and far more of them than the budget
    # allowed through.
    assert result["fired"] >= 1, "storm never triggered an action"
    assert result["suppressed"] > 0, "guardrails never engaged"
    assert result["verdicts"].get("suppressed:budget", 0) > 0, (
        f"no budget suppressions journaled: {result['verdicts']}"
    )
    # Executed actions capped at the rolling-minute budget.
    assert result["fired"] <= STORM_BUDGET, (
        f"{result['fired']} actions fired, budget is {STORM_BUDGET}"
    )
    # Zero oscillation: capacity only ever steps up, by at most the budget.
    samples = result["target_samples"]
    assert all(b >= a for a, b in zip(samples, samples[1:])), (
        "replica target oscillated during the storm"
    )
    assert result["final_target"] - result["initial_target"] <= STORM_BUDGET
