"""Chaos testing: kill replicas under load, assert the app survives (§5.3).

A :class:`ChaosMonkey` runs against a live multiprocess deployment,
killing random proclets on an interval while a workload runs.  The manager
is expected to detect the deaths (health sweep), restart replicas, and
repair routing; the monkey's report says how much of the workload survived.

This is the paper's "automated fault tolerance testing ... akin to chaos
testing [47]" made concrete: because the whole application deploys from
one test process, the monkey needs no infrastructure — it is a unit test.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Optional

from repro.core.errors import WeaverError
from repro.testing.faults import FaultPlan, FaultRule, FlappingDelayRule


class LatencyInjection:
    """A live latency regression: revert() removes the injected delay.

    Returned by :func:`inject_latency`; the telemetry benchmarks use it to
    create a latency regression with a known onset time and then undo it.
    """

    def __init__(self, rule: FaultRule, plans: list[FaultPlan]) -> None:
        self.rule = rule
        self._plans = plans
        self.started_at = time.monotonic()

    def revert(self) -> None:
        for plan in self._plans:
            if self.rule in plan.rules:
                plan.rules.remove(self.rule)
        self._plans = []


def inject_latency(
    app: Any,
    delay_s: float,
    *,
    component: Optional[str] = None,
    method: Optional[str] = None,
) -> LatencyInjection:
    """Add ``delay_s`` to every matching call issued by the driver and any
    in-process proclet, starting now.

    The delay is applied client-side (before the RPC is issued) so it shows
    up in ``rpc_client_latency_s`` — exactly the series the anomaly
    detectors watch.  Call :meth:`LatencyInjection.revert` to heal.
    """
    rule = FaultRule(component=component, method=method, delay_s=delay_s)
    return LatencyInjection(rule, _attach_rule(app, rule))


def metric_storm(
    app: Any,
    *,
    high_delay_s: float = 0.4,
    period_s: float = 2.0,
    high_s: float = 1.0,
    component: Optional[str] = None,
    method: Optional[str] = None,
) -> LatencyInjection:
    """Inject *flapping* latency: ``high_delay_s`` for ``high_s`` out of
    every ``period_s``, near-zero otherwise.

    Sized against the anomaly detectors' threshold this makes signals fire,
    resolve, and fire again in a loop — the metric storm the remediation
    guardrails (action budget, cooldowns) must absorb without translating
    into an action storm.  Revert like :func:`inject_latency`.
    """
    rule = FlappingDelayRule(
        component=component,
        method=method,
        high_delay_s=high_delay_s,
        period_s=period_s,
        high_s=high_s,
    )
    return LatencyInjection(rule, _attach_rule(app, rule))


def _attach_rule(app: Any, rule: FaultRule) -> list[FaultPlan]:
    """Attach one rule to the driver's and every in-process proclet's
    client-side fault plan; returns the plans touched (for revert)."""
    plans: list[FaultPlan] = []

    def attach(invoker: Any) -> None:
        if invoker is None:
            return
        plan = getattr(invoker, "fault_plan", None)
        if plan is None:
            plan = FaultPlan()
            invoker.fault_plan = plan
        if rule not in plan.rules:  # plans may be shared between invokers
            plan.add(rule)
            plans.append(plan)

    attach(getattr(getattr(app, "_driver", None), "_remote", None))
    for envelope in getattr(app, "envelopes", {}).values():
        proclet = getattr(envelope, "proclet", None)
        if proclet is not None:
            attach(getattr(proclet, "_remote", None))
    return plans


@dataclass
class ChaosReport:
    kills: list[str] = field(default_factory=list)
    #: Monotonic timestamps of each kill (pairs with ``kills`` by index).
    kill_times: list[float] = field(default_factory=list)
    requests_attempted: int = 0
    requests_succeeded: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    #: Per-request (monotonic time, succeeded) in issue order — the raw
    #: series recovery analysis runs over.
    outcomes: list[tuple[float, bool]] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        if self.requests_attempted == 0:
            return 0.0
        return self.requests_succeeded / self.requests_attempted

    def record_error(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def require_success_rate(self, minimum: float) -> "ChaosReport":
        """Steady-state assertion: the run's success rate meets ``minimum``.

        Returns self so it chains off :meth:`ChaosMonkey.rampage`.
        """
        if self.success_rate < minimum:
            raise AssertionError(
                f"chaos run success rate {self.success_rate:.3f} below "
                f"required {minimum:.3f} "
                f"({self.requests_succeeded}/{self.requests_attempted} ok, "
                f"errors: {self.errors}, kills: {len(self.kills)})"
            )
        return self

    def time_to_recover(self, after_t: float, consecutive: int = 25) -> Optional[float]:
        """Seconds from ``after_t`` until service is steady again.

        "Recovered" means the first of ``consecutive`` successive
        successful requests issued after ``after_t``; returns None if the
        run never got there (recovery must be judged against the outcome
        *series*, not the aggregate rate — a run can average 95% and still
        have been black for seconds).
        """
        run_start: Optional[float] = None
        streak = 0
        for t, ok in self.outcomes:
            if t < after_t:
                continue
            if ok:
                if streak == 0:
                    run_start = t
                streak += 1
                if streak >= consecutive:
                    assert run_start is not None
                    return max(0.0, run_start - after_t)
            else:
                streak = 0
                run_start = None
        return None


class ChaosMonkey:
    """Kills random replicas of a MultiProcessApp while work runs."""

    def __init__(
        self,
        app: Any,
        *,
        seed: int = 0,
        spare: Optional[set[str]] = None,
    ) -> None:
        self.app = app
        self._rng = random.Random(seed)
        #: proclet-id prefixes never to kill (e.g. a singleton stateful
        #: group the test wants stable).
        self._spare = spare or set()

    def pick_victim(self) -> Optional[str]:
        candidates = [
            proclet_id
            for proclet_id, envelope in self.app.envelopes.items()
            if not envelope.stopped
            and not any(proclet_id.startswith(p) for p in self._spare)
        ]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def kill_one(self, *, silent: bool = False) -> Optional[str]:
        victim = self.pick_victim()
        if victim is not None:
            if silent:
                # Crash without informing the manager: detection happens
                # through missed heartbeats only (the realistic case).
                self.app.kill_replica(victim, silent=True)
            else:
                self.app.kill_replica(victim)
        return victim

    async def rampage(
        self,
        workload: Callable[[], Awaitable[Any]],
        *,
        requests: int = 50,
        kill_every: int = 10,
        settle_s: float = 0.1,
        silent_kills: bool = False,
        min_success_rate: Optional[float] = None,
    ) -> ChaosReport:
        """Run ``workload()`` ``requests`` times, killing a replica every
        ``kill_every`` requests, and report survival.

        ``min_success_rate`` turns the report into an assertion: the run
        fails unless the steady-state success rate meets it.
        ``silent_kills`` crashes victims without notifying the manager
        (detection via heartbeats only).
        """
        report = ChaosReport()
        for i in range(requests):
            if kill_every and i > 0 and i % kill_every == 0:
                victim = self.kill_one(silent=silent_kills)
                if victim is not None:
                    report.kills.append(victim)
                    report.kill_times.append(time.monotonic())
                    if not silent_kills:
                        await self.app.manager.reconcile()
                        await asyncio.sleep(settle_s)
            report.requests_attempted += 1
            try:
                await workload()
                ok = True
                report.requests_succeeded += 1
            except WeaverError as exc:
                ok = False
                report.record_error(exc)
            except Exception as exc:  # application-level failure
                ok = False
                report.record_error(exc)
            report.outcomes.append((time.monotonic(), ok))
        if min_success_rate is not None:
            report.require_success_rate(min_success_rate)
        return report
