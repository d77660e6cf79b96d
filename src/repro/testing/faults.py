"""Fault injection for component calls (§5.3).

    "This opens the door to automated fault tolerance testing, akin to
    chaos testing, Jepsen testing, and model checking."

A :class:`FaultPlan` decides, per invocation, whether to inject a failure
(an :class:`~repro.core.errors.Unavailable`, an arbitrary exception, or an
added delay).  Invokers consult a plan through their ``fault_plan``
attribute — :class:`~repro.core.stub.LocalInvoker` per call,
:class:`~repro.transport.rpc.RemoteInvoker` per attempt — so the same plan
drives single-process unit tests and real multiprocess deployments
(:func:`~repro.testing.harness.weavertest` attaches it to the
deployment's invokers).

Plans are deterministic given a seed, so a failing chaos run can be
replayed exactly.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.codegen.compiler import MethodSpec
from repro.core.errors import Unavailable
from repro.core.registry import Registration


@dataclass
class FaultRule:
    """Inject failures on calls matching (component, method) patterns.

    ``component``/``method`` of None match everything.  ``failure_rate``
    is the probability of raising ``error`` (default Unavailable, which
    stubs may retry); ``delay_s`` is added to every matching call;
    ``max_failures`` bounds total injections (0 = unlimited).
    """

    component: Optional[str] = None
    method: Optional[str] = None
    failure_rate: float = 0.0
    delay_s: float = 0.0
    error: Optional[Callable[[], Exception]] = None
    max_failures: int = 0
    injected: int = field(default=0, init=False)

    def matches(self, reg: Registration, spec: MethodSpec) -> bool:
        if self.component is not None and self.component not in reg.name:
            return False
        if self.method is not None and self.method != spec.name:
            return False
        return True

    def make_error(self) -> Exception:
        if self.error is not None:
            return self.error()
        # Injection happens *before* the call is issued, so the default
        # fault is safe to retry for any method (executed=False) — it
        # models a replica found dead at dial time.
        return Unavailable("injected fault", executed=False)

    def delay(self) -> float:
        """Seconds of delay for the *current* matching call.

        Subclasses override for time-varying faults; the base rule's delay
        is constant.
        """
        return self.delay_s


@dataclass
class FlappingDelayRule(FaultRule):
    """A delay that toggles between a high and a low phase on a period.

    Models a *metric storm*: latency that repeatedly crosses an anomaly
    threshold and drops back, so detectors fire, resolve, and fire again.
    A naive remediation controller translates every firing into an action;
    this rule exists to prove the guardrail layer caps that translation.

    The rule spends ``high_s`` of every ``period_s`` in the slow phase
    (delaying ``high_delay_s``) and the remainder fast (``delay_s``, which
    defaults to 0).  The phase is a pure function of wall time since the
    rule was created, so concurrent calls agree on it.
    """

    high_delay_s: float = 0.0
    period_s: float = 2.0
    high_s: float = 1.0
    clock: Callable[[], float] = time.monotonic
    started_at: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.started_at = self.clock()

    def delay(self) -> float:
        phase = (self.clock() - self.started_at) % self.period_s
        return self.high_delay_s if phase < self.high_s else self.delay_s


class FaultPlan:
    """A seeded set of fault rules with injection accounting."""

    def __init__(self, rules: Optional[list[FaultRule]] = None, *, seed: int = 0) -> None:
        self.rules = rules or []
        self._rng = random.Random(seed)
        self.total_injected = 0

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    async def before_call(self, reg: Registration, spec: MethodSpec) -> None:
        """Apply delays and maybe raise, for one matching invocation."""
        for rule in self.rules:
            if not rule.matches(reg, spec):
                continue
            delay = rule.delay()
            if delay > 0:
                await asyncio.sleep(delay)
            if rule.failure_rate > 0 and (
                rule.max_failures == 0 or rule.injected < rule.max_failures
            ):
                if self._rng.random() < rule.failure_rate:
                    rule.injected += 1
                    self.total_injected += 1
                    raise rule.make_error()
