"""Closed-loop remediation: signals in, guarded actions out.

The paper's bet (§4–§5) is that a runtime owning placement, routing and
telemetry can *operate itself*.  PR 9 built the sensing half — per-second
series, EWMA anomaly detectors, SLO burn rates, breaker and drain state in
``runtime.status`` — and this module closes the loop: a controller in the
manager's reconcile pass maps that evidence to remediation actions.  An
action only edits the manager's desired state (a victim marked to retire,
a raised target held against the autoscaler); the pass's converge step
then drains, stops and launches, as it does for every other controller.
Isolation re-places through ``apply_placement``, which edits desired
state too.

Microservice failures cascade faster than human operators react (Gan &
Delimitrou), so remediation must be automatic — but a bad signal must not
be able to rampage, so every action passes a guardrail layer first
(the SmartOps closed-loop runbook pattern):

* **cooldowns** per (target, action type) — the same fix is never hammered,
* a **rolling-minute action budget** — a metric storm cannot translate
  into an action storm,
* a **blast-radius cap** — never act on more than a configured fraction
  of a group's replicas at once,
* **replica floors/ceilings** — ejection never drops a group below its
  autoscale floor, scale-up never exceeds its ceiling,
* a **global kill switch** — ``remediation: on | observe | off``, where
  ``observe`` journals every decision without executing (the dry-run mode
  operators enable first).

Every decision — fired, suppressed-by-guardrail, observed — lands in a
bounded action journal exported via ``runtime.status`` and the ``repro
actions`` CLI, so the controller's behaviour is as inspectable as the
failures it handles.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.runtime.health import HealthState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (manager owns us)
    from repro.runtime.manager import GroupState, Manager

log = logging.getLogger("repro.runtime.remediation")

#: Action types the controller can take, in escalation order.
RESTART = "restart_replica"
EJECT = "eject_replica"
SCALE_UP = "scale_up"
ISOLATE = "isolate_component"

#: How long a remediation scale-up holds against the autoscaler's proposal.
SCALE_UP_HOLD_S = 120.0

#: Breaker-trip storm threshold: trips of one component within the window
#: that corroborate "this component's replicas are failing".
BREAKER_TRIP_WINDOW_S = 10.0
BREAKER_TRIP_THRESHOLD = 3.0


@dataclass
class PlannedAction:
    """One remediation the mapper proposes, before guardrails."""

    action: str  # RESTART | EJECT | SCALE_UP | ISOLATE
    group_id: int
    #: Proclet id for replica-scoped actions, ``group<id>`` otherwise.
    target: str
    #: Component (or ``_total``) whose evidence triggered this.
    scope: str
    #: Human-readable evidence: signal key, suspect age, trip count.
    reason: str


class Guardrails:
    """The safety layer every planned action must clear.

    Verdicts are strings so the journal can say *which* guardrail
    suppressed an action, not just that one did.
    """

    def __init__(
        self,
        *,
        cooldown_s: float,
        max_actions_per_min: int,
        blast_fraction: float,
        clock=time.monotonic,
    ) -> None:
        self.cooldown_s = cooldown_s
        self.max_actions_per_min = max_actions_per_min
        self.blast_fraction = blast_fraction
        self._clock = clock
        #: (target, action) -> monotonic time the action last fired.
        self._last_fired: dict[tuple[str, str], float] = {}
        #: Monotonic fire times in the rolling minute (the action budget).
        self._fired_times: deque[float] = deque()
        #: Per-group recent victims: (time, target) — replicas restarted
        #: or ejected within the cooldown window count against the blast
        #: radius even after the action itself completed, so a burst of
        #: signals cannot roll through a group one replica per tick.
        self._group_recent: dict[int, deque[tuple[float, str]]] = {}

    # -- admission ---------------------------------------------------------

    def check(
        self,
        action: PlannedAction,
        *,
        live_replicas: int,
        floor: int,
        ceiling: int,
    ) -> Optional[str]:
        """None if the action may fire, else the suppression verdict."""
        now = self._clock()
        last = self._last_fired.get((action.target, action.action))
        if last is not None and now - last < self.cooldown_s:
            return "cooldown"
        self._prune(now)
        if len(self._fired_times) >= self.max_actions_per_min:
            return "budget"
        if action.action in (RESTART, EJECT):
            recent = self._group_recent.get(action.group_id, ())
            allowed = max(1, int(live_replicas * self.blast_fraction))
            if len(recent) >= allowed:
                return "blast_radius"
            if action.action == EJECT and live_replicas - 1 < floor:
                return "replica_floor"
            if action.action == RESTART and live_replicas < 1:
                return "replica_floor"
        if action.action == SCALE_UP and live_replicas + 1 > ceiling:
            return "replica_ceiling"
        return None

    def commit(self, action: PlannedAction) -> None:
        """Record that the action fired (spends budget, starts cooldowns)."""
        now = self._clock()
        self._last_fired[(action.target, action.action)] = now
        self._fired_times.append(now)
        if action.action in (RESTART, EJECT):
            self._group_recent.setdefault(action.group_id, deque()).append(
                (now, action.target)
            )

    def budget_left(self) -> int:
        self._prune(self._clock())
        return max(0, self.max_actions_per_min - len(self._fired_times))

    def _prune(self, now: float) -> None:
        while self._fired_times and now - self._fired_times[0] > 60.0:
            self._fired_times.popleft()
        for recent in self._group_recent.values():
            while recent and now - recent[0][0] > self.cooldown_s:
                recent.popleft()


class RemediationController:
    """Maps live evidence to guarded actions, once per reconcile pass.

    The mapping (see DESIGN.md for the full table):

    * a replica **SUSPECT** on heartbeat age → restart it (eject instead
      when the group is already at target without it) — acting at
      *suspect* is the whole speedup over the health sweep's
      conservative ``dead_after_s``;
    * a firing **latency** signal (p99 anomaly or latency SLO burn) →
      scale the offending group up one replica;
    * a firing **error** signal (error-rate anomaly or availability burn)
      or a **breaker-trip storm** → restart the group's worst replica;
      if the same signal keeps firing, escalate: restart → scale up →
      isolate the component into its own process (re-placement).
    """

    def __init__(self, manager: "Manager", config: Any) -> None:
        self.manager = manager
        self.mode = config.remediation
        self.guardrails = Guardrails(
            cooldown_s=config.remediation_cooldown_s,
            max_actions_per_min=config.remediation_max_actions_per_min,
            blast_fraction=config.remediation_blast_fraction,
            clock=manager.clock,
        )
        self.journal: deque[dict[str, Any]] = deque(
            maxlen=config.remediation_journal_size
        )
        #: The converge step's replica changes, bounded apart so they cannot
        #: push decisions out; the wire journal interleaves both by time.
        self.changes: deque[dict[str, Any]] = deque(
            maxlen=config.remediation_journal_size
        )
        self.counts = {"fired": 0, "suppressed": 0, "observed": 0, "failed": 0}
        #: Escalation state per signal key: consecutive remediated firings.
        self._escalation: dict[str, int] = {}
        self._floor = config.autoscale.min_replicas
        self._ceiling = config.autoscale.max_replicas

    # -- the decide step -----------------------------------------------------

    async def decide(self) -> list[dict[str, Any]]:
        """Plan, guard, journal, and (mode permitting) apply one round.

        A fired action only edits the manager's desired state; the same
        reconcile pass then converges it and journals each replica change.
        Returns the journal entries appended this round.
        """
        if self.mode == "off":
            return []
        now = time.time()
        appended: list[dict[str, Any]] = []
        seen_groups: set[int] = set()
        for action in self.plan():
            # One action per group per round: remediations change the very
            # evidence later rules would act on.
            if action.group_id in seen_groups:
                continue
            entry = {
                "ts": now,
                "action": action.action,
                "target": action.target,
                "group": action.group_id,
                "scope": action.scope,
                "reason": action.reason,
                "verdict": "",
                "outcome": None,
                "duration_ms": None,
            }
            appended.append(entry)
            group = self.manager.group_states()[action.group_id]
            verdict = self.guardrails.check(
                action,
                live_replicas=len(self.manager.live_replicas(group)),
                floor=self._floor,
                ceiling=self._ceiling,
            )
            if verdict is not None:
                entry["verdict"] = f"suppressed:{verdict}"
                self._record(entry, "suppressed")
                continue
            if self.mode == "observe":
                entry["verdict"] = "observed"
                self._record(entry, "observed")
                continue
            seen_groups.add(action.group_id)
            self.guardrails.commit(action)
            entry["verdict"] = "fired"
            started = self.manager.clock()
            try:
                await self._apply(action, group)
                entry["outcome"] = "ok"
                self._record(entry, "fired")
            except Exception as exc:
                entry["outcome"] = f"failed: {type(exc).__name__}: {exc}"
                self._record(entry, "failed")
                log.exception("remediation %s on %s failed", action.action, action.target)
            entry["duration_ms"] = round(
                (self.manager.clock() - started) * 1000.0, 3
            )
        return appended

    async def _apply(self, action: PlannedAction, group: "GroupState") -> None:
        """Edit the manager's desired state for one fired action."""
        manager = self.manager
        if action.action == ISOLATE:
            await manager.remediate_isolate(action.scope)
        elif action.action == SCALE_UP:
            live = len(manager.live_replicas(group))
            desired = min(self._ceiling, max(group.target_replicas, live) + 1)
            if desired > live:
                group.target_replicas = desired
                group.hold = (desired, manager.clock() + SCALE_UP_HOLD_S)
        else:  # RESTART or EJECT: the victim leaves; a restart refills it
            group.proclets[action.target].leaving = "remediation"
        # Only applied actions climb the escalation ladder.
        if action.reason.count(":") >= 2:  # signal keys look like kind:name:scope
            self._escalation[action.reason] = self._escalation.get(action.reason, 0) + 1

    # -- planning ----------------------------------------------------------

    def plan(self) -> list[PlannedAction]:
        """Map current health + signal evidence to proposed actions."""
        actions: list[PlannedAction] = []
        actions.extend(self._plan_suspects())
        actions.extend(self._plan_signals())
        actions.extend(self._plan_breaker_storms())
        return actions

    def _plan_suspects(self) -> list[PlannedAction]:
        manager = self.manager
        out: list[PlannedAction] = []
        for group in manager.group_states().values():
            for info in list(group.proclets.values()):
                if manager.health.state(info.proclet_id) is not HealthState.SUSPECT:
                    continue
                live = len(manager.live_replicas(group))
                # The group survives at target strength without the
                # suspect: pure ejection.  Otherwise restart (eject +
                # replace) to hold replica count.
                action = EJECT if live - 1 >= group.target_replicas else RESTART
                out.append(
                    PlannedAction(
                        action=action,
                        group_id=group.group_id,
                        target=info.proclet_id,
                        scope=group.components[0],
                        reason="health:suspect (missed heartbeats)",
                    )
                )
        return out

    def _plan_signals(self) -> list[PlannedAction]:
        out: list[PlannedAction] = []
        firing_keys: set[str] = set()
        for signal in self.manager.signals.firing():
            firing_keys.add(signal.key)
            latencyish = signal.name in ("p99_ms", "client_p99_ms", "latency")
            errorish = signal.name in ("error_rate", "availability")
            if not latencyish and not errorish:
                continue
            scope = self._resolve_scope(signal.scope, signal.name)
            group = self._group_of(scope)
            if group is None:
                continue
            level = self._escalation.get(signal.key, 0)
            if latencyish:
                # Latency pressure: more capacity first; a persistent
                # offender gets its own process (co-location is the
                # runtime's to undo, §3.1/§5.1).
                ladder = (SCALE_UP, SCALE_UP, ISOLATE)
            else:
                ladder = (RESTART, SCALE_UP, ISOLATE)
            step = ladder[min(level, len(ladder) - 1)]
            out.append(self._action_for(step, group, scope, signal.key))
        # Escalation bookkeeping: a signal still firing after remediation
        # climbs the ladder; one that resolved re-arms at level 0.
        for key in list(self._escalation):
            if key not in firing_keys:
                del self._escalation[key]
        return [a for a in out if a is not None]

    def _plan_breaker_storms(self) -> list[PlannedAction]:
        store = self.manager.timeseries
        out: list[PlannedAction] = []
        for name, scope in store.names():
            if name != "breaker_trips" or scope == "_total":
                continue
            series = store.series(name, scope)
            latest = series.latest()
            if latest is None:
                continue
            trips = series.window_sum(BREAKER_TRIP_WINDOW_S, latest.ts)
            if trips < BREAKER_TRIP_THRESHOLD:
                continue
            group = self._group_of(scope)
            if group is None:
                continue
            out.append(
                self._action_for(
                    RESTART,
                    group,
                    scope,
                    f"breaker_trips={trips:.0f}/{BREAKER_TRIP_WINDOW_S:.0f}s",
                )
            )
        return [a for a in out if a is not None]

    def _action_for(self, step: str, group: Any, scope: str, reason: str):
        target: Optional[str] = f"group{group.group_id}"
        if step in (RESTART, EJECT):
            target = self._pick_victim(group)
            if target is None:
                return None
        elif step == ISOLATE and len(group.components) < 2:
            # Already alone in its process: nothing to isolate from.
            step = SCALE_UP
        return PlannedAction(
            action=step, group_id=group.group_id, target=target, scope=scope, reason=reason
        )

    def _pick_victim(self, group: Any) -> Optional[str]:
        """The replica to restart: a suspect first, else the oldest.

        The manager cannot attribute client-side breaker trips to one
        address (trip counters are per component), so absent a suspect the
        longest-running replica is the deterministic choice — the one with
        the most accumulated state to go wrong, and the pick rotates as
        restarts mint fresh replicas.
        """
        manager = self.manager
        live = manager.live_replicas(group)
        if not live:
            return None
        suspects = [
            i
            for i in live
            if manager.health.state(i.proclet_id) is HealthState.SUSPECT
        ]
        pool = suspects or live
        return min(pool, key=lambda i: i.registered_at).proclet_id

    # -- bookkeeping -------------------------------------------------------

    def _record(self, entry: dict[str, Any], bucket: str) -> None:
        self.journal.append(entry)
        self.counts[bucket] += 1
        self.manager._own_metrics.counter("remediation_actions").inc(
            action=entry["action"], verdict=bucket
        )
        self.manager._merged_metrics = None

    def _group_of(self, scope: str):
        manager = self.manager
        gid = manager._component_group.get(scope)
        return manager.group_states().get(gid) if gid is not None else None

    def _resolve_scope(self, scope: str, signal_name: str) -> str:
        """Deployment-wide signals act on the worst concrete component."""
        if scope != "_total":
            return scope
        store = self.manager.timeseries
        series_name = (
            "error_rate" if signal_name in ("error_rate", "availability") else "p99_ms"
        )
        worst, worst_value = scope, -1.0
        for name, s in store.names():
            if name != series_name or s == "_total" or s.startswith("_"):
                continue
            if s not in self.manager._component_group:
                continue
            value = store.latest(name, s) or 0.0
            if value > worst_value:
                worst, worst_value = s, value
        return worst

    # -- export ------------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """Machine-readable controller state for ``runtime.status``."""
        return {
            "mode": self.mode,
            "counts": dict(self.counts),
            "budget": {
                "max_actions_per_min": self.guardrails.max_actions_per_min,
                "available": self.guardrails.budget_left(),
                "cooldown_s": self.guardrails.cooldown_s,
                "blast_fraction": self.guardrails.blast_fraction,
            },
            "journal": [
                dict(e) for e in sorted([*self.journal, *self.changes], key=lambda e: e["ts"])
            ],
        }
