"""Discrete-event cluster: pods, cores, RPC costs, autoscaling.

This is the GKE stand-in (see DESIGN.md substitutions).  A deployment is a
set of *service groups* (one per co-location group); each group runs some
number of single-core replicas (pods) managed by the HPA logic from
:mod:`repro.runtime.autoscaler`.  Requests are recorded call trees
(:mod:`repro.sim.profile`); executing one walks the tree:

* a call within the caller's group runs inline on the already-held core
  (a local call: no serialization, no wire — the paper's central
  mechanism);
* a call to another group releases the caller's core (async servers do not
  burn CPU while awaiting), pays caller-side serialization CPU, wire time,
  callee-side CPU (decode, logic, encode) on a callee replica, then
  re-queues for the caller's core to continue;
* all CPU costs come from the :class:`~repro.sim.costmodel.StackCosts` of
  the deployment's stack and the byte sizes recorded from the real codecs.

Core accounting integrates *allocated* replicas over time (pods reserve a
core whether busy or idle), matching how the paper counts "average number
of cores used" for an autoscaled deployment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.errors import ConfigError
from repro.core.config import AutoscaleConfig
from repro.observability.timeseries import TimeSeriesStore
from repro.runtime.autoscaler import Autoscaler
from repro.sim.costmodel import StackCosts
from repro.sim.engine import Resource, Simulator
from repro.sim.profile import CallNode


class ReplicaPod:
    """One single-core pod of a service group."""

    def __init__(self, sim: Simulator, pod_id: str) -> None:
        self.pod_id = pod_id
        self.core = Resource(sim, capacity=1)
        self.allocated_at = sim.now
        self.deallocated_at: Optional[float] = None
        self.draining = False

    def allocated_time(self, now: float) -> float:
        end = self.deallocated_at if self.deallocated_at is not None else now
        return max(0.0, end - self.allocated_at)


class ServiceGroup:
    """A co-location group: components sharing pods, scaled together."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        components: Sequence[str],
        *,
        initial_replicas: int = 1,
        autoscale: Optional[AutoscaleConfig] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.components = tuple(components)
        self.autoscale_config = autoscale
        self.autoscaler = Autoscaler(autoscale) if autoscale else None
        self._pod_ids = itertools.count()
        self.pods: list[ReplicaPod] = []
        self.retired: list[ReplicaPod] = []
        self._rr = itertools.count()
        self._busy_snapshot = 0.0
        self._snapshot_time = 0.0
        for _ in range(initial_replicas):
            self._add_pod()

    def _add_pod(self) -> ReplicaPod:
        pod = ReplicaPod(self.sim, f"{self.name}-{next(self._pod_ids)}")
        self.pods.append(pod)
        return pod

    def pick(self) -> ReplicaPod:
        """Least-loaded of two random-ish choices (cheap and effective)."""
        live = self.pods
        if not live:
            raise ConfigError(f"group {self.name} has no pods")
        if len(live) == 1:
            return live[0]
        i = next(self._rr) % len(live)
        j = (i + 1 + next(self._rr) % (len(live) - 1)) % len(live)
        a, b = live[i], live[j]
        load_a = a.core.in_use + a.core.queue_length
        load_b = b.core.in_use + b.core.queue_length
        return a if load_a <= load_b else b

    # -- scaling ------------------------------------------------------------------

    def total_busy(self) -> float:
        """Cumulative busy core-seconds over all pods, past and present."""
        return sum(p.core.snapshot_busy() for p in self.pods) + sum(
            p.core.snapshot_busy() for p in self.retired
        )

    def utilization_since_snapshot(self) -> float:
        busy = self.total_busy()
        window = self.sim.now - self._snapshot_time
        count = max(1, len(self.pods))
        if window <= 0:
            return 0.0
        value = (busy - self._busy_snapshot) / (window * count)
        self._busy_snapshot = busy
        self._snapshot_time = self.sim.now
        return value

    def autoscale_tick(self) -> None:
        if self.autoscaler is None:
            return
        utilization = self.utilization_since_snapshot()
        decision = self.autoscaler.decide(
            now=self.sim.now,
            current_replicas=len(self.pods),
            utilization=utilization,
        )
        self.scale_to(decision.desired)

    def scale_to(self, desired: int) -> None:
        while len(self.pods) < desired:
            self._add_pod()
        while len(self.pods) > desired:
            pod = self.pods.pop()  # newest first, like an HPA scale-down
            pod.draining = True
            pod.deallocated_at = self.sim.now
            self.retired.append(pod)

    # -- accounting ------------------------------------------------------------------

    def allocated_core_seconds(self, now: float, since: float = 0.0) -> float:
        total = 0.0
        for pod in self.pods + self.retired:
            start = max(pod.allocated_at, since)
            end = pod.deallocated_at if pod.deallocated_at is not None else now
            total += max(0.0, end - start)
        return total

    @property
    def replica_count(self) -> int:
        return len(self.pods)


@dataclass
class Deployment:
    """A simulated deployment: groups, placement, and a data-plane stack."""

    sim: Simulator
    groups: list[ServiceGroup]
    costs: StackCosts
    component_group: dict[str, ServiceGroup] = field(default_factory=dict)
    #: Per-pod admission limit (inflight + queued); 0 disables shedding.
    #: Mirrors ``AppConfig.max_inflight`` + ``max_queue_depth`` in the real
    #: runtime: a request arriving at a pod whose core already has this
    #: many holders-plus-waiters is rejected instead of queued.
    shed_queue_limit: int = 0
    #: End-to-end request deadline; ``None`` disables.  A request that
    #: cannot finish inside its budget counts as failed, exactly like a
    #: ``DeadlineExceeded`` at the client.
    deadline_s: Optional[float] = None
    #: Requests rejected by admission control.
    shed_count: int = 0
    #: Requests that blew their end-to-end deadline.
    deadline_miss_count: int = 0
    #: Optional sim-time telemetry: when set, each autoscaler tick records
    #: per-group ``replicas`` series (timestamps are simulated seconds),
    #: so experiment plots reuse the live pipeline's query API.
    timeseries: Optional[TimeSeriesStore] = None

    def __post_init__(self) -> None:
        for group in self.groups:
            for component in group.components:
                if component in self.component_group:
                    raise ConfigError(f"component {component} placed twice")
                self.component_group[component] = group

    def group_of(self, component: str) -> ServiceGroup:
        try:
            return self.component_group[component]
        except KeyError:
            raise ConfigError(f"component {component} not placed in this deployment") from None

    # -- request execution -------------------------------------------------------

    def execute(self, tree: CallNode, on_done) -> None:
        """Spawn the process that executes one recorded request tree.

        ``on_done(latency_s)`` fires only for requests that *succeed* —
        shed requests and deadline misses are tallied in ``shed_count``
        and ``deadline_miss_count`` instead.
        """
        self.sim.spawn(self._request_process(tree, on_done))

    def _request_process(self, tree: CallNode, on_done):
        start = self.sim.now
        deadline = start + self.deadline_s if self.deadline_s else None
        # The synthetic root models the front door (load balancer): its
        # children execute in order; each top-level child is an RPC from
        # outside the cluster into the owning group.  The simulation
        # engine cannot unwind raised exceptions through suspended
        # processes, so failure propagates via generator return values.
        ok = True
        for child in tree.children:
            ok = yield from self._visit_remote(child, deadline)
            if not ok:
                break
        if ok and deadline is not None and self.sim.now > deadline:
            # Finished, but after the client stopped waiting.
            self.deadline_miss_count += 1
            ok = False
        if ok:
            on_done(self.sim.now - start)

    def _visit_remote(self, node: CallNode, deadline: Optional[float] = None):
        """Execute ``node`` as an RPC: wire + callee pod CPU.

        Returns ``True`` on success, ``False`` if the request was shed or
        ran out of deadline budget.
        """
        costs = self.costs
        req_b = node.request_bytes.get(costs.codec, 0)
        resp_b = node.response_bytes.get(costs.codec, 0)
        # Request travels to the callee.
        yield self.sim.timeout(costs.wire_s(req_b, resp_b) / 2)
        group = self.group_of(node.component)
        pod = group.pick()
        if (
            self.shed_queue_limit
            and pod.core.in_use + pod.core.queue_length >= self.shed_queue_limit
        ):
            # Admission control: reject at the door instead of queueing
            # work the pod cannot finish in time.
            self.shed_count += 1
            return False
        if deadline is not None and self.sim.now >= deadline:
            self.deadline_miss_count += 1
            return False
        with (yield pod.core.acquire()):
            if deadline is not None and self.sim.now >= deadline:
                # The whole budget burned while queued for the core:
                # give the core straight back, don't do dead work.
                self.deadline_miss_count += 1
                return False
            # decode request + business logic + local children + encode
            # response, all on the callee's core.
            yield self.sim.timeout(costs.callee_cpu_s(req_b, resp_b))
            ok = yield from self._run_on_pod(node, group, pod, deadline)
            if not ok:
                return False
        # Response travels back.
        yield self.sim.timeout(costs.wire_s(req_b, resp_b) / 2)
        return True

    def _run_on_pod(
        self,
        node: CallNode,
        group: ServiceGroup,
        pod: ReplicaPod,
        deadline: Optional[float] = None,
    ):
        """Run a node's own CPU and children while holding ``pod``'s core."""
        yield self.sim.timeout(node.self_cpu_s)
        for child in node.children:
            child_group = self.group_of(child.component)
            if child_group is group:
                # Local call: plain procedure call, stay on this core.
                ok = yield from self._run_on_pod(child, group, pod, deadline)
                if not ok:
                    return False
            else:
                # Remote call: pay caller-side serialization CPU, then
                # release the core while the RPC is in flight.
                req_b = child.request_bytes.get(self.costs.codec, 0)
                resp_b = child.response_bytes.get(self.costs.codec, 0)
                yield self.sim.timeout(self.costs.caller_cpu_s(req_b, resp_b))
                pod.core.release()
                ok = yield from self._visit_remote(child, deadline)
                yield pod.core.acquire()
                if not ok:
                    return False
        return True

    # -- metrics ---------------------------------------------------------------------

    def average_cores(self, duration: float, since: float = 0.0) -> float:
        window = duration - since
        if window <= 0:
            return 0.0
        return sum(g.allocated_core_seconds(duration, since) for g in self.groups) / window

    def cores_by_group(self, duration: float, since: float = 0.0) -> dict[str, float]:
        window = max(1e-12, duration - since)
        return {
            g.name: g.allocated_core_seconds(duration, since) / window for g in self.groups
        }

    def start_autoscalers(self, interval_s: float = 5.0, until: Optional[float] = None) -> None:
        """Run HPA ticks every ``interval_s`` until ``until`` (required for
        finite simulations: an immortal tick would keep the event heap
        non-empty forever)."""

        def tick() -> None:
            for group in self.groups:
                group.autoscale_tick()
                if self.timeseries is not None:
                    self.timeseries.record(
                        "replicas", group.name, self.sim.now, group.replica_count
                    )
            next_at = self.sim.now + interval_s
            if until is None or next_at <= until:
                self.sim.call_at(next_at, tick)

        self.sim.call_at(self.sim.now + interval_s, tick)


def build_deployment(
    sim: Simulator,
    placement: Iterable[Sequence[str]],
    costs: StackCosts,
    *,
    autoscale: Optional[AutoscaleConfig] = None,
    initial_replicas: int = 1,
    names: Optional[list[str]] = None,
) -> Deployment:
    """Construct a deployment from co-location groups.

    ``placement`` is a list of component-name groups (one simulated service
    per group, mirroring :class:`repro.runtime.placement.PlacementPlan`).
    """
    groups = []
    for i, members in enumerate(placement):
        name = names[i] if names else _group_name(members, i)
        groups.append(
            ServiceGroup(
                sim,
                name,
                members,
                initial_replicas=initial_replicas,
                autoscale=autoscale,
            )
        )
    return Deployment(sim=sim, groups=groups, costs=costs)


def _group_name(members: Sequence[str], index: int) -> str:
    if len(members) == 1:
        return members[0].rsplit(".", 1)[-1]
    return f"group{index}"
