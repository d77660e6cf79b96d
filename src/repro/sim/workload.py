"""Open-loop workload generation and latency statistics (the Locust stand-in).

    "We used Locust [26], a workload generator, to load-test the
    application ... The workload generator sends a steady rate of HTTP
    requests to the applications."  (§6.1)

:class:`WorkloadMix` reproduces the Locust task mix of the Online Boutique
demo (index 49%, browse product ~30%, add-to-cart 10%, view cart 6%,
checkout 5%); requests arrive open-loop — Poisson by default, or exactly
uniform — regardless of completions, which is what "a steady rate" means
and what makes queueing effects honest.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.cluster import Deployment
from repro.sim.profile import CallNode


@dataclass(frozen=True)
class RequestType:
    name: str
    weight: float
    tree: CallNode


@dataclass
class WorkloadMix:
    """A weighted mix of recorded request trees."""

    types: list[RequestType]

    def __post_init__(self) -> None:
        if not self.types:
            raise ValueError("workload mix needs at least one request type")
        total = sum(t.weight for t in self.types)
        if total <= 0:
            raise ValueError("workload weights must sum to a positive value")

    def sample(self, rng: random.Random) -> RequestType:
        total = sum(t.weight for t in self.types)
        x = rng.random() * total
        for t in self.types:
            x -= t.weight
            if x <= 0:
                return t
        return self.types[-1]

    def mean_self_cpu_s(self) -> float:
        """Load-weighted business-logic CPU per request (no RPC overheads)."""
        total_w = sum(t.weight for t in self.types)
        return sum(t.weight * t.tree.total_self_cpu_s() for t in self.types) / total_w

    def mean_calls(self) -> float:
        total_w = sum(t.weight for t in self.types)
        return sum(t.weight * (t.tree.total_calls() - 1) for t in self.types) / total_w


#: The Locust task weights of the Online Boutique loadgenerator.
BOUTIQUE_MIX_WEIGHTS = {
    "home": 49.0,
    "browse": 30.0,
    "add_to_cart": 10.0,
    "view_cart": 6.0,
    "checkout": 5.0,
}


class LatencyStats:
    """Latency observations with exact quantiles (post-hoc sort)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.dropped_warmup = 0

    def observe(self, latency_s: float) -> None:
        self.samples.append(latency_s)

    @property
    def count(self) -> int:
        return len(self.samples)

    def quantile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]

    @property
    def median_s(self) -> float:
        return self.quantile(0.5)

    @property
    def p95_s(self) -> float:
        return self.quantile(0.95)

    @property
    def p99_s(self) -> float:
        return self.quantile(0.99)

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0


@dataclass
class SimReport:
    """Everything a Table-2-style row needs."""

    stack: str
    qps: float
    duration_s: float
    completed: int
    average_cores: float
    cores_by_group: dict[str, float]
    latency: LatencyStats
    replica_counts: dict[str, int]
    #: Measured CPU demand per group (busy core-rate over the measurement
    #: window).  This is what scales linearly with offered load and what
    #: run_table2 extrapolates to the paper's 10k QPS.
    busy_cores_by_group: dict[str, float] = field(default_factory=dict)
    #: Total requests issued (successes + sheds + deadline misses).
    issued: int = 0
    #: Requests rejected by per-pod admission control.
    shed: int = 0
    #: Requests that blew the deployment's end-to-end deadline.
    deadline_misses: int = 0

    @property
    def busy_cores(self) -> float:
        return sum(self.busy_cores_by_group.values())

    @property
    def failed(self) -> int:
        return self.shed + self.deadline_misses

    @property
    def success_rate(self) -> float:
        if self.issued <= 0:
            return 1.0
        succeeded = self.completed + self.latency.dropped_warmup
        return succeeded / self.issued

    @property
    def median_latency_ms(self) -> float:
        return self.latency.median_s * 1000

    @property
    def p95_latency_ms(self) -> float:
        return self.latency.p95_s * 1000

    def row(self) -> dict[str, float]:
        return {
            "qps": self.qps,
            "cores": round(self.average_cores, 1),
            "median_ms": round(self.median_latency_ms, 3),
            "p95_ms": round(self.p95_latency_ms, 3),
        }


def run_load(
    deployment: Deployment,
    mix: WorkloadMix,
    *,
    qps: float,
    duration_s: float,
    warmup_s: float = 0.0,
    arrivals: str = "poisson",
    seed: int = 0,
    autoscale_interval_s: Optional[float] = 5.0,
) -> SimReport:
    """Drive ``deployment`` at ``qps`` for ``duration_s`` of virtual time.

    Latency samples from the first ``warmup_s`` are discarded; core
    accounting also starts after warmup.  The simulation runs past the end
    of arrivals until every issued request completes.
    """
    sim = deployment.sim
    rng = random.Random(seed)
    stats = LatencyStats()
    shed_before = deployment.shed_count
    misses_before = deployment.deadline_miss_count
    t_start = sim.now
    t_measure = t_start + warmup_s
    t_end = t_start + duration_s

    if autoscale_interval_s is not None and any(
        g.autoscaler is not None for g in deployment.groups
    ):
        deployment.start_autoscalers(autoscale_interval_s, until=t_end)

    outstanding = {"count": 0, "issued": 0}

    def arrival_times():
        t = t_start
        while t < t_end:
            if arrivals == "poisson":
                t += rng.expovariate(qps)
            elif arrivals == "uniform":
                t += 1.0 / qps
            else:
                raise ValueError(f"unknown arrival process {arrivals!r}")
            if t < t_end:
                yield t

    def make_done(issued_at: float):
        def done(latency_s: float) -> None:
            outstanding["count"] -= 1
            if issued_at >= t_measure:
                stats.observe(latency_s)
            else:
                stats.dropped_warmup += 1

        return done

    def issue(request_type: RequestType, when: float) -> None:
        outstanding["count"] += 1
        outstanding["issued"] += 1
        deployment.execute(request_type.tree, make_done(when))

    for when in arrival_times():
        request_type = mix.sample(rng)
        sim.call_at(when, lambda rt=request_type, w=when: issue(rt, w))

    busy_at_measure: dict[str, float] = {}
    busy_at_end: dict[str, float] = {}

    def _snap(into: dict[str, float]) -> None:
        into.update({g.name: g.total_busy() for g in deployment.groups})

    sim.call_at(t_measure, lambda: _snap(busy_at_measure))
    sim.call_at(t_end, lambda: _snap(busy_at_end))

    sim.run()  # drains arrivals and all in-flight requests

    window = max(1e-12, t_end - t_measure)
    busy_cores = {
        name: (busy_at_end.get(name, 0.0) - busy_at_measure.get(name, 0.0)) / window
        for name in busy_at_end
    }

    effective = sim.now  # includes the tail after t_end
    return SimReport(
        stack=deployment.costs.name,
        qps=qps,
        duration_s=duration_s,
        completed=stats.count,
        average_cores=deployment.average_cores(min(t_end, effective), since=t_measure),
        cores_by_group=deployment.cores_by_group(min(t_end, effective), since=t_measure),
        latency=stats,
        replica_counts={g.name: g.replica_count for g in deployment.groups},
        busy_cores_by_group=busy_cores,
        issued=outstanding["issued"],
        shed=deployment.shed_count - shed_before,
        deadline_misses=deployment.deadline_miss_count - misses_before,
    )
