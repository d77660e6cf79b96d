"""Cluster simulation: the GKE + Locust stand-in (see DESIGN.md).

* :mod:`repro.sim.engine` — generator-process discrete-event core.
* :mod:`repro.sim.costmodel` — measured per-RPC costs of the two stacks.
* :mod:`repro.sim.profile` — call trees from the real application's traces.
* :mod:`repro.sim.cluster` — pods, groups, autoscaling, request execution.
* :mod:`repro.sim.workload` — open-loop load generation + latency stats.
* :mod:`repro.sim.experiment` — the Table-2 pipeline end to end.
"""

from repro.sim.cluster import Deployment, ReplicaPod, ServiceGroup, build_deployment
from repro.sim.costmodel import (
    BASELINE_STACK,
    JSON_BASELINE_STACK,
    WEAVER_STACK,
    StackCosts,
    calibrate_stacks,
)
from repro.sim.engine import Event, Resource, SimError, Simulator, Timeout
from repro.sim.profile import CallNode, profile_requests
from repro.sim.workload import (
    BOUTIQUE_MIX_WEIGHTS,
    LatencyStats,
    RequestType,
    SimReport,
    WorkloadMix,
    run_load,
)

__all__ = [
    "Deployment",
    "ReplicaPod",
    "ServiceGroup",
    "build_deployment",
    "BASELINE_STACK",
    "JSON_BASELINE_STACK",
    "WEAVER_STACK",
    "StackCosts",
    "calibrate_stacks",
    "Event",
    "Resource",
    "SimError",
    "Simulator",
    "Timeout",
    "CallNode",
    "profile_requests",
    "BOUTIQUE_MIX_WEIGHTS",
    "LatencyStats",
    "RequestType",
    "SimReport",
    "WorkloadMix",
    "run_load",
]
