"""The runtime: control plane, placement, routing, scaling, rollouts.

Layout mirrors Figure 3 of the paper: proclets (in-binary daemons) call
the runtime API declared in :mod:`repro.runtime.pipes` — over a pipe to
their envelope, which serves it from the global manager, or on the
manager directly when they share its process; the manager decides
placement, replication, routing, scaling, and rollouts, and aggregates
telemetry.  Deployers (single/multi/simcloud) bind all of it to
an environment.
"""

from repro.runtime.advisor import RoutingAdvisor, RoutingSuggestion
from repro.runtime.autoscaler import Autoscaler, ScalingDecision, steady_state_replicas
from repro.runtime.envelope import InProcessEnvelope, SubprocessEnvelope
from repro.runtime.health import HealthState, HealthTracker
from repro.runtime.manager import Manager, ProcletInfo, ReplicaLauncher
from repro.runtime.placement import (
    GroupPlacement,
    PlacementPlan,
    plan_from_config,
    recommend_groups,
)
from repro.runtime.pipes import PipeRuntimeAPI
from repro.runtime.proclet import Proclet, RoutingResolver
from repro.runtime.rollout import (
    BlueGreenRollout,
    PinnedRequest,
    RollingUpdateModel,
    RolloutReport,
    run_rollout,
)
from repro.runtime.routing import (
    Assignment,
    LoadBalancer,
    RoutingTable,
    build_assignment,
    key_hash,
    moved_fraction,
)
from repro.runtime.stateful import (
    CompatibilityReport,
    StateCompatibilityChecker,
    StateType,
    gate_rollout,
)
from repro.runtime.status import render_status

__all__ = [
    "RoutingAdvisor",
    "RoutingSuggestion",
    "BlueGreenRollout",
    "PinnedRequest",
    "RollingUpdateModel",
    "RolloutReport",
    "run_rollout",
    "CompatibilityReport",
    "StateCompatibilityChecker",
    "StateType",
    "gate_rollout",
    "render_status",
    "Autoscaler",
    "ScalingDecision",
    "steady_state_replicas",
    "InProcessEnvelope",
    "SubprocessEnvelope",
    "HealthState",
    "HealthTracker",
    "Manager",
    "ProcletInfo",
    "ReplicaLauncher",
    "GroupPlacement",
    "PlacementPlan",
    "plan_from_config",
    "recommend_groups",
    "PipeRuntimeAPI",
    "Proclet",
    "RoutingResolver",
    "Assignment",
    "LoadBalancer",
    "RoutingTable",
    "build_assignment",
    "key_hash",
    "moved_fraction",
]
