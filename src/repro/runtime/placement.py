"""Placement: deciding which components share an OS process (§3.1, §5.1).

Two jobs live here:

* Turning a resolved configuration into a concrete :class:`PlacementPlan`
  (groups -> proclets -> replicas), the thing deployers execute.
* Recommending *better* placements from call-graph telemetry: merging
  chatty component pairs into co-location groups, the optimization the
  paper's runtime performs automatically ("to co-locate two chatty
  components in the same OS process so that communication ... is done
  locally", §3.1).

The recommendation algorithm is greedy agglomerative clustering over the
remote-traffic graph: repeatedly merge the pair of groups with the highest
inter-group traffic until the gain falls below ``min_traffic`` or groups
would exceed ``max_group_size``.  Greedy is not optimal, but placement
quality is monotone in merged traffic, and the benchmarks show it captures
nearly all of the co-location win on boutique-shaped graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.call_graph import CallGraph, ROOT
from repro.core.config import ResolvedConfig
from repro.core.errors import PlacementError


@dataclass(frozen=True)
class GroupPlacement:
    """One co-location group and its replication factor."""

    group_id: int
    components: tuple[str, ...]
    replicas: int


@dataclass(frozen=True)
class PlacementPlan:
    """The complete placement the manager executes."""

    groups: tuple[GroupPlacement, ...]

    def group_of(self, component: str) -> GroupPlacement:
        for group in self.groups:
            if component in group.components:
                return group
        raise PlacementError(f"component {component!r} not placed")

    def components(self) -> list[str]:
        return [c for g in self.groups for c in g.components]

    def validate(self, expected: Sequence[str]) -> None:
        placed = self.components()
        if sorted(placed) != sorted(expected):
            missing = set(expected) - set(placed)
            extra = set(placed) - set(expected)
            raise PlacementError(
                f"placement does not cover the deployment exactly "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        if len(set(placed)) != len(placed):
            raise PlacementError("a component appears in two groups")


def plan_from_config(
    resolved: ResolvedConfig, partition: Optional[Sequence[Sequence[str]]] = None
) -> PlacementPlan:
    """Build a plan from configuration: its co-location groups, or
    ``partition`` when given (a live re-placement).

    A group's replica count is the max over its members' counts: replicating
    a process replicates every component inside it.
    """
    groups = []
    for i, members in enumerate(resolved.groups if partition is None else partition):
        replicas = max(resolved.replicas[name] for name in members)
        groups.append(GroupPlacement(group_id=i, components=tuple(members), replicas=replicas))
    return PlacementPlan(groups=tuple(groups))


def recommend_groups(
    call_graph: CallGraph,
    components: Sequence[str],
    *,
    max_group_size: int = 0,
    min_traffic: int = 1,
) -> list[tuple[str, ...]]:
    """Suggest co-location groups from observed remote traffic (§5.1).

    Returns groups covering every component in ``components``; singletons
    for components with no qualifying traffic.  ``max_group_size`` of 0
    means unbounded (full co-location is allowed if the graph justifies it).
    """
    parent: dict[str, str] = {c: c for c in components}
    size: dict[str, int] = {c: 1 for c in components}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Candidate merges, heaviest remote traffic first.
    edges = []
    for (caller, callee), stats in call_graph.pair_traffic().items():
        if caller == ROOT or caller not in parent or callee not in parent:
            continue
        if caller == callee:
            continue
        traffic = stats.remote_calls + stats.local_calls
        if traffic >= min_traffic:
            edges.append((traffic, caller, callee))
    edges.sort(reverse=True)

    for traffic, a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if max_group_size and size[ra] + size[rb] > max_group_size:
            continue
        parent[rb] = ra
        size[ra] += size[rb]

    groups: dict[str, list[str]] = {}
    for c in components:
        groups.setdefault(find(c), []).append(c)
    return [tuple(sorted(members)) for members in groups.values()]
