"""Affinity (sliced) routing — the Slicer-style mechanism of §5.2.

    "The performance of some components improves greatly when requests are
    routed with affinity. ... the routing is most efficient when embedded
    in the application itself."

A component method marked ``@routed(by="key")`` is called through a
*routing assignment*: the hash space ``[0, 2^64)`` is divided into slices,
each owned by one replica, so equal keys always reach the same replica
while the assignment generation is unchanged.

Assignments are built on a consistent-hash ring with virtual nodes, so
adding or removing one replica moves only ~1/n of the key space — the
property tested in ``tests/runtime/test_routing.py``.  The manager builds
assignments and pushes them to proclets; a replica that receives a key it
no longer owns answers "unavailable", forcing the caller to refresh.

Unrouted methods use :class:`LoadBalancer` (power-of-two-choices over
per-address in-flight counts, degrading to round-robin when counts are
unknown).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.errors import PlacementError

HASH_SPACE = 1 << 64
#: Virtual nodes per replica: more vnodes = smoother balance, bigger
#: assignments.  160 keeps max/min slice-weight skew under ~20% for small n.
VNODES = 160


def key_hash(key: Any) -> int:
    """Stable 64-bit hash of a routing key (stringified).

    ``hash()`` is salted per process; routing must agree across proclets,
    so we hash the repr through blake2b instead.
    """
    data = repr(key).encode("utf-8", "surrogatepass")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _vnode_hash(replica: str, index: int) -> int:
    data = f"{replica}#{index}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class Assignment:
    """One generation of the slice -> replica map for one component."""

    component: str
    generation: int
    #: Sorted vnode positions and the replica owning the arc that *ends* at
    #: each position (consistent-hash ring semantics).
    points: tuple[int, ...]
    owners: tuple[str, ...]
    replicas: tuple[str, ...] = ()

    def replica_for(self, key: Any) -> str:
        """The replica owning ``key`` under this assignment."""
        if not self.points:
            raise PlacementError(f"assignment for {self.component} has no replicas")
        h = key_hash(key)
        index = bisect.bisect_right(self.points, h) % len(self.points)
        return self.owners[index]

    def owners_for(self, key: Any):
        """Yield distinct replicas in ring order starting at ``key``'s owner.

        The first yielded replica is :meth:`replica_for`'s answer; the rest
        are the failover order a caller should try when earlier replicas
        are ejected (consistent across proclets, so a key's traffic lands
        on the *same* fallback everywhere).
        """
        if not self.points:
            raise PlacementError(f"assignment for {self.component} has no replicas")
        h = key_hash(key)
        start = bisect.bisect_right(self.points, h) % len(self.points)
        seen: set[str] = set()
        for i in range(len(self.owners)):
            owner = self.owners[(start + i) % len(self.owners)]
            if owner not in seen:
                seen.add(owner)
                yield owner
                if len(seen) == len(self.replicas):
                    return

    def to_wire(self) -> dict[str, Any]:
        return {
            "component": self.component,
            "generation": self.generation,
            "points": list(self.points),
            "owners": list(self.owners),
            "replicas": list(self.replicas),
        }

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "Assignment":
        return cls(
            component=raw["component"],
            generation=raw["generation"],
            points=tuple(raw["points"]),
            owners=tuple(raw["owners"]),
            replicas=tuple(raw["replicas"]),
        )


def build_assignment(
    component: str, replicas: Sequence[str], generation: int, vnodes: int = VNODES
) -> Assignment:
    """Build a consistent-hash assignment over ``replicas``."""
    if not replicas:
        raise PlacementError(f"cannot build assignment for {component} with no replicas")
    pairs: list[tuple[int, str]] = []
    for replica in replicas:
        for i in range(vnodes):
            pairs.append((_vnode_hash(replica, i), replica))
    pairs.sort()
    points = tuple(p for p, _ in pairs)
    owners = tuple(o for _, o in pairs)
    return Assignment(
        component=component,
        generation=generation,
        points=points,
        owners=owners,
        replicas=tuple(replicas),
    )


class LoadBalancer:
    """Replica picker for unrouted calls.

    Power-of-two-choices on in-flight counts when the caller reports them,
    otherwise round-robin.  Deliberately simple: the paper's point is that
    the *runtime* owns this decision, not that it is novel.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rr = itertools.count()
        self._rng = random.Random(seed)
        self._inflight: dict[str, int] = {}

    def pick(self, replicas: Sequence[str]) -> str:
        if not replicas:
            raise PlacementError("no replicas to balance across")
        if len(replicas) == 1:
            return replicas[0]
        if self._inflight:
            a, b = self._rng.sample(list(replicas), 2)
            return a if self._inflight.get(a, 0) <= self._inflight.get(b, 0) else b
        return replicas[next(self._rr) % len(replicas)]

    def acquire(self, replica: str) -> None:
        self._inflight[replica] = self._inflight.get(replica, 0) + 1

    def release(self, replica: str) -> None:
        count = self._inflight.get(replica, 0) - 1
        if count <= 0:
            self._inflight.pop(replica, None)
        else:
            self._inflight[replica] = count


class RoutingTable:
    """A proclet's cached view of assignments and replica sets.

    When constructed with a :class:`~repro.transport.breaker.BreakerSet`,
    picks consult it (while all of a component's breakers are CLOSED, one
    count lookup): replicas whose breaker is OPEN are skipped
    *before* an attempt is made — failover happens inside the same
    attempt, without spending the caller's retry budget.  Routed keys
    fall back along the consistent-hash ring (same fallback replica on
    every proclet); when every replica is ejected the pick degrades to
    the least-recently-tripped one rather than a total outage.
    """

    def __init__(self, breakers: Optional[Any] = None) -> None:
        self._assignments: dict[str, Assignment] = {}
        self._replicas: dict[str, tuple[str, ...]] = {}
        self._balancers: dict[str, LoadBalancer] = {}
        self._breakers = breakers

    @property
    def breakers(self) -> Optional[Any]:
        return self._breakers

    def update_assignment(self, assignment: Assignment) -> None:
        current = self._assignments.get(assignment.component)
        if current is None or assignment.generation > current.generation:
            self._assignments[assignment.component] = assignment
            self._replicas[assignment.component] = assignment.replicas
            if self._breakers is not None:
                self._breakers.retain(assignment.component, assignment.replicas)

    def update_replicas(self, component: str, replicas: Sequence[str]) -> None:
        self._replicas[component] = tuple(replicas)
        if self._breakers is not None:
            self._breakers.retain(component, replicas)

    def invalidate(self, component: str) -> None:
        self._assignments.pop(component, None)
        self._replicas.pop(component, None)

    def assignment(self, component: str) -> Optional[Assignment]:
        return self._assignments.get(component)

    def replicas(self, component: str) -> tuple[str, ...]:
        return self._replicas.get(component, ())

    def pick(self, component: str, routing_key: Optional[Any]) -> Optional[str]:
        """Choose a replica, or None if nothing is cached."""
        breakers = self._breakers
        if breakers is not None and breakers.all_closed(component):
            # Every replica admits, and admitting a CLOSED breaker is a no-op.
            breakers = None
        if routing_key is not None:
            assignment = self._assignments.get(component)
            if assignment is not None and assignment.points:
                if breakers is None:
                    return assignment.replica_for(routing_key)
                return self._pick_routed(component, assignment, routing_key)
        replicas = self._replicas.get(component)
        if not replicas:
            return None
        allowed: Sequence[str] = replicas
        if breakers is not None:
            allowed = breakers.filter(component, replicas)
            if not allowed:
                return breakers.least_recently_tripped(component, replicas)
        if len(allowed) == 1:
            choice = allowed[0]  # nothing to balance
        else:
            balancer = self._balancers.get(component)
            if balancer is None:
                balancer = LoadBalancer()
                self._balancers[component] = balancer
            choice = balancer.pick(allowed)
        if breakers is not None:
            breakers.admit(component, choice)
        return choice

    def _pick_routed(
        self, component: str, assignment: Assignment, routing_key: Any
    ) -> str:
        """Affinity pick that walks the ring past ejected replicas."""
        breakers = self._breakers
        first = None
        for owner in assignment.owners_for(routing_key):
            if first is None:
                first = owner
            if breakers.peek(component, owner):
                breakers.admit(component, owner)
                return owner
        # Every replica ejected: prefer the least-recently-tripped, else
        # fall back to the key's true owner.
        degraded = breakers.least_recently_tripped(component, assignment.replicas)
        return degraded if degraded is not None else first

    def components(self) -> list[str]:
        return sorted(set(self._replicas) | set(self._assignments))


def moved_fraction(old: Assignment, new: Assignment, samples: int = 2000) -> float:
    """Fraction of sampled keys whose owner changed between generations.

    Used by tests and benchmarks to verify the minimal-movement property of
    consistent hashing (adding one of n replicas should move ~1/n keys).
    """
    moved = 0
    for i in range(samples):
        key = f"sample-key-{i}"
        if old.replica_for(key) != new.replica_for(key):
            moved += 1
    return moved / samples
