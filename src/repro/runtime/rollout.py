"""Atomic rollouts (§4.4) and the rolling-update baseline they replace.

    "The runtime ensures that application versions are rolled out
    atomically ... The runtime gradually shifts traffic from the old
    version to the new version, but once a user request is forwarded to a
    specific version, it is processed entirely within that version."

Mechanics in this implementation:

* Each application version is a complete deployment with its own manager,
  proclets, and deployment-version digest.  The transport handshake
  (:mod:`repro.transport.connection`) makes cross-version data-plane
  traffic *impossible*, not merely discouraged.
* :class:`BlueGreenRollout` owns two such deployments and a traffic
  weight.  ``pin()`` picks a version for one request — everything that
  request does happens against that version's stubs (the request is
  "pinned").  ``advance()`` moves the weight by one step; ``abort()``
  returns all traffic to blue.

For the evaluation of what rollouts *avoid*, :class:`RollingUpdateModel`
models the status-quo alternative: replicas of each service are upgraded
one at a time, so during the update a request may traverse a mix of old
and new replicas.  [78] (cited by the paper) found two-thirds of
catastrophic failures come from exactly these cross-version interactions;
the model computes how often they occur, and the chaos benchmark (E10)
injects a schema change to turn each crossing into an observable failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.config import RolloutConfig
from repro.core.errors import CrossVersionViolation, RolloutError


@dataclass
class PinnedRequest:
    """A request's version pin: hand it to everything serving the request."""

    version: str
    app: Any  # the Application for that version

    def check(self, version: str) -> None:
        """Assert that code at ``version`` is serving this request."""
        if version != self.version:
            raise CrossVersionViolation(
                f"request pinned to version {self.version} reached code at "
                f"version {version}"
            )


class BlueGreenRollout:
    """Gradual, atomic traffic shift between two complete deployments."""

    def __init__(
        self,
        blue: Any,
        green: Any,
        *,
        config: Optional[RolloutConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        if blue.version == green.version:
            raise RolloutError(
                "blue and green must be different deployment versions "
                f"(both are {blue.version}); a rollout of the same build is a no-op"
            )
        self.blue = blue
        self.green = green
        self.config = config or RolloutConfig()
        self._green_weight = 0.0
        self._step = 0
        self._rng = random.Random(seed)
        self._finalized = False

    @property
    def green_weight(self) -> float:
        return self._green_weight

    @property
    def done(self) -> bool:
        return self._green_weight >= 1.0

    def pin(self) -> PinnedRequest:
        """Choose the version for one incoming request (then stay there)."""
        if self._rng.random() < self._green_weight:
            return PinnedRequest(self.green.version, self.green)
        return PinnedRequest(self.blue.version, self.blue)

    def advance(self) -> float:
        """Shift one more step of traffic to green; returns the new weight."""
        if self._finalized:
            raise RolloutError("rollout already finalized")
        self._step += 1
        self._green_weight = min(1.0, self._step / self.config.steps)
        return self._green_weight

    def abort(self) -> None:
        """Return all traffic to blue (the rollback path)."""
        if self._finalized:
            raise RolloutError("rollout already finalized")
        self._green_weight = 0.0
        self._step = 0

    async def finalize(self) -> None:
        """Complete the rollout: all traffic green, blue shut down."""
        if not self.done:
            raise RolloutError(
                f"cannot finalize at green weight {self._green_weight:.2f}; "
                "advance to 1.0 first"
            )
        self._finalized = True
        await self.blue.shutdown()


async def run_rollout(
    blue: Any,
    green: Any,
    *,
    config: Optional[RolloutConfig] = None,
    probe: Optional[Callable[[PinnedRequest], Any]] = None,
    requests_per_step: int = 10,
    seed: Optional[int] = None,
) -> "RolloutReport":
    """Drive a complete blue/green rollout, probing each step.

    ``probe`` is an async callable receiving a :class:`PinnedRequest`; it
    should exercise the app and raise on failure.  Any probe failure aborts
    the rollout (traffic snaps back to blue) — the automated safety the
    paper's deployer architecture enables.
    """
    rollout = BlueGreenRollout(blue, green, config=config, seed=seed)
    report = RolloutReport()
    while not rollout.done:
        rollout.advance()
        for _ in range(requests_per_step):
            pinned = rollout.pin()
            report.observe(pinned.version)
            if probe is not None:
                try:
                    await probe(pinned)
                except Exception as exc:
                    rollout.abort()
                    report.aborted = True
                    report.abort_reason = f"{type(exc).__name__}: {exc}"
                    return report
    await rollout.finalize()
    report.completed = True
    return report


@dataclass
class RolloutReport:
    """What happened during a rollout."""

    requests_by_version: dict[str, int] = field(default_factory=dict)
    completed: bool = False
    aborted: bool = False
    abort_reason: str = ""

    def observe(self, version: str) -> None:
        self.requests_by_version[version] = self.requests_by_version.get(version, 0) + 1

    @property
    def total_requests(self) -> int:
        return sum(self.requests_by_version.values())


# ---------------------------------------------------------------------------
# The status-quo baseline: rolling updates with cross-version interactions
# ---------------------------------------------------------------------------


@dataclass
class RollingUpdateModel:
    """Monte-Carlo model of a rolling update across a service chain.

    ``replicas_per_service`` replicas of each of ``num_services`` services
    are upgraded one by one (round-robin across services, as Kubernetes
    rolling updates effectively do).  A request traverses one replica of
    each service; it *crosses versions* if it touches both old and new
    code.  ``cross_version_fraction(upgraded)`` is the probability of a
    crossing when a fraction ``upgraded`` of all replicas runs the new
    version.

    Closed form for uniform replica choice: a request sees all-old with
    probability (1-p)^k and all-new with p^k, so crossings happen with
    probability 1 - p^k - (1-p)^k, maximized at p=0.5.  The Monte-Carlo
    method exists to support non-uniform upgrade orders and to feed the
    chaos harness with concrete old/new paths.
    """

    num_services: int
    replicas_per_service: int
    seed: int = 0

    def cross_version_fraction(self, upgraded: float) -> float:
        p = min(1.0, max(0.0, upgraded))
        k = self.num_services
        return 1.0 - p**k - (1.0 - p) ** k

    def sample_paths(self, upgraded: float, requests: int) -> list[list[bool]]:
        """Sample request paths; each entry is per-service is-new flags."""
        rng = random.Random(self.seed)
        new_per_service = round(self.replicas_per_service * upgraded)
        paths = []
        for _ in range(requests):
            path = []
            for _ in range(self.num_services):
                replica = rng.randrange(self.replicas_per_service)
                path.append(replica < new_per_service)
            paths.append(path)
        return paths

    def simulate(self, upgraded: float, requests: int = 1000) -> float:
        """Measured crossing fraction over sampled paths."""
        crossings = 0
        for path in self.sample_paths(upgraded, requests):
            if any(path) and not all(path):
                crossings += 1
        return crossings / requests

    def total_exposure(self, steps: int = 20, requests_per_step: int = 1000) -> float:
        """Mean crossing probability integrated over a whole rolling update."""
        total = 0.0
        for i in range(1, steps + 1):
            total += self.simulate(i / steps, requests_per_step)
        return total / steps
