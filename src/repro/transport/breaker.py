"""Per-replica circuit breakers — the client side of failure handling.

The manager's heartbeat sweep (:mod:`repro.runtime.health`) is *slow and
authoritative*: it takes seconds to declare a replica dead, repairs
routing, and restarts the process.  Between the failure and that verdict,
every caller keeps dialing the corpse and burning its retry budget.  This
module is the *fast and local* half: each proclet tracks the recent
outcome history of every (component, replica-address) pair it talks to and
stops picking addresses that are failing — gRPC/Envoy-style outlier
ejection, embedded in the runtime exactly like the paper's routing (§5.2).

State machine per breaker::

    CLOSED ──trip (N consecutive failures, or error rate over the
       │          rolling window with enough volume)──▶ OPEN
       ▲                                                  │ cooldown
       │  probe successes                                 ▼ elapsed
       └───────────────────────── HALF_OPEN ◀─────────────┘
                 probe failure: back to OPEN, cooldown doubled

Time is injected (``clock``) so the simulator, unit tests, and the real
runtime share the logic; nothing here touches asyncio.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/recovery thresholds shared by every breaker in a set."""

    #: Rolling outcome window, kept as ``WINDOW_BUCKETS`` fixed buckets:
    #: outcomes stop counting a bucket at a time, 0.9–1.0 × this after
    #: they happened.
    window_s: float = 10.0
    #: Trip after this many consecutive failures (connect errors are
    #: cheap and unambiguous, so the default is low).
    consecutive_failures: int = 3
    #: ... or when the windowed failure rate reaches this, with at least
    #: ``min_volume`` outcomes observed (catches sick-but-alive replicas).
    error_rate: float = 0.5
    min_volume: int = 10
    #: Cooldown before an OPEN breaker admits a probe; doubles on every
    #: re-trip without an intervening close, capped at ``open_for_max_s``.
    open_for_s: float = 1.0
    open_for_max_s: float = 30.0
    #: Concurrent probes admitted while HALF_OPEN.
    half_open_probes: int = 1
    #: Probe successes required to close again.
    half_open_successes: int = 2

    def __post_init__(self) -> None:
        if self.consecutive_failures < 1:
            raise ValueError("consecutive_failures must be >= 1")
        if not 0.0 < self.error_rate <= 1.0:
            raise ValueError("error_rate must be in (0, 1]")
        if self.open_for_s <= 0:
            raise ValueError("open_for_s must be positive")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")


#: Buckets of the rolling outcome window.
WINDOW_BUCKETS = 10


class CircuitBreaker:
    """Outcome history and trip state for one (component, address) pair."""

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[BreakerState, BreakerState], None]] = None,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._on_transition = on_transition
        self._state = BreakerState.CLOSED
        # The outcome window: (attempts, failures) counts per fixed time
        # bucket, a ring indexed by bucket number.  Recording an outcome is
        # one increment, and the window's memory does not grow with
        # throughput, as a timestamp per call did.
        self._bucket_s = self.policy.window_s / WINDOW_BUCKETS
        self._epochs = [0] * WINDOW_BUCKETS  # the bucket number each slot counts
        self._slot = 0  # the current bucket's slot
        self._bucket_end = float("-inf")  # when the current bucket ends
        self._clear_window()
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: Re-trips without an intervening close (drives cooldown backoff).
        self._trip_streak = 0
        self._probes_inflight = 0
        self._probe_admitted_at = 0.0
        self._probe_successes = 0
        #: When this breaker last tripped; never-tripped sorts first in
        #: least-recently-tripped degradation.
        self.last_tripped_at = float("-inf")
        self.trips = 0

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        return self._state

    def _set_state(self, new: BreakerState) -> None:
        old = self._state
        if old is new:
            return
        self._state = new
        if self._on_transition is not None:
            self._on_transition(old, new)

    def _cooldown_s(self) -> float:
        backoff = self.policy.open_for_s * (2 ** max(0, self._trip_streak - 1))
        return min(backoff, self.policy.open_for_max_s)

    def _cooldown_elapsed(self, now: float) -> bool:
        return now - self._opened_at >= self._cooldown_s()

    def _probe_slot_free(self, now: float) -> bool:
        if self._probes_inflight < self.policy.half_open_probes:
            return True
        # A probe whose outcome never came back (cancelled hedge, crashed
        # caller) must not wedge the breaker half-open forever.
        return now - self._probe_admitted_at > self._cooldown_s()

    # -- admission -----------------------------------------------------------

    def peek(self) -> bool:
        """Would a call be admitted right now?  Non-mutating (for filtering)."""
        now = self._clock()
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            return self._cooldown_elapsed(now)
        return self._probe_slot_free(now)

    def admit(self) -> bool:
        """Admit one call; OPEN breakers move to HALF_OPEN after cooldown
        and the admitted call becomes the probe."""
        now = self._clock()
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            if not self._cooldown_elapsed(now):
                return False
            self._set_state(BreakerState.HALF_OPEN)
            self._probes_inflight = 0
            self._probe_successes = 0
        if not self._probe_slot_free(now):
            return False
        self._probes_inflight += 1
        self._probe_admitted_at = now
        return True

    # -- outcome reporting -----------------------------------------------------

    def record_success(self) -> None:
        now = self._clock()
        if now >= self._bucket_end:
            self._next_bucket(now)
        self._attempts[self._slot] += 1
        self._consecutive_failures = 0
        if self._state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.policy.half_open_successes:
                self._close()

    def record_failure(self) -> bool:
        """Record one failed attempt; True if this record tripped OPEN."""
        now = self._clock()
        if now >= self._bucket_end:
            self._next_bucket(now)
        self._attempts[self._slot] += 1
        self._failures[self._slot] += 1
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._trip(now)
            return True
        if self._state is BreakerState.CLOSED and self._should_trip():
            self._trip(now)
            return True
        return False

    def _should_trip(self) -> bool:
        if self._consecutive_failures >= self.policy.consecutive_failures:
            return True
        oldest = self._epochs[self._slot] - WINDOW_BUCKETS  # aged out, and before
        total = failures = 0
        for epoch, n, failed in zip(self._epochs, self._attempts, self._failures):
            if epoch > oldest:
                total += n
                failures += failed
        if total < self.policy.min_volume:
            return False
        return failures / total >= self.policy.error_rate

    def _trip(self, now: float) -> None:
        self._opened_at = now
        self.last_tripped_at = now
        self._trip_streak += 1
        self.trips += 1
        self._clear_window()
        self._consecutive_failures = 0
        self._set_state(BreakerState.OPEN)

    def _close(self) -> None:
        self._trip_streak = 0
        self._clear_window()
        self._consecutive_failures = 0
        self._probes_inflight = 0
        self._probe_successes = 0
        self._set_state(BreakerState.CLOSED)

    # -- window bookkeeping -----------------------------------------------------

    def _next_bucket(self, now: float) -> None:
        """Make the bucket ``now`` falls in current, taking over the slot
        of the bucket that aged out of the window."""
        epoch = int(now // self._bucket_s)
        if epoch != self._epochs[self._slot]:
            slot = self._slot = epoch % WINDOW_BUCKETS
            self._epochs[slot] = epoch
            self._attempts[slot] = self._failures[slot] = 0
        self._bucket_end = (epoch + 1) * self._bucket_s

    def _clear_window(self) -> None:
        self._attempts = [0] * WINDOW_BUCKETS
        self._failures = [0] * WINDOW_BUCKETS


class BreakerSet:
    """Every breaker one proclet holds, keyed by (component, address).

    The single integration point for routing (:mod:`repro.runtime.routing`
    filters picks through it), the RPC layer (attempt outcomes land here
    via ``ReplicaResolver.report_outcome``), and observability (state
    transitions and skipped picks are counted into a
    :class:`~repro.observability.metrics.MetricsRegistry`).
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        #: Per component, how many of its breakers are not CLOSED.
        self._not_closed: dict[str, int] = {}
        self._transitions = metrics.counter("breaker_transitions") if metrics else None
        self._open_gauge = metrics.gauge("breaker_open_replicas") if metrics else None
        self._skips = metrics.counter("breaker_skipped_picks") if metrics else None

    def breaker(self, component: str, address: str) -> CircuitBreaker:
        key = (component, address)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy,
                clock=self._clock,
                on_transition=lambda old, new, c=component: self._transition(c, old, new),
            )
            self._breakers[key] = breaker
        return breaker

    def _transition(self, component: str, old: BreakerState, new: BreakerState) -> None:
        if old is BreakerState.CLOSED or new is BreakerState.CLOSED:
            delta = 1 if old is BreakerState.CLOSED else -1
            self._not_closed[component] = self._not_closed.get(component, 0) + delta
        if self._transitions is not None:
            self._transitions.inc(component=component, to=new.value)
        if self._open_gauge is not None:
            self._open_gauge.set(float(self.open_count(component)), component=component)

    # -- reporting ----------------------------------------------------------

    def record(self, component: str, address: str, *, ok: bool) -> bool:
        """Record one attempt outcome; True if the breaker tripped OPEN."""
        breaker = self._breakers.get((component, address)) or self.breaker(component, address)
        if ok:
            breaker.record_success()
            return False
        return breaker.record_failure()

    # -- admission (routing calls these) -------------------------------------

    def all_closed(self, component: str) -> bool:
        """No breaker of ``component`` is OPEN or HALF_OPEN: picks need not filter."""
        return not self._not_closed.get(component)

    def peek(self, component: str, address: str) -> bool:
        breaker = self._breakers.get((component, address))
        return breaker.peek() if breaker is not None else True

    def admit(self, component: str, address: str) -> bool:
        return self.breaker(component, address).admit()

    def filter(self, component: str, addresses: Sequence[str]) -> list[str]:
        """The subset of ``addresses`` currently admitting calls.

        An empty result means every replica is ejected — callers should
        degrade (see :meth:`least_recently_tripped`) rather than fail.
        """
        allowed = [a for a in addresses if self.peek(component, a)]
        if len(allowed) < len(addresses) and self._skips is not None:
            self._skips.inc(float(len(addresses) - len(allowed)), component=component)
        return allowed

    def least_recently_tripped(
        self, component: str, addresses: Sequence[str]
    ) -> Optional[str]:
        """Degraded pick when every replica is open: the one whose trip is
        oldest is the most likely to have recovered."""
        if not addresses:
            return None
        return min(
            addresses,
            key=lambda a: getattr(
                self._breakers.get((component, a)), "last_tripped_at", float("-inf")
            ),
        )

    # -- maintenance -----------------------------------------------------------

    def retain(self, component: str, addresses: Iterable[str]) -> None:
        """Drop breakers for replicas that left the routing set."""
        keep = set(addresses)
        stale = [
            key
            for key in self._breakers
            if key[0] == component and key[1] not in keep
        ]
        for key in stale:
            breaker = self._breakers.pop(key)
            # Detached: a caller still holding it must not move the count.
            breaker._on_transition = None
            if breaker.state is not BreakerState.CLOSED:
                self._not_closed[component] -= 1
        if stale and self._open_gauge is not None:
            self._open_gauge.set(float(self.open_count(component)), component=component)

    def open_count(self, component: Optional[str] = None) -> int:
        """Breakers not CLOSED, for one component or all of them."""
        if component is None:
            return sum(self._not_closed.values())
        return self._not_closed.get(component, 0)

    def states(self, component: str) -> dict[str, BreakerState]:
        return {
            addr: b.state
            for (comp, addr), b in self._breakers.items()
            if comp == component
        }

    def snapshot(self) -> dict[str, dict[str, str]]:
        """Per-component view of breaker states (status page / examples)."""
        out: dict[str, dict[str, str]] = {}
        for (component, address), breaker in self._breakers.items():
            out.setdefault(component, {})[address] = breaker.state.value
        return out
