"""Circuit breaker state machine, clock-injected (no sleeping)."""

from __future__ import annotations

import random

from repro.observability.metrics import MetricsRegistry
from repro.transport.breaker import (
    BreakerPolicy,
    BreakerSet,
    BreakerState,
    CircuitBreaker,
)

import pytest


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def make(policy=None, clock=None):
    clock = clock or FakeClock()
    return CircuitBreaker(policy or BreakerPolicy(), clock=clock), clock


class TestTripConditions:
    def test_consecutive_failures_trip(self):
        breaker, _ = make(BreakerPolicy(consecutive_failures=3))
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_consecutive_count(self):
        breaker, _ = make(BreakerPolicy(consecutive_failures=3))
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_error_rate_trips_with_volume(self):
        policy = BreakerPolicy(
            consecutive_failures=100, error_rate=0.5, min_volume=10
        )
        breaker, _ = make(policy)
        # Alternate so the consecutive condition never fires; at 10
        # outcomes the windowed rate hits 50%.
        tripped = False
        for _ in range(5):
            breaker.record_success()
            tripped = breaker.record_failure() or tripped
        assert tripped
        assert breaker.state is BreakerState.OPEN

    def test_error_rate_needs_min_volume(self):
        policy = BreakerPolicy(consecutive_failures=100, error_rate=0.5, min_volume=10)
        breaker, _ = make(policy)
        for _ in range(4):
            breaker.record_success()
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_window_expiry_forgets_old_failures(self):
        policy = BreakerPolicy(
            consecutive_failures=100, error_rate=0.5, min_volume=4, window_s=10.0
        )
        breaker, clock = make(policy)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(11.0)  # old failures age out of the window
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED


class TestOpenAndRecovery:
    def test_open_blocks_until_cooldown(self):
        breaker, clock = make(BreakerPolicy(consecutive_failures=1, open_for_s=2.0))
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.peek() is False
        assert breaker.admit() is False
        clock.advance(2.0)
        assert breaker.peek() is True

    def test_half_open_admits_single_probe(self):
        policy = BreakerPolicy(consecutive_failures=1, open_for_s=1.0, half_open_probes=1)
        breaker, clock = make(policy)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit() is True  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.admit() is False  # second caller boxed out

    def test_probe_successes_close(self):
        policy = BreakerPolicy(
            consecutive_failures=1, open_for_s=1.0, half_open_successes=2
        )
        breaker, clock = make(policy)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.admit()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens_with_doubled_cooldown(self):
        policy = BreakerPolicy(consecutive_failures=1, open_for_s=1.0)
        breaker, clock = make(policy)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit()
        breaker.record_failure()  # probe failed
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.0)  # base cooldown no longer enough
        assert breaker.peek() is False
        clock.advance(1.0)  # 2x base reached
        assert breaker.peek() is True

    def test_cooldown_backoff_caps(self):
        policy = BreakerPolicy(
            consecutive_failures=1, open_for_s=1.0, open_for_max_s=4.0
        )
        breaker, clock = make(policy)
        for _ in range(6):  # re-trip repeatedly; backoff 1,2,4,4,4...
            breaker.record_failure()
            clock.advance(4.0)
            assert breaker.admit() is True
        # After many re-trips, the cap still admits a probe within 4s.
        breaker.record_failure()
        clock.advance(3.9)
        assert breaker.peek() is False
        clock.advance(0.1)
        assert breaker.peek() is True

    def test_close_resets_backoff(self):
        policy = BreakerPolicy(
            consecutive_failures=1, open_for_s=1.0, half_open_successes=1
        )
        breaker, clock = make(policy)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit()
        breaker.record_failure()  # re-trip: streak = 2
        clock.advance(2.0)
        assert breaker.admit()
        breaker.record_success()  # closes, streak resets
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()  # fresh trip: base cooldown again
        clock.advance(1.0)
        assert breaker.peek() is True

    def test_stale_probe_slot_is_reclaimed(self):
        policy = BreakerPolicy(consecutive_failures=1, open_for_s=1.0)
        breaker, clock = make(policy)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit()  # probe whose outcome never arrives
        assert breaker.admit() is False
        clock.advance(1.1)  # probe considered lost; slot reopens
        assert breaker.admit() is True


class TestBreakerSet:
    def test_record_and_filter(self):
        clock = FakeClock()
        breakers = BreakerSet(BreakerPolicy(consecutive_failures=2), clock=clock)
        addrs = ["a", "b", "c"]
        breakers.record("Comp", "b", ok=False)
        tripped = breakers.record("Comp", "b", ok=False)
        assert tripped
        assert breakers.filter("Comp", addrs) == ["a", "c"]
        assert breakers.open_count("Comp") == 1

    def test_least_recently_tripped(self):
        clock = FakeClock()
        breakers = BreakerSet(BreakerPolicy(consecutive_failures=1), clock=clock)
        breakers.record("Comp", "a", ok=False)
        clock.advance(1e-3)
        breakers.record("Comp", "b", ok=False)
        # Untouched address wins outright (never tripped)...
        assert breakers.least_recently_tripped("Comp", ["a", "b", "c"]) == "c"
        # ...otherwise the oldest trip.
        assert breakers.least_recently_tripped("Comp", ["a", "b"]) == "a"

    def test_retain_prunes_departed_replicas(self):
        breakers = BreakerSet(BreakerPolicy(consecutive_failures=1), clock=FakeClock())
        breakers.record("Comp", "a", ok=False)
        breakers.record("Comp", "b", ok=True)
        breakers.record("Other", "a", ok=False)
        breakers.retain("Comp", ["b"])
        assert breakers.states("Comp") == {"b": BreakerState.CLOSED}
        # Other component's breakers untouched.
        assert breakers.open_count("Other") == 1

    def test_transition_metrics(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        breakers = BreakerSet(
            BreakerPolicy(consecutive_failures=1, open_for_s=1.0,
                          half_open_successes=1),
            clock=clock,
            metrics=registry,
        )
        breakers.record("Comp", "a", ok=False)  # closed -> open
        clock.advance(1.0)
        assert breakers.admit("Comp", "a")  # open -> half_open
        breakers.record("Comp", "a", ok=True)  # half_open -> closed
        transitions = registry.counter("breaker_transitions")
        assert transitions.get(component="Comp", to="open").value == 1
        assert transitions.get(component="Comp", to="half_open").value == 1
        assert transitions.get(component="Comp", to="closed").value == 1
        assert registry.gauge("breaker_open_replicas").get(component="Comp").value == 0

    def test_skipped_picks_counted(self):
        registry = MetricsRegistry()
        breakers = BreakerSet(
            BreakerPolicy(consecutive_failures=1), clock=FakeClock(), metrics=registry
        )
        breakers.record("Comp", "a", ok=False)
        assert breakers.filter("Comp", ["a", "b"]) == ["b"]
        assert (
            registry.counter("breaker_skipped_picks").get(component="Comp").value == 1
        )


@pytest.mark.parametrize("seed", range(40))
def test_not_closed_count_matches_states(seed):
    """``all_closed``/``open_count`` come from a count kept in the transition
    callback and in ``retain``; under any sequence of outcomes, clock
    advances, admissions, peeks and prunes they agree with the breakers'
    actual states — including breakers a caller still holds after
    ``retain`` dropped them."""
    rng = random.Random(seed)
    clock = FakeClock()
    breakers = BreakerSet(
        BreakerPolicy(
            consecutive_failures=rng.randint(1, 3),
            min_volume=4,
            open_for_s=1.0,
            open_for_max_s=4.0,
            half_open_successes=rng.randint(1, 2),
        ),
        clock=clock,
    )
    components, addresses = ("A", "B", "C"), ("x", "y", "z")
    held: list[CircuitBreaker] = []
    for _ in range(300):
        op = rng.randrange(7)
        comp, addr = rng.choice(components), rng.choice(addresses)
        if op == 0:
            breakers.record(comp, addr, ok=rng.random() < 0.4)
        elif op == 1:
            clock.advance(rng.choice((0.1, 0.5, 1.0, 2.5)))
        elif op == 2:
            breakers.admit(comp, addr)
        elif op == 3:
            breakers.peek(comp, addr)
        elif op == 4:
            breakers.retain(comp, rng.sample(addresses, rng.randint(0, 3)))
        elif op == 5:
            held.append(breakers.breaker(comp, addr))
        elif held:
            breaker = rng.choice(held)  # possibly dropped by retain since
            if rng.random() < 0.5:
                breaker.record_failure()
            else:
                breaker.admit()
        for c in components:
            not_closed = sum(
                s is not BreakerState.CLOSED for s in breakers.states(c).values()
            )
            assert breakers.all_closed(c) == (not_closed == 0)
            assert breakers.open_count(c) == not_closed
        assert breakers.open_count() == sum(breakers.open_count(c) for c in components)


def test_policy_validation():
    with pytest.raises(ValueError):
        BreakerPolicy(consecutive_failures=0)
    with pytest.raises(ValueError):
        BreakerPolicy(error_rate=0.0)
    with pytest.raises(ValueError):
        BreakerPolicy(open_for_s=0.0)
