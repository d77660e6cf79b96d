"""The breaker's rolling window: fixed buckets of (attempts, failures) counts."""

from __future__ import annotations

import tracemalloc

from repro.transport.breaker import BreakerPolicy, BreakerState, CircuitBreaker

from tests.transport.test_breaker import FakeClock


def rate_only(**overrides) -> BreakerPolicy:
    """Trips on the windowed error rate alone (never on a streak)."""
    return BreakerPolicy(
        consecutive_failures=1000, error_rate=0.5, min_volume=10, window_s=10.0, **overrides
    )


def test_outcomes_in_different_buckets_count_together():
    clock = FakeClock()
    breaker = CircuitBreaker(rate_only(), clock=clock)
    for _ in range(5):
        breaker.record_success()
    clock.advance(5.0)  # five buckets later, still inside the window
    for _ in range(4):
        assert breaker.record_failure() is False  # volume 9 < 10
    assert breaker.record_failure() is True  # 5 of 10 failed
    assert breaker.state is BreakerState.OPEN


def test_outcomes_age_out_a_bucket_at_a_time():
    clock = FakeClock()
    breaker = CircuitBreaker(rate_only(), clock=clock)
    for _ in range(9):
        breaker.record_failure()
    clock.advance(10.0)  # the whole window has passed
    assert breaker.record_failure() is False  # volume 1: the nine aged out
    assert breaker.state is BreakerState.CLOSED


def test_a_clock_starting_at_zero_counts_nothing_twice():
    clock = FakeClock()
    clock.now = 0.0
    breaker = CircuitBreaker(rate_only(), clock=clock)
    for _ in range(9):
        breaker.record_success()
    assert breaker.record_failure() is False  # 1 of 10 failed


def test_window_memory_does_not_grow_with_throughput():
    """A success is a counter bump: 100k of them, spread over more than
    one window, leave nothing behind."""
    clock = FakeClock()
    breaker = CircuitBreaker(rate_only(), clock=clock)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            for _ in range(500):
                breaker.record_success()
            clock.advance(0.06)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096
    assert breaker.state is BreakerState.CLOSED
