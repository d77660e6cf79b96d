"""Windowed medians and percentiles: the noise fixes must do what they claim."""

import pytest

from benchmarks.perf.measure import Interval, Window, percentile, window_median


def test_percentile_is_nearest_rank():
    data = sorted(float(i) for i in range(1, 101))  # 1..100
    assert percentile(data, 0.50) == 50.0
    assert percentile(data, 0.99) == 99.0
    assert percentile(data, 1.0) == 100.0
    assert percentile(data, 0.0) == 1.0
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def _window(ops: int, wall_s: float = 1.0, cpu_per_op_s: float = 100e-6, lat_s: float = 1e-3):
    return Window(wall_s=wall_s, cpu_s=ops * cpu_per_op_s, latencies_s=[lat_s] * ops)


def test_an_episode_shorter_than_half_the_run_cannot_move_a_window_median():
    quiet = [_window(1000) for _ in range(13)]
    # A neighbour episode: 7 of 20 windows run at 60 % speed, twice the CPU
    # and three times the latency.
    noisy = [_window(600, cpu_per_op_s=200e-6, lat_s=3e-3) for _ in range(7)]
    interval = Interval(windows=quiet[:6] + noisy + quiet[6:])
    assert interval.ops_per_s() == 1000.0
    assert interval.cpu_us_per_op() == pytest.approx(100.0)
    assert interval.lat_p50_ms() == pytest.approx(1.0)
    # ... while the whole-interval average moves by 14 %.
    total_ops = sum(w.ops for w in interval.windows)
    assert total_ops / 20.0 == pytest.approx(860.0)


def test_window_rates_use_the_window_s_own_length():
    interval = Interval(windows=[_window(1010, wall_s=1.01), _window(990, wall_s=0.99)])
    assert interval.ops_per_s() == pytest.approx(1000.0)


def test_windows_without_a_verified_op_are_skipped_and_none_is_an_error():
    interval = Interval(windows=[_window(0), _window(500)])
    assert interval.ops_per_s() == 500.0
    with pytest.raises(ValueError):
        window_median([])
    with pytest.raises(ValueError):
        Interval(windows=[_window(0)]).ops_per_s()


def test_failed_is_attempted_minus_verified():
    interval = Interval(attempted=170, verified=145)
    assert interval.failed == 25
