"""Closed-loop load generation and the statistics taken from it.

One process, one event loop, ``workload.callers`` tasks; each task sends
its next op only when the previous one has been answered and verified.

**Why windows.**  The timed interval is cut into one-second windows and
``ops_per_s``, ``cpu_us_per_op`` and ``lat_p50_ms`` are the *median over
windows* of the per-window value: a noisy-neighbour episode shorter than
half the interval cannot move a median of windows, while it moves a
whole-interval average in proportion to its length.

**Why a probe.**  An episode longer than the interval moves everything.
This host's speed swings by up to 40 % for minutes at a time, so while an
interval is timed a fixed piece of interpreter work (:func:`_spin`) runs
every few milliseconds on the same thread, and each window's values are
scaled by how fast the host ran it (:func:`host_speed`).  What the clock
read stays available through ``raw=True``.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import math
import os
import pickle
import platform
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from benchmarks.perf.trace import Recorder
from benchmarks.perf.workloads import Workload

WINDOW_S = 1.0
WARMUP_S = 2.0
#: The host-speed probe: one ``_spin()`` every SPIN_GAP_S while a timed
#: interval runs (about 6 % of the time).  SPIN_REF_S is what one spin takes
#: on the reference host (the 2-vCPU VM this was written on) when it is calm.
SPIN_GAP_S = 0.005
SPIN_REF_S = 0.00036

_SPIN_OBJECT = [
    {
        "id": i,
        "name": f"item-{i}",
        "tags": ("a", "b", str(i)),
        "price": (i * 3, i * 7 % 100),
        "ok": i % 2 == 0,
        "f": i / 7.0,
    }
    for i in range(12)
]


def _spin() -> None:
    """The probe's fixed unit of work: a round trip through the standard
    library's pure-Python pickler.

    It has to slow down when the deployment does.  Under a noisy neighbour
    a tight arithmetic loop lost 1.3x while ``echo_d1`` lost 2.2x (a loop
    of five opcodes keeps hitting the branch predictor and the micro-op
    cache; a runtime does not); this broad, branchy, allocating code
    tracked the workloads with slope 1.2-1.3 and correlation 0.94-0.97
    per window.  Never change it: every normalised number ever recorded is
    in units of this function.
    """
    pickle._loads(pickle._dumps(_SPIN_OBJECT))


def host_speed(spins_s: Sequence[float]) -> float:
    """Host speed relative to the reference host, from probe durations
    (1.0 = reference; 0.8 = the probe took 25 % longer); 1.0 unprobed."""
    return SPIN_REF_S / statistics.median(spins_s) if spins_s else 1.0


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence (q in 0..1)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def window_median(values: Sequence[float]) -> float:
    """The median over windows; a run with no complete window is an error."""
    if not values:
        raise ValueError("no window completed a verified op")
    return statistics.median(values)


@dataclass
class Window:
    """What completed between two window boundaries."""

    wall_s: float
    cpu_s: float
    latencies_s: array  # of verified ops only
    #: Durations of the host-speed probe's spins inside this window.
    spins_s: Sequence[float] = ()
    spin_cpu_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    def speed(self, raw: bool = False) -> float:
        return 1.0 if raw else host_speed(self.spins_s)

    @property
    def own_wall_s(self) -> float:
        """Wall time the deployment had: the probe blocks the only thread."""
        return self.wall_s - sum(self.spins_s)

    @property
    def own_cpu_s(self) -> float:
        return self.cpu_s - self.spin_cpu_s


@dataclass
class Interval:
    """One timed closed-loop interval."""

    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    verified: int = 0
    within_slo: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Failure kinds: exception class names, or "wrong_value".
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.verified

    def _busy_windows(self) -> list[Window]:
        return [w for w in self.windows if w.ops]

    # The three timed metrics: the median over windows of the per-window
    # value, each window scaled to the reference host's speed by what the
    # probe measured during that window (``raw=True``: as the clock read).

    def ops_per_s(self, raw: bool = False) -> float:
        return window_median(
            [w.ops / w.own_wall_s / w.speed(raw) for w in self._busy_windows()]
        )

    def cpu_us_per_op(self, raw: bool = False) -> float:
        return window_median(
            [w.own_cpu_s / w.ops * 1e6 * w.speed(raw) for w in self._busy_windows()]
        )

    def lat_p50_ms(self, raw: bool = False) -> float:
        return window_median(
            [
                statistics.median(w.latencies_s) * 1e3 * w.speed(raw)
                for w in self._busy_windows()
            ]
        )

    def host_speed(self) -> float:
        return statistics.median(w.speed() for w in self.windows)

    def latencies_s(self) -> list[float]:
        return sorted(lat for w in self.windows for lat in w.latencies_s)


async def closed_loop(
    workload: Workload,
    client: Any,
    seed: int,
    seconds: float,
    *,
    recorder: Optional[Recorder] = None,
    speed_probe: bool = False,
) -> Interval:
    """Drive ``workload`` for ``seconds``; every reply is verified.

    An op that raises, or whose reply is not the expected value, counts as
    attempted and failed and as missing the latency limit.  A window closes
    at the first completion past its boundary and is measured to that
    instant, so its ops, wall time and CPU time cover the same stretch.
    Only whole windows enter the medians; ops of the trailing partial
    window still count as attempted.  With ``speed_probe`` the host-speed
    probe shares the thread and the latency limit is judged at the
    reference host's speed, like the latency itself.  With a ``recorder``
    each op runs under its own op span, so the seams it enters carry the
    op id.
    """
    out = Interval()
    slo_s = workload.slo_ms / 1e3
    clock = time.perf_counter
    cpu_clock = time.process_time
    # Packed doubles: a list of float objects is 32 bytes per op, which at
    # 12k ops/s made peak_rss_mb follow the throughput.
    latencies = array("d")
    spins: list[float] = []
    spin_cpu = 0.0
    streams = [workload.inputs(seed, i) for i in range(workload.callers)]
    started = clock()
    cpu_started = cpu_clock()
    deadline = started + seconds
    win_start, win_cpu, win_end = started, cpu_started, started + WINDOW_S
    stopping = False

    async def caller(index: int) -> None:
        nonlocal latencies, spins, spin_cpu, win_start, win_cpu, win_end, stopping
        sequence = 0
        for value in streams[index]:
            if stopping:
                return
            sequence += 1
            out.attempted += 1
            if recorder is not None:
                span = recorder.begin_op(index * 1_000_000_000 + sequence)
            t0 = clock()
            try:
                failure = None if await workload.op(client, value) else "wrong_value"
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a failed op is a result, not a crash
                failure = type(exc).__name__
            t1 = clock()
            if recorder is not None:
                recorder.end_op(*span)
            if failure is None:
                out.verified += 1
                latencies.append(t1 - t0)
            else:
                out.failures[failure] = out.failures.get(failure, 0) + 1
            if t1 >= win_end and not stopping:
                cpu = cpu_clock()
                close_window(
                    Window(t1 - win_start, cpu - win_cpu, latencies, spins, spin_cpu)
                )
                latencies, spins, spin_cpu = array("d"), [], 0.0
                win_start, win_cpu, win_end = t1, cpu, t1 + WINDOW_S
                stopping = t1 >= deadline

    def close_window(window: Window) -> None:
        limit = slo_s / window.speed()
        out.within_slo += sum(1 for latency in window.latencies_s if latency <= limit)
        out.windows.append(window)

    async def prober() -> None:
        nonlocal spin_cpu
        while not stopping:
            c0, t0 = cpu_clock(), clock()
            _spin()
            spins.append(clock() - t0)
            spin_cpu += cpu_clock() - c0
            await asyncio.sleep(SPIN_GAP_S)

    tasks = [caller(i) for i in range(workload.callers)]
    if speed_probe:
        tasks.append(prober())
    await asyncio.gather(*tasks)
    # Ops of the trailing partial window: counted, judged at the last
    # whole window's host speed, not a window themselves.
    tail_limit = slo_s / (out.windows[-1].speed() if out.windows else 1.0)
    out.within_slo += sum(1 for latency in latencies if latency <= tail_limit)
    out.wall_s = clock() - started
    out.cpu_s = cpu_clock() - cpu_started
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


async def deployed_interval(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    warmup_s: Optional[float] = None,
    telemetry: Optional[str] = None,
    recorder: Optional[Recorder] = None,
    speed_probe: bool = False,
    counters: Callable[[Any], Any] = lambda app: None,
) -> tuple[Interval, Any, Any]:
    """Deploy, warm up off the clock, measure, shut down.

    The warm-up runs the same closed loop (connections dialled, codecs
    compiled, routes cached, caches hot); then the heap is collected once
    and frozen so the collector does not rescan the deployment during the
    timed interval.  ``counters(app)`` reads the deployment's counters right
    before and right after the timed interval; both readings are returned
    with it.  A ``recorder`` is emptied after the warm-up.
    """
    app = await workload.deploy(telemetry)
    try:
        client = workload.client(app)
        await closed_loop(
            workload, client, seed - 1,
            WARMUP_S if warmup_s is None else warmup_s,
            recorder=recorder,
        )
        if recorder is not None:
            recorder.clear()
        gc.collect()
        gc.freeze()
        try:
            before = counters(app)
            interval = await closed_loop(
                workload, client, seed, seconds, recorder=recorder,
                speed_probe=speed_probe,
            )
            after = counters(app)
        finally:
            gc.unfreeze()
    finally:
        await app.shutdown()
    return interval, before, after


@dataclass
class Setup:
    cold_s: float
    warm_s: list[float]
    spins_s: list[float]
    ok: bool

    def median_s(self, raw: bool = False) -> float:
        speed = 1.0 if raw else host_speed(self.spins_s)
        return statistics.median(self.warm_s) * speed


async def setup_cycles(workload: Workload, seed: int) -> Setup:
    """Time deploy -> first verified op -> shutdown, cold once, then warm.

    ``setup_s`` is the median of the warm cycles (a single cycle swings by
    +-20 % on this host), scaled to the reference host's speed by a probe
    spin before each; the cold cycle pays imports-on-first-use and schema
    compilation once and is reported separately.
    """
    values = workload.inputs(seed, 0)
    ok = True

    async def cycle() -> float:
        nonlocal ok
        gc.collect()
        t0 = time.perf_counter()
        app = await workload.deploy()
        try:
            ok &= await workload.op(workload.client(app), next(values))
        finally:
            await app.shutdown()
        return time.perf_counter() - t0

    cold = await cycle()
    warm, spins = [], []
    for _ in range(workload.setup_cycles):
        _spin()  # twice untimed: the cycle before left the caches cold, and
        _spin()  # the probe of a timed interval never runs cold
        t0 = time.perf_counter()
        _spin()
        spins.append(time.perf_counter() - t0)
        warm.append(await cycle())
    return Setup(cold, warm, spins, ok)


class TeardownWarnings(logging.Filter):
    """Counts asyncio's "Task was destroyed but it is pending" reports and
    drops them; every other asyncio log record passes through untouched.

    Redeploying in one process leaves a connection's flusher task pending
    when the loop forgets it; that is reported, not fixed, here.
    """

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def filter(self, record: logging.LogRecord) -> bool:
        if "Task was destroyed but it is pending" in record.getMessage():
            self.count += 1
            return False
        return True

    def __enter__(self) -> "TeardownWarnings":
        logging.getLogger("asyncio").addFilter(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.collect()  # destroyed-pending reports fire when the task is freed
        logging.getLogger("asyncio").removeFilter(self)


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process on one processor (the highest-numbered allowed).

    Unpinned, a lone caller alternates between two speeds on this host:
    when the kernel happens to run loopback receive processing on the
    other processor, ``echo_d1`` gains 40 % throughput and loses four
    fifths of its system time (7 vs 34 us/op measured).  On one processor
    everything the deployment causes runs there and is in its CPU time.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict[str, Any]:
    """Where this run happened; printed with every result."""
    try:
        import uvloop  # noqa: F401

        has_uvloop = True
    except ImportError:
        has_uvloop = False
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count() or 1,
        "uvloop": has_uvloop,
        "loadavg_1m": os.getloadavg()[0],
    }


def noisy(env_start: dict[str, Any], loadavg_end: float) -> bool:
    """True when something else was using this machine's processors."""
    limit = 0.75 * env_start["nproc"]
    return env_start["loadavg_1m"] > limit or loadavg_end > limit
