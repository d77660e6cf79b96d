"""Command line of the benchmark.

    python3 benchmarks/perf/run.py --workload echo_d1 --seed 7 --seconds 20 --trace 0

is what the benchmark driver runs (one workload, one process, a JSON
result as the last line of stdout).  Without ``--workload`` every workload
runs, each in a fresh child process so that peak memory and warm caches
never leak from one workload into the next.  ``python -m benchmarks.perf``
is the same program.  See README.md for ``--calibrate`` and ``--selfcheck``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"benchmarks.perf: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import measure  # noqa: E402
from benchmarks.perf.metrics import END_TO_END, PER_LAYER  # noqa: E402
from benchmarks.perf.workloads import SELFCHECK, WORKLOADS, Workload  # noqa: E402

DEFAULT_SECONDS = 20


def _print_metric(workload: str, name: str, value: float, unit: str) -> None:
    print(f"{workload:<13s} {name:<44s} {value:>14.4f} {unit}")


async def end_to_end(
    workload: Workload, seed: int, seconds: float
) -> tuple[dict[str, float], dict[str, tuple[float, str]], list[measure.Interval]]:
    """The seven end-to-end metrics of one workload, plus diagnostics."""
    setup = await measure.setup_cycles(workload, seed)
    interval, _, _ = await measure.deployed_interval(
        workload, seed, seconds, speed_probe=True
    )
    metrics = {
        "setup_s": setup.median_s(),
        "ops_per_s": interval.ops_per_s(),
        "cpu_us_per_op": interval.cpu_us_per_op(),
        "lat_p50_ms": interval.lat_p50_ms(),
        "ok_ratio": interval.verified / interval.attempted,
        "slo_ok_ratio": interval.within_slo / interval.attempted,
        "peak_rss_mb": interval.peak_rss_mb,
    }
    latencies = interval.latencies_s()
    diagnostics = {
        "host_speed": (interval.host_speed(), "ratio"),
        "raw.setup_s": (setup.median_s(raw=True), "s"),
        "raw.ops_per_s": (interval.ops_per_s(raw=True), "1/s"),
        "raw.cpu_us_per_op": (interval.cpu_us_per_op(raw=True), "us/op"),
        "raw.lat_p50_ms": (interval.lat_p50_ms(raw=True), "ms"),
        "avg.ops_per_s": (interval.verified / interval.wall_s, "1/s"),
        "avg.cpu_us_per_op": (interval.cpu_s / max(1, interval.verified) * 1e6, "us/op"),
        "avg.lat_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "client.lat_p99_ms": (measure.percentile(latencies, 0.99) * 1e3, "ms"),
        "client.samples": (float(len(latencies)), "count"),
        "windows": (float(len(interval.windows)), "count"),
        "setup_cold_s": (setup.cold_s, "s"),
        "setup_cycles": (float(len(setup.warm_s)), "count"),
    }
    if not setup.ok:
        interval.failures["setup_wrong_value"] = 1
    return metrics, diagnostics, [interval]


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    """One workload in this process; prints the contract's result line."""
    env = measure.environment()
    cpu = measure.pin_to_one_cpu()
    workload = WORKLOADS[name]
    with measure.TeardownWarnings() as warnings:
        if trace:
            from benchmarks.perf.layers import per_layer

            table = PER_LAYER
            diagnostics = {}
            values, intervals = asyncio.run(
                per_layer(workload, seed, seconds, str(OUT / f"trace_{name}.jsonl"))
            )
        else:
            table = {metric: spec[:2] for metric, spec in END_TO_END.items()}
            values, diagnostics, intervals = asyncio.run(end_to_end(workload, seed, seconds))
    if trace:
        values["harness.teardown_warnings"] = float(warnings.count)
    else:
        diagnostics["harness.teardown_warnings"] = (float(warnings.count), "count")
    attempted = sum(i.attempted for i in intervals)
    failed = sum(i.failed for i in intervals)
    failures = Counter()
    for interval in intervals:
        failures.update(interval.failures)
    loadavg_end = os.getloadavg()[0]

    print(
        f"# env python={env['python']} nproc={env['nproc']} pinned_cpu={cpu} "
        f"uvloop={env['uvloop']} loadavg_1m={env['loadavg_1m']:.2f}->{loadavg_end:.2f} "
        f"env.noisy={str(measure.noisy(env, loadavg_end)).lower()}"
    )
    print(f"# workload={name} seed={seed} seconds={seconds:g} trace={trace}")
    for metric, (unit, _better) in table.items():
        _print_metric(name, metric, values[metric], unit)
    for metric, (value, unit) in diagnostics.items():
        _print_metric(name, "(diag) " + metric, value, unit)
    if failures:
        print(f"# FAILED OPS: {dict(failures)}")
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric: {"value": values[metric], "unit": unit}
                    for metric, (unit, _better) in table.items()
                },
            }
        )
    )
    return 0 if correct else 1


def selfcheck(seconds: float = 2.0) -> int:
    """Prove the failure accounting: a handler that raises on every 10th
    value and answers wrongly on every 17th must lower ``ok_ratio`` and
    ``slo_ok_ratio`` by exactly those shares, and only verified ops may
    enter throughput and CPU per op."""
    interval, _, _ = asyncio.run(
        measure.deployed_interval(SELFCHECK, 0, seconds, warmup_s=0.2)
    )
    n = interval.attempted
    expected = SELFCHECK.expected_failures(n)
    in_windows = sum(w.ops for w in interval.windows)
    checks = {
        "failed == n//10 + n//17 - n//170": interval.failed == expected,
        "ok_ratio drops by exactly that share": interval.verified == n - expected,
        "a failed op misses the latency limit": interval.within_slo <= interval.verified,
        "failures are named": sum(interval.failures.values()) == expected
        and set(interval.failures) == {"RemoteApplicationError", "wrong_value"},
        "windows hold verified ops only": in_windows <= interval.verified,
    }
    print(f"selfcheck: attempted={n} failed={interval.failed} expected={expected}")
    print(f"selfcheck: ok_ratio={interval.verified / n:.6f} slo_ok_ratio={interval.within_slo / n:.6f}")
    print(f"selfcheck: failures={interval.failures}")
    for label, ok in checks.items():
        print(f"selfcheck: {'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(checks.values()) else 1


def _child(name: str, seed: int, seconds: float, trace: int) -> dict[str, float]:
    """Run one workload in a fresh interpreter, echo its report, and return
    every number it printed (metrics, and diagnostics as ``(diag) name``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=180 + 4 * seconds,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no output (exit {proc.returncode})")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{name}: replies failed verification (exit {proc.returncode})")
    values = {}
    for line in lines[:-1]:
        if line.startswith(name + " "):
            *label, value, _unit = line.split()[1:]
            values[" ".join(label)] = float(value)
    values.update({m: entry["value"] for m, entry in result["metrics"].items()})
    return values


def run_all(seed: int, seconds: float, trace: int) -> int:
    for name in WORKLOADS:
        _child(name, seed, seconds, 0)
        if trace:
            _child(name, seed, seconds, 1)
    return 0


def _spread(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median,
        "range_over_median": (max(values) - min(values)) / median,
        "values": values,
    }


#: What the clock read, recorded beside the normalised cells so the file
#: shows what the normalisation bought on the day it was calibrated.
_RAW = ("host_speed", "raw.setup_s", "raw.ops_per_s", "raw.cpu_us_per_op", "raw.lat_p50_ms")


def calibrate(sets: int, seed: int, seconds: float) -> int:
    """Run ``sets`` full sets, each with its own seed, and record the spread
    of every (workload, end-to-end metric) cell in CALIBRATION.json."""
    runs: dict[str, list[dict[str, float]]] = {w: [] for w in WORKLOADS}
    for s in range(sets):
        for name in WORKLOADS:
            runs[name].append(_child(name, seed + s, seconds, 0))
    report = {
        "sets": sets,
        "seconds": seconds,
        "first_seed": seed,
        "environment": measure.environment(),
        "cells": {
            w: {
                m: {**_spread([r[m] for r in rs]), "bound": END_TO_END[m][2]}
                for m in END_TO_END
            }
            for w, rs in runs.items()
        },
        "as_the_clock_read": {
            w: {m: _spread([r["(diag) " + m] for r in rs]) for m in _RAW}
            for w, rs in runs.items()
        },
    }
    path = HERE / "CALIBRATION.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    share, workload, metric = max(
        (c["iqr_over_median"] / c["bound"], w, m)
        for w, ms in report["cells"].items()
        for m, c in ms.items()
    )
    print(f"# wrote {os.path.relpath(path)}; widest cell is {workload}/{metric} "
          f"at {share:.2f} of its bound")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--calibrate", type=int, metavar="SETS")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 4:
        parser.error("--seconds must be at least 4: the traced interval gets 0.3 of it "
                     "and needs one whole one-second window")

    # The deployer keeps durable state under the system temp directory;
    # point that inside the benchmark's own output directory instead.
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    try:
        if args.selfcheck:
            return selfcheck()
        if args.calibrate:
            return calibrate(args.calibrate, args.seed, args.seconds)
        if args.workload is None:
            return run_all(args.seed, args.seconds, args.trace)
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
