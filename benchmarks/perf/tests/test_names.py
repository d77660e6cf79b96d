"""BENCHMARK.json, the metric table and what the command prints must agree."""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from benchmarks.perf import measure, run
from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 6) < 3420  # 6 s: set-up, warm-up, start, stop


def test_names_and_units_are_well_formed_and_unique():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(e["unit"]) for e in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_metrics_match_the_table_one_to_one():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == [(name, *spec) for name, spec in END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, *spec) for name, spec in PER_LAYER.items()
    ]
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert "setup_s" in END_TO_END
    assert max(END_TO_END, key=lambda m: END_TO_END[m][2]) == "setup_s"


@pytest.mark.parametrize("trace", [0, 1])
def test_the_command_prints_every_metric_by_name_with_its_unit(trace, monkeypatch, tmp_path):
    monkeypatch.setattr(measure, "WARMUP_S", 0.2)
    monkeypatch.setattr(measure, "WINDOW_S", 0.2)  # a short run still has whole windows
    monkeypatch.setattr(measure, "pin_to_one_cpu", lambda: None)  # leave pytest's affinity alone
    monkeypatch.setattr(run, "OUT", tmp_path)
    if trace:
        from benchmarks.perf import layers

        monkeypatch.setattr(layers, "IDLE_S", 0.2)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.run_one("echo_d1", seed=5, seconds=2 if trace else 1, trace=trace)
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(table)
    for name, spec in table.items():
        entry = result["metrics"][name]
        assert entry["unit"] == spec[0] and isinstance(entry["value"], float)
        assert any(
            line.split()[:2] == ["echo_d1", name] and line.split()[-1] == spec[0]
            for line in lines
        ), name
    if trace:
        assert (tmp_path / "trace_echo_d1.jsonl").stat().st_size > 0
        assert result["metrics"]["runtime.proclet.rpcs_per_op"]["value"] == 1.0
        assert result["metrics"]["transport.rpc.retries_per_op"]["value"] == 0.0
