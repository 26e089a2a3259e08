"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`.

The smoke runs use `--seconds 1`, which still makes one whole pass (two
when traced) of each workload, so the file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B")
# The workload's own figures, printed above the result but not gated.
OWN = ("wall_p50_s s", "run_p50_s s", "run_tail_s s", "disk_bytes B", "error_rate ratio")
OWN_BY_WORKLOAD = {
    "persist": ("crash_s s", "resume_s s"),
    "analyze": ("replay_p50_s s", "replay_tail_s s", "report_s s"),
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, (unit, _) in run.PER_LAYER.items()
    ]
    assert [w["name"] for w in SPEC["workloads"]] == ["sweep", "persist", "analyze"]
    assert set(run.EXPECTED_SPANS) == {"sweep", "persist", "analyze", "workers2"}


@pytest.mark.parametrize("workload", list(run.EXPECTED_SPANS))
def test_smoke_prints_every_metric_with_its_unit(workload):
    rc, lines = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
    result = result_of(lines)
    assert rc == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    for figure in OWN + OWN_BY_WORKLOAD.get(workload, ()):
        name, unit = figure.split()
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert "error_rate 0.0 ratio" in lines


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        rc, lines = bench("--workload", "persist", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert rc == 0, lines
        metrics = result_of(lines)["metrics"]
        assert set(metrics) == set(run.PER_LAYER)
        counts.append({n: m["value"] for n, m in metrics.items() if m["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["runner.checkpoint.files"] == 400
    assert counts[0]["trace.missing_layers"] == 0


def test_flipped_event_byte_fails_the_run():
    rc, lines = bench("--workload", "persist", "--seed", "0", "--seconds", "1",
                      "--trace", "0", "--inject-fault")
    result = result_of(lines)
    assert rc == 1
    assert not result["correct"] and result["failed"] >= 1
    error_rate = next(float(line.split()[1]) for line in lines if line.startswith("error_rate "))
    assert error_rate > 0


def test_checkout_without_engine_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    value, pct = run.tail(samples)
    assert value == 20.0 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_per_operation_takes_the_statistic_per_operation():
    passes = [{"ops": [("a", 1.0), ("b", 10.0)]},
              {"ops": [("a", 3.0), ("b", 30.0)]},
              {"ops": [("a", 2.0), ("b", 90.0)]}]
    assert run.per_operation(passes, max) == 3.0 + 90.0
    assert run.per_operation(passes, statistics.median) == 2.0 + 30.0


def test_self_time_subtracts_child_spans(monkeypatch):
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 4.0, 10.0])
    with monkeypatch.context() as m:
        m.setattr(tracing.time, "perf_counter", lambda: next(clock))
        child = tracer.wrap("child", lambda: None)
        parent = tracer.wrap("parent", lambda: child())
    # The wrappers keep the fake clock: parent spans 0..10 around child 1..4.
    parent()
    layers, _ = tracer.drain()
    assert layers["parent"] == (1, 10.0, 7.0)
    assert layers["child"] == (1, 3.0, 3.0)
