"""Smoke tests of the e2e benchmark (tiny cities, one round of units).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(out_dir: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), "--smoke",
         "--seconds", "0", "--out", str(out_dir / "result.json"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(out_dir: Path, *args: str):
    proc = _run(out_dir, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8")), last


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _result(tmp_path_factory.mktemp("traced"), "--trace", "1")


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _result(tmp_path_factory.mktemp("plain"), "--trace", "0")


def test_every_metric_is_emitted_with_its_unit(traced, plain):
    result, last = traced
    assert set(result["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for record in result["workloads"].values():
        assert record["correct"], record["problems"]
        for spec in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert record["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    names = {f"{w}.{m['name']}" for w in result["workloads"] for m in BENCH["per_layer"]}
    assert set(last["metrics"]) == names
    _, plain_last = plain
    names = {f"{w}.{m['name']}" for w in result["workloads"] for m in BENCH["end_to_end"]}
    assert set(plain_last["metrics"]) == names
    assert all(m["value"] > 0 for m in plain_last["metrics"].values())


def test_digests_and_exact_counts_repeat_with_and_without_tracing(traced, plain):
    # The digest covers outputs plus exact engine tallies; within each run
    # every unit already had to match (correct=True above).
    for name, record in plain[0]["workloads"].items():
        assert record["digest"] == traced[0]["workloads"][name]["digest"]


def test_one_workload_prints_the_contract_line(tmp_path):
    proc = _run(tmp_path, "--workload", "flood", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_nest_and_self_times_add_up(tmp_path):
    import tracing
    from repro.scenario import run_scenario

    raw, open_spans = [], []

    class RecordingProbe(tracing.Probe):
        """Also keeps every span as ``[name, start, end, parent index]``."""

        def _span(self, name, fn):
            def record(*args, **kwargs):
                index = len(raw)
                raw.append([name, time.perf_counter(), None, open_spans[-1] if open_spans else -1])
                open_spans.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    open_spans.pop()
                    raw[index][2] = time.perf_counter()

            return super()._span(name, record)

    probe = RecordingProbe(tmp_path, traced=True).install()
    try:
        run_scenario("wardrive-full", seed=0, params={"max_devices": 30}, quiet=True)
    finally:
        probe.uninstall()
    children = defaultdict(float)
    for name, start, end, parent in raw:
        if parent >= 0:
            _, p_start, p_end, _ = raw[parent]
            assert p_start <= start <= end <= p_end
            children[parent] += end - start
    count_by_name = defaultdict(int)
    for index, (name, start, end, parent) in enumerate(raw):
        self_s = (end - start) - children[index]
        assert self_s >= 0.0
        if parent >= 0:
            assert self_s <= raw[parent][2] - raw[parent][1]
        count_by_name[name] += 1
    assert count_by_name["engine"] == 1 and count_by_name["transmit"] > 0
    for name, (count, total_s, self_s) in probe.totals.items():
        assert count == count_by_name[name]
        assert 0.0 <= self_s <= total_s
    # Self times partition the time under the outermost spans.
    assert sum(t[2] for t in probe.totals.values()) == pytest.approx(probe.root_s)
