"""The benchmark's own tests (not part of the library's suite).

    python3 -m pytest perfbench -q

The smoke runs use tiny rulesets and inputs; they still build the
native library into ``.bench_build/`` the first time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import InsufficientSamples, ROOT, median, percentile
from tracer import Span, children_of, layer_times, self_time

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)
    with pytest.raises(InsufficientSamples):
        median([1.0])


def test_self_times_tile_the_root():
    root = Span(0, "software.scan", None, 0.0)
    root.end = 10.0
    kernel = Span(1, "kernels.batch", 0, 1.0)
    kernel.end = 7.0
    inner = Span(2, "software.as_symbols", 1, 2.0)
    inner.end = 3.0
    repair = Span(3, "core.reexec.repair", 0, 8.0)
    repair.end = 9.5
    spans = [root, kernel, inner, repair]
    kids = children_of(spans)
    assert self_time(root, kids) == pytest.approx(2.5)
    assert self_time(kernel, kids) == pytest.approx(5.0)
    layers = layer_times(root, kids)
    assert layers == pytest.approx({"software.overhead_s": 3.5,
                                    "kernels.batch_s": 5.0,
                                    "core.reexec.repair_s": 1.5})
    assert sum(layers.values()) == pytest.approx(root.duration)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_without_errors(trace):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    wanted = [m["name"] for m in SPEC["end_to_end" if trace == "0"
                                      else "per_layer"]]
    for workload in (w["name"] for w in SPEC["workloads"]):
        got = {k.split(".", 1)[1] for k in result["metrics"]
               if k.startswith(workload + ".")}
        assert got == set(wanted), workload
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert metric["unit"]


@pytest.mark.parametrize("workload, kinds", [
    ("snort_bulk", {"scan", "chunk state"}),
    ("literal_stream", {"chunk state", "chunk reports"}),
])
def test_wrong_reference_is_counted(workload, kinds):
    """A wrong final state, mid-stream state or report is each caught."""
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--smoke", "--corrupt-reference")
    result = _result(proc)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    errors = json.loads(proc.stdout.strip().splitlines()[-2]
                        )["provenance"]["errors"]
    assert set(errors) == kinds


def test_host_factor_scales_times():
    """Set-up and throughput scale by the run's host factor."""
    from workload import Samples, end_to_end
    from common import TICK_REF_MS, WORKLOADS

    latency = [0.001 * (i % 10 + 1) for i in range(1000)]
    samples = Samples(cold=[{"seconds": 2.0}] * 3,
                      warm=[{"seconds": 1.0}] * 3, scans=[0.5] * 4,
                      latency=latency,
                      latency_norm=[s / 4 for s in latency],
                      ticks=[2.0 * TICK_REF_MS] * 8)
    metrics, raw = end_to_end(WORKLOADS["snort_bulk"], samples, 1 << 20)
    assert samples.host_factor == pytest.approx(0.5)
    assert raw == pytest.approx({"setup_s": 2.0, "warm_setup_s": 1.0,
                                 "scan_mb_s": 2.0, "chunk_p50_ms": 5.0,
                                 "chunk_p99_ms": 10.0})
    assert metrics["setup_s"][0] == pytest.approx(1.0)
    assert metrics["warm_setup_s"][0] == pytest.approx(0.5)
    assert metrics["scan_mb_s"][0] == pytest.approx(4.0)
    # feeds are scaled per block, not by the run's factor
    assert metrics["chunk_p50_ms"][0] == pytest.approx(1.25)
    assert metrics["chunk_p99_ms"][0] == pytest.approx(2.5)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snort_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
