"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from worker import ROOT, SRC, _import_package

_import_package()

import workloads  # noqa: E402  (needs the package on sys.path)
from reflfact import counting  # noqa: E402

# Small stand-ins for the dense-count groups, so that tests run in seconds.
SMALL_DENSE = ((2, 1, 3, 3, "all"), (3, 1, 2, 4, "all"), (6, 2, 2, 4, "refined"))


@pytest.fixture
def small_dense(monkeypatch):
    monkeypatch.setattr(workloads, "DENSE_GROUPS", SMALL_DENSE)
    monkeypatch.setattr(workloads, "DENSE_QUERIES", 5)


@pytest.fixture
def cli_ctx(tmp_path):
    """A fresh in-process CLI context (empty cache file) per call."""
    return lambda: workloads.CliContext(tmp_path / "cache.jsonl", SRC, in_process=True)


def _work_shape(jobs):
    """What fixes the amount of work: job kinds, groups and lengths."""
    keys = ("kind", "route", "cmd", "r", "s", "n", "m", "max_m", "cache")
    return sorted(json.dumps({k: j.get(k) for k in keys}) for j in jobs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(workload):
    first = workloads.make_inputs(workload, 7)
    assert first == workloads.make_inputs(workload, 7)
    other = workloads.make_inputs(workload, 8)
    assert _work_shape(first) == _work_shape(other)
    assert len({job["id"] for job in first}) == len(first)
    if workload != "fit-inversion":  # its seed only orders two fixed jobs
        assert first != other


def test_workload_names_agree():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    reported = [*tracing.layer_metrics([]), *run.CLI_LAYER, *run.TRACE_LAYER]
    assert [m["name"] for m in bench["per_layer"]] == reported
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])


def _run_jobs(workload, seed, ctx=None):
    counting.clear_caches()
    jobs = workloads.make_inputs(workload, seed)
    return jobs, [workloads.run_job(workload, job, ctx) for job in jobs]


def _failed(workload, jobs, outputs, expected):
    return sum(r is not None for r in workloads.check(workload, jobs, outputs, expected))


def test_corrupted_dense_count_fails_by_identity(small_dense):
    jobs, outputs = _run_jobs("dense-count", 5)
    assert _failed("dense-count", jobs, outputs, {}) == 0
    for route in ("all", "refined"):
        bad = list(outputs)
        i = next(i for i, job in enumerate(jobs) if job["route"] == route)
        bad[i] = str(int(bad[i]) + 1)
        assert _failed("dense-count", jobs, bad, {}) >= 1


def test_corrupted_count_fails_by_expected_value(small_dense):
    jobs, outputs = _run_jobs("dense-count", 5)
    expected = {"dense-count": {job["id"]: out for job, out in zip(jobs, outputs)}}
    bad = list(outputs)
    bad[3] = str(int(bad[3]) + 1)
    reasons = workloads.check("dense-count", jobs, bad, expected)
    assert reasons[3] is not None and "expected.json" in reasons[3]


def test_corrupted_cli_count_fails(cli_ctx):
    jobs, outputs = _run_jobs("cli-cache", 9, cli_ctx())
    assert _failed("cli-cache", jobs, outputs, {}) == 0
    i = next(i for i, job in enumerate(jobs) if job.get("cache") == "miss")
    count = json.loads(outputs[i]["stdout"])["count"]
    bad = list(outputs)
    bad[i] = {**bad[i], "stdout": outputs[i]["stdout"].replace(count, str(int(count) + 1))}
    assert _failed("cli-cache", jobs, bad, {}) >= 1


def test_a_raising_job_counts_as_failed(small_dense):
    jobs = workloads.make_inputs("dense-count", 5)
    jobs[0] = {**jobs[0], "s": 3}  # s does not divide r: no such group
    outputs = [workloads.run_job("dense-count", job) for job in jobs]
    assert "error" in outputs[0]
    assert _failed("dense-count", jobs, outputs, {}) >= 1


@pytest.mark.parametrize("workload", ["dense-count", "cli-cache"])
def test_traced_and_untraced_outputs_are_identical(workload, small_dense, cli_ctx):
    ctx = cli_ctx if workload == "cli-cache" else lambda: None
    _, plain = _run_jobs(workload, 4, ctx())
    tracer = tracing.Tracer().install()
    try:
        _, traced = _run_jobs(workload, 4, ctx())
    finally:
        tracer.restore()
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert "kernels.dp_total" in names
    if workload == "cli-cache":
        assert {"cli.main", "counting.CountTable.save", "graphs.all_walks"} <= names


def test_tracer_restores_every_binding():
    before = counting.count_all
    tracer = tracing.Tracer().install()
    assert counting.count_all is not before
    tracer.restore()
    assert counting.count_all is before


def test_self_time_subtracts_children():
    spans = [
        ("counting.count_all", 0.0, 10.0, -1, 0),
        ("kernels.dp_total", 1.0, 7.0, 0, 100),
        ("indexing.GroupIndexer", 8.0, 9.0, 0, 0),
    ]
    rows = tracing.summarize(spans)
    assert rows["counting.count_all"]["self_s"] == pytest.approx(3.0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["counting.self_s"] == pytest.approx(3.0)
    assert metrics["kernels.dp_cells_per_s"] == pytest.approx(100 / 6)
    assert metrics["counting.dp_hit_ratio"] == 0.0  # one kernel call for one query


def test_backend_mismatch_fails_loudly():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--backend", "no-such",
         "--workload", "fit-inversion", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode != 0
    assert "backend" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--backend", "pure",
         "--workload", "cli-cache", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
