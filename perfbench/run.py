#!/usr/bin/env python3
"""Benchmark entry point: run one workload, print its metrics.

    python3 perfbench/run.py --backend pure --workload dense-count \\
        --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh worker process (``worker.py``) that imports the package from the
checkout's ``src/``, one pass after another, never two at once.

``--trace 0`` measures the end-to-end metrics with tracing off: passes,
each after ``SETUP_LAUNCHES`` setup-only launches, until ``--seconds``
have gone and at least ``MIN_PASSES`` passes ran; each metric is the
median over them.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics read from the traced pass's spans; for cli-cache the
untraced pass calls ``cli.main`` in process like the traced one, and
``MIN_PASSES`` subprocess passes give the CLI latencies.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs, summed over passes) and ``metrics``.  Lines above it
say the same for a reader, with units and sample counts.  The full run
record (platform, backend, source digest, every pass) goes to
``.bench_out/``.  A worker that dies, or a kernel backend other than
``--backend``, ends the run with a non-zero exit and no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).with_name("worker.py")

WORKLOADS = ("dense-count", "fit-inversion", "connected-oracle", "cli-cache")
MIN_PASSES = 3
SETUP_LAUNCHES = 2  # setup-only launches before each pass, spread over the run
STARTUP_LAUNCHES = 7  # `python -m reflfact --version` launches (traced cli-cache)
DEADLINE_S = 140  # no pass starts after this; a run must end within 180 s
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The run cannot produce a result."""


def _launch(workload: str, seed: int, *flags: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
             "--t0", repr(t0), *flags],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _startup_seconds() -> list[float]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(STARTUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "reflfact", "--version"], cwd=ROOT, env=env,
                       capture_output=True, check=True, timeout=60)
        out.append(time.perf_counter() - start)
    return out


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _cpu_max():
    """The cgroup CPU quota, read-only; None where the file is absent."""
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def _commit():
    """The checked-out commit, read from .git without running git; None
    in a checkout that is not a repository (then src_sha256 identifies it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_pass(rec: dict, backend: str) -> None:
    if rec["backend"] != backend:
        raise BenchError(
            f"kernel backend is {rec['backend']!r}, the benchmark is defined for "
            f"{backend!r}; refusing to report numbers that would be compared"
        )


def measure(workload: str, seed: int, seconds: float, backend: str) -> tuple[dict, dict, list]:
    """Untraced run: end-to-end metrics and the pass records."""
    _check_pass(_launch(workload, seed, "--setup-only"), backend)  # warm-up
    setups, passes = [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        if passes and time.monotonic() - start > DEADLINE_S:
            break
        for _ in range(SETUP_LAUNCHES):
            rec = _launch(workload, seed, "--setup-only")
            _check_pass(rec, backend)
            setups.append(rec["setup_s"])
        rec = _launch(workload, seed)
        _check_pass(rec, backend)
        passes.append(rec)
        setups.append(rec["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    samples = {"setup_s": len(setups), "wall_s": len(passes), "peak_rss_mib": len(passes)}
    return metrics, samples, passes


def _cli_stats(passes: list) -> dict:
    lat = [s for p in passes for _, s in p["cli"]["latencies"]]
    by_kind = {
        kind: [s for p in passes for k, s in p["cli"]["latencies"] if k == kind]
        for kind in ("hit", "miss")
    }
    p90 = _percentile(lat, 90)
    return {
        "cli_p50_s": statistics.median(lat),
        "cli_p90_s": p90,
        "cli.samples": len(lat),
        "cli.beyond_p90": sum(s > p90 for s in lat),
        "cli.hit_p50_s": statistics.median(by_kind["hit"]),
        "cli.miss_p50_s": statistics.median(by_kind["miss"]),
        "counting.table_entries": passes[-1]["cli"]["table_entries"],
        "cli.cache_bytes": passes[-1]["cli"]["cache_bytes"],
    }


CLI_LAYER = ("cli_p50_s", "cli_p90_s", "cli.samples", "cli.beyond_p90", "cli.hit_p50_s",
             "cli.miss_p50_s", "counting.table_entries", "cli.cache_bytes", "cli.startup_s")
# the traced pass's wall_s (the base of every layer's share) and its ratio
# to the untraced pass's
TRACE_LAYER = ("trace.wall_s", "trace.overhead")


def traced(workload: str, seed: int, backend: str) -> tuple[dict, list]:
    """Traced run: per-layer metrics from one traced pass, and the tracing
    overhead against one untraced pass of the same kind."""
    passes = []
    if workload == "cli-cache":
        # the CLI as users run it, one subprocess per job
        passes += [_launch(workload, seed) for _ in range(MIN_PASSES)]
        cli = {**_cli_stats(passes), "cli.startup_s": statistics.median(_startup_seconds())}
        plain = _launch(workload, seed, "--in-process")
    else:
        cli = dict.fromkeys(CLI_LAYER, 0)
        plain = _launch(workload, seed)
    rec = _launch(workload, seed, "--trace")
    passes += [plain, rec]
    for p in passes:
        _check_pass(p, backend)
    if rec["outputs_sha256"] != plain["outputs_sha256"]:
        raise BenchError("traced and untraced passes produced different outputs")
    metrics = {**rec["layers"], **cli, "trace.wall_s": rec["wall_s"],
               "trace.overhead": rec["wall_s"] / plain["wall_s"]}
    return metrics, passes


UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "dp_cells": "cells",
    "dp_cells_per_s": "cells/s", "enum_tuples": "tuples", "enum_tuples_per_s": "tuples/s",
    "dp_hit_ratio": "ratio", "enum_hit_ratio": "ratio", "overhead": "ratio",
    "dp_queries": "count", "enum_queries": "count", "samples": "count",
    "beyond_p90": "count", "table_entries": "count", "cache_bytes": "bytes",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    return UNITS.get(last, "s" if last.endswith("_s") else "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--backend", required=True, help="the kernel backend the numbers are for")
    args = ap.parse_args(argv)
    if not (SRC / "reflfact" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, passes = traced(args.workload, args.seed, args.backend)
            samples = {}
        else:
            metrics, samples, passes = measure(
                args.workload, args.seed, args.seconds, args.backend
            )
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": passes[-1]["backend"],
        "python": sys.version, "affinity": sorted(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cpu_max(), "commit": _commit(), "src_sha256": _src_sha256(),
        "metrics": metrics, "samples": samples, "attempted": attempted, "failed": failed,
        "passes": passes,
    }
    if not args.trace and args.workload == "cli-cache":
        record["cli"] = _cli_stats(passes)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  backend {record['backend']}  "
          f"{len(passes)} passes  record {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        count = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:36s} {value:>16.6g} {unit_of(name)}{count}")
    print(f"  {'failed_frac':36s} {failed / attempted:>16.6g}       "
          f"({failed} failed of {attempted} jobs attempted)")
    if "cli" in record:
        cli = record["cli"]
        for name in ("cli_p50_s", "cli_p90_s"):
            print(f"  {name:36s} {cli[name]:>16.6g} s  ({cli['cli.samples']} invocations, "
                  f"{cli['cli.beyond_p90']} beyond p90)")
    for p in passes:
        for failure in p["failures"]:
            print(f"  FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
