#!/usr/bin/env python3
"""Record reference numbers for the compiled kernels in reference_compiled.json.

    python3 perfbench/compiled_reference.py [--seeds 1,2,3] [--seconds 20]

The reference answers one later question: does the pure-Python path run
each workload at least as fast as the gcc-built compiled kernels did?
It is recorded once and is never a gated configuration.

The committed ``src/reflfact/_ckernels.c`` is built with gcc in a copy of
the tree under ``.bench_build/compiled/`` (never in ``src/``), and every
workload runs there with ``REFLFACT_BACKEND=compiled``.  The pure backend
runs in this checkout in the same session, alternating with the compiled
runs, so the two sets share the machine's conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
from pathlib import Path

from run import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
TREE = ROOT / ".bench_build" / "compiled"
REFERENCE = HERE / "reference_compiled.json"


def build_tree() -> str:
    """Copy the tree and build the extension in the copy; returns the
    command, with the machine's include path left out."""
    if TREE.exists():
        shutil.rmtree(TREE)
    skip = shutil.ignore_patterns("__pycache__", "*.so")
    shutil.copytree(SRC, TREE / "src", ignore=skip)
    shutil.copytree(HERE, TREE / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", TREE)
    include = sysconfig.get_paths()["include"]
    target = "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")
    cmd = ["gcc", "-O2", "-shared", "-fPIC", f"-I{include}", "_ckernels.c", "-o", target]
    subprocess.run(cmd, cwd=TREE / "src" / "reflfact", check=True)
    return " ".join(cmd).replace(include, "<python include dir>")


def bench(root: Path, backend: str, workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ)
    env.pop("REFLFACT_BACKEND", None)
    if backend == "compiled":
        env["REFLFACT_BACKEND"] = "compiled"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--backend", backend, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, check=True, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{backend} {workload} seed {seed}: wrong outputs\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    build = build_tree()
    gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True, check=True)
    runs = {w: {"compiled": [], "pure": []} for w in WORKLOADS}
    for workload in WORKLOADS:
        for i, seed in enumerate(seeds):
            order = ("compiled", "pure") if i % 2 == 0 else ("pure", "compiled")
            for backend in order:
                root = TREE if backend == "compiled" else ROOT
                metrics = bench(root, backend, workload, seed, args.seconds)
                runs[workload][backend].append({"seed": seed, **metrics})
                print(f"{workload:17s} {backend:8s} seed {seed}: {metrics}", flush=True)
    record = {
        "label": "reference only, not gated: gcc build of the committed _ckernels.c",
        "build": build,
        "gcc": gcc.stdout.splitlines()[0],
        "cpu": _cpu_model(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version,
        "seconds": args.seconds,
        "workloads": {
            workload: {
                backend: {
                    "runs": rows,
                    "median": {
                        name: statistics.median(row[name] for row in rows)
                        for name in rows[0]
                        if name != "seed"
                    },
                }
                for backend, rows in by_backend.items()
            }
            for workload, by_backend in runs.items()
        },
    }
    REFERENCE.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(TREE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
