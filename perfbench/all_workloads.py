#!/usr/bin/env python3
"""Run every workload once and print its end-to-end metrics.

    python3 perfbench/all_workloads.py [--seed 1] [--trace 0]

Uses the backend and run length in BENCHMARK.json.  Each workload prints
its metrics with units and sample counts, ``failed_frac`` with its base,
and (for cli-cache) ``cli_p50_s`` and ``cli_p90_s``; then its result line.
Exits non-zero if any workload failed to run or got a wrong output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    backend = bench["command"][bench["command"].index("--backend") + 1]
    status = 0
    for workload in run.WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(args.seed),
                             "--seconds", str(bench["run_seconds"]),
                             "--trace", str(args.trace), "--backend", backend])
        print(out.getvalue(), end="", flush=True)
        lines = out.getvalue().strip().splitlines()
        if code != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
