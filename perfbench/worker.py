"""One pass of one workload, in a fresh process; prints one JSON line.

Started by ``run.py``; not meant to be run by hand.  The package is
imported from the checkout's own ``src/`` (never from an installed copy),
and ``setup_s`` runs from ``--t0``, the parent's monotonic clock just
before this process was started, to the submission of the first job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_package():
    """Import reflfact from SRC, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import reflfact

    origin = Path(reflfact.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"reflfact imported from {origin}, not from {SRC}")
    return reflfact


def _peak_rss_mib(with_children: bool) -> float:
    """Peak resident set of this process; with children, plus the largest
    child's peak (the CLI children run one at a time beside this process)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--in-process", action="store_true", help="cli-cache: call cli.main")
    args = ap.parse_args(argv)

    _import_package()
    from reflfact.kernels import default_backend_name

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    jobs = workloads.make_inputs(args.workload, args.seed)
    expected = workloads.load_expected()
    ctx = None
    if args.workload == "cli-cache":
        OUT.mkdir(exist_ok=True)
        cache = OUT / f"cli-cache-{os.getpid()}.jsonl"
        ctx = workloads.CliContext(cache, SRC, args.in_process or args.trace)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer().install()

    start = time.monotonic()
    record = {"setup_s": start - args.t0, "backend": default_backend_name()}
    if not args.setup_only:
        outputs = [workloads.run_job(args.workload, job, ctx) for job in jobs]
        reasons = workloads.check(args.workload, jobs, outputs, expected)
        record["wall_s"] = time.monotonic() - start
        if tracer is not None:
            tracer.restore()
        record.update(
            peak_rss_mib=_peak_rss_mib(ctx is not None and not ctx.in_process),
            attempted=len(jobs),
            failed=sum(reason is not None for reason in reasons),
            failures=[
                f"{job['id'][:120]}: {reason}"
                for job, reason in zip(jobs, reasons)
                if reason is not None
            ][:10],
            outputs_sha256=_digest(outputs),
        )
        if ctx is not None:
            record["cli"] = {"latencies": ctx.latencies}
            if ctx.cache_path.exists():
                record["cli"]["cache_bytes"] = ctx.cache_path.stat().st_size
                record["cli"]["table_entries"] = ctx.cache_lines()
                ctx.cache_path.unlink()
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer.spans)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


def _digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
