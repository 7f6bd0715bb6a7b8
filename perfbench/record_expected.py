#!/usr/bin/env python3
"""Write expected.json: the output of every job of the default seed.

    python3 perfbench/record_expected.py

Every later run is held to these values, so the script refuses to write
when any identity check fails, and the diff deserves a review.
"""

from __future__ import annotations

import json
import sys

from worker import OUT, SRC, _import_package


def main() -> int:
    _import_package()
    from reflfact import counting

    import workloads

    expected = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.make_inputs(name, workloads.DEFAULT_SEED)
        ctx = None
        if name == "cli-cache":
            OUT.mkdir(exist_ok=True)
            ctx = workloads.CliContext(OUT / "record-cache.jsonl", SRC, in_process=False)
        counting.clear_caches()
        outputs = [workloads.run_job(name, job, ctx) for job in jobs]
        reasons = workloads.check(name, jobs, outputs, {})
        bad = [(job["id"], r) for job, r in zip(jobs, reasons) if r is not None]
        if bad:
            for job_id, reason in bad:
                print(f"{name}: {job_id}: {reason}", file=sys.stderr)
            return 1
        if ctx is not None and ctx.cache_path.exists():
            ctx.cache_path.unlink()
        expected[name] = {job["id"]: out for job, out in zip(jobs, outputs)}
        print(f"{name}: {len(jobs)} jobs recorded")
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
