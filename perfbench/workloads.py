"""The four benchmark workloads: seeded inputs, the jobs, and exact checks.

Each workload is a closed loop with one client: the next job is submitted
only after the previous one returned.  The seed picks sampled elements
and job order only; group sizes and m are fixed, so every seed does the
same amount of work.

A job is a JSON-able dict with a unique ``id``.  ``run_job`` returns its
output (JSON-able).  ``check`` returns, per job, ``None`` or the reason it
failed.  Two kinds of check apply:

* exact values: ``expected.json`` holds the output of every job of the
  default seed, keyed by job id; any job whose id is listed must match
  (ids of seed-independent jobs, such as the fits, match for every seed);
* identities that hold for any seed and avoid the route under test.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from reflfact import cli, counting
from reflfact.counting import (
    connected_from_all,
    count_all,
    count_connected_enum,
    count_refined,
)
from reflfact.graphs import all_walks, evaluate, graph_of_tuple, is_connected, walk_weight
from reflfact.groups import GroupElement, GroupParams, product, reflections
from reflfact.indexing import GroupIndexer
from reflfact.polyfit import collect_samples, fit_sn_polynomial, normalization_verdict
from reflfact.series import (
    comparison_mismatches,
    connected_series,
    cyclic_series,
    long_cycle_series,
    sn_long_cycle_series,
)

DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _group_id(r, s, n) -> str:
    return f"G({r},{s},{n})"


def _element(r, s, n, idx) -> GroupElement:
    return GroupIndexer(GroupParams(r, s, n)).element_at(idx)


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _reachable(rng: random.Random, params: GroupParams, m: int, connected=False):
    """(index, diagonal factors) of the product of m seeded reflections, so
    the sampled element's count is at least 1; with ``connected``, the
    tuple's graph is redrawn until connected, so its connected count is too."""
    refl = reflections(params)
    while True:
        refs = [refl[rng.randrange(len(refl))] for _ in range(m)]
        if not connected or is_connected(graph_of_tuple(refs, params)):
            break
    w = product([ref.to_element() for ref in refs], params)
    return GroupIndexer(params).index_of(w), sum(ref.is_diagonal for ref in refs)


# ---------------------------------------------------------------------------
# dense-count: one large dense DP table per group, then many lookups.

DENSE_GROUPS = (
    # (r, s, n, m, route); 60 seeded elements each
    (2, 1, 6, 6, "all"),
    (3, 1, 4, 6, "all"),
    (6, 2, 3, 6, "refined"),
)
DENSE_QUERIES = 60


def dense_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for r, s, n, m, route in DENSE_GROUPS:
        picked = {}
        while len(picked) < DENSE_QUERIES:
            idx, m2 = _reachable(rng, GroupParams(r, s, n), m)
            picked.setdefault(idx, m2)
        for idx, m2 in picked.items():
            job = {"route": route, "r": r, "s": s, "n": n, "idx": idx, "m": m}
            if route == "refined":
                job["m2"] = m2
            key = f"m2={job['m2']}" if route == "refined" else f"m={m}"
            job["id"] = f"{route} {_group_id(r, s, n)} #{idx} {key}"
            jobs.append(job)
    return _shuffled(rng, jobs)


def dense_run(job: dict, ctx) -> str:
    w = _element(job["r"], job["s"], job["n"], job["idx"])
    if job["route"] == "all":
        return str(count_all(w, job["m"]))
    return str(count_refined(w, job["m"] - job["m2"], job["m2"]))


def dense_identities(jobs, outputs) -> list:
    """Per group, the counts over the whole group sum to |R|^m (the job's
    recorded value stands in for its element).  For refined jobs, count_all
    equals the sum over m2 of count_refined (the job's recorded value
    stands in for its own split)."""
    reasons = [None] * len(jobs)
    recorded = {
        (j["r"], j["s"], j["n"], j["idx"], j.get("m2")): (i, outputs[i])
        for i, j in enumerate(jobs)
    }

    def value(r, s, n, idx, m, m2, w):
        hit = recorded.get((r, s, n, idx, m2))
        if hit is not None:
            return int(hit[1])
        return count_all(w, m) if m2 is None else count_refined(w, m - m2, m2)

    for r, s, n, m, route in DENSE_GROUPS:
        params = GroupParams(r, s, n)
        splits = [None] if route == "all" else list(range(m + 1))
        total = 0
        for idx, w in enumerate(GroupIndexer(params)):
            for m2 in splits:
                total += value(r, s, n, idx, m, m2, w)
        expected = params.reflection_count() ** m
        if total != expected:
            for key, (i, _) in recorded.items():
                if key[:3] == (r, s, n):
                    reasons[i] = f"group sum {total} != |R|^m = {expected}"
        if route == "refined":
            for key, (i, _) in recorded.items():
                if key[:3] != (r, s, n):
                    continue
                w = _element(r, s, n, key[3])
                refined = sum(value(r, s, n, key[3], m, m2, w) for m2 in splits)
                if refined != count_all(w, m):
                    reasons[i] = f"sum over m2 {refined} != count_all {count_all(w, m)}"
    return reasons


# ---------------------------------------------------------------------------
# fit-inversion: many small S_n DPs through the connected_from_all sweep.

FIT = {"g": 1, "ell": 2, "n_values": [2, 3, 4, 5, 6, 7]}
VERDICT = {"g": 0, "ell": 2, "r": 2, "s": 1, "n_values": [2, 3, 4, 5]}


def fit_inputs(seed: int) -> list[dict]:
    # Only the order of the two jobs is seeded: they share no cache key,
    # and reordering the n values would change which DP tables the
    # bounded cache evicts, hence the work done.
    jobs = [{"id": "fit", "kind": "fit", **FIT}, {"id": "verdict", "kind": "verdict", **VERDICT}]
    return _shuffled(random.Random(seed), jobs)


def _report_json(report) -> dict:
    return {
        "polynomial": report.polynomial.to_json(),
        "window_ok": report.window_ok,
        "holdout_residuals": [str(x) for x in report.holdout_residuals],
    }


def fit_run(job: dict, ctx) -> dict:
    if job["kind"] == "fit":
        samples = collect_samples(1, 1, job["g"], job["ell"], True, job["n_values"])
        report = fit_sn_polynomial(job["g"], job["ell"], [(c, v) for c, _, v in samples])
        return {
            "samples": [[list(c.parts), n, str(v)] for c, n, v in samples],
            **_report_json(report),
        }
    verdict = normalization_verdict(
        job["g"], job["ell"], job["r"], job["s"], job["n_values"]
    )
    return {
        "winners": list(verdict.winners),
        "fits": {
            f"{norm}/trivial={triv}": _report_json(report)
            for (norm, triv), report in sorted(verdict.reports.items())
        },
        "failures": sorted(f"{norm}/trivial={triv}" for norm, triv in verdict.failures),
    }


def fit_identities(jobs, outputs) -> list:
    """Holdout residuals are all zero and the degree window holds, for the
    fit and for every fit the verdict's winners rest on."""
    reasons = []
    for job, out in zip(jobs, outputs):
        if job["kind"] == "fit":
            reports = [out]
        else:
            reports = [
                report
                for key, report in out["fits"].items()
                if key.split("/")[0] in out["winners"]
            ]
            if not out["winners"]:
                reports = [None]
        bad = None
        for report in reports:
            if report is None:
                bad = "verdict has no winner"
            elif any(x != "0" for x in report["holdout_residuals"]):
                bad = f"nonzero holdout residuals {report['holdout_residuals']}"
            elif not report["window_ok"]:
                bad = "degree window violated"
        reasons.append(bad)
    return reasons


# ---------------------------------------------------------------------------
# connected-oracle: verify-comparison's tuple enumeration.

ORACLE_GROUPS = ((6, 2, 3, 4), (6, 2, 2, 6), (4, 2, 3, 4))  # (r, s, n, max m)


def oracle_inputs(seed: int) -> list[dict]:
    # Each group's spot checks follow its comparison job, while its
    # enumeration tables are still among the most recent cache entries;
    # so no seed makes the bounded cache rebuild one.
    rng = random.Random(seed)
    jobs = []
    for r, s, n, max_m in _shuffled(rng, ORACLE_GROUPS):
        gid = _group_id(r, s, n)
        jobs.append(
            {"id": f"compare {gid} m<={max_m}", "kind": "compare",
             "r": r, "s": s, "n": n, "max_m": max_m}
        )
        # connected counts vanish below n - 1 factors
        for m in _shuffled(rng, range(n - 1, max_m + 1)):
            idx, _ = _reachable(rng, GroupParams(r, s, n), m, connected=True)
            jobs.append(
                {"id": f"spot {gid} #{idx} m={m}", "kind": "spot",
                 "r": r, "s": s, "n": n, "idx": idx, "m": m}
            )
    return jobs


def oracle_run(job: dict, ctx) -> dict:
    if job["kind"] == "compare":
        checked, bad = comparison_mismatches(
            GroupParams(job["r"], job["s"], job["n"]), job["max_m"]
        )
        return {"checked": checked, "mismatches": len(bad)}
    w = _element(job["r"], job["s"], job["n"], job["idx"])
    m = job["m"]
    enum = sum(count_connected_enum(w, m - m2, m2) for m2 in range(m + 1))
    return {"enum": str(enum), "inversion": str(connected_from_all(w, m))}


def oracle_identities(jobs, outputs) -> list:
    """Mismatches are empty; enumeration equals inversion."""
    reasons = []
    for job, out in zip(jobs, outputs):
        if job["kind"] == "compare":
            bad = out["mismatches"] and f"{out['mismatches']} mismatches"
        else:
            bad = out["enum"] != out["inversion"] and (
                f"enumeration {out['enum']} != inversion {out['inversion']}"
            )
        reasons.append(bad or None)
    return reasons


# ---------------------------------------------------------------------------
# cli-cache: ``python -m reflfact`` per job, count jobs sharing one cache.

CLI_COUNT = ((3, 1, 3, 4), (2, 1, 4, 4), (4, 2, 2, 5), (6, 3, 2, 4), (2, 2, 4, 4))
CLI_REFINED = ((3, 1, 3, 2, 2), (4, 2, 2, 3, 2), (6, 2, 2, 2, 2), (2, 1, 3, 3, 2))
CLI_CONNECTED = ((3, 1, 3, 4), (2, 1, 3, 5), (4, 2, 2, 4), (6, 2, 2, 4))
CLI_SERIES = (
    ["--kind", "long-cycle", "--r", "2", "--s", "2", "--n", "3", "--t", "0", "--order", "6"],
    ["--kind", "sn-long-cycle", "--n", "5", "--order", "8"],
    ["--kind", "cyclic", "--q", "5", "--t", "2", "--order", "8"],
)
CLI_SERIES_CONNECTED = (3, 1, 3, 5)  # seeded element, order
CLI_WALKS = (6, 2, 4, 7, 4)  # group, edges per graph, graphs
CLI_REFLECTIONS = ((6, 2, 4), (3, 1, 3))


def _omega(r, s, n, idx) -> str:
    return json.dumps(_element(r, s, n, idx).to_json())


def _group_args(r, s, n) -> list[str]:
    return ["--r", str(r), "--s", str(s), "--n", str(n)]


def cli_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    units = []  # a cached count is a unit of two jobs: miss, then hit

    def cached(name, r, s, n, m, extra, connected=False, m2=None):
        while True:  # for a refined count, redraw until the tuple has m2 diagonals
            idx, diagonals = _reachable(rng, GroupParams(r, s, n), m, connected)
            if m2 in (None, diagonals):
                break
        argv = [name, *_group_args(r, s, n), "--omega", _omega(r, s, n, idx), *extra]
        base = {"cmd": name, "r": r, "s": s, "n": n, "idx": idx}
        tag = f"{name} {_group_id(r, s, n)} #{idx} {' '.join(extra)}"
        units.append(
            [
                {**base, "id": f"{tag} miss", "argv": argv, "cache": "miss"},
                {**base, "id": f"{tag} hit", "argv": argv, "cache": "hit"},
            ]
        )

    for r, s, n, m in CLI_COUNT:
        cached("count", r, s, n, m, ["--m", str(m)])
    for r, s, n, m1, m2 in CLI_REFINED:
        cached("count-refined", r, s, n, m1 + m2, ["--m1", str(m1), "--m2", str(m2)], m2=m2)
    for r, s, n, m in CLI_CONNECTED:
        cached("count-connected", r, s, n, m, ["--m", str(m), "--method", "inversion"],
               connected=True)
    for extra in CLI_SERIES:
        units.append([{"id": "series " + " ".join(extra), "cmd": "series",
                       "argv": ["series", *extra]}])
    r, s, n, order = CLI_SERIES_CONNECTED
    idx, _ = _reachable(rng, GroupParams(r, s, n), order, connected=True)
    units.append(
        [{"id": f"series connected {_group_id(r, s, n)} #{idx} order={order}",
          "cmd": "series", "r": r, "s": s, "n": n, "idx": idx,
          "argv": ["series", "--kind", "connected", *_group_args(r, s, n),
                   "--omega", _omega(r, s, n, idx), "--order", str(order)]}]
    )
    r, s, n, edges, graphs = CLI_WALKS
    refl = reflections(GroupParams(r, s, n))
    for _ in range(graphs):
        picks = [rng.randrange(len(refl)) for _ in range(edges)]
        graph = json.dumps(graph_of_tuple([refl[t] for t in picks]).to_json())
        units.append([{"id": f"walks {graph}", "cmd": "walks", "graph": graph,
                       "argv": ["walks", "--graph", graph]}])
    for r, s, n in CLI_REFLECTIONS:
        units.append([{"id": f"reflections {_group_id(r, s, n)}", "cmd": "reflections",
                       "r": r, "s": s, "n": n,
                       "argv": ["reflections", *_group_args(r, s, n)]}])
    return [job for unit in _shuffled(rng, units) for job in unit]


class CliContext:
    """Where cli-cache jobs run: a fresh ``python -m reflfact`` per job, or
    ``cli.main`` in this process (the traced run) with the package's
    in-memory caches cleared before each job, as a fresh process has them."""

    def __init__(self, cache_path: Path, src: Path, in_process: bool):
        self.cache_path = cache_path
        self.in_process = in_process
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.latencies: list[tuple[str, float]] = []  # (miss|hit|other, seconds)
        if cache_path.exists():
            cache_path.unlink()

    def invoke(self, argv: list[str]) -> tuple[int, str, float]:
        start = time.perf_counter()
        if self.in_process:
            counting.clear_caches()
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            stdout = buf.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "reflfact", *argv],
                capture_output=True, text=True, env=self.env, check=False,
            )
            code, stdout = proc.returncode, proc.stdout
        return code, stdout, time.perf_counter() - start

    def cache_lines(self) -> int:
        if not self.cache_path.exists():
            return 0
        with open(self.cache_path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())


def cli_run(job: dict, ctx: CliContext) -> dict:
    argv = list(job["argv"])
    if "cache" in job:
        argv += ["--cache", str(ctx.cache_path)]
        before = ctx.cache_lines()
    code, stdout, seconds = ctx.invoke(argv)
    ctx.latencies.append((job.get("cache", "other"), seconds))
    out = {"code": code, "stdout": stdout}
    if "cache" in job:
        out["cache_grew"] = ctx.cache_lines() > before
    return out


def _cli_library_value(job: dict) -> dict:
    """What the CLI must print, computed in process from the library."""
    argv = job["argv"]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    cmd = job["cmd"]
    w = _element(job["r"], job["s"], job["n"], job["idx"]) if "idx" in job else None
    if cmd == "count":
        return {"count": str(count_all(w, int(opt["--m"])))}
    if cmd == "count-refined":
        return {"count": str(count_refined(w, int(opt["--m1"]), int(opt["--m2"])))}
    if cmd == "count-connected":
        return {"count": str(connected_from_all(w, int(opt["--m"]))), "method": "inversion"}
    if cmd == "reflections":
        refs = reflections(GroupParams(job["r"], job["s"], job["n"]))
        return {"count": len(refs), "reflections": [ref.to_json() for ref in refs]}
    if cmd == "walks":
        from reflfact.graphs import DecoratedGraph

        graph = DecoratedGraph.from_json(json.loads(job["graph"]))
        return {
            "connected": is_connected(graph),
            "element": evaluate(graph).to_json(),
            "weights": [walk_weight(graph, walk) for walk in all_walks(graph)],
        }
    kind, order = opt["--kind"], int(opt["--order"])
    if kind == "connected":
        series = connected_series(w, order)
    elif kind == "long-cycle":
        params = GroupParams(int(opt["--r"]), int(opt["--s"]), int(opt["--n"]))
        series = long_cycle_series(params, int(opt["--t"]), order)
    elif kind == "sn-long-cycle":
        series = sn_long_cycle_series(int(opt["--n"]), order)
    else:
        series = cyclic_series(int(opt["--q"]), int(opt["--t"]), order)
    return series.to_json()


def cli_identities(jobs, outputs) -> list:
    """Exit code 0; stdout equals the in-process library value; the hit
    prints what the miss printed; the miss grew the cache file and the
    hit did not."""
    reasons = []
    miss_stdout = {}
    for job, out in zip(jobs, outputs):
        if out["code"] != 0:
            reasons.append(f"exit code {out['code']}")
            continue
        try:
            printed = json.loads(out["stdout"])
        except json.JSONDecodeError:
            reasons.append("stdout is not one JSON document")
            continue
        lib = _cli_library_value(job)
        if job["cmd"] == "walks":
            printed = {
                "connected": printed.get("connected"),
                "element": printed.get("element"),
                "weights": [walk["weight"] for walk in printed.get("walks", [])],
            }
        if any(printed.get(key) != value for key, value in lib.items()):
            reasons.append(f"stdout {out['stdout'].strip()[:200]} != library {lib}")
        elif job.get("cache") == "miss" and not out["cache_grew"]:
            reasons.append("miss did not add an entry to the cache file")
        elif job.get("cache") == "hit" and out["cache_grew"]:
            reasons.append("hit added an entry to the cache file")
        elif job.get("cache") == "hit" and out["stdout"] != miss_stdout.get(job["id"][:-4]):
            reasons.append("hit printed another value than the miss")
        else:
            reasons.append(None)
        if job.get("cache") == "miss":
            miss_stdout[job["id"][:-5]] = out["stdout"]
    return reasons


# ---------------------------------------------------------------------------

WORKLOADS = {
    "dense-count": (dense_inputs, dense_run, dense_identities),
    "fit-inversion": (fit_inputs, fit_run, fit_identities),
    "connected-oracle": (oracle_inputs, oracle_run, oracle_identities),
    "cli-cache": (cli_inputs, cli_run, cli_identities),
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload][0](seed)


def run_job(workload: str, job: dict, ctx=None):
    """The job's output, or {"error": ...} if it raised."""
    try:
        return WORKLOADS[workload][1](job, ctx)
    except Exception as exc:  # a failed job is counted, not fatal
        return {"error": f"{type(exc).__name__}: {exc}"}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, jobs: list[dict], outputs: list, expected: dict) -> list:
    """Per job: None if its output is right, else the reason."""
    known = expected.get(workload, {})
    reasons = [None] * len(jobs)
    ok_idx = []
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if isinstance(out, dict) and "error" in out:
            reasons[i] = out["error"]
        elif job["id"] in known and known[job["id"]] != out:
            reasons[i] = f"output differs from expected.json: {str(out)[:200]}"
        else:
            ok_idx.append(i)
    try:
        found = WORKLOADS[workload][2]([jobs[i] for i in ok_idx], [outputs[i] for i in ok_idx])
    except Exception as exc:  # an identity that cannot be evaluated fails every job
        found = [f"identity check raised {type(exc).__name__}: {exc}"] * len(ok_idx)
    for i, reason in zip(ok_idx, found):
        reasons[i] = reason
    return reasons
