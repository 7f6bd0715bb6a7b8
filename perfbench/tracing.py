"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the package's public functions by
rebinding those names, from the outside, in every loaded module that
holds them; the package itself is not edited.  Each span is
``(name, start, end, parent, work)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``work`` is a count computed from
the call's arguments (DP cells or enumerated tuples; 0 elsewhere).

The recorder keeps one call stack, so it assumes the traced calls run on
one thread.  The workloads never ask the package for threads.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> (module, public names).  "Class.method" wraps a method,
# "Class" wraps the constructor.
TARGETS = {
    "kernels": (
        ("reflfact._kernels_pure", "reflfact._ckernels"),
        ("dp_total", "dp_refined", "enum_bucketed"),
    ),
    "indexing": (("reflfact.indexing",), ("GroupIndexer",)),
    "groups": (("reflfact.groups",), ("partitions",)),
    "counting": (
        ("reflfact.counting",),
        (
            "count_all",
            "count_refined",
            "count_all_by_enum",
            "count_connected_enum",
            "count_connected_total_enum",
            "connected_from_all",
            "CountTable.load",
            "CountTable.save",
        ),
    ),
    "series": (
        ("reflfact.series",),
        (
            "comparison_refined",
            "comparison_total",
            "comparison_mismatches",
            "sn_connected_series",
            "connected_series",
            "long_cycle_series",
            "sn_long_cycle_series",
            "cyclic_series",
        ),
    ),
    "polyfit": (
        ("reflfact.polyfit",),
        (
            "collect_samples",
            "fit_sn_polynomial",
            "fit_grsn_polynomial",
            "normalization_verdict",
        ),
    ),
    "graphs": (("reflfact.graphs",), ("evaluate", "all_walks", "is_connected")),
    "cli": (("reflfact.cli",), ("main",)),
}

DP_KERNELS = ("kernels.dp_total", "kernels.dp_refined")
DP_QUERIES = ("counting.count_all", "counting.count_refined")
ENUM_QUERIES = (
    "counting.count_all_by_enum",
    "counting.count_connected_enum",
    "counting.count_connected_total_enum",
)


def _group_order(r, s, n) -> int:
    from reflfact.groups import GroupParams

    return GroupParams(r, s, n).group_order()


def _dp_cells(r, s, n, refl, m, *rest) -> int:
    """Cells of the dense DP table: |G| * (m + 1), computed, not observed."""
    return _group_order(r, s, n) * (m + 1)


def _enum_tuples(r, s, n, refl, m, lo, hi) -> int:
    """Tuples in the enumerated slice: (hi - lo) * |R|^(m-1), i.e. |R|^m unsliced."""
    return (hi - lo) * len(refl) ** (m - 1) if m else 1


WORK = {
    "kernels.dp_total": _dp_cells,
    "kernels.dp_refined": _dp_cells,
    "kernels.enum_bucketed": _enum_tuples,
}


class Tracer:
    """Holds the spans in memory; ``restore`` undoes every rebinding."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            amount = work(*args) if work else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, amount)

        return traced

    def _rebind_everywhere(self, original, wrapped) -> None:
        """Rebind the name wherever a module holds it: in the package and
        in the benchmark's own modules, which import names from it."""
        for module in list(sys.modules.values()):
            if module is None or module is sys.modules[__name__]:
                continue
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def _wrap_method(self, name: str, cls, method: str) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        setattr(cls, method, new)
        self._undo.append((cls, method, raw))

    def install(self) -> "Tracer":
        import reflfact.cli  # noqa: F401  (loads every traced module)

        for layer, (modnames, names) in TARGETS.items():
            for modname in modnames:
                module = sys.modules.get(modname)
                if module is None:
                    continue
                for target in names:
                    owner, _, method = target.partition(".")
                    span = f"{layer}.{target}"
                    obj = getattr(module, owner)
                    if method:
                        self._wrap_method(span, obj, method)
                    elif isinstance(obj, type):
                        self._wrap_method(span, obj, "__init__")
                    else:
                        self._rebind_everywhere(obj, self.wrap(span, obj))
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "work": work}
                    )
                    + "\n"
                )


def summarize(spans) -> dict:
    """Per span name: calls, outer seconds (same-name nesting counted once),
    self seconds (duration minus the time child spans cover) and work.
    Spans on one thread nest and never overlap, so the children's cover
    is the sum of their durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for idx, (name, start, end, parent, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[idx]
        row["work"] += work
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            row["s"] += end - start
    return out


def layer_metrics(spans) -> dict:
    """The per-layer metrics read from the spans (see BENCHMARK.json)."""
    rows = summarize(spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def self_s(layer):
        return sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    dp_calls = sum(get(n, "calls") for n in DP_KERNELS)
    dp_s = sum(get(n, "s") for n in DP_KERNELS)
    dp_cells = sum(get(n, "work") for n in DP_KERNELS)
    dp_queries = sum(get(n, "calls") for n in DP_QUERIES)
    enum_queries = sum(get(n, "calls") for n in ENUM_QUERIES)
    enum_calls = get("kernels.enum_bucketed", "calls")
    enum_s = get("kernels.enum_bucketed", "s")
    tuples = get("kernels.enum_bucketed", "work")
    fit_s = get("polyfit.fit_sn_polynomial", "s") + get("polyfit.fit_grsn_polynomial", "s")
    return {
        "kernels.dp_total.calls": get("kernels.dp_total", "calls"),
        "kernels.dp_total.s": get("kernels.dp_total", "s"),
        "kernels.dp_refined.calls": get("kernels.dp_refined", "calls"),
        "kernels.dp_refined.s": get("kernels.dp_refined", "s"),
        "kernels.dp_cells": dp_cells,
        "kernels.dp_cells_per_s": ratio(dp_cells, dp_s),
        "kernels.enum_bucketed.calls": enum_calls,
        "kernels.enum_bucketed.s": enum_s,
        "kernels.enum_tuples": tuples,
        "kernels.enum_tuples_per_s": ratio(tuples, enum_s),
        "kernels.self_s": self_s("kernels"),
        "counting.dp_queries": dp_queries,
        "counting.dp_hit_ratio": 1 - ratio(dp_calls, dp_queries) if dp_queries else 0.0,
        "counting.enum_queries": enum_queries,
        "counting.enum_hit_ratio": 1 - ratio(enum_calls, enum_queries)
        if enum_queries
        else 0.0,
        "counting.connected_from_all.calls": get("counting.connected_from_all", "calls"),
        "counting.connected_from_all.s": get("counting.connected_from_all", "s"),
        "counting.self_s": self_s("counting"),
        "counting.table_load_s": get("counting.CountTable.load", "s"),
        "counting.table_save_s": get("counting.CountTable.save", "s"),
        "groups.partitions.calls": get("groups.partitions", "calls"),
        "groups.partitions.s": get("groups.partitions", "s"),
        "indexing.GroupIndexer.calls": get("indexing.GroupIndexer", "calls"),
        "indexing.GroupIndexer.s": get("indexing.GroupIndexer", "s"),
        "series.comparison_refined.calls": get("series.comparison_refined", "calls"),
        "series.comparison_refined.s": get("series.comparison_refined", "s"),
        "series.self_s": self_s("series"),
        "polyfit.collect_samples.s": get("polyfit.collect_samples", "s"),
        "polyfit.fit.s": fit_s,
        "polyfit.self_s": self_s("polyfit"),
        "graphs.evaluate.s": get("graphs.evaluate", "s"),
        "graphs.all_walks.s": get("graphs.all_walks", "s"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_s": self_s("cli"),
    }
