"""Exact factorization counts: total, refined by diagonal-factor count,
and connected.

Three independent routes are implemented and cross-checked in tests:

* dynamic programming over colored cycle types (total and refined
  counts): every count is constant on G(r,1,n)-conjugacy classes, so
  the tables hold one cell per class and round, not per element;
* a DP over (product, component partition) states that applies one
  reflection per round and merges the vertices each swap factor joins
  (the trusted oracle for connected counts; it agrees with exhaustive
  tuple enumeration in tests);
* recursive inversion of the disjoint-block product formula, which
  expresses total counts as multinomial convolutions of connected
  counts over partitions of the element.

One cache holds, for the 16 groups used most recently, the rounds
0..m of every DP, which a count at a larger m extends from the last
one, and the inversion's memo.  `Options.max_dp_cells` bounds the
cells a DP's kept rounds hold.  Every count reads the cache through one
lookup, which checks that bound first, also for a cached count; a
cached count then costs one read by the element's colored cycle type.

All counts are arbitrary-precision integers.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from . import __version__ as _tool_version
from . import _kernels_pure
from .errors import (
    CacheConflictError,
    ConsistencyError,
    MissingCountError,
    ResourceLimitError,
    ValidationError,
)
from .groups import (
    GroupElement,
    GroupParams,
    partitions,
    relabel_to_dense,
)
from .indexing import class_count, class_key
from .kernels import encode_reflections

DEFAULT_MAX_DP_CELLS = 5 * 10**7


@dataclass(frozen=True)
class Options:
    """Execution knobs shared by the counting entry points: a count whose
    kernel would keep more than max_dp_cells cells is refused instead of
    attempted."""

    max_dp_cells: int = DEFAULT_MAX_DP_CELLS


DEFAULT_OPTIONS = Options()


# GroupParams.triple -> {name: what that function keeps of the group}: the
# rounds of each `_kernels_pure` kernel, and connected_from_all's memo by
# (class key, m); also the group's class count, which the budget checks
# read.  Least recently used group first.
_cache: OrderedDict = OrderedDict()
_CACHE_SLOTS = 16


def clear_caches() -> None:
    _kernels_pure._classes.cache_clear()
    _cache.clear()


def _group(params: GroupParams, m: int, kernel: str, opts: Options) -> dict:
    """The group's record, which every cached count is read from.  It
    becomes the most recently used (beyond _CACHE_SLOTS groups the least
    recently used one is dropped), and the cells `kernel` keeps up to m
    are checked against the budget first: class_count * (m+1) for the
    class DP and for connected_from_all's memo, which stands for the
    totals it was built from, and as many per diagonal-count row for the
    refined DP, j+1 rows in round j in a group with diagonal reflections.
    The connected DP checks its own cells while it runs."""
    record = _cache.get(params.triple)
    if record is None:
        record = _cache[params.triple] = {"class_count": class_count(params)}
        if len(_cache) > _CACHE_SLOTS:
            _cache.popitem(last=False)
    else:
        _cache.move_to_end(params.triple)
    if kernel != "dp_components":
        cells = record["class_count"] * (m + 1)
        if kernel == "dp_refined" and params.q > 1:
            cells = cells * (m + 2) // 2
        if cells > opts.max_dp_cells:
            what = "refined class DP" if kernel == "dp_refined" else "class DP"
            raise ResourceLimitError(
                f"{what} over {params} up to m={m} needs {cells} cells "
                f"(limit {opts.max_dp_cells})"
            )
    return record


def _round(params: GroupParams, m: int, kernel: str, opts: Options):
    """Round m of the `_kernels_pure` kernel named `kernel` over the group,
    from its cached rounds, which are extended from the last one when
    they stop short of m.  The kernel is looked up at call time, so a
    rebinding of the module's name is seen.  A refused extension leaves
    the cached rounds as they were."""
    record = _group(params, m, kernel, opts)
    rounds = record.get(kernel)
    if rounds is None or len(rounds) <= m:
        budget = (opts.max_dp_cells,) if kernel == "dp_components" else ()
        rounds = record[kernel] = getattr(_kernels_pure, kernel)(
            params.r, params.s, params.n, encode_reflections(params), m, *budget, rounds
        )
    return rounds[m]


def count_all(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """Number of m-tuples of reflections multiplying to w."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    p = w.params
    return _round(p, m, "dp_total", opts)[class_key(w.perm, w.exps, p.r)]


def count_refined(
    w: GroupElement, m1: int, m2: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Number of (m1+m2)-tuples multiplying to w with exactly m2 diagonal
    factors (and m1 swap factors)."""
    if m1 < 0 or m2 < 0:
        raise ValidationError("m1 and m2 must be nonnegative")
    rows = _round(w.params, m1 + m2, "dp_refined", opts)
    # a group without diagonal reflections keeps the m2 = 0 row only
    return rows[m2][class_key(w.perm, w.exps, w.params.r)] if m2 < len(rows) else 0


def _components(params: GroupParams, m: int, opts: Options) -> dict:
    """Round m of the connected DP over the group: {(perm0, exps,
    labels): counts by m2}."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    return _round(params, m, "dp_components", opts)


def _one_block(w: GroupElement, m: int, opts: Options) -> list[int]:
    """Counts by m2 of the m-tuples with product w whose swap factors
    join all n vertices: the one-block state of w in the connected DP."""
    state = (tuple(v - 1 for v in w.perm), tuple(w.exps), (0,) * w.params.n)
    return _components(w.params, m, opts).get(state, [])


def count_all_by_enum(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """count_all recomputed by the component-partition DP (cross-check
    path): the states of w under every partition."""
    perm0, exps = tuple(v - 1 for v in w.perm), tuple(w.exps)
    return sum(
        sum(counts)
        for (p0, e, _), counts in _components(w.params, m, opts).items()
        if p0 == perm0 and e == exps
    )


def count_connected_enum(
    w: GroupElement, m1: int, m2: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Connected refined count by the component-partition DP: the trusted
    oracle."""
    if m1 < 0 or m2 < 0:
        raise ValidationError("m1 and m2 must be nonnegative")
    counts = _one_block(w, m1 + m2, opts)
    return counts[m2] if m2 < len(counts) else 0


def count_connected_total_enum(
    w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Connected count over all diagonal/swap splits, by the
    component-partition DP."""
    return sum(_one_block(w, m, opts))


def _binomial_convolve(a: list[int], b: list[int], m: int) -> list[int]:
    """c[j] = sum over j1 of C(j, j1) a[j1] b[j-j1], truncated at m."""
    out = [0] * (m + 1)
    for j in range(m + 1):
        out[j] = sum(
            math.comb(j, j1) * a[j1] * b[j - j1]
            for j1 in range(j + 1)
            if a[j1] and b[j - j1]
        )
    return out


def connected_from_all(
    w: GroupElement,
    m: int,
    opts: Options = DEFAULT_OPTIONS,
    table: "CountTable | None" = None,
) -> int:
    """Connected count obtained by inverting the partition product formula:
    subtract, from the total count, every way of splitting the element into
    two or more independent blocks with connected factorizations.  The
    connected count is a class function too, so each group's memo is
    keyed by colored cycle type."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    result = _f_tilde(w, m, opts)
    if table is not None:
        table.insert(CountKey.of(w, m1=m, m2=None, connected=True), result, "inversion")
    return result


def _f_tilde(w: GroupElement, m: int, opts: Options) -> int:
    """connected_from_all's recursion over the blocks of w, memoized."""
    memo = _group(w.params, m, "connected_from_all", opts).setdefault(
        "connected_from_all", {}
    )
    key = (class_key(w.perm, w.exps, w.params.r), m)
    value = memo.get(key)
    if value is not None:
        return value
    parts = partitions(w)
    value = count_all(w, m, opts)
    for part in parts:
        if len(part.blocks) < 2:
            continue
        acc = [1 if j == 0 else 0 for j in range(m + 1)]
        for block in part.blocks:
            sub = relabel_to_dense(w, block)
            vec = [_f_tilde(sub, j, opts) for j in range(m + 1)]
            acc = _binomial_convolve(acc, vec, m)
        value -= acc[m]
    memo[key] = value
    return value


def all_from_connected(
    w: GroupElement,
    m: int,
    table: "CountTable",
    opts: Options = DEFAULT_OPTIONS,
) -> int:
    """Reassemble the total count from connected counts: sum over all
    partitions of w and all factor-count splits across blocks, weighted by
    the multinomial number of interleavings."""
    result = 0
    for part in partitions(w):
        acc = [1 if j == 0 else 0 for j in range(m + 1)]
        for block in part.blocks:
            sub = relabel_to_dense(w, block)
            vec = []
            for j in range(m + 1):
                key = CountKey.of(sub, m1=j, m2=None, connected=True)
                value = table.get(key)
                if value is None:
                    raise MissingCountError(f"table missing {key}")
                vec.append(value)
            acc = _binomial_convolve(acc, vec, m)
        result += acc[m]
    return result


def populate_connected_table(
    w: GroupElement, max_m: int, opts: Options = DEFAULT_OPTIONS
) -> "CountTable":
    """Connected counts for every dense sub-block of w up to max_m, as
    needed by all_from_connected."""
    table = CountTable()
    seen = set()
    for part in partitions(w):
        for block in part.blocks:
            sub = relabel_to_dense(w, block)
            if sub in seen:
                continue
            seen.add(sub)
            for j in range(max_m + 1):
                table.insert(
                    CountKey.of(sub, m1=j, m2=None, connected=True),
                    connected_from_all(sub, j, opts),
                    "inversion",
                )
    return table


# ---------------------------------------------------------------------------
# Persistent count table


@dataclass(frozen=True)
class CountKey:
    """Identifies one cached count.  m2 is None for totals over all splits
    (the key then means: m1 factors of any kind)."""

    r: int
    s: int
    n: int
    perm: tuple[int, ...]
    exps: tuple[int, ...]
    m1: int
    m2: Optional[int]
    connected: bool

    @classmethod
    def of(
        cls, w: GroupElement, m1: int, m2: Optional[int], connected: bool
    ) -> "CountKey":
        return cls(
            w.params.r, w.params.s, w.params.n, w.perm, w.exps, m1, m2, connected
        )

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "n": self.n,
            "perm": list(self.perm),
            "exps": list(self.exps),
            "m1": self.m1,
            "m2": self.m2,
            "connected": self.connected,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CountKey":
        try:
            return cls(
                int(data["r"]),
                int(data["s"]),
                int(data["n"]),
                tuple(int(x) for x in data["perm"]),
                tuple(int(x) for x in data["exps"]),
                int(data["m1"]),
                None if data["m2"] is None else int(data["m2"]),
                bool(data["connected"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed count key: {exc}") from exc


@dataclass
class CountTable:
    """In-memory count store with provenance tracking and JSON-lines
    persistence.  Conflicting values for one key are rejected.  Inserts
    are serialized through a lock; readers see plain dict snapshots."""

    entries: dict = field(default_factory=dict)  # CountKey -> (int, set[str])
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def insert(self, key: CountKey, value: int, provenance: str) -> None:
        if value < 0:
            raise ValidationError(f"counts are nonnegative, got {value}")
        with self._lock:
            if key in self.entries:
                old_value, provs = self.entries[key]
                if old_value != value:
                    raise ConsistencyError(
                        f"conflicting counts for {key}: {old_value} ({sorted(provs)}) "
                        f"vs {value} ({provenance})"
                    )
                provs.add(provenance)
            else:
                self.entries[key] = (value, {provenance})

    def get(self, key: CountKey) -> Optional[int]:
        entry = self.entries.get(key)
        return entry[0] if entry else None

    def provenances(self, key: CountKey) -> set[str]:
        entry = self.entries.get(key)
        return set(entry[1]) if entry else set()

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path) -> None:
        """Merge this table into the file at `path`.  Under an exclusive
        lock on `<path>.lock`, the file as it is now is read back and
        merged with the conflict rule of `load`, so runs sharing one path
        keep each other's entries.  The result goes to a temporary file
        beside `path`, which is then renamed over `path`: a save that
        fails partway leaves the previous file intact."""
        path = os.fspath(path)
        with open(f"{path}.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            merged = CountTable.load(path) if os.path.exists(path) else CountTable()
            for key, (value, provs) in self.entries.items():
                for prov in provs:
                    try:
                        merged.insert(key, value, prov)
                    except ConsistencyError as exc:
                        raise CacheConflictError(f"{path}: {exc}") from exc
            merged._write(path)

    def _write(self, path: str) -> None:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for key in sorted(self.entries, key=lambda k: json.dumps(k.to_json())):
                    value, provs = self.entries[key]
                    for prov in sorted(provs):
                        record = {
                            "key": key.to_json(),
                            "value": str(value),
                            "provenance": prov,
                            "tool_version": _tool_version,
                        }
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "CountTable":
        table = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = CountKey.from_json(record["key"])
                    value = int(record["value"])
                    prov = str(record["provenance"])
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ValidationError(f"{path}:{lineno}: bad record: {exc}") from exc
                try:
                    table.insert(key, value, prov)
                except ConsistencyError as exc:
                    raise CacheConflictError(f"{path}:{lineno}: {exc}") from exc
        return table
