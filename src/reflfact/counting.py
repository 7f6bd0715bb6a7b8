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

All counts are arbitrary-precision integers.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import math
import os
import threading
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
from .indexing import GroupIndexer, class_count, class_key
from .kernels import encode_reflections

DEFAULT_MAX_DP_CELLS = 5 * 10**7


@dataclass(frozen=True)
class CountingLimits:
    """Budgets above which computations are refused instead of attempted."""

    max_dp_cells: int = DEFAULT_MAX_DP_CELLS


DEFAULT_LIMITS = CountingLimits()


@dataclass(frozen=True)
class Options:
    """Execution knobs shared by the counting entry points."""

    limits: CountingLimits = DEFAULT_LIMITS


DEFAULT_OPTIONS = Options()


def _check_cells(what: str, cells: int, params: GroupParams, m: int,
                 limits: CountingLimits) -> None:
    if cells > limits.max_dp_cells:
        raise ResourceLimitError(
            f"{what} over {params} up to m={m} needs {cells} cells "
            f"(limit {limits.max_dp_cells})"
        )


_dp_cache: dict = {}
_enum_cache: dict = {}
_connected_cache: dict = {}
_CACHE_SLOTS = 16


def clear_caches() -> None:
    _kernels_pure._classes.cache_clear()
    _dp_cache.clear()
    _enum_cache.clear()
    _connected_cache.clear()


def _cache_put(cache: dict, key, value):
    if len(cache) >= _CACHE_SLOTS:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def _dp_tables(params: GroupParams, m: int, kind: str, opts: Options):
    """Tables keyed by colored cycle type.  kind 'total': rounds[j][key]
    for j <= m (a cached table with more rounds serves too; one with
    fewer is extended from its last round); kind 'refined': table[m2][key]
    at round m."""
    _check_cells("class DP", class_count(params) * (m + 1), params, m, opts.limits)
    key = (params, kind) if kind == "total" else (params, kind, m)
    tables = _dp_cache.pop(key, None)
    if tables is None or len(tables) <= m:
        refl = encode_reflections(params)
        if kind == "total":
            tables = _kernels_pure.dp_total(params.r, params.s, params.n, refl, m, tables)
        else:
            tables = _kernels_pure.dp_refined(params.r, params.s, params.n, refl, m)
    return _cache_put(_dp_cache, key, tables)


def _enum_tables(params: GroupParams, m: int, opts: Options):
    """(total[m2][g], conn[m2][g]) over all m-tuples, dense over the group,
    from the component-partition DP."""
    _check_cells("connected DP", params.group_order() * (m + 1), params, m, opts.limits)
    key = (params, m)
    if key in _enum_cache:
        return _enum_cache[key]
    refl = encode_reflections(params)
    result = _kernels_pure.dp_components(
        params.r, params.s, params.n, refl, m, opts.limits.max_dp_cells
    )
    return _cache_put(_enum_cache, key, result)


def count_all(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """Number of m-tuples of reflections multiplying to w."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    rounds = _dp_tables(w.params, m, "total", opts)
    return rounds[m][class_key(w.perm, w.exps, w.params.r)]


def count_refined(
    w: GroupElement, m1: int, m2: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Number of (m1+m2)-tuples multiplying to w with exactly m2 diagonal
    factors (and m1 swap factors)."""
    if m1 < 0 or m2 < 0:
        raise ValidationError("m1 and m2 must be nonnegative")
    table = _dp_tables(w.params, m1 + m2, "refined", opts)
    return table[m2][class_key(w.perm, w.exps, w.params.r)]


def count_all_by_enum(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """count_all recomputed by the component-partition DP (cross-check
    path)."""
    total, _ = _enum_tables(w.params, m, opts)
    g = GroupIndexer(w.params).index_of(w)
    return sum(total[m2][g] for m2 in range(m + 1))


def count_connected_enum(
    w: GroupElement, m1: int, m2: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Connected refined count by the component-partition DP: the trusted
    oracle."""
    if m1 < 0 or m2 < 0:
        raise ValidationError("m1 and m2 must be nonnegative")
    _, conn = _enum_tables(w.params, m1 + m2, opts)
    return conn[m2][GroupIndexer(w.params).index_of(w)]


def count_connected_total_enum(
    w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Connected count over all diagonal/swap splits, by the
    component-partition DP."""
    _, conn = _enum_tables(w.params, m, opts)
    g = GroupIndexer(w.params).index_of(w)
    return sum(conn[m2][g] for m2 in range(m + 1))


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
    connected count is a class function too, so the cache is keyed by
    colored cycle type."""
    if m < 0:
        raise ValidationError("m must be nonnegative")

    def f_tilde(elem: GroupElement, mm: int) -> int:
        key = (elem.params, class_key(elem.perm, elem.exps, elem.params.r), mm)
        if key in _connected_cache:
            return _connected_cache[key]
        parts = partitions(elem)
        value = count_all(elem, mm, opts)
        for part in parts:
            if len(part.blocks) < 2:
                continue
            acc = [1 if j == 0 else 0 for j in range(mm + 1)]
            for block in part.blocks:
                sub = relabel_to_dense(elem, block)
                vec = [f_tilde(sub, j) for j in range(mm + 1)]
                acc = _binomial_convolve(acc, vec, mm)
            value -= acc[mm]
        _cache_put_connected(key, value)
        return value

    result = f_tilde(w, m)
    if table is not None:
        table.insert(CountKey.of(w, m1=m, m2=None, connected=True), result, "inversion")
    return result


def _cache_put_connected(key, value):
    if len(_connected_cache) > 200000:
        _connected_cache.clear()
    _connected_cache[key] = value


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
