"""The persistent count table: counts keyed by element, factor counts and
kind, with provenance, kept in a JSON-lines file that saves only append to
(`CountTable.save`), so its records are in append order.

This module loads no kernel, so a CLI count answered from its --cache
file runs no counting code.  `reflfact.counting` re-exports both names.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional

from . import __version__ as _tool_version
from .errors import CacheConflictError, ConsistencyError, ValidationError
from .groups import GroupElement, _Frozen, _set, json_count


def _digits(value: int) -> str:
    """str(value), also past the interpreter's int/str digit limit,
    which is left as it is."""
    try:
        return str(value)
    except ValueError:  # `decimal` converts ints of any size
        from decimal import Decimal
        return str(Decimal(value))


def _from_digits(text: str) -> int:
    """int(text) for ASCII digits, as `_digits` writes them."""
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal
        return int(Decimal(text))


class CountKey(_Frozen):
    """Identifies one cached count: the element, the factor counts m1 and
    m2, and `connected`.  m2 is None for totals over all splits (the key
    then means: m1 factors of any kind)."""

    __slots__ = _fields = ("element", "m1", "m2", "connected")

    def __init__(self, element: GroupElement, m1: int, m2: Optional[int], connected: bool):
        if element.__class__ is not GroupElement:
            raise ValidationError(f"expected a group element, got {element!r}")
        m2 = None if m2 is None else json_count(m2, "m2")
        m1 = json_count(m1, "m" if m2 is None else "m1")
        if connected.__class__ is not bool:
            raise ValidationError(f"expected true or false, got {connected!r}")
        _set(self, "element", element)
        _set(self, "m1", m1)
        _set(self, "m2", m2)
        _set(self, "connected", connected)

    def to_json(self) -> dict:
        counts = {"m1": self.m1, "m2": self.m2, "connected": self.connected}
        return {**self.element.to_json(), **counts}

    @classmethod
    def from_json(cls, data: dict) -> "CountKey":
        """A key as `to_json` writes it, its element read by `GroupElement.from_json`."""
        try:
            return cls(GroupElement.from_json(data), data["m1"], data["m2"], data["connected"])
        except KeyError as exc:
            raise ValidationError(f"malformed count key: missing field {exc}") from exc


class CountTable:
    """In-memory count store with provenance tracking and JSON-lines
    persistence.  Conflicting values for one key are rejected.  Inserts
    are serialized through a lock; readers see plain dict snapshots."""

    def __init__(self):
        self.entries = {}  # CountKey -> (int, set[str])
        self._lock = threading.Lock()

    def insert(self, key: CountKey, value: int, provenance: str) -> None:
        """Record the count `value` under `key`, by `provenance`: the one
        rule for every entry, which `load` and `save`'s merge go through."""
        json_count(value, "count")
        if key.__class__ is not CountKey:
            raise ValidationError(f"expected a count key, got {key!r}")
        if not isinstance(provenance, str):
            raise ValidationError(f"provenance must be a string, got {provenance!r}")
        with self._lock:
            if key in self.entries:
                old_value, provs = self.entries[key]
                if old_value != value:
                    raise ConsistencyError(
                        f"conflicting counts for {key}: {_digits(old_value)} "
                        f"({sorted(provs)}) vs {_digits(value)} ({provenance})"
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
        """Append to the file at `path` the records of this table it lacks.
        Under an exclusive lock on `<path>.lock`, the file is read back and
        merged with the conflict rule of `load`; a conflict raises
        CacheConflictError and leaves the file as it was.  The new records
        go at its end in one write (records are in append order); with none
        the file is untouched.  An unterminated last line, an append cut
        short, is cut off first, and so is a failed write.  A file that
        cannot be opened, read or written raises ValidationError."""
        import fcntl  # only a save locks: a cache hit never loads it

        path = os.fspath(path)
        try:
            with open(f"{path}.lock", "a") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                held = CountTable.load(path) if os.path.exists(path) else CountTable()
                lines = []
                for key, (value, provs) in self.entries.items():
                    new = provs - held.provenances(key)
                    for prov in provs:
                        try:
                            held.insert(key, value, prov)
                        except ConsistencyError as exc:
                            raise CacheConflictError(f"{path}: {exc}") from exc
                    record = {"key": key.to_json(), "value": _digits(value),
                              "tool_version": _tool_version}
                    lines += (json.dumps({**record, "provenance": prov}, sort_keys=True) + "\n"
                              for prov in new)
                if not lines:
                    return
                data = "".join(sorted(lines)).encode("ascii")
                with open(path, "a+b", buffering=0) as fh:
                    end = fh.seek(0, os.SEEK_END)
                    if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
                        end = os.pread(fh.fileno(), end, 0).rfind(b"\n") + 1
                        fh.truncate(end)
                    try:
                        if os.write(fh.fileno(), data) != len(data):
                            raise OSError(f"wrote part of {len(data)} bytes")
                    except BaseException:
                        fh.truncate(end)
                        raise
        except OSError as exc:
            raise ValidationError(f"cannot save count cache {path}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "CountTable":
        """The table held in the file at `path`, but for an unterminated last
        line: an append cut short, which the next save cuts off.  Any other
        malformed record, or a file that cannot be opened or decoded as
        UTF-8, raises ValidationError; two values for one key, CacheConflictError."""
        table = cls()
        try:
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.endswith(b"\n"):
                        break  # an unterminated last line: an append cut short
                    line = line.decode("utf-8").strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        key = CountKey.from_json(record["key"])
                        value = record["value"]
                        if not (isinstance(value, str) and value.isascii() and value.isdigit()):
                            raise ValueError(f"value must be ASCII digits, got {value!r}")
                        table.insert(key, _from_digits(value), record["provenance"])
                    except ConsistencyError as exc:
                        raise CacheConflictError(f"{path}:{lineno}: {exc}") from exc
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                        raise ValidationError(f"{path}:{lineno}: bad record: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read count cache {path}: {exc}") from exc
        return table
