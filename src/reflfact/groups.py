"""Exact arithmetic for the wreath-like reflection groups G(r,s,n).

An element is a generalized permutation matrix: it sends basis vector
v_i to zeta^(exps[i]) * v_(perm[i]), where zeta = exp(2*pi*i/r).  We
never touch complex numbers; everything is the permutation plus the
integer exponent vector reduced mod r, subject to sum(exps) = 0 mod s.

Vertex indices are 1-based everywhere in the public API (including
JSON); internal helpers use 0-based tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

_set = object.__setattr__


class _Frozen:
    """Immutable slotted value, the package's one value idiom: attributes
    are set once, in __init__, and assigning or deleting one raises
    `dataclasses.FrozenInstanceError`.  As a frozen dataclass's do, the
    constructor takes `_fields` by position or by name (a field given
    neither way from `_defaults`; a missing, extra, unknown or repeated
    one raises TypeError), equality holds only within one class, and hash
    and repr go over the fields.  A class that checks or derives fields
    defines its own __init__.  Copies and pickles call the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *values, **named):
        where, fields = f"{self.__class__.__qualname__}()", self._fields
        if len(values) > len(fields):
            raise TypeError(f"{where} takes {len(fields)} fields, got {len(values)}")
        given = dict(zip(fields, values))
        for name in named:
            if name not in fields or name in given:
                raise TypeError(f"{where} got an unknown or repeated field {name!r}")
        given = {**self._defaults, **given, **named}
        for name in fields:
            if name not in given:
                raise TypeError(f"{where} missing field {name!r}")
            _set(self, name, given[name])

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the fields as one tuple, read in C; for a single name attrgetter
        # gives the bare value, which hashes differently
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


_INT = frozenset((int,))


def json_int(value) -> int:
    """`value` if it is a JSON integer; a bool, float or string is refused,
    not coerced."""
    if value.__class__ is not int:
        raise ValidationError(f"expected an integer, got {value!r}")
    return value


def json_count(value, name: str) -> int:
    """`value` if it is a nonnegative JSON integer, as `json_int` reads
    one: the one rule for a factor count, a series order, a budget and a
    cached count.  `name` names the value in the refusal of a negative
    one."""
    if value.__class__ is not int or value < 0:
        json_int(value)  # a bool, float or string is refused as json_int refuses it
        raise ValidationError(f"{name} must be nonnegative, got {value}")
    return value


DEFAULT_MAX_DP_CELLS = 5 * 10**7


def cell_budget(max_dp_cells) -> int:
    """The cells a DP's kept rounds may hold: max_dp_cells, read by
    `json_count`, or DEFAULT_MAX_DP_CELLS for None.  The one reader of the
    budget, which `counting._rounds` calls before every count and the CLI
    before a cache lookup, so a count read from a cache file is refused
    as the count itself would be."""
    if max_dp_cells is None:
        return DEFAULT_MAX_DP_CELLS
    return json_count(max_dp_cells, "max_dp_cells")


def _json_list(values, size: int, field: str) -> list:
    """`values` if it is a JSON list of `size` entries."""
    if not isinstance(values, list) or len(values) != size:
        raise ValidationError(f"'{field}' must be a list of {size} integers, got {values!r}")
    return values


class GroupParams(_Frozen):
    """The triple (r, s, n) with s | r; fixes one group G(r,s,n)."""

    __slots__ = ("r", "s", "n", "q", "triple")
    _fields = ("r", "s", "n")

    def __init__(self, r: int, s: int, n: int):
        r, s, n = map(json_int, (r, s, n))
        if r < 1 or s < 1 or n < 1:
            raise ValidationError(
                f"r, s, n must be positive, got GroupParams(r={r!r}, s={s!r}, n={n!r})"
            )
        if r % s != 0:
            raise ValidationError(f"s must divide r, got r={r}, s={s}")
        _set(self, "r", r)
        _set(self, "s", s)
        _set(self, "n", n)
        # order r/s of the cyclic group the entry product lands in
        _set(self, "q", r // s)
        # the triple as a tuple, which hashes and compares in C
        _set(self, "triple", (r, s, n))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.triple == other.triple

    def __hash__(self):
        return hash(self.triple)

    def group_order(self) -> int:
        return math.factorial(self.n) * self.r**self.n // self.s

    def reflection_count(self) -> int:
        return (self.n * (self.n - 1) // 2) * self.r + self.n * (self.q - 1)

    def to_json(self) -> dict:
        """{"r", "s", "n"}: the one writer of a group in JSON."""
        return {"r": self.r, "s": self.s, "n": self.n}


@functools.lru_cache(maxsize=64)
def _vertices(n: int) -> frozenset:
    """{1, ..., n}, built once per n, and only for an element of that length."""
    return frozenset(range(1, n + 1))


class GroupElement(_Frozen):
    """A group element as (perm, exps): v_i -> zeta^exps[i] v_perm[i].
    Every construction is validated; perm and exps are kept as tuples.
    Each rule reads one part only, so `indexing.GroupIndexer`'s sweep
    checks each permutation and each exponent vector once, by building
    an element from it, and pairs the checked parts through
    `_from_checked_parts`, with the class key it found for them.  The
    class key sits in a slot outside the fields, so equality, hash,
    repr, JSON, pickles and copies do not see it."""

    __slots__ = ("params", "perm", "exps", "_key")
    _fields = ("params", "perm", "exps")

    def __init__(self, params: GroupParams, perm: tuple[int, ...], exps: tuple[int, ...]):
        r, s, n = params.triple
        try:
            perm, exps = tuple(perm), tuple(exps)
        except TypeError as exc:
            raise ValidationError(f"perm, exps must be sequences, got {perm!r}, {exps!r}") from exc
        if len(perm) != n or len(exps) != n:
            raise ValidationError(f"perm/exps must have length n={n}")
        # one rule for every entry: an int, as `json_int` reads one; a bool,
        # float or Fraction would pass the compares below as the int it equals
        ints = _INT.issuperset(map(type, perm + exps))
        # n ints that cover 1..n: a bijection
        if not (ints or _INT.issuperset(map(type, perm))) or frozenset(perm) != _vertices(n):
            raise ValidationError(f"perm is not a bijection of 1..{n}: {perm}")
        if not ints or min(exps) < 0 or max(exps) >= r:
            raise ValidationError(f"exponents must lie in [0,{r}): {exps}")
        total = sum(exps)
        if total % s != 0:
            raise ValidationError(f"exponent sum {total} not divisible by s={s}")
        _set(self, "params", params)
        _set(self, "perm", perm)  # 1-based images
        _set(self, "exps", exps)

    @classmethod
    def _from_checked_parts(cls, params: GroupParams, perm: tuple, exps: tuple, key: tuple):
        """The element (perm, exps) of `params`, with class key `key`, built
        without a check: perm and exps must each be taken from an element
        of `params` that passed __init__, and key must be their
        `class_key`."""
        self = object.__new__(cls)
        _set_params(self, params)
        _set_perm(self, perm)
        _set_exps(self, exps)
        _set_key(self, key)
        return self

    @property
    def class_key(self) -> tuple[tuple[int, int], ...]:
        """The colored cycle type, by `class_key`: computed on first use
        and kept, or given by the sweep that built the element."""
        try:
            return self._key
        except AttributeError:
            _set(self, "_key", class_key(self.perm, self.exps, self.params.r))
            return self._key

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def apply(self, i: int) -> tuple[int, int]:
        """Image of basis vector i: the pair (perm[i], exps[i])."""
        if not 1 <= json_int(i) <= self.params.n:
            raise ValidationError(f"vertex index {i} out of range 1..{self.params.n}")
        return self.perm[i - 1], self.exps[i - 1]

    def inverse(self) -> "GroupElement":
        n, r = self.params.n, self.params.r
        perm = [0] * n
        exps = [0] * n
        for i in range(n):
            j = self.perm[i] - 1
            perm[j] = i + 1
            exps[j] = (-self.exps[i]) % r
        return GroupElement(self.params, tuple(perm), tuple(exps))

    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(self.params.n)) and not any(
            self.exps
        )

    def to_json(self) -> dict:
        return {**self.params.to_json(), "perm": list(self.perm), "exps": list(self.exps)}

    @classmethod
    def from_json(cls, data: dict, params: GroupParams | None = None) -> "GroupElement":
        """Parse {"perm": ..., "exps": ...}, with r/s/n from `params` or the JSON itself."""
        if not isinstance(data, dict):
            raise ValidationError(f"element JSON must be an object, got {type(data)}")
        if params is None:
            try:
                params = GroupParams(*(data[name] for name in ("r", "s", "n")))
            except KeyError as exc:
                raise ValidationError(f"element JSON missing field {exc}") from exc
        else:
            for name, want in (("r", params.r), ("s", params.s), ("n", params.n)):
                if name in data and json_int(data[name]) != want:
                    raise ValidationError(
                        f"element JSON has {name}={data[name]} but expected {want}"
                    )
        try:
            perm = tuple(json_int(x) for x in data["perm"])
            exps = tuple(json_int(x) for x in data["exps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed element JSON: {exc}") from exc
        return cls(params, perm, exps)


# the slots' own setters, for `GroupElement._from_checked_parts`, which
# builds every element of a sweep: they skip the name lookup that
# object.__setattr__ makes
_set_params, _set_perm, _set_exps, _set_key = (
    getattr(GroupElement, name).__set__ for name in GroupElement.__slots__
)


def identity(params: GroupParams) -> GroupElement:
    return GroupElement(params, tuple(range(1, params.n + 1)), (0,) * params.n)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Composition acting as v_i -> a(b(v_i)); b is applied first."""
    if a.params != b.params:
        raise ValidationError(f"parameter mismatch: {a.params} vs {b.params}")
    n, r = a.params.n, a.params.r
    perm = tuple(a.perm[b.perm[i] - 1] for i in range(n))
    exps = tuple((b.exps[i] + a.exps[b.perm[i] - 1]) % r for i in range(n))
    return GroupElement(a.params, perm, exps)


def product(factors: Iterable[GroupElement], params: GroupParams) -> GroupElement:
    """Evaluate a word (f_1, ..., f_m) as f_m * ... * f_1 (rightmost applied first)."""
    acc = identity(params)
    for f in factors:
        acc = multiply(f, acc)
    return acc


def permutation_part(w: GroupElement) -> GroupElement:
    """Forget the root-of-unity entries: the image in G(1,1,n) = S_n."""
    return GroupElement(GroupParams(1, 1, w.params.n), w.perm, (0,) * w.params.n)


def entry_product(w: GroupElement) -> int:
    """Exponent t in [0, r/s) such that the product of the nonzero
    entries equals the t-th power of the primitive (r/s)-th root of unity."""
    s, q = w.params.s, w.params.q
    return (sum(w.exps) // s) % q


def is_trivial_product(w: GroupElement) -> bool:
    """Whether the product of the nonzero entries equals 1."""
    return entry_product(w) == 0


class CycleType(_Frozen):
    """Multiset of cycle lengths of the underlying permutation: a tuple of
    positive ints, as `json_int` reads one, in descending order, given as
    any sequence."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: Sequence[int]):
        if not isinstance(parts, Sequence):
            raise ValidationError(f"cycle type must be a sequence of lengths, got {parts!r}")
        parts = tuple(parts)
        if any(json_int(p) < 1 for p in parts):
            raise ValidationError(f"cycle lengths must be positive: {parts}")
        if tuple(sorted(parts, reverse=True)) != parts:
            raise ValidationError(f"parts must be sorted descending: {parts}")
        _set(self, "parts", parts)

    @property
    def ell(self) -> int:
        """Number of cycles."""
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @classmethod
    def of(cls, parts: Iterable[int]) -> "CycleType":
        return cls(sorted(parts, reverse=True))


def class_key(perm, exps, r: int) -> tuple[tuple[int, int], ...]:
    """Colored cycle type of the element (perm, exps), perm a 1-based
    permutation: the sorted (length, color) pairs of its cycles, a
    cycle's color being the sum of its exponents mod r.  It names the
    element's G(r,1,n)-conjugacy class.  The one rule: an element keeps
    its key as `GroupElement.class_key`, and `indexing.GroupIndexer`'s
    sweep calls this once per sequence of cycle lengths and tuple of
    cycle colors."""
    seen = [False] * len(perm)
    key = []
    for start, i in enumerate(perm):
        if seen[start]:
            continue
        length, color = 1, exps[start]
        i -= 1
        while i != start:
            seen[i] = True
            length += 1
            color += exps[i]
            i = perm[i] - 1
        key.append((length, color % r))
    key.sort()
    return tuple(key)


def permutation_cycles(w: GroupElement) -> list[tuple[int, ...]]:
    """Cycles of the underlying permutation, each starting at its minimal
    vertex, ordered by that minimum."""
    n = w.params.n
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i + 1)
            i = w.perm[i] - 1
        cycles.append(tuple(cyc))
    return cycles


def cycle_type(w: GroupElement) -> CycleType:
    return CycleType.of(len(c) for c in permutation_cycles(w))


class Reflection(_Frozen):
    """One reflection generator.

    A swap (i < j) transposes coordinates i and j with twist k,
    0 <= k < r: v_i -> zeta^k v_j, v_j -> zeta^(-k) v_i.  A diagonal
    (i == j) scales coordinate i by zeta^(s*k), 0 < k < r/s; these
    exist only when s < r.
    """

    __slots__ = _fields = ("params", "i", "j", "k")  # j == i marks a diagonal

    def __init__(self, params: GroupParams, i: int, j: int, k: int):
        i, j, k = map(json_int, (i, j, k))
        _set(self, "params", params)
        _set(self, "i", i)
        _set(self, "j", j)
        _set(self, "k", k)
        # the messages show the reflection, so it is checked once built
        if not 1 <= i <= params.n or not 1 <= j <= params.n:
            raise ValidationError(f"reflection vertices out of range: {self}")
        if i == j:
            if not 0 < k < params.q:
                raise ValidationError(
                    f"diagonal label must satisfy 0 < k < r/s={params.q}: {self}"
                )
        else:
            if i > j:
                raise ValidationError(f"swap must have i < j: {self}")
            if not 0 <= k < params.r:
                raise ValidationError(f"swap label must satisfy 0 <= k < r={params.r}: {self}")

    @property
    def is_diagonal(self) -> bool:
        return self.i == self.j

    def to_element(self) -> GroupElement:
        p = self.params
        perm = list(range(1, p.n + 1))
        exps = [0] * p.n
        if self.is_diagonal:
            exps[self.i - 1] = (p.s * self.k) % p.r
        else:
            perm[self.i - 1], perm[self.j - 1] = self.j, self.i
            exps[self.i - 1] = self.k
            exps[self.j - 1] = (-self.k) % p.r
        return GroupElement(p, tuple(perm), tuple(exps))

    def to_json(self) -> dict:
        if self.is_diagonal:
            return {"diag": [self.i, self.k]}
        return {"swap": [self.i, self.j, self.k]}

    @classmethod
    def from_json(cls, data: dict, params: GroupParams) -> "Reflection":
        if not isinstance(data, dict):
            raise ValidationError(f"reflection JSON must be an object: {data!r}")
        if "swap" in data:
            return cls(params, *_json_list(data["swap"], 3, "swap"))
        if "diag" in data:
            i, k = _json_list(data["diag"], 2, "diag")
            return cls(params, i, i, k)
        raise ValidationError(f"reflection JSON needs 'swap' or 'diag': {data!r}")


def reflections(params: GroupParams) -> list[Reflection]:
    """The full generating set, swaps first (by i, j, k) then diagonals (by i, k)."""
    out = [
        Reflection(params, i, j, k)
        for i in range(1, params.n + 1)
        for j in range(i + 1, params.n + 1)
        for k in range(params.r)
    ]
    out.extend(
        Reflection(params, i, i, k)
        for i in range(1, params.n + 1)
        for k in range(1, params.q)
    )
    return out


class ElementPartition(_Frozen):
    """A set partition of the vertices into unions of cycles, `blocks` (a
    tuple of sorted vertex tuples), together with `restrictions`, the
    element restricted to each block (identity off-block)."""

    __slots__ = _fields = ("blocks", "restrictions")


def restrict_to_block(w: GroupElement, block: Sequence[int]) -> GroupElement:
    """The element acting as w on `block` and as the identity elsewhere.

    `block` must be closed under the underlying permutation."""
    n = w.params.n
    inside = set(block)
    perm = []
    exps = []
    for i in range(1, n + 1):
        if i in inside:
            if w.perm[i - 1] not in inside:
                raise ValidationError(f"block {block} not invariant at vertex {i}")
            perm.append(w.perm[i - 1])
            exps.append(w.exps[i - 1])
        else:
            perm.append(i)
            exps.append(0)
    return GroupElement(w.params, tuple(perm), tuple(exps))


def _set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions, blocks ordered by first appearance."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + [list(b) for b in sub]
        for i in range(len(sub)):
            yield [list(b) if j != i else [first] + list(b) for j, b in enumerate(sub)]


def partitions(w: GroupElement) -> list[ElementPartition]:
    """All partitions of w: groupings of its cycles whose block restrictions
    each satisfy the mod-s exponent condition on their own support."""
    s = w.params.s
    cycles = permutation_cycles(w)
    out = []
    for grouping in _set_partitions(cycles):
        blocks = []
        ok = True
        for group in grouping:
            verts = tuple(sorted(itertools.chain.from_iterable(group)))
            if sum(w.exps[v - 1] for v in verts) % s != 0:
                ok = False
                break
            blocks.append(verts)
        if not ok:
            continue
        blocks.sort()
        restrictions = tuple(restrict_to_block(w, b) for b in blocks)
        out.append(ElementPartition(tuple(blocks), restrictions))
    return out
