"""Group arithmetic, homomorphisms, reflections, and element partitions."""

import copy
import dataclasses
import json
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from reflfact import (
    CycleType,
    GroupElement,
    GroupParams,
    Reflection,
    ValidationError,
    cycle_type,
    entry_product,
    identity,
    is_trivial_product,
    multiply,
    partitions,
    permutation_part,
    product,
    reflections,
)
from reflfact.groups import permutation_cycles, restrict_to_block

from conftest import all_elements, fold_product, random_element, relabel_to_dense

CONFIGS = [(1, 1, 3), (2, 1, 2), (2, 2, 2), (6, 2, 4), (4, 4, 3), (3, 1, 2)]


def test_params_validation():
    with pytest.raises(ValidationError):
        GroupParams(2, 3, 2)  # s does not divide r
    with pytest.raises(ValidationError):
        GroupParams(0, 1, 2)
    with pytest.raises(ValidationError):
        GroupParams(2, 1, 0)  # n = 0 rejected everywhere
    assert GroupParams(6, 2, 4).q == 3
    assert GroupParams(6, 2, 4).group_order() == 6**4 * 24 // 2


def test_identity_examples():
    assert identity(GroupParams(1, 1, 3)).perm == (1, 2, 3)
    assert identity(GroupParams(1, 1, 3)).exps == (0, 0, 0)
    e = identity(GroupParams(6, 2, 4))
    assert e.perm == (1, 2, 3, 4) and e.exps == (0, 0, 0, 0)
    assert sum(identity(GroupParams(2, 2, 2)).exps) % 2 == 0


def test_element_invariants_enforced():
    p = GroupParams(2, 1, 2)
    with pytest.raises(ValidationError):
        GroupElement(p, (1, 1), (0, 0))  # not a bijection
    with pytest.raises(ValidationError):
        GroupElement(p, (1, 2), (0, 2))  # exponent out of range
    for exps in ((0.5, 0.5), (1.0, 1.0), (Fraction(1, 2), Fraction(3, 2))):
        with pytest.raises(ValidationError):
            GroupElement(p, (1, 2), exps)  # in range, but not ints
    with pytest.raises(ValidationError):
        GroupElement(GroupParams(2, 2, 2), (1, 2), (1, 0))  # sum not 0 mod s


@pytest.mark.parametrize(
    "perm,exps,message",
    [
        ((1, 1, 3), (0, 0, 0), "perm is not a bijection of 1..3: (1, 1, 3)"),  # duplicate
        ((1, 2, 4), (0, 0, 0), "perm is not a bijection of 1..3: (1, 2, 4)"),  # out of range
        ((0, 1, 2), (0, 0, 0), "perm is not a bijection of 1..3: (0, 1, 2)"),
        ((1, 2), (0, 0, 0), "perm/exps must have length n=3"),
        ((1, 2, 3), (0, 0), "perm/exps must have length n=3"),
        ((1, 2, 3), (-1, 1, 0), "exponents must lie in [0,4): (-1, 1, 0)"),
        ((1, 2, 3), (4, 0, 0), "exponents must lie in [0,4): (4, 0, 0)"),
        ((1, 2, 3), (1, 0, 0), "exponent sum 1 not divisible by s=2"),
        # equal to ints, so the set compare alone would take them
        ((2.0, 3.0, 1.0), (0, 0, 0), "perm is not a bijection of 1..3: (2.0, 3.0, 1.0)"),
        ((1, Fraction(2), 3), (0, 0, 0), "perm is not a bijection of 1..3: (1, Fraction(2, 1), 3)"),
        (("1", "2", "3"), (0, 0, 0), "perm is not a bijection of 1..3: ('1', '2', '3')"),
    ],
)
def test_every_construction_is_validated(perm, exps, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        GroupElement(GroupParams(4, 2, 3), perm, exps)


def test_large_n_costs_nothing_before_the_length_check():
    # a group of 10**6 points is a triple until an element of that length
    # is checked against it
    tracemalloc.start()
    try:
        params = GroupParams(1, 1, 10**6)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ValidationError, match="length"):
            GroupElement.from_json({"perm": [1], "exps": [0]}, params)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < 2**20 and check_peak < 2**20


def test_params_and_elements_are_immutable_values():
    p = GroupParams(4, 2, 3)
    w = GroupElement(p, (3, 1, 2), (3, 2, 1))
    assert repr(w) == (
        "GroupElement(params=GroupParams(r=4, s=2, n=3), perm=(3, 1, 2), exps=(3, 2, 1))"
    )
    for obj, name in ((p, "r"), (p, "q"), (w, "perm"), (w, "other")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    q = GroupParams(4, 2, 3)
    assert q == p and q is not p and hash(q) == hash(p)
    assert GroupParams(1, 1, 2) != (1, 1, 2) and GroupParams(1, 1, 2) != GroupParams(2, 1, 1)
    v = GroupElement(q, (3, 1, 2), (3, 2, 1))
    assert v == w and hash(v) == hash(w) and v != GroupElement(p, (3, 1, 2), (1, 0, 1))
    assert v != (p, (3, 1, 2), (3, 2, 1))
    for clone in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert clone == w
    assert len({p, q, GroupParams(2, 1, 3)}) == 2


def test_seven_factor_product(reference_tuple):
    p = reference_tuple[0].params
    w = fold_product(reference_tuple, p)
    assert w.perm == (2, 4, 1, 3)
    assert w.exps == (1, 3, 4, 4)
    # apply: column reads of the same matrix
    assert w.apply(1) == (2, 1)
    assert w.apply(4) == (3, 4)
    with pytest.raises(ValidationError):
        w.apply(5)
    # homomorphism values on it
    assert permutation_part(w).perm == (2, 4, 1, 3)
    assert entry_product(w) == 0
    assert is_trivial_product(w)
    assert cycle_type(w) == CycleType((4,))


def test_multiply_identity_and_involution():
    p = GroupParams(2, 1, 2)
    swap = Reflection(p, 1, 2, 1).to_element()
    assert multiply(identity(p), swap) == swap
    assert multiply(swap, swap) == identity(p)
    # `*` is `multiply`: the right factor acts first
    diag = GroupElement(p, (1, 2), (1, 0))
    assert swap * diag == multiply(swap, diag) != diag * swap


def test_apply_identity():
    p = GroupParams(3, 1, 3)
    e = identity(p)
    for i in (1, 2, 3):
        assert e.apply(i) == (i, 0)


def test_entry_product_examples():
    p = GroupParams(6, 2, 4)
    tau1 = Reflection(p, 1, 1, 1).to_element()  # scales v_1 by zeta_6^2
    assert tau1.exps == (2, 0, 0, 0)
    assert entry_product(tau1) == 1
    assert not is_trivial_product(tau1)
    assert entry_product(identity(p)) == 0


def test_projection_homomorphisms_random():
    rng = random.Random(101)
    for r, s, n in CONFIGS:
        p = GroupParams(r, s, n)
        for _ in range(40):
            a = random_element(p, rng)
            b = random_element(p, rng)
            ab = multiply(a, b)
            assert permutation_part(ab) == multiply(
                permutation_part(a), permutation_part(b)
            )
            assert sum(ab.exps) % r == (sum(a.exps) + sum(b.exps)) % r
            assert entry_product(ab) == (entry_product(a) + entry_product(b)) % p.q


def test_group_axioms_random():
    rng = random.Random(202)
    for r, s, n in CONFIGS:
        p = GroupParams(r, s, n)
        e = identity(p)
        for _ in range(25):
            a, b, c = (random_element(p, rng) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, e) == a and multiply(e, a) == a
            assert multiply(a, a.inverse()) == e
            assert multiply(a.inverse(), a) == e
            # closure invariants are revalidated by the constructor
            multiply(a, b)


def test_cycle_type_examples():
    p = GroupParams(2, 1, 3)
    assert cycle_type(identity(p)) == CycleType((1, 1, 1))
    swap = Reflection(p, 1, 2, 0).to_element()
    assert cycle_type(swap) == CycleType((2, 1))
    assert CycleType((2, 1)).ell == 2 and CycleType((2, 1)).n == 3
    with pytest.raises(ValidationError):
        CycleType((1, 2))  # not descending


def test_refusals_of_elements_cycle_types_and_reflections():
    p = GroupParams(2, 1, 2)
    for data in ([[2, 1], [0, 1]], "perm", None):
        with pytest.raises(ValidationError, match="^element JSON must be an object"):
            GroupElement.from_json(data)
    for missing in ("r", "s", "n"):
        data = {"r": 2, "s": 1, "n": 2, "perm": [2, 1], "exps": [0, 1]}
        del data[missing]
        with pytest.raises(ValidationError, match=f"^element JSON missing field '{missing}'$"):
            GroupElement.from_json(data)
    with pytest.raises(ValidationError, match="^parameter mismatch: "):
        multiply(identity(p), identity(GroupParams(2, 2, 2)))
    for parts in ((2, 0), (0,), (1, -1)):
        with pytest.raises(ValidationError, match="^cycle lengths must be positive"):
            CycleType(parts)
    for data in ([1, 2, 0], "swap", None):
        with pytest.raises(ValidationError, match="^reflection JSON must be an object"):
            Reflection.from_json(data, p)


def test_restriction_refuses_a_block_that_is_not_invariant():
    p = GroupParams(2, 1, 3)
    w = Reflection(p, 1, 2, 1).to_element()  # swaps vertices 1 and 2
    assert restrict_to_block(w, (1, 2)) == w
    with pytest.raises(ValidationError, match=r"^block \(1, 3\) not invariant at vertex 1$"):
        restrict_to_block(w, (1, 3))


def test_reflection_counts():
    assert len(reflections(GroupParams(6, 2, 4))) == 44
    assert len(reflections(GroupParams(1, 1, 3))) == 3
    refs222 = reflections(GroupParams(2, 2, 2))
    assert len(refs222) == 2
    assert all(not ref.is_diagonal for ref in refs222)
    for params in (GroupParams(r, s, n) for r, s, n in CONFIGS):
        refs = reflections(params)
        assert len(refs) == params.reflection_count()
        assert len(set(refs)) == len(refs)


def test_reflections_are_reflections():
    # finite order and a fixed subspace of codimension one: rank(M - I) == 1
    numpy = pytest.importorskip("numpy")
    for r, s, n in CONFIGS:
        p = GroupParams(r, s, n)
        for ref in reflections(p):
            el = ref.to_element()
            # order: swaps square to the identity, diagonals have order q/gcd
            power = el
            order = 1
            while not power.is_identity():
                power = multiply(power, el)
                order += 1
                assert order <= 2 * p.r
            matrix = numpy.zeros((n, n), dtype=complex)
            for i in range(1, n + 1):
                img, e = el.apply(i)
                matrix[img - 1, i - 1] = numpy.exp(2j * numpy.pi * e / p.r)
            rank = numpy.linalg.matrix_rank(matrix - numpy.eye(n))
            assert rank == 1


def test_reflection_ordering_deterministic():
    p = GroupParams(4, 2, 3)
    refs = reflections(p)
    swaps = [(ref.i, ref.j, ref.k) for ref in refs if not ref.is_diagonal]
    diags = [(ref.i, ref.k) for ref in refs if ref.is_diagonal]
    assert swaps == sorted(swaps)
    assert diags == sorted(diags)
    assert all(not ref.is_diagonal for ref in refs[: len(swaps)])


def test_reflection_validation():
    p = GroupParams(2, 2, 2)
    with pytest.raises(ValidationError):
        Reflection(p, 1, 1, 1)  # diagonals need s < r
    with pytest.raises(ValidationError):
        Reflection(p, 2, 1, 0)  # i < j required
    with pytest.raises(ValidationError):
        Reflection(p, 1, 2, 2)  # label out of range


def test_partitions_identity_s2():
    p = GroupParams(1, 1, 2)
    parts = partitions(identity(p))
    blocks = sorted(pt.blocks for pt in parts)
    assert blocks == [((1,), (2,)), ((1, 2),)]


def test_partitions_long_cycle_single_block():
    p = GroupParams(6, 2, 4)
    w = GroupElement(p, (2, 4, 1, 3), (1, 3, 4, 4))
    parts = partitions(w)
    assert len(parts) == 1
    assert parts[0].blocks == ((1, 2, 3, 4),)
    assert parts[0].restrictions[0] == w


def test_partitions_mod_s_filter():
    # diag(zeta, zeta) in G(2,1,2): both groupings allowed since s=1
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (1, 2), (1, 1))
    assert len(partitions(w)) == 2
    # same matrix in G(2,2,2): singletons have exponent sum 1, not 0 mod 2
    p22 = GroupParams(2, 2, 2)
    w22 = GroupElement(p22, (1, 2), (1, 1))
    parts = partitions(w22)
    assert len(parts) == 1 and parts[0].blocks == ((1, 2),)


def test_partition_restrictions_multiply_back():
    rng = random.Random(303)
    for r, s, n in [(1, 1, 4), (2, 1, 3), (2, 2, 3), (6, 2, 3)]:
        p = GroupParams(r, s, n)
        for _ in range(10):
            w = random_element(p, rng)
            for part in partitions(w):
                acc = identity(p)
                for restriction in part.restrictions:
                    acc = multiply(acc, restriction)
                assert acc == w
                # blocks are unions of cycles
                cycle_sets = [frozenset(c) for c in permutation_cycles(w)]
                for block in part.blocks:
                    bs = set(block)
                    assert bs == set().union(
                        *(c for c in cycle_sets if c <= bs)
                    )
                    assert sum(w.exps[v - 1] for v in block) % s == 0


def test_relabel_to_dense():
    p = GroupParams(2, 1, 4)
    # 3-cycle on {2,3,4} with an exponent
    w = GroupElement(p, (1, 3, 4, 2), (0, 1, 0, 1))
    sub = relabel_to_dense(w, (2, 3, 4))
    assert sub.params.n == 3
    assert sub.perm == (2, 3, 1)
    assert sub.exps == (1, 0, 1)
    with pytest.raises(ValidationError):
        relabel_to_dense(w, (1, 2))  # not invariant


def test_element_json_roundtrip():
    rng = random.Random(404)
    for r, s, n in CONFIGS:
        p = GroupParams(r, s, n)
        w = random_element(p, rng)
        data = json.loads(json.dumps(w.to_json()))
        assert GroupElement.from_json(data) == w
        assert GroupElement.from_json({"perm": list(w.perm), "exps": list(w.exps)}, p) == w
    with pytest.raises(ValidationError):
        GroupElement.from_json({"perm": [1, 2], "exps": [0, 0], "r": 3}, GroupParams(2, 1, 2))
    for data in (
        {"perm": [2, 1], "exps": [0, 1.0], "r": 2, "s": 1, "n": 2},
        {"perm": [2, 1], "exps": [0, 1], "r": 2, "s": True, "n": 2},
        {"perm": [2, 1], "exps": [0, 1], "r": 2, "s": 1, "n": "2"},
    ):
        with pytest.raises(ValidationError, match="expected an integer"):
            GroupElement.from_json(data)


def test_reflection_json_roundtrip():
    p = GroupParams(6, 2, 4)
    for ref in reflections(p):
        assert Reflection.from_json(ref.to_json(), p) == ref
    assert Reflection.from_json({"swap": [1, 2, 3]}, p) == Reflection(p, 1, 2, 3)
    assert Reflection.from_json({"diag": [2, 1]}, p) == Reflection(p, 2, 2, 1)
    with pytest.raises(ValidationError):
        Reflection.from_json({"twist": [1]}, p)
    # JSON integers are not coerced from floats, bools or strings
    for data in ({"swap": [1, 2, 3.0]}, {"swap": [1, True, 3]}, {"diag": ["2", 1]}):
        with pytest.raises(ValidationError, match="expected an integer"):
            Reflection.from_json(data, p)
    # a field of the wrong shape is refused before it is unpacked
    for data in ({"swap": [1, 2]}, {"swap": [1, 2, 3, 4]}, {"diag": 5}):
        with pytest.raises(ValidationError, match="must be a list of"):
            Reflection.from_json(data, p)


def test_exhaustive_small_group_closure():
    p = GroupParams(2, 2, 2)
    elements = list(all_elements(p))
    assert len(elements) == p.group_order() == 4
    for a in elements:
        for b in elements:
            assert multiply(a, b) in elements


def test_word_evaluation_order():
    # product() must apply the first listed factor first
    p = GroupParams(1, 1, 3)
    s12 = Reflection(p, 1, 2, 0).to_element()
    s23 = Reflection(p, 2, 3, 0).to_element()
    w = product([s12, s23], p)  # s23 . s12
    assert w.perm == (3, 1, 2) == multiply(s23, s12).perm
