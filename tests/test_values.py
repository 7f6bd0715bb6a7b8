"""The package's immutable value classes, and its lazily resolved namespace."""

import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import pytest

import reflfact
from reflfact.counting import CountKey, CountTable, count_all, count_refined
from reflfact.errors import ValidationError
from reflfact.graphs import DecoratedGraph, Walk, graph_of_tuple
from reflfact.groups import (
    CycleType,
    ElementPartition,
    GroupElement,
    GroupParams,
    Reflection,
    identity,
    reflections,
)
from reflfact.indexing import GroupIndexer
from reflfact.polyfit import FitReport, FitSample, NormalizationVerdict, SymmetricLaurentPoly
from reflfact.series import ComparisonMismatch, EgfSeries

P = GroupParams(2, 1, 2)
P_REPR = "GroupParams(r=2, s=1, n=2)"
W = identity(P)
W_REPR = f"GroupElement(params={P_REPR}, perm=(1, 2), exps=(0, 0))"
POLY = SymmetricLaurentPoly(1, (((1,), Fraction(1, 2)),))
POLY_REPR = (
    "SymmetricLaurentPoly(nvars=1, terms=(((1,), Fraction(1, 2)),), "
    "inv_sum_coeff=Fraction(0, 1))"
)
SAMPLE = FitSample(CycleType((2,)), 2, 1, 1, Fraction(1, 4))
SAMPLE_REPR = (
    "FitSample(ctype=CycleType(parts=(2,)), n=2, m=1, count=1, "
    "normalized=Fraction(1, 4))"
)
REPORT_FIELDS = (
    Fraction(0), 1, 1, 1, None, "printed", POLY, (Fraction(-2), Fraction(-2)),
    False, (SAMPLE,), (0,), (),
)
REPORT = FitReport(*REPORT_FIELDS)

# (value, its fields in order, its repr)
VALUES = [
    (CycleType((2, 1)), ((2, 1),), "CycleType(parts=(2, 1))"),
    (Reflection(P, 1, 2, 1), (P, 1, 2, 1), f"Reflection(params={P_REPR}, i=1, j=2, k=1)"),
    (
        ElementPartition(((1,), (2,)), (W, W)),
        (((1,), (2,)), (W, W)),
        f"ElementPartition(blocks=((1,), (2,)), restrictions=({W_REPR}, {W_REPR}))",
    ),
    (
        CountKey(W, 3, None, True),
        (W, 3, None, True),
        f"CountKey(element={W_REPR}, m1=3, m2=None, connected=True)",
    ),
    (
        DecoratedGraph(P, ((1, 2, 1),)),
        (P, ((1, 2, 1),)),
        f"DecoratedGraph(params={P_REPR}, edges=((1, 2, 1),))",
    ),
    (Walk(1, ((0, 1, 2),)), (1, ((0, 1, 2),)), "Walk(start=1, steps=((0, 1, 2),))"),
    (
        EgfSeries(1, (Fraction(0), Fraction(1, 2))),
        (1, (Fraction(0), Fraction(1, 2))),
        "EgfSeries(order=1, coeffs=(Fraction(0, 1), Fraction(1, 2)))",
    ),
    (
        ComparisonMismatch(W, 4, 1, 0, 2, 3),
        (W, 4, 1, 0, 2, 3),
        f"ComparisonMismatch(element={W_REPR}, class_size=4, m1=1, m2=0, formula=2, "
        "enumeration=3)",
    ),
    (POLY, (1, (((1,), Fraction(1, 2)),), Fraction(0)), POLY_REPR),
    (SAMPLE, (CycleType((2,)), 2, 1, 1, Fraction(1, 4)), SAMPLE_REPR),
    (
        REPORT,
        REPORT_FIELDS,
        "FitReport(g=Fraction(0, 1), ell=1, r=1, s=1, trivial_product=None, "
        f"normalization='printed', polynomial={POLY_REPR}, "
        "window=(Fraction(-2, 1), Fraction(-2, 1)), window_ok=False, "
        f"samples=({SAMPLE_REPR},), training_indices=(0,), holdout_residuals=())",
    ),
    (
        NormalizationVerdict(Fraction(1), 1, 2, 1, (2, 3), {}, {}, ("derived",)),
        (Fraction(1), 1, 2, 1, (2, 3), {}, {}, ("derived",)),
        "NormalizationVerdict(g=Fraction(1, 1), ell=1, r=2, s=1, n_values=(2, 3), "
        "reports={}, failures={}, winners=('derived',))",
    ),
]


@pytest.mark.parametrize(
    "value, fields, text", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES]
)
def test_value_classes_behave_as_frozen_dataclasses(value, fields, text):
    cls = type(value)
    assert repr(value) == text
    assert value == cls(*fields) and value is not cls(*fields)
    assert value != fields and value.__eq__(fields) is NotImplemented
    if cls is NormalizationVerdict:  # holds dicts, as its dataclass did
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(fields) == hash(cls(*fields))
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value
    name = text[len(cls.__name__) + 1:].split("=")[0]  # the first field
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, fields[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    assert getattr(value, name) == fields[0]


# records built from their fields alone; CountKey checks its fields, but
# takes them by position or by name all the same
PLAIN_RECORDS = (
    ElementPartition, CountKey, Walk, ComparisonMismatch, SymmetricLaurentPoly, FitSample,
    FitReport, NormalizationVerdict,
)
RECORDS = [(value, fields) for value, fields, _ in VALUES if type(value) in PLAIN_RECORDS]


@pytest.mark.parametrize(
    "value, fields", RECORDS, ids=[type(v).__name__ for v, _ in RECORDS]
)
def test_records_take_fields_by_position_or_name(value, fields):
    cls = type(value)
    named = dict(zip(cls._fields, fields))
    first = cls._fields[0]
    assert cls(**named) == value
    assert cls(fields[0], **{f: v for f, v in named.items() if f != first}) == value
    for args, kwargs in (
        ((), {f: v for f, v in named.items() if f != first}),  # a field missing
        ((*fields, None), {}),  # one positional too many
        (fields, {"no_such_field": None}),
        (fields, {first: fields[0]}),  # a field given twice
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_symmetric_laurent_poly_defaults_its_inverse_sum_coefficient():
    terms = (((1,), Fraction(1, 2)),)
    assert SymmetricLaurentPoly(1, terms).inv_sum_coeff == Fraction(0)
    assert SymmetricLaurentPoly(1, terms) == POLY == SymmetricLaurentPoly(nvars=1, terms=terms)


def test_cycle_types_and_series_keep_a_tuple_of_any_sequence():
    assert CycleType([2, 1]) == CycleType(range(2, 0, -1)) == CycleType((2, 1))
    assert CycleType([2, 1]).parts.__class__ is tuple
    series = EgfSeries(1, [Fraction(1), Fraction(0)])
    assert series.coeffs.__class__ is tuple
    assert hash(series) == hash(EgfSeries(1, (Fraction(1), Fraction(0))))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: CycleType(5),
            "^cycle type must be a sequence of lengths, got 5$",
            id="CycleType(5)",
        ),
        pytest.param(
            lambda: EgfSeries(1, (True, 0)),
            r"^series coefficients must be ints or Fractions: \(True, 0\)$",
            id="EgfSeries(1, (True, 0))",
        ),
        pytest.param(
            lambda: EgfSeries(1, (0.5, 0)),
            r"^series coefficients must be ints or Fractions: \(0.5, 0\)$",
            id="EgfSeries(1, (0.5, 0))",
        ),
        pytest.param(
            lambda: EgfSeries(1, 5),
            "^coefficients must be a sequence, got 5$",
            id="EgfSeries(1, 5)",
        ),
        pytest.param(
            lambda: GroupElement(GroupParams(1, 1, 2), 5, (0, 0)),
            r"^perm, exps must be sequences, got 5, \(0, 0\)$",
            id="GroupElement(p, 5, (0, 0))",
        ),
        pytest.param(
            lambda: GroupElement(GroupParams(1, 1, 2), (2, 1), None),
            r"^perm, exps must be sequences, got \(2, 1\), None$",
            id="GroupElement(p, (2, 1), None)",
        ),
        pytest.param(
            lambda: DecoratedGraph(GroupParams(1, 1, 2), 5),
            r"^edges must be a sequence of \[i, j, k\], got 5$",
            id="DecoratedGraph(p, 5)",
        ),
    ],
)
def test_cycle_types_and_series_refuse_what_they_cannot_keep(build, message):
    # a bool coefficient printed "True" in to_json; a float one failed there;
    # a part that is no sequence raised a bare TypeError
    with pytest.raises(ValidationError, match=message):
        build()


def test_values_of_different_classes_never_compare_equal():
    walk, series = Walk(0, (1,)), EgfSeries(0, (1,))  # the same fields
    assert walk != series and series != walk and hash(walk) == hash(series)


def test_package_names_resolve_on_first_access():
    namespace = {}
    exec("from reflfact import *", namespace)
    assert sorted(n for n in namespace if not n.startswith("__")) == sorted(reflfact.__all__)
    for name in reflfact.__all__:
        assert getattr(reflfact, name) is namespace[name]
        assert getattr(reflfact, name).__module__.startswith("reflfact.")
    assert set(reflfact.__all__) <= set(dir(reflfact))
    with pytest.raises(AttributeError):
        reflfact.no_such_name


# Every value a constructor accepts writes JSON that its own parser reads
# back as an equal value; the constructor is the one place that decides
# what is valid, so a count key is refused where it is built, not when a
# saved --cache file is read back.

P3, P6 = GroupParams(2, 1, 3), GroupParams(6, 2, 3)
W3 = GroupElement(P3, (1, 3, 2), (0, 1, 1))
# valid constructor calls, each int field a plain int
CALLS = [
    (GroupParams, (2, 1, 3)),
    (GroupElement, (P3, (1, 3, 2), (0, 1, 1))),
    (Reflection, (P3, 1, 2, 1)),
    (Reflection, (P6, 1, 1, 1)),
    (DecoratedGraph, (P6, ((1, 2, 1), (2, 2, 1)))),
    (CountKey, (W3, 1, 0, False)),
    (CountKey, (W3, 0, None, True)),
]


def _parse(value, data):
    if type(value) is Reflection:
        return Reflection.from_json(data, value.params)
    if type(value) is GroupParams:
        return GroupParams(**data)
    return type(value).from_json(data)


def _round_trip_values():
    yield from (GroupParams(1, 1, 1), P3, GroupParams(6, 2, 4))
    yield GroupElement(P3, [2, 3, 1], [1, 1, 0])  # any sequences, kept as tuples
    yield DecoratedGraph(P6, [[1, 3, 5], [3, 3, 2]])
    yield DecoratedGraph(P6, ())
    for params in (GroupParams(1, 1, 1), P3, GroupParams(2, 2, 3), GroupParams(4, 2, 2), P6):
        refl = reflections(params)
        yield from refl
        yield graph_of_tuple(refl, params)
        for w in GroupIndexer(params):
            yield w
            yield CountKey(w, len(w.perm), None, False)
            yield CountKey(w, 2, 1, True)


def test_a_swept_element_is_the_element_its_parts_build():
    # the sweep fills an element's class key, and an element built from the
    # same parts computes it on first use: the key sits outside the fields,
    # so both are one value, with one pickle, and count alike
    for params in (GroupParams(2, 1, 3), GroupParams(6, 2, 2), GroupParams(3, 3, 3)):
        for w in GroupIndexer(params):
            built = GroupElement(params, w.perm, w.exps)
            assert built == w and hash(built) == hash(w)
            assert repr(built) == repr(w) and built.to_json() == w.to_json()
            assert pickle.dumps(w) == pickle.dumps(built)
            for back in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
                assert back == w and repr(back) == repr(w) and back.class_key == w.class_key
            assert count_all(built, 3) == count_all(w, 3)
            for m2 in range(4):
                assert count_refined(built, 3 - m2, m2) == count_refined(w, 3 - m2, m2)
            for value in (w, built):
                for name in ("params", "perm", "exps", "_key", "class_key", "other"):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(value, name, None)
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        delattr(value, name)


def test_every_accepted_value_reads_back_from_its_json():
    for value in _round_trip_values():
        data = json.loads(json.dumps(value.to_json()))
        back = _parse(value, data)
        assert back == value and hash(back) == hash(value), value
        assert back.to_json() == value.to_json()


def _one_int_replaced(args):
    """Copies of the tuple `args` with one int, at any depth of nested
    tuples, replaced by a bool (for 0 and 1), float or Fraction equal to it."""
    for pos, arg in enumerate(args):
        if arg.__class__ is int:
            subs = [float(arg), Fraction(arg)] + ([bool(arg)] if arg in (0, 1) else [])
        elif arg.__class__ is tuple:
            subs = list(_one_int_replaced(arg))
        else:
            continue
        for sub in subs:
            yield args[:pos] + (sub,) + args[pos + 1:]


@pytest.mark.parametrize("cls, args", CALLS, ids=[cls.__name__ for cls, _ in CALLS])
def test_constructors_refuse_a_non_int_in_every_int_field(cls, args):
    value = cls(*args)
    variants = list(_one_int_replaced(args))
    assert variants
    for bad in variants:
        assert bad == args  # equal to the valid call, but of the wrong types
        with pytest.raises(ValidationError):
            cls(*bad)
    assert cls(*args) == value


def test_constructors_refuse_what_a_parser_refuses():
    for build in (
        lambda: GroupElement(GroupParams(2, 1, 3), (True, 2, 3), (False, 1, 1)),
        lambda: GroupParams(2.0, 1, 3),
        lambda: GroupParams(True, True, 3),  # once taken for S_3
        lambda: GroupElement(P3, (1, 2, 3), ("0", 0, 0)),
        lambda: CountKey(W3, -1, None, False),
        lambda: CountKey(W3, 0, -1, False),
        lambda: CountKey(W3, 0, None, 0),
        lambda: CountKey(W3, 0, None, None),
        lambda: CountKey(W3, 0, None, "false"),
        lambda: CountKey(W3.to_json(), 0, None, False),
        lambda: DecoratedGraph(P6, ((1, 2),)),
        lambda: DecoratedGraph(P6, (5,)),
    ):
        with pytest.raises(ValidationError):
            build()


def test_a_saved_table_of_library_keys_loads_back(tmp_path):
    table = CountTable()
    for i, w in enumerate(GroupIndexer(P3)):
        table.insert(CountKey(w, i % 3, None if i % 2 else i % 4, bool(i % 5)), i, "dp")
    path = tmp_path / "cache.jsonl"
    table.save(path)
    loaded = CountTable.load(path)
    assert loaded.entries == table.entries


def test_count_key_json_names_a_missing_field():
    data = CountKey(W3, 1, 0, False).to_json()
    for field in ("m1", "m2", "connected"):
        with pytest.raises(ValidationError, match=f"missing field '{field}'"):
            CountKey.from_json({k: v for k, v in data.items() if k != field})
