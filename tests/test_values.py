"""The package's immutable value classes, and its lazily resolved namespace."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import reflfact
from reflfact.counting import CountKey, Options
from reflfact.graphs import DecoratedGraph, Walk
from reflfact.groups import CycleType, ElementPartition, GroupParams, Reflection, identity
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
    (Options(7), (7,), "Options(max_dp_cells=7)"),
    (
        CountKey(2, 1, 2, (1, 2), (0, 0), 3, None, True),
        (2, 1, 2, (1, 2), (0, 0), 3, None, True),
        "CountKey(r=2, s=1, n=2, perm=(1, 2), exps=(0, 0), m1=3, m2=None, connected=True)",
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
