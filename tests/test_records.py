"""The package's records are immutable values: equal fields make equal,
equally hashed records, a field cannot be assigned, and QuadInt keeps the
arithmetic of a field element, never the sequence operations of a tuple."""

from fractions import Fraction

import pytest

from cmtwist import bsd, cli, eisenstein, lseries
from cmtwist.coeffs import CurveContext
from cmtwist.qfield import QuadInt
from cmtwist.registry import Curve, builtin_curve


def _records():
    """(record, the same record built again, a field and another value)."""
    curve = builtin_curve("49a")
    spec = bsd.classify_twist(curve, 29)
    res = lseries.algebraic_part(CurveContext(curve), 29, 12)
    report = bsd.theorem18_report(curve, spec, res)
    config = dict(curve_label="49a", curve_file=None, precision=15, threads=1,
                  fmt="csv", output=None)
    eis_ctx = eisenstein.make_context(curve, precision=15)
    pis = [QuadInt(7, -3, 0)]
    return [
        (QuadInt(7, 1, -4), QuadInt(7, 1, -4), "a", 5),
        (curve, Curve("49a", 1, -1, 0, -2, -1, q=7, w=1, conductor=49,
                      base_twist=1, lalg_base=Fraction(1, 2)), "w", -1),
        (spec, bsd.classify_twist(curve, 29), "M", 37),
        (report.tamagawa, bsd.tamagawa_report(spec), "product_ord2", 0),
        (report, bsd.theorem18_report(curve, spec, res), "bound_rhs", 9),
        (res, lseries.algebraic_part(CurveContext(curve), 29, 12), "n_terms", 1),
        (cli.RunConfig(**config), cli.RunConfig(**config), "threads", 2),
        (eis_ctx, eisenstein.make_context(curve, precision=15), "precision", 16),
        (eisenstein.averaging_check(eis_ctx, pis),
         eisenstein.averaging_check(eis_ctx, pis), "ok", False),
    ]


RECORDS = _records()
IDS = [type(rec).__name__ for rec, *_ in RECORDS]


@pytest.mark.parametrize("rec, again, field, value", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(rec, again, field, value):
    assert rec == again and hash(rec) == hash(again)
    other = rec._replace(**{field: value})
    assert other != rec and getattr(other, field) == value


@pytest.mark.parametrize("rec, again, field, value", RECORDS, ids=IDS)
def test_a_field_cannot_be_assigned(rec, again, field, value):
    with pytest.raises(AttributeError):
        setattr(rec, field, value)
    with pytest.raises(AttributeError):
        rec.extra = value
    assert rec == again


def test_ord2_is_read_off_lalg():
    res = next(rec for rec, *_ in RECORDS if isinstance(rec, lseries.LValueResult))
    assert res.lalg == 2 and res.ord2 == 1
    assert res._replace(lalg=None).ord2 is None
    assert res._replace(lalg=Fraction(0)).ord2 is None
    assert res._replace(lalg=Fraction(3, 8)).ord2 == -3


def test_quadint_is_no_sequence_in_arithmetic():
    x = QuadInt(7, 1, -4)
    with pytest.raises(TypeError):
        2 * x
    with pytest.raises(AttributeError):
        x * 2
    with pytest.raises(AttributeError):
        x + (1, 0)
    with pytest.raises(TypeError):
        (1, 0) + x
    assert x * QuadInt(7, 2, 0) == QuadInt(7, 2, -8)
    assert x + QuadInt(7, 1, 0) == QuadInt(7, 2, -4)
    assert str(x) == "1-4*t" and f"{x}" == "1-4*t"
    assert repr(x) == "QuadInt(q=7, a=1, b=-4)"
