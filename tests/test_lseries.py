"""Central values and rational recognition."""

from fractions import Fraction

import mpmath as mp
import pytest

from cmtwist.coeffs import CurveContext, ap_point_count, kronecker
from cmtwist.lseries import (
    algebraic_part,
    central_value,
    recognize_rational,
    series_cutoff,
    twist_root_number,
)
from cmtwist.qfield import is_prime
from cmtwist.registry import builtin_curve, omega_lattice

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")


def test_twist_root_number():
    assert twist_root_number(C49, 1) == 1
    assert twist_root_number(C121, 1) == -1
    # N is a perfect square, so for d coprime to N the character part is
    # trivial and the sign of d carries the whole flip; twists by M = 3
    # mod 4 therefore enter as d = -M to land in the even case
    assert twist_root_number(C49, 29) == 1
    assert twist_root_number(C49, -3) == -1
    assert twist_root_number(C121, 37) == -1
    assert twist_root_number(C121, -7) == 1


def test_series_cutoff_scaling():
    a = series_cutoff(C49, 1, 12)
    b = series_cutoff(C49, 1000, 12)
    assert a >= 8 and b > 100 * a          # cutoff grows with sqrt(N)*|d|
    assert series_cutoff(C49, 1, 20) > a   # and with requested digits


def test_central_value_base_49a():
    value, n_terms, tail = central_value(CurveContext(C49), 1, target_digits=18)
    assert n_terms >= 8 and tail < 1e-18
    with mp.workdps(30):
        om = omega_lattice(C49, 25)
        assert abs(mp.mpf(value) / om - mp.mpf(1) / 2) < mp.mpf(10) ** -15


def test_central_value_forced_zero():
    # odd functional equation means an exact zero without summation
    value, n_terms, tail = central_value(CurveContext(C49), -3, target_digits=12)
    assert value == 0 and n_terms == 0 and tail == 0
    value2, n2, _ = central_value(CurveContext(C121), 37, target_digits=12)
    assert value2 == 0 and n2 == 0


def test_algebraic_part_anchors():
    ctx49, ctx121 = CurveContext(C49), CurveContext(C121)
    assert algebraic_part(ctx49, 1, target_digits=15).lalg == Fraction(1, 2)
    r29 = algebraic_part(ctx49, 29, target_digits=12)
    assert r29.lalg == 2 and r29.ord2 == 1
    assert algebraic_part(ctx121, -7, target_digits=12).lalg == 4
    z = algebraic_part(ctx121, 1, target_digits=12)
    assert z.lalg == 0 and z.ord2 is None


def test_algebraic_part_residual_small():
    res = algebraic_part(CurveContext(C49), 113, target_digits=12)
    assert res.lalg == Fraction(8)
    assert res.lalg_residual < 1e-9
    assert res.tail_bound < 1e-12


def test_algebraic_part_shared_ap_map():
    # the untwisted a_n table the series read from the context (the theta
    # series on the character route) must equal point counts at every good
    # prime the series needed
    ctx = CurveContext(C49)
    read = []
    an_table = ctx.an_table
    ctx.an_table = lambda n: read.append(an_table(n)) or read[-1]
    res = algebraic_part(ctx, 53, target_digits=12)
    assert res.lalg == 0               # this twist's central value vanishes
    n_max = series_cutoff(C49, 53, 12)
    assert len(read) == 1 and len(read[0]) > n_max
    table = read[0]
    primes = [p for p in range(5, n_max + 1) if is_prime(p) and p != 7]
    assert len(primes) > 250
    for p in primes:
        assert table[p] == ap_point_count(C49, p), p


def _oracle_sum(ctx, d, n_max, digits):
    """2 * sum_{n <= n_max} a_n x^n / n term by term in mpmath, the a_n
    from the untwisted table times the Kronecker symbol (d d0 / n)."""
    curve = ctx.curve
    dd0 = (d or 1) * curve.base_twist
    table = ctx.an_table(n_max)
    # the running product x^n loses about log10(n_max) digits
    with mp.workdps(digits + 15):
        x = mp.exp(-2 * mp.pi / (mp.sqrt(curve.conductor) * abs(d or 1)))
        total = mp.mpf(0)
        xn = mp.mpf(1)
        for n in range(1, n_max + 1):
            xn *= x
            a_n = table[n] and table[n] * kronecker(dd0, n)
            if a_n:
                total += mp.mpf(a_n) / n * xn
        return 2 * total


@pytest.mark.parametrize("label, d, digits", [
    *((label, d, digits) for label, d in [("49a", 29), ("49a", 545),
                                          ("121b", -7), ("121b", -347)]
      for digits in (13, 27, 47)),
    # 832,045 terms: a float running product for x^n drifts by 5.3e-13
    # here, five times the truncation tail
    ("49a", 18113, 13),
])
def test_integer_sum_within_its_bound_of_mpf_oracle(label, d, digits):
    # 545 and -347 need more than 20,000 terms even at 13 digits
    ctx = CurveContext(builtin_curve(label))
    value, n_terms, bound = central_value(ctx, d, target_digits=digits)
    assert 0 < bound < 10.0 ** -digits
    if abs(d) > 300:
        assert n_terms > 20000
    # the oracle runs to 3 more digits, so the bound is checked against
    # L(E^(d), 1) itself, truncated tail included
    oracle = _oracle_sum(ctx, d, series_cutoff(ctx.curve, d, digits + 3), digits + 3)
    with mp.workdps(digits + 15):
        assert abs(value - oracle) <= bound + 10.0 ** -(digits + 3)
    assert isinstance(value, mp.mpf) and value != 0


def test_recognize_rational():
    frac, res = recognize_rational(0.5)
    assert frac == Fraction(1, 2) and res == 0
    frac, res = recognize_rational(mp.mpf(2) / 3 + mp.mpf(10) ** -12, max_den=64)
    assert frac == Fraction(2, 3) and res < 1e-11
