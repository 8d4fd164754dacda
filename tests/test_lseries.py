"""Central values, rational recognition, Euler-factor strips."""

from fractions import Fraction

import mpmath as mp
import pytest

from cmtwist.coeffs import CurveContext, ap_point_count
from cmtwist.eisenstein import calibrate_character
from cmtwist.lseries import (
    LSeriesError,
    algebraic_part,
    central_value,
    euler_strip,
    recognize_rational,
    series_cutoff,
    twist_root_number,
)
from cmtwist.qfield import is_prime, primes_above
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


@pytest.mark.parametrize("label, d", [("49a", 29), ("49a", 545),
                                      ("121b", -7), ("121b", -347)])
def test_float_and_mpf_sums_agree(label, d):
    # the fsum over float terms against the mpmath sum at 30 digits; 545 and
    # -347 need more than 20,000 terms
    ctx = CurveContext(builtin_curve(label))
    value, n_terms, _ = central_value(ctx, d, target_digits=13)
    exact, _, _ = central_value(ctx, d, target_digits=30)
    assert isinstance(value, float) and exact != 0
    if abs(d) > 300:
        assert n_terms > 20000
    assert abs(value - exact) <= 1e-12 * abs(exact)


def test_euler_strip_exact_and_ord2():
    chi = calibrate_character(C49)
    for p in (29, 37):
        prime = primes_above(7, p)[0]
        strip = euler_strip(C49, 1, [prime], chi)
        assert strip.den == p
        fac = strip.factors[0]
        # 1 - conj(psi(P))/p has norm (p + 1 - a_p)/p: the local point count
        ap = ap_point_count(C49, p)
        assert Fraction(fac.num.norm(), p * p) == Fraction(p + 1 - ap, p)
        assert fac.ord2 >= 0


def test_euler_strip_rejects_twist_divisor():
    chi = calibrate_character(C49)
    prime = primes_above(7, 29)[0]
    with pytest.raises(LSeriesError):
        euler_strip(C49, 29, [prime], chi)


def test_recognize_rational():
    frac, res = recognize_rational(0.5)
    assert frac == Fraction(1, 2) and res == 0
    frac, res = recognize_rational(mp.mpf(2) / 3 + mp.mpf(10) ** -12, max_den=64)
    assert frac == Fraction(2, 3) and res < 1e-11
