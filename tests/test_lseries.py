"""Central values and rational recognition."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtwist import coeffs, lseries
from cmtwist.coeffs import CurveContext, ap_point_count
from cmtwist.lseries import (
    algebraic_part,
    central_value,
    recognize_rational,
    series_cutoff,
    twist_root_number,
)
from cmtwist.qfield import factor_int, is_prime, kronecker
from cmtwist.registry import builtin_curve, omega_lattice, validate_user_curve
from test_coeffs import twisted_coeffs

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")
# the 29-twist of 49a as a user curve (d0 = 29): the symbol of a twist by d
# is (29 d/.), of period 29 |d|
E29 = validate_user_curve("e29", (1, -22, 0, -1682, -24389), q=7, w=1, omega="1")


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


def test_algebraic_part_shared_ap_map(theta_windows):
    # the untwisted a_n view of the context (the theta series on the
    # character route), built once by the call, must equal point counts at
    # every good prime the series needed
    ctx = CurveContext(C49)
    res = algebraic_part(ctx, 53, target_digits=12)
    assert res.lalg == 0               # this twist's central value vanishes
    n_max = series_cutoff(C49, 53, 12)
    assert theta_windows == [(1, n_max + 1)]
    table = dict(zip(*ctx.nonzero(n_max)))
    primes = [p for p in range(5, n_max + 1) if is_prime(p) and p != 7]
    assert len(primes) > 250
    for p in primes:
        assert table.get(p, 0) == ap_point_count(C49, p), p


def _oracle_sum(ctx, d, n_max, digits):
    """2 * sum_{n <= n_max} a_n x^n / n term by term in mpmath, the a_n
    from the untwisted table times the Kronecker symbol (d d0 / n)."""
    curve = ctx.curve
    dd0 = (d or 1) * curve.base_twist
    table = coeffs.theta_window(curve.q, 0, n_max + 1)
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


def test_integer_sum_within_its_bound_past_the_float_range():
    # 10^-330 is below the smallest float: the budget must not underflow
    ctx, digits = CurveContext(C49), 330
    value, n_terms, bound = central_value(ctx, 29, target_digits=digits)
    oracle = _oracle_sum(ctx, 29, series_cutoff(C49, 29, digits + 3), digits + 3)
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** -digits
        assert 0 < bound < eps
        assert abs(value - oracle) <= bound + eps / 1000


def test_omega_computed_once_per_context(monkeypatch):
    calls = []
    monkeypatch.setattr(coeffs, "omega_lattice",
                        lambda curve, precision: calls.append(precision)
                        or omega_lattice(curve, precision))
    ctx = CurveContext(C49)
    for d in (29, 113, 29):
        algebraic_part(ctx, d, target_digits=12)
    algebraic_part(ctx, 29, target_digits=20)
    assert calls == [15, 20]


def test_recognize_rational():
    frac, res = recognize_rational(0.5)
    assert frac == Fraction(1, 2) and res == 0
    frac, res = recognize_rational(mp.mpf(2) / 3 + mp.mpf(10) ** -12, max_den=64)
    assert frac == Fraction(2, 3) and res < 1e-11


def _chain_sum(ctx, d, digits):
    """(value, n_terms, rounding bound) of the series summed term by term
    along a chain of scaled powers, as central_value summed it before the
    block kernel: P_0 = 2^b, P_j = floor(P_{j-1} G_g / 2^b) with G_g within
    one unit of x^g 2^b, g = n_j - n_{j-1}, and T = sum_j floor(a_{n_j} P_j
    / n_j) over the gathered nonzero twisted a_n.  |P_j - x^{n_j} 2^b| <=
    3j, so 2 T / 2^b is within 2 (3k(k+1) + k) / 2^b of the truncated sum.
    """
    curve = ctx.curve
    n_max = series_cutoff(curve, d, digits)
    b = math.ceil(math.log2(4 * (3 * n_max * (n_max + 1) + n_max))
                  + digits * math.log2(10)) + 1
    big = b + 64
    with mp.workprec(big + 16):
        x = mp.exp(-2 * mp.pi / (mp.sqrt(curve.conductor) * max(abs(d), 1)))
        step = int(mp.nint(mp.ldexp(x, big)))
    power = {}
    total = k = prev = 0
    p = 1 << b
    for n, a_n in twisted_coeffs(ctx, d, n_max):
        g = n - prev
        if g not in power:
            shift = big * g - b
            power[g] = (step ** g + (1 << (shift - 1))) >> shift
        p = p * power[g] >> b
        total += a_n * p // n
        prev = n
        k += 1
    with mp.workprec(max(total.bit_length(), 1)):
        value = mp.ldexp(total, 1 - b)
    return value, n_max, mp.ldexp(2 * (3 * k * (k + 1) + k), -b)


def _assert_block_sum_matches_the_chain(ctx, d, digits):
    value, n_terms, bound = central_value(ctx, d, target_digits=digits)
    chain, chain_terms, chain_bound = _chain_sum(ctx, d, digits)
    assert n_terms == chain_terms and 0 < bound < mp.mpf(10) ** -digits
    with mp.workdps(digits + 15):
        assert abs(value - chain) <= bound + chain_bound
    return value, n_terms, bound


def _admissible_twist(curve, k):
    """d = 4k + 1 when it is a square-free discriminant coprime to N whose
    twist has root number +1 (an odd twist is an exact 0, not a sum)."""
    d = 4 * k + 1
    assume(abs(d) > 1 and math.gcd(d, curve.conductor) == 1
           and all(e == 1 for _, e in factor_int(d))
           and twist_root_number(curve, d) == 1)
    return d


KERNEL_CTX = {c.label: CurveContext(c) for c in (C49, C121, E29)}
# |k| bounds keep each chain sum under about 60,000 terms
KERNEL_K = {"49a": 400, "121b": 250, "e29": 15}


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(sorted(KERNEL_CTX)), data=st.data(),
       digits=st.sampled_from([12, 20, 30]))
def test_block_sum_agrees_with_the_per_term_chain(label, data, digits):
    ctx = KERNEL_CTX[label]
    k = data.draw(st.integers(-KERNEL_K[label], KERNEL_K[label]), label="k")
    _assert_block_sum_matches_the_chain(ctx, _admissible_twist(ctx.curve, k), digits)


@pytest.mark.parametrize("label, d, digits, shape", [
    ("49a", 1, 30, "one"),          # d d0 = 1: m = 1, W = floor(sqrt(n_max))
    ("e29", 1, 60, "periods"),      # m = 29, W = 58
    ("49a", 5, 47, "periods"),      # m = 5, W = 20
    ("121b", -7, 47, "periods"),    # m = 7, W = 35
    ("49a", 29, 13, "period"),      # sqrt(n_max) / 2 < m = 29: W = m
    ("49a", 545, 13, "period"),     # m > sqrt(n_max)
    ("121b", -347, 27, "period"),
    ("e29", 5, 12, "period"),       # m = 145
])
def test_block_sum_at_each_block_shape(label, d, digits, shape, monkeypatch):
    ctx = KERNEL_CTX[label]
    tables = []
    power_tables = lseries._power_tables

    def record(curve, d, c, width, blocks):
        tables.append((width, blocks))
        return power_tables(curve, d, c, width, blocks)

    monkeypatch.setattr(lseries, "_power_tables", record)
    value, n_max, bound = _assert_block_sum_matches_the_chain(ctx, d, digits)
    m = abs(d * ctx.curve.base_twist)
    (width, blocks), = tables
    assert width % m == 0 and (blocks - 1) * width <= n_max < blocks * width
    if shape == "one":
        assert m == 1 and width == math.isqrt(n_max)
    elif shape == "periods":
        assert 2 * m <= width <= math.isqrt(n_max)
    else:
        assert width == m and 2 * m > math.isqrt(n_max)
    # the same truncation summed term by term in mpmath
    oracle = _oracle_sum(ctx, d, n_max, digits + 3)
    with mp.workdps(digits + 15):
        assert abs(value - oracle) <= bound
