"""Dirichlet coefficients: point counts, contexts, the theta table, twists."""

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtwist.coeffs import (
    MAX_TABLE,
    CoeffError,
    CurveContext,
    ap_enumerate,
    ap_point_count,
    ap_range,
    kronecker,
    multiplicative_table,
    spf_sieve,
    theta_table,
    twisted_coeffs,
)
from cmtwist.eisenstein import calibrate_character
from cmtwist.qfield import factor_int, is_prime
from cmtwist.registry import builtin_curve

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")


def _odd_good_primes(curve, bound):
    return [p for p in range(3, bound) if is_prime(p) and curve.conductor % p]


def _twisted(ctx, d, n_max):
    """[0, a_1, ..., a_{n_max}] of the twist by d, so that t[n] = a_n."""
    return [0, *twisted_coeffs(ctx, d, n_max)]


def test_kronecker_matches_legendre():
    for p in (3, 5, 7, 11, 13):
        for d in range(-20, 21):
            expected = pow(d % p, (p - 1) // 2, p) if d % p else 0
            if expected == p - 1:
                expected = -1
            assert kronecker(d, p) == expected, (d, p)


def test_kronecker_units_and_twos():
    assert kronecker(5, 1) == 1
    assert kronecker(2, 2) == 0
    # (d/2) by d mod 8
    assert [kronecker(d, 2) for d in (1, 3, 5, 7)] == [1, -1, -1, 1]
    with pytest.raises(CoeffError):
        kronecker(5, 0)


@given(d=st.integers(-10 ** 6, 10 ** 6), m=st.integers(1, 10 ** 4),
       n=st.integers(1, 10 ** 4))
def test_kronecker_multiplicative_in_bottom(d, m, n):
    assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


def test_ap_small_primes_against_enumeration():
    # the Legendre-sum formula must equal direct enumeration
    for curve in (C49, C121):
        for p in _odd_good_primes(curve, 50):
            assert ap_point_count(curve, p) == ap_enumerate(curve, p), (curve.label, p)


def test_ap_known_values():
    assert ap_point_count(C49, 11) == 4
    assert ap_point_count(C49, 23) == 8
    assert ap_point_count(C121, 3) == -1
    assert ap_point_count(C121, 5) == -3
    # inert primes have trace zero
    assert ap_point_count(C49, 5) == 0 and ap_point_count(C49, 13) == 0
    assert CurveContext(C121).ap(13) == 0


def test_ap_bad_prime_rejected():
    with pytest.raises(CoeffError):
        ap_point_count(C49, 7)
    with pytest.raises(CoeffError):
        CurveContext(C121).ap(11)
    with pytest.raises(CoeffError):
        ap_point_count(C49, 2)


def test_ap_range_matches_singletons():
    table = ap_range(CurveContext(C49), 200)
    assert table[2] == ap_enumerate(C49, 2) == 1
    assert 7 not in table
    for p, ap in table.items():
        if p > 3:
            assert ap == ap_point_count(C49, p)


def test_spf_sieve():
    spf = spf_sieve(100)
    assert spf[97] == 97 and spf[91] == 7 and spf[64] == 2
    primes = [k for k in range(2, 101) if spf[k] == k]
    assert len(primes) == 25


def test_table_multiplicative_structure():
    t = _twisted(CurveContext(C49), 0, 5000)
    # coprime multiplicativity
    for m, n in ((3, 11), (4, 23), (9, 29), (11, 37)):
        assert t[m * n] == t[m] * t[n]
    # prime-power recursion a(p^2) = a(p)^2 - p at good p
    for p in (3, 11, 23):
        assert t[p * p] == t[p] ** 2 - p
    # bad prime: a(7^k) = a(7)^k = 0
    assert t[7] == 0 and t[49] == 0


def test_table_twist_relation():
    d = 29
    ctx = CurveContext(C49)
    base = _twisted(ctx, 0, 1500)
    tw = _twisted(ctx, d, 1500)
    # a'(n) = (d/n) a(n) whenever n is coprime to d (the symbol is totally
    # multiplicative, so this holds for composites too)
    for n in range(1, 1501):
        if n % d:
            assert tw[n] == kronecker(d, n) * base[n], n
    assert tw[29] == 0 and tw[58] == 0


def test_table_twist_disc_validation():
    ctx = CurveContext(C49)
    with pytest.raises(CoeffError):
        twisted_coeffs(ctx, 7, 100)    # shares 7 with the conductor
    with pytest.raises(CoeffError):
        twisted_coeffs(ctx, 6, 100)    # 6 != 1 mod 4
    with pytest.raises(CoeffError):
        twisted_coeffs(ctx, 45, 100)   # 45 = 1 mod 4 but not square-free
    with pytest.raises(CoeffError):
        twisted_coeffs(ctx, 5, 0)


@pytest.mark.parametrize("curve", [C49, C121], ids=lambda c: c.label)
def test_theta_table_matches_point_count_fill(curve):
    # the theta series of psi against the multiplicative fill from point
    # counts, at every n <= 3000 (prime powers, q | n and n = 2, 4 included)
    n_max = 3000
    ap = {p: ap_enumerate(curve, 2) if p == 2 else ap_point_count(curve, p)
          for p in range(2, n_max + 1) if is_prime(p) and curve.conductor % p}
    theta = theta_table(calibrate_character(curve), n_max)
    assert list(theta) == list(multiplicative_table(ap, n_max))


CTX = {c.label: CurveContext(c) for c in (C49, C121)}


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(sorted(CTX)), k=st.integers(-500, 499))
def test_gathered_twist_is_kronecker_times_untwisted(label, k):
    ctx = CTX[label]
    d = 4 * k + 1
    assume(abs(d) > 1 and gcd(d, ctx.curve.conductor) == 1
           and all(e == 1 for _, e in factor_int(d)))
    n_max = 3 * abs(d)
    base = ctx.an_table(n_max)
    twisted = _twisted(ctx, d, n_max)
    for n in range(1, n_max + 1):
        assert twisted[n] == kronecker(d, n) * base[n], (d, n)
    # the gather rests on (d/.) being periodic mod |d|
    assert all(kronecker(d, n) == kronecker(d, n + abs(d))
               for n in range(1, 2 * abs(d) + 1))


def test_coeff_out_of_range_raises():
    ctx = CurveContext(C49)
    assert _twisted(ctx, 0, 10) == list(ctx.an_table(10)[:11])
    for n_max in (0, MAX_TABLE + 1):
        with pytest.raises(CoeffError):
            twisted_coeffs(ctx, 0, n_max)
        with pytest.raises(CoeffError):
            ctx.an_table(n_max)
