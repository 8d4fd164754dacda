"""Dirichlet coefficients: point counts, contexts, the theta table, twists."""

from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtwist.coeffs import (
    MAX_TABLE,
    CoeffError,
    CurveContext,
    ap_enumerate,
    ap_point_count,
    kronecker,
    twisted_coeffs,
)
from cmtwist.qfield import factor_int, is_prime
from cmtwist.registry import builtin_curve, resolve_curve, validate_user_curve

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")
# 49a twisted by D = -3, whose p* is negative: a2' = D a2 + (D - 1)/4,
# a4' = D^2 a4, a6' = D^3 a6 keep a1 = 1 and good reduction at 2
CM3 = validate_user_curve("49a(-3)", (1, 2, 0, -18, 27), q=7, w=-1, omega="1")


def _odd_good_primes(curve, bound):
    return [p for p in range(3, bound) if is_prime(p) and curve.conductor % p]


def _twisted(ctx, d, n_max):
    """[0, a_1, ..., a_{n_max}] of the twist by d, so that t[n] = a_n."""
    t = [0] * (n_max + 1)
    for n, a_n in twisted_coeffs(ctx, d, n_max):
        t[n] = a_n
    return t


def _point_count_fill(curve, n_max):
    """[0, a_1, ..., a_{n_max}] of the curve's own model, from point counts.

    a_p by counting at every good prime, a(p^k) = 0 at the bad primes (the
    bad primes of a CM curve are additive), a(p^{k+1}) = a(p)a(p^k) -
    p a(p^{k-1}) at good ones, and composites multiplicatively over a
    smallest-prime-factor sieve.
    """
    spf = list(range(n_max + 1))
    for i in range(2, isqrt(n_max) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    a = [0] * (n_max + 1)
    a[1] = 1
    for p in range(2, n_max + 1):
        if spf[p] != p or curve.conductor % p == 0:
            continue
        a[p] = ap_enumerate(curve, 2) if p == 2 else ap_point_count(curve, p)
        pk_prev, pk = 1, p
        while pk * p <= n_max:
            a[pk * p] = a[p] * a[pk] - p * a[pk_prev]
            pk_prev, pk = pk, pk * p
    for n in range(2, n_max + 1):
        p, m, pk = spf[n], n, 1
        while m % p == 0:
            m //= p
            pk *= p
        if m > 1:
            a[n] = a[pk] * a[m]
    return a


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
    assert ap_point_count(C121, 13) == 0


def test_ap_bad_prime_rejected():
    with pytest.raises(CoeffError):
        ap_point_count(C49, 7)
    with pytest.raises(CoeffError):
        ap_point_count(C121, 11)
    with pytest.raises(CoeffError):
        ap_point_count(C49, 2)


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


@pytest.mark.parametrize("label", ["49a", "121b", "e29", "49a(-3)"])
def test_theta_table_matches_point_count_fill(label, e29_file):
    # the context's untwisted stream (the theta series of E0's psi, twisted
    # by d0 for a user curve) against the point-count fill of the curve's
    # own model, at every n <= 3000 (prime powers, q | n, d0 | n and n = 2, 4)
    curve = CM3 if label == CM3.label else resolve_curve(label, e29_file)
    n_max = 3000
    assert _twisted(CurveContext(curve), 0, n_max) == _point_count_fill(curve, n_max)


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
