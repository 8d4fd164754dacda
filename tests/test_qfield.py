"""Arithmetic of O_K for K = Q(sqrt(-q)), q in the odd class-number-one list."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtwist.qfield import (
    ALLOWED_Q,
    PrimeIdeal,
    QFieldError,
    QuadInt,
    ResidueRing,
    chi_m_symbol,
    cornacchia_split,
    factor_ideal,
    factor_int,
    from_int,
    is_prime,
    is_special_split,
    legendre,
    min_ord2_roots,
    normalize_mod4,
    ord2_fraction,
    ord2_int,
    primes_above,
    qr_symbol,
    reduction_mod,
    special_split_primes,
    split_type,
    sqrt_minus_q,
    sqrt_mod,
)


def test_tau_satisfies_its_minimal_polynomial():
    for q in ALLOWED_Q:
        tau = QuadInt(q, 0, 1)
        m = (q + 1) // 4
        assert tau * tau == tau - from_int(q, m)


def test_norm_trace_conj_consistency():
    # N(x) = x * conj(x), tr(x) = x + conj(x), and both are rational
    for q in (7, 11, 163):
        for a in range(-3, 4):
            for b in range(-3, 4):
                x = QuadInt(q, a, b)
                assert x * x.conj() == from_int(q, x.norm())
                assert x + x.conj() == from_int(q, x.trace())
                assert x.conj().conj() == x


def test_norm_multiplicative():
    x, y = QuadInt(7, 2, -3), QuadInt(7, -1, 5)
    assert (x * y).norm() == x.norm() * y.norm()


def test_sqrt_minus_q_squares_to_minus_q():
    for q in ALLOWED_Q:
        s = sqrt_minus_q(q)
        assert s * s == from_int(q, -q)
        assert s.trace() == 0


def test_parity_and_units():
    assert QuadInt(7, 1, 2).is_odd()           # norm 1+2+8 = 11
    assert not QuadInt(7, 1, 1).is_odd()       # norm 1+1+2 = 4
    assert from_int(7, -1).is_unit() and not QuadInt(7, 0, 1).is_unit()


def test_legendre_matches_euler_criterion():
    for p in (3, 5, 7, 11, 29, 97):
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            assert legendre(a, p) == (1 if e == 1 else -1)
        assert legendre(0, p) == 0


def test_split_type_examples():
    assert split_type(7, 29) == "split"
    assert split_type(7, 5) == "inert"
    assert split_type(7, 7) == "ramified"
    assert split_type(11, 5) == "split"
    assert split_type(11, 7) == "inert"
    assert split_type(11, 2) == "inert"     # 2 splits iff q = 7 mod 8
    assert split_type(7, 2) == "split"


def test_two_splits_only_for_q_7_mod_8():
    # x^2 = x - m mod 2 has a root iff m is even, i.e. q = 7 mod 8
    for q in ALLOWED_Q:
        expected = "split" if q % 8 == 7 else "inert"
        assert split_type(q, 2) == expected


def test_sqrt_mod():
    for p in (13, 29, 97, 193):
        for a in range(1, p):
            if legendre(a, p) == 1:
                r = sqrt_mod(a, p)
                assert (r * r - a) % p == 0
    with pytest.raises(QFieldError):
        sqrt_mod(3, 5)   # non-residue


def _odd_primes(bound):
    return [p for p in range(3, bound, 2) if is_prime(p)]


def test_factor_int():
    assert factor_int(1) == []
    assert factor_int(-360) == [(2, 3), (3, 2), (5, 1)]
    assert factor_int(7**3 * 29**6) == [(7, 3), (29, 6)]
    big = 999983 * 1000003          # two primes near 10^6
    assert factor_int(big) == [(999983, 1), (1000003, 1)]
    assert [p for p in range(2, 60) if is_prime(p)] == \
        [p for p in range(2, 60) if factor_int(p) == [(p, 1)]]
    with pytest.raises(QFieldError):
        factor_int(0)


def test_cornacchia_produces_generators():
    for q in (7, 11, 43):
        for p in _odd_primes(400):
            if split_type(q, p) == "split":
                pi = cornacchia_split(q, p)
                assert pi.norm() == p
                assert (pi * pi.conj()) == from_int(q, p)


def test_normalize_mod4():
    pi = normalize_mod4(cornacchia_split(7, 29))
    assert pi.a % 4 == 1 and pi.b % 4 == 0 and pi.norm() == 29
    # q = 11, p = 5 has b odd: no associate is 1 mod 4
    with pytest.raises(QFieldError):
        normalize_mod4(cornacchia_split(11, 5))


def test_special_split_primes_q7_all_split_1mod4():
    # for q = 7 every split p = 1 mod 4 is special
    expect = [p for p in _odd_primes(200)
              if split_type(7, p) == "split" and p % 4 == 1]
    got = special_split_primes(7, 200)
    assert got == expect
    assert got[:3] == [29, 37, 53]


def test_special_split_primes_q11():
    assert special_split_primes(11, 1000) == [
        53, 257, 269, 397, 401, 421, 617, 757, 773, 929]
    assert special_split_primes(11, 50) == []
    assert is_special_split(11, 53) and not is_special_split(11, 5)


def test_primes_above_and_reduction():
    ps = primes_above(7, 29)
    assert len(ps) == 2 and ps[0].gen != ps[1].gen
    P = ps[0]
    assert P.residue_size == 29
    # reduction is a ring hom: additive and multiplicative on a sample
    x, y = QuadInt(7, 3, 4), QuadInt(7, -2, 9)
    rx, ry = reduction_mod(P, x), reduction_mod(P, y)
    assert reduction_mod(P, x + y) == (rx + ry) % 29
    assert reduction_mod(P, x * y) == (rx * ry) % 29


def test_factor_ideal_recovers_norm():
    for z in (QuadInt(7, 1, -4), from_int(7, 15), sqrt_minus_q(7).scale(3)):
        facs = factor_ideal(z)
        n = 1
        for P, e in facs:
            n *= P.residue_size ** e
        assert n == abs(z.norm())


def test_qr_symbol_is_quadratic_character():
    P = primes_above(7, 29)[0]
    vals = [qr_symbol(from_int(7, a), P) for a in range(1, 29)]
    assert sorted(set(vals)) == [-1, 1]
    assert vals.count(1) == 14
    for a in range(1, 29):
        assert qr_symbol(from_int(7, a * a), P) == 1


def test_chi_m_symbol_multiplicative_in_beta():
    M = 29
    b1, b2 = QuadInt(7, 1, 2), QuadInt(7, 3, -2)
    assert b1.is_odd() and b2.is_odd() and (b1 * b2).is_odd()
    assert chi_m_symbol(M, b1 * b2) == chi_m_symbol(M, b1) * chi_m_symbol(M, b2)


def test_residue_ring_units_and_reps():
    g = sqrt_minus_q(7).scale(-3)      # norm 63
    ring = ResidueRing(g)
    reps = ring.coprime_residues_mod_units()
    assert len(reps) == ring.unit_count() // 2
    seen = set()
    for r in reps:
        assert r.is_odd()                         # odd representatives
        assert ring.is_coprime(r)
        key = ring.reduce(r)
        negkey = ring.reduce(-r)
        assert key not in seen and negkey not in seen
        seen.add(key)
    assert ring.reduce(ring.reduce(QuadInt(7, 100, -41))) == \
        ring.reduce(QuadInt(7, 100, -41))


def test_smallest_positive_integer_is_additive_order():
    ring = ResidueRing(from_int(7, -3))
    assert ring.smallest_positive_integer == 3
    ring = ResidueRing(QuadInt(7, 1, -4))       # norm 29
    assert ring.smallest_positive_integer == 29


def test_ord2_helpers():
    assert ord2_int(12) == 2 and ord2_int(1) == 0
    assert ord2_fraction(Fraction(1, 2)) == -1
    assert ord2_fraction(Fraction(12, 5)) == 2
    with pytest.raises(ValueError):
        ord2_int(0)


def test_min_ord2_roots_newton_polygon():
    # x^2 - 2: both roots have valuation 1/2
    assert min_ord2_roots([Fraction(-2), Fraction(0), Fraction(1)]) == Fraction(1, 2)
    # (x-2)(x-8) = x^2 - 10x + 16: min valuation 1
    assert min_ord2_roots([Fraction(16), Fraction(-10), Fraction(1)]) == 1
    # (x-1)(x-4) = x^2 - 5x + 4: min valuation 0
    assert min_ord2_roots([Fraction(4), Fraction(-5), Fraction(1)]) == 0


# ------------------------------------------------------- property tests

FIELD = st.sampled_from(ALLOWED_Q)
SMALL = st.integers(-60, 60)
RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@given(q=FIELD, a=SMALL, b=SMALL, c=SMALL, d=SMALL)
def test_norm_multiplicative_over_ints(q, a, b, c, d):
    x, y = QuadInt(q, a, b), QuadInt(q, c, d)
    assert (x * y).norm() == x.norm() * y.norm()


@given(q=FIELD, a=RATIONAL, b=RATIONAL, c=RATIONAL, d=RATIONAL)
def test_norm_multiplicative_over_fractions(q, a, b, c, d):
    x, y = QuadInt(q, a, b), QuadInt(q, c, d)
    assert (x * y).norm() == x.norm() * y.norm()


@given(q=FIELD, a=RATIONAL, b=RATIONAL, c=RATIONAL, d=RATIONAL)
def test_division_inverts_multiplication(q, a, b, c, d):
    x, y = QuadInt(q, a, b), QuadInt(q, c, d)
    assume(y.norm() != 0)
    assert (x / y) * y == x


def test_division_by_zero_and_mixed_fields_raise():
    with pytest.raises(QFieldError):
        QuadInt(7, 1, 2) / QuadInt(7, 0, 0)
    with pytest.raises(QFieldError):
        QuadInt(7, 1, 2) * QuadInt(11, 1, 2)
    with pytest.raises(QFieldError):
        QuadInt(7, 1, 2) + QuadInt(11, 1, 2)
    with pytest.raises(QFieldError):
        QuadInt(7, 1, 2) / QuadInt(11, 1, 2)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from((7, 11, 19)), a=st.integers(-25, 25), b=st.integers(-12, 12),
       x=st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)))
def test_residue_ring_reduce_and_unit_classes(q, a, b, x):
    g = QuadInt(q, a, b)
    assume(g.is_odd() and not g.is_unit() and g.norm() <= 3000)
    ring = ResidueRing(g)
    r = ring.reduce(QuadInt(q, *x))
    assert ring.reduce(r) == r
    assert len(ring.coprime_residues_mod_units()) == ring.unit_count() // 2
