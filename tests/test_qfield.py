"""Arithmetic of O_K for K = Q(sqrt(-q)), q in the odd class-number-one list."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtwist.qfield import (
    ALLOWED_Q,
    QFieldError,
    QuadInt,
    ResidueRing,
    as_quadint,
    chi_m_symbol_table,
    cornacchia_split,
    cubic_root_count,
    factor_ideal,
    factor_int,
    from_int,
    is_prime,
    is_special_split,
    kronecker,
    normalize_mod4,
    ord2_fraction,
    ord2_int,
    primes_above,
    primes_below,
    qr_symbol,
    residue_size,
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
    # at an odd prime the Kronecker symbol is the Legendre symbol
    for p in (3, 5, 7, 11, 29, 97):
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            assert kronecker(a, p) == (1 if e == 1 else -1)
            assert kronecker(a - 3 * p, p) == kronecker(a, p)
        assert kronecker(0, p) == 0


def test_split_type_examples():
    assert split_type(7, 29) == "split"
    assert split_type(7, 5) == "inert"
    assert split_type(7, 7) == "ramified"
    assert split_type(11, 5) == "split"
    assert split_type(11, 7) == "inert"
    assert split_type(11, 2) == "inert"     # 2 splits iff q = 7 mod 8
    assert split_type(7, 2) == "split"


def test_split_type_follows_the_kronecker_symbol():
    # Euler's criterion mod q gives the split type of every prime, 2 and q
    # included: p splits iff (-q/p) = 1, ramifies iff p = q
    for q in ALLOWED_Q:
        for p in primes_below(5000):
            want = {1: "split", -1: "inert", 0: "ramified"}[kronecker(-q, p)]
            assert split_type(q, p) == want, (q, p)


def test_two_splits_only_for_q_7_mod_8():
    # x^2 = x - m mod 2 has a root iff m is even, i.e. q = 7 mod 8
    for q in ALLOWED_Q:
        expected = "split" if q % 8 == 7 else "inert"
        assert split_type(q, 2) == expected


def test_sqrt_mod():
    for p in (13, 29, 97, 193):
        for a in range(1, p):
            if kronecker(a, p) == 1:
                r = sqrt_mod(a, p)
                assert (r * r - a) % p == 0
    with pytest.raises(QFieldError):
        sqrt_mod(3, 5)   # non-residue
    # composite moduli: 9 and 25 have no non-residue to search for, and
    # mod 21 and 45 no 2-power order is reached; both searches looped
    for n, p in ((-7, 9), (-7, 25), (4, 21), (-11, 45)):
        assert kronecker(n, p) == 1
        with pytest.raises(QFieldError, match=f"is {p} prime"):
            sqrt_mod(n, p)


def _odd_primes(bound):
    return [p for p in range(3, bound, 2) if is_prime(p)]


def _cubic_roots_by_residues(a, b, c, d, p):
    """(roots of a x^3 + b x^2 + c x + d in F_p, whether one is repeated),
    by evaluating the cubic and its derivative at every residue."""
    roots = [x for x in range(p) if (((a * x + b) * x + c) * x + d) % p == 0]
    repeated = any(((3 * a * x + 2 * b) * x + c) % p == 0 for x in roots)
    return len(roots), repeated


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_odd_primes(40)),
       st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60),
       st.integers(-60, 60))
def test_cubic_root_count_matches_the_residue_loop(p, a, b, c, d):
    assume(a % p)
    count, repeated = _cubic_roots_by_residues(a, b, c, d, p)
    if repeated:
        with pytest.raises(QFieldError, match=f"repeated root mod {p}"):
            cubic_root_count(a, b, c, d, p)
    else:
        assert cubic_root_count(a, b, c, d, p) == count


def test_cubic_root_count_refuses_repeated_roots():
    for p in (3, 5, 29, 997):
        # a double root at 1 beside a simple one at 2, and a triple root at 1
        double = (1, -4, 5, -2)           # (x - 1)^2 (x - 2)
        triple = (1, -3, 3, -1)           # (x - 1)^3
        for coeffs in (double, triple):
            with pytest.raises(QFieldError, match=f"repeated root mod {p}"):
                cubic_root_count(*coeffs, p)
        # the residue loop finds one distinct root of the triple, as a
        # cubic with one simple root would have
        assert _cubic_roots_by_residues(*triple, p) == (1, True)
    with pytest.raises(QFieldError, match="leading coefficient"):
        cubic_root_count(7, 1, 0, 1, 7)


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
    # trial division stops at 10^6: a large prime is kept whole, and a
    # product of two primes above the bound is refused, both at once
    assert factor_int(-64000000000000007803) == [(64000000000000007803, 1)]
    with pytest.raises(QFieldError, match="has no prime factor up to 1000000"):
        factor_int(3 * 1000003 * 1000033)


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 128, 129, 10 ** 5])
def test_primes_below_is_the_is_prime_walk(n):
    assert primes_below(n) == [p for p in range(n) if is_prime(p)]


@pytest.mark.parametrize("q", ALLOWED_Q)
def test_special_split_primes_match_the_is_prime_walk(q):
    for bound in (4, 5, 6, 53, 20000):
        old = [p for p in range(5, bound + 1) if is_prime(p) and is_special_split(q, p)]
        assert special_split_primes(q, bound) == old


def test_primes_above_and_reduction():
    ps = primes_above(7, 29)
    assert len(ps) == 2 and ps[0] != ps[1]
    P = ps[0]
    assert residue_size(P) == 29
    # reduction a + b*tau -> a + b*t0 is a ring hom: additive and
    # multiplicative on a sample
    p, t0 = P

    def red(z):
        return (z.a + z.b * t0) % p

    x, y = QuadInt(7, 3, 4), QuadInt(7, -2, 9)
    assert red(x + y) == (red(x) + red(y)) % 29
    assert red(x * y) == red(x) * red(y) % 29


def _generators_above(q: int, p: int) -> list[QuadInt]:
    """A generator of each prime above p: Cornacchia's pi and its conjugate
    when p splits, sqrt(-q) at the ramified prime, p itself when inert."""
    kind = split_type(q, p)
    if kind == "inert":
        return [from_int(q, p)]
    if kind == "ramified":
        return [sqrt_minus_q(q)]
    pi = cornacchia_split(q, p)
    return [pi, pi.conj()]


def _residue_map_of(gen: QuadInt, p: int) -> tuple[int, int | None]:
    """(p, t0) of the prime (gen) above p: gen = a + b*tau maps to 0, so
    t0 = -a/b mod p; None for the inert (p), where b = 0."""
    if gen.b % p == 0:
        return (p, None)
    return (p, -gen.a * pow(gen.b, -1, p) % p)


@pytest.mark.parametrize("q", ALLOWED_Q)
def test_primes_above_are_the_residue_maps_of_generators(q):
    for p in [2] + _odd_primes(300):
        kind = split_type(q, p)
        maps = primes_above(q, p)
        assert maps == sorted(maps)
        m = (q + 1) // 4
        for _, t0 in maps:
            if t0 is not None:
                assert (t0 * t0 - t0 + m) % p == 0
        if kind == "split":
            assert len(maps) == 2 and maps[0] != maps[1]
            pi = cornacchia_split(q, p)
            inside = [[(z.a + z.b * t0) % p == 0 for _, t0 in maps]
                      for z in (pi, pi.conj())]
            assert sorted(inside) == [[False, True], [True, False]]
        else:
            assert maps == ([(p, None)] if kind == "inert" else [(p, (q + 1) // 2)])
        assert sorted(_residue_map_of(g, p) for g in _generators_above(q, p)) == maps
    assert primes_above(7, 2) == [(2, 0), (2, 1)]
    assert primes_above(q, q) == [(q, (q + 1) // 2)]


def test_factor_ideal_recovers_norm():
    for z in (QuadInt(7, 1, -4), from_int(7, 15), sqrt_minus_q(7).scale(3)):
        facs = factor_ideal(z)
        n = 1
        for P, e in facs:
            n *= residue_size(P) ** e
        assert n == abs(z.norm())


def divide_exact(beta: QuadInt, gen: QuadInt) -> QuadInt | None:
    """beta / gen if it is integral, else None: ideal arithmetic, the
    oracle of the integer residue maps."""
    g = beta * gen.conj()
    n = gen.norm()
    if g.a % n == 0 and g.b % n == 0:
        return QuadInt(beta.q, g.a // n, g.b // n)
    return None


def _factor_ideal_by_division(beta: QuadInt) -> list:
    """(beta) factored by dividing out a Cornacchia generator of each prime
    above each p | N(beta) with divide_exact: the oracle of the integer
    valuations."""
    out, rest = [], beta
    for p, _ in factor_int(beta.norm()):
        for gen in _generators_above(beta.q, p):
            e = 0
            while (nxt := divide_exact(rest, gen)) is not None:
                rest, e = nxt, e + 1
            if e:
                out.append((_residue_map_of(gen, p), e))
    assert rest.is_unit()
    return sorted(out)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALLOWED_Q), st.integers(-400, 400),
       st.integers(-400, 400), st.sampled_from([1, 2, 3, 7, 11, 9, 49, 29]))
def test_factor_ideal_matches_division(q, a, b, k):
    assume(a or b)
    beta = QuadInt(q, a, b).scale(k)
    assert factor_ideal(beta) == _factor_ideal_by_division(beta)


def test_qr_symbol_is_quadratic_character():
    P = primes_above(7, 29)[0]
    vals = [qr_symbol(from_int(7, a), P) for a in range(1, 29)]
    assert sorted(set(vals)) == [-1, 1]
    assert vals.count(1) == 14
    for a in range(1, 29):
        assert qr_symbol(from_int(7, a * a), P) == 1


def _qr_symbol_by_power(alpha: QuadInt, p: int) -> int:
    """alpha^((p^2-1)/2) in F_{p^2} = F_p[t]/(t^2 - t + m), p inert: the
    oracle of qr_symbol at an inert prime."""
    m = alpha.m
    a, b = alpha.a % p, alpha.b % p
    ra, rb = 1, 0
    e = (p * p - 1) // 2
    while e:
        if e & 1:
            ra, rb = (ra * a - m * rb * b) % p, (ra * b + rb * a + rb * b) % p
        a, b = (a * a - m * b * b) % p, (2 * a * b + b * b) % p
        e >>= 1
    assert rb == 0 and ra in (1, p - 1)
    return 1 if ra == 1 else -1


@pytest.mark.parametrize("q", [7, 11])
def test_qr_symbol_at_inert_primes_is_the_norm_symbol(q):
    inert = [p for p in _odd_primes(20) if split_type(q, p) == "inert"]
    assert inert
    for p in inert:
        P = primes_above(q, p)[0]
        for a in range(p):
            for b in range(p):
                alpha = QuadInt(q, a, b)
                if a == 0 and b == 0:
                    with pytest.raises(QFieldError, match="lies in"):
                        qr_symbol(alpha, P)
                else:
                    assert qr_symbol(alpha, P) == _qr_symbol_by_power(alpha, p)


def test_chi_m_symbol_multiplicative_in_beta():
    M = 29
    b1, b2 = QuadInt(7, 1, 2), QuadInt(7, 3, -2)
    assert b1.is_odd() and b2.is_odd() and (b1 * b2).is_odd()
    [[s12, s1, s2]] = chi_m_symbol_table([M], [b1 * b2, b1, b2])
    assert s12 == s1 * s2


def test_symbol_table_refuses_m_not_1_mod_4():
    # off 1 mod 4, K(sqrt(M))/K ramifies above 2 and the symbol is not
    # read modulo M
    for M in (3, QuadInt(7, 1, 2), QuadInt(7, 3, 4)):
        with pytest.raises(QFieldError, match="1 mod 4"):
            chi_m_symbol_table([M], [QuadInt(7, 1, 2)])


def test_residue_ring_units_and_reps():
    g = sqrt_minus_q(7).scale(-3)      # norm 63
    ring = ResidueRing(g)
    reps = ring.coprime_residues_mod_units()
    assert len(reps) == ring.unit_count() // 2
    seen = set()
    for r in reps:
        assert r.is_odd()                         # odd representatives
        assert ring._coprime(r.a, r.b)
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


def min_ord2_roots(coeffs: list[Fraction]) -> Fraction:
    """Minimal 2-adic valuation among the roots of a monic polynomial.

    coeffs are [c_0, ..., c_d] with c_d = 1; the answer is the minimal
    slope-negative of the 2-adic Newton polygon, min_k ord2(c_k)/(d-k).
    Zero coefficients are skipped (zero roots contribute valuation +inf).
    The Newton-polygon half of the ord2 oracle of test_eisenstein.
    """
    d = len(coeffs) - 1
    assert coeffs[d] == 1
    slopes = [Fraction(ord2_fraction(c), d - k)
              for k, c in enumerate(coeffs[:d]) if c != 0]
    assert slopes, "polynomial is a power of x; all roots are 0"
    return min(slopes)


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


# ------------------------------------- residues and symbols, by division


def _coprime_residues_by_division(ring: ResidueRing) -> list[QuadInt]:
    """(O_K/g)^*/{+-1} through ideal arithmetic: divide_exact for
    coprimality, QuadInt arithmetic for -x and the odd shift; the oracle of
    the integer enumeration."""
    q = ring.q
    primes = [gen for p, _ in factor_int(ring.g.norm())
              for gen in _generators_above(q, p)
              if divide_exact(ring.g, gen) is not None]
    one, tau = QuadInt(q, 1, 0), QuadInt(q, 0, 1)
    seen: set[tuple[int, int]] = set()
    reps = []
    for a in range(ring.d1):
        for b in range(ring.d2):
            x = QuadInt(q, a, b)
            if (a, b) in seen or any(
                    divide_exact(x, gen) is not None for gen in primes):
                continue
            mx = ring.reduce(-x)
            seen.add((a, b))
            seen.add((mx.a, mx.b))
            for shift in (QuadInt(q, 0, 0), one, tau, one + tau):
                cand = x + shift * ring.g
                if cand.is_odd():
                    reps.append(cand)
                    break
    return reps


# every odd g = sqrt(-q)*h with N(g) <= 3000, q in {7, 11}: the moduli
# divisible by the conductor of chi
CONDUCTOR_MODULI = [
    sqrt_minus_q(q) * h
    for q in (7, 11)
    for h in (QuadInt(q, a, b) for a in range(-60, 61) for b in range(-30, 31))
    if h.norm() % 2 == 1 and q * h.norm() <= 3000
]
conductor_moduli = st.sampled_from(CONDUCTOR_MODULI)


@settings(max_examples=60, deadline=None)
@given(conductor_moduli)
def test_coprime_residues_match_division_oracle(g):
    ring = ResidueRing(g)
    assert ring.coprime_residues_mod_units() == _coprime_residues_by_division(ring)


def _chi_m_symbol_by_factoring(M, beta: QuadInt) -> int:
    """chi_M((beta)) one beta at a time, from its definition: the oracle of
    the symbol table."""
    M = as_quadint(beta.q, M)
    if not beta.is_odd():
        raise QFieldError(f"chi_M needs an odd argument, got {beta}")
    s = 1
    for P, e in _factor_ideal_by_division(beta):
        if e % 2:
            s *= qr_symbol(M, P)
    return s


PI29 = normalize_mod4(cornacchia_split(7, 29))
PI101_19 = normalize_mod4(cornacchia_split(19, 101))


@pytest.mark.parametrize("q, pis, ms", [
    (7, [QuadInt(7, -3, 0)], None),
    (7, [QuadInt(7, -3, 0), PI29], None),
    (11, [QuadInt(11, -7, 0)], None),
    (7, [QuadInt(7, -3, 0), PI29], [QuadInt(7, -3, 0) * PI29]),
    (7, [from_int(7, 29)], [29]),
    (19, [QuadInt(19, -3, 0), PI101_19], None),
], ids=["49a:-3", "49a:-3,29", "121b:-7", "49a:-3*29", "49a:29-rational",
        "q19:-3,101"])
def test_symbol_table_matches_chi_m_symbol(q, pis, ms):
    # the table averaging_check takes, over the representatives it sums;
    # ms defaults to the pis themselves
    g = sqrt_minus_q(q)
    for pi in pis:
        g = g * pi
    ms = pis if ms is None else ms
    reps = ResidueRing(g).coprime_residues_mod_units()
    table = chi_m_symbol_table(ms, reps)
    assert table == [[_chi_m_symbol_by_factoring(M, b) for b in reps]
                     for M in ms]
    assert all(v in (1, -1) for row in table for v in row)
    assert all(row.count(1) == len(reps) // 2 for row in table)


def _raised(call):
    try:
        call()
    except QFieldError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("ms, betas", [
    ([5], [QuadInt(7, 1, 2), QuadInt(7, 2, 0)]),        # even argument
    ([-3, 5], [QuadInt(7, 1, 2), QuadInt(7, 5, 0)]),    # 5 lies in (5)
    ([5, -3], [QuadInt(7, 2, 0), QuadInt(7, -3, 0)]),   # first error first
    ([QuadInt(11, 1, 0)], [QuadInt(7, 1, 2)]),          # another field
], ids=["even", "in-P", "order", "field"])
def test_symbol_table_raises_as_chi_m_symbol(ms, betas):
    got = _raised(lambda: chi_m_symbol_table(ms, betas))
    want = _raised(lambda: [[_chi_m_symbol_by_factoring(M, b) for b in betas]
                            for M in ms])
    assert got is not None and got == want
