"""Dirichlet coefficients: point counts, contexts, the theta table, twists."""

from bisect import bisect_right
from itertools import compress, count, islice
from math import gcd, isqrt
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtwist import coeffs
from cmtwist.coeffs import (
    MAX_TABLE,
    THETA_WINDOW,
    CoeffError,
    CurveContext,
    ap_point_count,
    check_point_counts,
    good_odd_primes,
    theta_window,
    twist_symbol_period,
)
from cmtwist.qfield import (ALLOWED_Q, QFieldError, QuadInt, factor_int,
                            hecke_chi, is_prime, kronecker)
from cmtwist.registry import builtin_curve, resolve_curve, validate_user_curve

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")
# 49a twisted by D = -3, whose p* is negative: a2' = D a2 + (D - 1)/4,
# a4' = D^2 a4, a6' = D^3 a6 keep a1 = 1 and good reduction at 2
CM3 = validate_user_curve("49a(-3)", (1, 2, 0, -18, 27), q=7, w=-1, omega="1")
# the 29-twist of 49a as a user curve (d0 = 29); coefficients need no omega
E29 = validate_user_curve("e29", (1, -22, 0, -1682, -24389), q=7, w=1, omega="1")


def _odd_good_primes(curve, bound):
    return [p for p in range(3, bound) if is_prime(p) and curve.conductor % p]


def ap_enumerate(curve, p):
    """a_p = p - #affine points, counted on the long model point by point."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    count = 0
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                count += 1
    return p - count


def twisted_coeffs(ctx, d, n_max):
    """The nonzero a_n of L(E^(d), s) for n <= n_max, as (n, a_n) pairs in
    increasing n, gathered from the context's nonzero view: the gather
    oracle for the block sum of lseries.central_value.

    One period of the symbol (d d0/.) is read at the positions of E0's
    nonzero a_n; the pairs where the symbol vanishes are dropped.
    """
    period = twist_symbol_period(ctx.curve, d)
    positions, values = ctx.nonzero(n_max)
    end = bisect_right(positions, n_max)
    positions, values = positions[:end], values[:end]
    m = len(period)
    chi = [period[n % m] for n in positions]
    # compress keeps the positions where the symbol is nonzero
    return zip(compress(positions, chi),
               map(mul, filter(None, chi), compress(values, chi)))


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
    with pytest.raises(QFieldError):
        kronecker(5, 0)


@given(d=st.integers(-10 ** 6, 10 ** 6), m=st.integers(1, 10 ** 4),
       n=st.integers(1, 10 ** 4))
def test_kronecker_multiplicative_in_bottom(d, m, n):
    assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


def test_ap_small_primes_against_enumeration():
    # the Legendre-sum formula must equal direct enumeration, p = 3 included
    for curve in (C49, C121):
        for p in _odd_good_primes(curve, 50):
            assert ap_point_count(curve, p) == ap_enumerate(curve, p), (curve.label, p)


def _ap_legendre_sum(curve, p):
    """-sum_x (f(x)/p) over the 2-division cubic f, one kronecker call per x."""
    four, b2, two_b4, b6 = curve.division2_cubic()
    return -sum(kronecker(((four * x + b2) * x + two_b4) * x + b6, p)
                for x in range(p))


def test_ap_residue_table_is_the_legendre_sum(e29_file):
    # the table of squares mod p gives the Legendre-sum definition at every
    # odd good prime below 3000
    for curve in (C49, C121, resolve_curve("e29", e29_file)):
        for p in _odd_good_primes(curve, 3000):
            assert ap_point_count(curve, p) == _ap_legendre_sum(curve, p), \
                (curve.label, p)


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


@pytest.mark.parametrize("curve", [C49, C121, CM3, E29], ids=lambda c: c.label)
def test_good_odd_primes_is_the_is_prime_walk(curve):
    # the sieve walk against a walk testing every odd integer with is_prime,
    # across the sieve bounds 2^7, 2^8, ..., 2^16; E29's conductor drops 29
    old = (p for p in count(3, 2) if curve.conductor % p and is_prime(p))
    assert list(islice(good_odd_primes(curve), 4000)) == list(islice(old, 4000))


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


@pytest.mark.parametrize("label", ["49a", "121b", "e29"])
def test_symbol_period_factors_the_discriminant_once(monkeypatch, label, e29_file):
    # one factor_int call per twist_symbol_period, on d d0: the square-free
    # check and the period share its primes
    curve = resolve_curve(label, e29_file)
    calls = []
    monkeypatch.setattr(coeffs, "factor_int",
                        lambda n: calls.append(n) or factor_int(n))
    for d in (0, 1, 5, -3, 13, -19, -255):
        calls.clear()
        dd0 = (d or 1) * curve.base_twist
        m = abs(dd0)
        assert twist_symbol_period(curve, d) == \
            [kronecker(dd0, m + v) for v in range(m)], d
        assert calls == [dd0], d
    calls.clear()
    with pytest.raises(CoeffError, match="not square-free"):
        twist_symbol_period(curve, 45)
    assert calls == [45 * curve.base_twist]


@pytest.mark.parametrize("label", ["49a", "121b", "e29", "49a(-3)"])
def test_theta_table_matches_point_count_fill(label, e29_file):
    # the context's untwisted stream (the theta series of E0's psi, twisted
    # by d0 for a user curve) against the point-count fill of the curve's
    # own model, at every n <= 3000 (prime powers, q | n, d0 | n and n = 2, 4)
    curve = CM3 if label == CM3.label else resolve_curve(label, e29_file)
    n_max = 3000
    assert _twisted(CurveContext(curve), 0, n_max) == _point_count_fill(curve, n_max)


def test_point_count_check_names_the_first_disagreeing_prime():
    # 49a with a6 = 13 instead of -1 keeps q = 7 and 7 | disc but is no
    # twist of 49a: its point count at the split prime 11 is 2, not 4
    bad = validate_user_curve("bad", (1, -1, 0, -2, 13), q=7, w=1, omega="1")
    with pytest.raises(CoeffError, match=r"a_11 = 2 by point count, 4 from"):
        check_point_counts(bad, _odd_good_primes(bad, 200))
    with pytest.raises(CoeffError, match="a_11 = 2"):
        CurveContext(bad).nonzero(10)


CTX = {c.label: CurveContext(c) for c in (C49, C121)}


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(sorted(CTX)), k=st.integers(-500, 499))
def test_gathered_twist_is_kronecker_times_untwisted(label, k):
    ctx = CTX[label]
    d = 4 * k + 1
    assume(abs(d) > 1 and gcd(d, ctx.curve.conductor) == 1
           and all(e == 1 for _, e in factor_int(d)))
    n_max = 3 * abs(d)
    base = theta_window(ctx.curve.q, 0, n_max + 1)
    twisted = _twisted(ctx, d, n_max)
    for n in range(1, n_max + 1):
        assert twisted[n] == kronecker(d, n) * base[n], (d, n)
    # the gather rests on (d/.) being periodic mod |d|
    assert all(kronecker(d, n) == kronecker(d, n + abs(d))
               for n in range(1, 2 * abs(d) + 1))


def test_coeff_out_of_range_raises():
    ctx = CurveContext(C49)
    assert _twisted(ctx, 0, 10) == theta_window(7, 0, 11)
    for n_max in (0, MAX_TABLE + 1):
        with pytest.raises(CoeffError):
            twisted_coeffs(ctx, 0, n_max)
        with pytest.raises(CoeffError):
            ctx.nonzero(n_max)


def _theta_direct(q, n_max):
    """4 a_n of L(psi, s) for 0..n_max by the definition: each ideal of
    norm n has the two generators +-alpha, so 2 a_n is the sum of
    chi(alpha) * alpha over every alpha = (a + b sqrt(-q))/2 of norm n
    (a = b mod 2, any signs), and its real part chi(alpha) * a/2."""
    t = [0] * (n_max + 1)
    b_top = isqrt(4 * n_max // q)
    for b in range(-b_top, b_top + 1):
        a_top = isqrt(4 * n_max - q * b * b)
        for a in range(-a_top, a_top + 1):
            if (a - b) % 2:
                continue
            try:
                chi = hecke_chi(QuadInt(q, (a - b) // 2, b))   # (a-b)/2 + b tau
            except QFieldError:
                continue                                        # alpha in (sqrt(-q))
            t[(a * a + q * b * b) // 4] += chi * a
    return t


@pytest.mark.parametrize("q", sorted(ALLOWED_Q))
def test_theta_table_matches_the_definition(q):
    n_max = 20000
    assert [4 * v for v in theta_window(q, 0, n_max + 1)] == _theta_direct(q, n_max)


VIEW_CTX = {c.label: CurveContext(c) for c in (C49, C121, E29, CM3)}


def _dense_gather(ctx, d, n_max):
    """The nonzero kronecker(d d0, n) * a_n(E0), n <= n_max, read off the
    dense table of E0 one n at a time."""
    dd0 = (d or 1) * ctx.curve.base_twist
    table = theta_window(ctx.curve.q, 0, n_max + 1)
    pairs = ((n, kronecker(dd0, n) * table[n]) for n in range(1, n_max + 1))
    return [(n, a) for n, a in pairs if a]


@settings(max_examples=80, deadline=None)
@given(label=st.sampled_from(sorted(VIEW_CTX)), k=st.integers(-300, 299),
       index=st.integers(0, 4000), past=st.booleans())
def test_nonzero_view_streams_the_dense_gather(label, k, index, past):
    ctx = VIEW_CTX[label]
    d = 4 * k + 1
    assume(d == 1 or (gcd(d, ctx.curve.conductor) == 1
                      and all(e == 1 for _, e in factor_int(d))))
    # n_max on a nonzero position of E0's table, or just past it (each of
    # the four tables has over 4,100 nonzero a_n below 20,000)
    positions, _ = ctx.nonzero(20000)
    n_max = positions[index] + past
    assert list(twisted_coeffs(ctx, d, n_max)) == _dense_gather(ctx, d, n_max)


def test_nonzero_view_follows_a_growing_table(theta_windows):
    # the view grows from 100 to 150 by one appended window; a view left at
    # 100 would cut every later series at n = 100
    ctx = CurveContext(C49)
    assert list(twisted_coeffs(ctx, 29, 100)) == _dense_gather(ctx, 29, 100)
    first = ctx.nonzero(100)
    stream = list(twisted_coeffs(ctx, 29, 150))
    assert theta_windows == [(1, 101), (101, 151)] and ctx.nonzero(150) is first
    assert stream == _dense_gather(ctx, 29, 150) and stream[-1][0] > 100
    for n_max in (120, 150):
        ctx.nonzero(n_max)
    assert len(theta_windows) == 2                        # no window without growth


# a curve of conductor q^2 with CM by O_K for every supported q
Q_CURVES = {7: C49, 11: C121, **{
    q: validate_user_curve(f"cm{q}", model, q=q, w=1, omega="1")
    for q, model in ((19, (0, 0, 1, -38, 90)), (43, (0, 0, 1, -860, 9707)),
                     (67, (0, 0, 1, -7370, 243528)),
                     (163, (0, 0, 1, -2174420, 1234136692)))}}


def _theta_dense(q, n_max):
    """a_n of L(psi, s) for 0..n_max filled in one dense list, pair by
    pair: chi(a/2) a at each n = (a^2 + q b^2)/4 with a, b > 0, a = b
    mod 2, and chi(c) c at each n = c^2."""
    t = [0] * (n_max + 1)
    for c in range(1, isqrt(n_max) + 1):
        t[c * c] += kronecker(c, q) * c
    for b in range(1, isqrt(4 * n_max // q) + 1):
        for a in range(2 - b % 2, isqrt(4 * n_max - q * b * b) + 1, 2):
            t[(a * a + q * b * b) // 4] += kronecker(a * (q + 1) // 2, q) * a
    return t


def _windows(lo, hi):
    """The (lo, hi) of the windows of a view grown from n = lo to n = hi - 1."""
    return [(n, min(n + THETA_WINDOW, hi)) for n in range(lo, hi, THETA_WINDOW)]


@pytest.mark.parametrize("q", sorted(ALLOWED_Q))
def test_windowed_view_is_the_compressed_dense_table(q, theta_windows):
    # the view, built in windows of THETA_WINDOW terms, against the dense
    # table compressed, at bounds on both sides of a window edge; and a view
    # grown in three requests against one built in one go, each request
    # building only the windows from the end of the view
    top = 3 * THETA_WINDOW + 5
    dense = _theta_dense(q, top)
    for n_max in (1, THETA_WINDOW - 1, THETA_WINDOW, THETA_WINDOW + 1, top):
        theta_windows.clear()
        positions, values = CurveContext(Q_CURVES[q]).nonzero(n_max)
        assert list(positions) == [n for n in range(1, n_max + 1) if dense[n]]
        assert list(values) == list(filter(None, dense[1:n_max + 1]))
        assert theta_windows == _windows(1, n_max + 1)
    grown = CurveContext(Q_CURVES[q])
    theta_windows.clear()
    for n_max in (100, 150, THETA_WINDOW + 3):
        view = grown.nonzero(n_max)
    assert theta_windows == [(1, 101), (101, 151), *_windows(151, THETA_WINDOW + 4)]
    assert view == CurveContext(Q_CURVES[q]).nonzero(THETA_WINDOW + 3)
