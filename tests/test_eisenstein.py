"""Lattice sums: wp ladders, the character chi, torsion-sum identities."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtwist import eisenstein
from cmtwist.eisenstein import (
    LEMMA_DIV_MAX_N,
    EisensteinError,
    ResidueRing,
    averaging_check,
    chi_m_symbol_table,
    e1star_values,
    ladder_discrepancy,
    lemma_div_bruteforce,
    make_context,
    phase_split,
    primes_above,
    prop2_sum,
    torsion_modulus,
    twisted_sum,
)
from cmtwist.qfield import (QFieldError, QuadInt, cornacchia_split, from_int,
                            hecke_chi, normalize_mod4, sqrt_minus_q)
from cmtwist.registry import builtin_curve
from test_qfield import conductor_moduli, min_ord2_roots

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")


@dataclass(frozen=True)
class TorsionPoint:
    """beta*lam/g modulo the lattice, beta coprime to the odd modulus g."""

    beta: QuadInt
    g: QuadInt
    order: int


def torsion_point(beta: QuadInt, g: QuadInt) -> TorsionPoint:
    ring = ResidueRing(g)
    if not ring._coprime(beta.a, beta.b):
        raise EisensteinError(f"{beta} is not coprime to the modulus {g}")
    # ResidueRing admits only odd non-unit moduli, so the order is odd, >= 3
    return TorsionPoint(beta=beta, g=g, order=ring.smallest_positive_integer)


def b_ladder(ctx, point: TorsionPoint, limit: int) -> list:
    """[B_2(z), ..., B_limit(z)] at z = beta*lam/g."""
    return eisenstein._b_ladder_cached(
        eisenstein._WpCache(ctx, point.g), point.beta, limit)


def e1star_torsion(ctx, point: TorsionPoint):
    """E1*(beta*lam/g) = -B_{m-1}/m from the B-ladder."""
    return eisenstein._e1star_cached(eisenstein._WpCache(ctx, point.g), point.beta)


def _as_fraction(x) -> Fraction:
    """The exact value of an mpf, a binary rational."""
    man, exp = mp.mpf(x).man_exp
    value = Fraction(man) * Fraction(2) ** exp
    return -value if x < 0 else value


def wp_values(ctx, z):
    """(wp(z), wp'(z)) on the curve's period lattice for a complex z."""
    with mp.workdps(ctx.dps):
        w = mp.mpc(z) / ctx.lam
        t = 2 * mp.im(w) / ctx.root_q
        s = mp.re(w) - t / 2
        return eisenstein._wp_from_st(ctx, _as_fraction(s), _as_fraction(t))


def _e1star_from_st(ctx, s, t):
    """E1*(z) for z = (s + t*tau)*lam off the lattice by the scaled-integer
    sum: the one point of the phase table of the common denominator d of s
    and t (O(d) to build)."""
    d = lcm(s.denominator, t.denominator)
    _, k, l, flip = eisenstein._torsion_coords(
        s.numerator * (d // s.denominator), t.numerator * (d // t.denominator), d)
    table = eisenstein._PhaseTable(ctx, d)
    return eisenstein._bracket_value(ctx, table.shift, *table.e1star(k, l, flip), 1)


def _e1star_mpc(ctx, s, t):
    """E1*(z) for z = (s + t*tau)*lam by the same q-expansion as
    _e1star_from_st, every term summed in mpc at ctx.dps: the oracle for
    the scaled-integer sum."""
    with mp.workdps(ctx.dps):
        u, t, flip = eisenstein._reduced_phase(ctx, s, t)
        u_inv = 1 / u
        acc = (1 + u) / (2 * (u - 1)) + t
        qn = mp.mpf(1)
        for _ in range(ctx.series_terms):
            qn *= ctx.qtau
            a = qn * u
            b = qn * u_inv
            acc += (b - a) / ((1 - a) * (1 - b))
        val = ctx.scale * acc
        return -val if flip else +val


def _e1star_division_loop(table, k, l, flip):
    """The bracket of _PhaseTable.e1star from the series in its own form:
    the terms n <= K of (b - a)/((1 - a)(1 - b)), a = qtau^n*u and
    b = qtau^n/u, each one Gaussian division at scale 2^B, with X, Y and R
    (the scaled a, b and ab) stepped by a product with qtau*2^B or
    qtau^2*2^B and a floor.  Each bracket is within 6K + 1 units of 2^-B
    of the exact one, as e1star's: the oracle for its Lambert form."""
    ctx = table.ctx
    bits, guard, shift, d = ctx.bits, table.guard, table.shift, table.d
    w_re, w_im = table.w_re[l], table.w_im[l]
    down = shift + guard
    half = 1 << (down - 1)
    r_x, r_y = table.rho[d + k], table.rho[d - k]
    x_re, x_im = -((w_re * r_x + half) >> down), -((w_im * r_x + half) >> down)
    y_re, y_im = -((w_re * r_y + half) >> down), (w_im * r_y + half) >> down
    one = 1 << bits
    with mp.workprec(2 * bits):
        qtau2 = ctx.qtau * ctx.qtau     # exact: B exceeds the mantissa bits
    q_sc = eisenstein._scaled(ctx.qtau, bits)
    q2_sc = r = eisenstein._scaled(qtau2, bits)
    sum_re = sum_im = 0
    for _ in range(ctx.series_terms):
        n_re, n_im = y_re - x_re, y_im - x_im
        d_re, d_im = one - x_re - y_re + r, -x_im - y_im
        den = d_re * d_re + d_im * d_im
        sum_re += ((n_re * d_re + n_im * d_im) << bits) // den
        sum_im += ((n_im * d_re - n_re * d_im) << bits) // den
        x_re, x_im = x_re * q_sc >> bits, x_im * q_sc >> bits
        y_re, y_im = y_re * q_sc >> bits, y_im * q_sc >> bits
        r = r * q2_sc >> bits
    one_t, half_t = 1 << shift, 1 << (shift - 1)
    u_re = (w_re * table.rho[k] + half_t) >> shift
    u_im = (w_im * table.rho[k] + half_t) >> shift
    p_re, p_im = one_t + u_re, u_im
    m_re, m_im = u_re - one_t, u_im
    den = m_re * m_re + m_im * m_im
    lead_re = ((p_re * m_re + p_im * m_im) << (shift - 1)) // den
    lead_im = ((p_im * m_re - p_re * m_im) << (shift - 1)) // den
    acc_re = lead_re + (k << shift) // d + (sum_re << guard)
    acc_im = lead_im + (sum_im << guard)
    return (-acc_re, -acc_im) if flip else (acc_re, acc_im)


def _lemma_div_list_total(signs) -> int:
    """sum_{T subset [n]} prod_{i in T} s_i from the list of the 2^n subset
    products, built by doubling: s = +1 appends a copy of the list and
    s = -1 its negation.  The oracle for the bits of _subset_product_sum."""
    prods = [1]
    for s in signs:
        prods += prods if s == 1 else [-x for x in prods]
    return sum(prods)


def _pairwise_sum(values: list):
    """Fixed-shape binary summation tree; deterministic for a fixed order."""
    if not values:
        return mp.mpc(0)
    layer = list(values)
    while len(layer) > 1:
        nxt = [layer[i] + layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def _mpc_torsion_sums(ctx, g, ms):
    """(terms, lhs, rhs) of the torsion sums of g by the mpc route: the
    oracle for the integer subset terms of prop2_sum, twisted_sum and
    averaging_check, and for the subset-average identity lhs = rhs.

    Each e1star_values entry times chi(beta) is an mpc; each representative
    gets its subset weights prod_{i in mask} chi_{M_i}((beta)) by doubling;
    terms[mask] is one pairwise sum per mask over g, lhs their sum and rhs
    2^n times the sum over the representatives with every symbol +1.  With
    no M, terms[0] is prop2_sum; with one M, terms[1] is twisted_sum.
    """
    reps, e1 = e1star_values(ctx, g)
    sym = chi_m_symbol_table(ms, reps)
    with mp.workdps(ctx.dps):
        g_c = ctx.embed(g)
        chi_e1 = [hecke_chi(b) * v for b, v in zip(reps, e1)]
        weights = []
        for j in range(len(reps)):
            w = [1]
            for row in sym:
                w += [x * row[j] for x in w]
            weights.append(w)
        terms = [
            +(_pairwise_sum([w[mask] * v for w, v in zip(weights, chi_e1)]) / g_c)
            for mask in range(1 << len(ms))
        ]
        keep = [v for j, v in enumerate(chi_e1) if all(row[j] == 1 for row in sym)]
        rhs = +(2 ** len(ms) * _pairwise_sum(keep) / g_c)
        return terms, +_pairwise_sum(terms), rhs


@lru_cache(maxsize=None)
def _context(q: int, precision: int):
    return make_context(C49 if q == 7 else C121, precision)


@pytest.fixture(scope="module")
def ctx49():
    return _context(7, 20)


@pytest.fixture(scope="module")
def ctx121():
    return _context(11, 20)


def test_context_rejects_low_precision():
    with pytest.raises(EisensteinError):
        make_context(C49, 10)


def test_context_invariant_tripwire(ctx49, ctx121):
    # construction itself recomputes g2, g3 from q-series and compares with
    # the exact model invariants; reaching here means both agreed
    for ctx in (ctx49, ctx121):
        with mp.workdps(ctx.dps):
            assert mp.im(ctx.omega) == 0 and ctx.omega > 0
            assert abs(ctx.qtau) < 1


def test_wp_differential_equation(ctx49, ctx121):
    for ctx in (ctx49, ctx121):
        with mp.workdps(ctx.dps):
            z = ctx.lam * (mp.mpf(3) / 10 + mp.mpf(17) / 100 * ctx.tau)
            w, wd = wp_values(ctx, z)
            res = wd**2 - (4 * w**3 - ctx.g2 * w - ctx.g3)
            assert abs(res) < mp.mpf(10) ** (-(ctx.precision - 2)) * (1 + abs(w)) ** 3


def test_wp_parity(ctx49):
    with mp.workdps(ctx49.dps):
        z = ctx49.lam * (mp.mpf(1) / 5 + mp.mpf(2) / 7 * ctx49.tau)
        w1, wd1 = wp_values(ctx49, z)
        w2, wd2 = wp_values(ctx49, -z)
        assert abs(w1 - w2) < mp.mpf(10) ** -15
        assert abs(wd1 + wd2) < mp.mpf(10) ** -15


def test_wp_half_period(ctx49, ctx121):
    # wp' vanishes at lam/2 and wp is a root of the division-2 cubic
    with mp.workdps(ctx49.dps):
        w, wd = wp_values(ctx49, ctx49.lam / 2)
        assert abs(wd) < 1e-12
        assert abs(w - mp.mpf(7) / 4) < mp.mpf(10) ** -15
    with mp.workdps(ctx121.dps):
        w, wd = wp_values(ctx121, ctx121.lam / 2)
        assert abs(wd) < 1e-12
        assert abs(4 * w**3 - ctx121.g2 * w - ctx121.g3) < mp.mpf(10) ** -14


def test_torsion_point_orders():
    g7 = sqrt_minus_q(7)
    assert torsion_point(QuadInt(7, 1, 0), g7).order == 7
    assert torsion_point(QuadInt(7, 1, 1), g7).order == 7
    pi29 = QuadInt(7, 1, -4)
    assert torsion_point(QuadInt(7, 1, 0), pi29).order == 29
    assert torsion_point(QuadInt(7, 1, 0), g7 * pi29).order == 7 * 29
    with pytest.raises(EisensteinError):
        torsion_point(g7, g7)  # not coprime to the modulus


@pytest.mark.parametrize("modulus", [2, 1])
def test_torsion_point_rejects_even_and_unit_moduli(modulus):
    # the residue ring refuses these, which is what keeps every order odd
    # and at least 3
    with pytest.raises(QFieldError):
        torsion_point(QuadInt(7, 1, 0), from_int(7, modulus))


def test_b_ladder_range_check(ctx49):
    pt = torsion_point(QuadInt(7, 1, 0), sqrt_minus_q(7))
    assert len(b_ladder(ctx49, pt, 6)) == 5
    with pytest.raises(EisensteinError):
        b_ladder(ctx49, pt, 7)  # limit must stay below the order
    with pytest.raises(EisensteinError):
        b_ladder(ctx49, pt, 1)


def test_e1star_is_odd(ctx49):
    g7 = sqrt_minus_q(7)
    e_plus = e1star_torsion(ctx49, torsion_point(QuadInt(7, 1, 0), g7))
    e_minus = e1star_torsion(ctx49, torsion_point(QuadInt(7, -1, 0), g7))
    with mp.workdps(ctx49.dps):
        assert abs(e_plus + e_minus) < mp.mpf(10) ** -15
        assert abs(e_plus) > 1  # nonzero: the sum below has real content


def test_character_matches_quadratic_residues():
    # on (O/sqrt(-q))* = F_q* chi is the Legendre symbol: the residue of
    # beta = a + b*tau through the ramified prime ideal, by Euler's criterion
    for q in (7, 11):
        [(_, t0)] = primes_above(q, q)
        assert (-1 + 2 * t0) % q == 0        # sqrt(-q) = 2*tau - 1 maps to 0
        for a in range(-12, 13):
            for b in range(-12, 13):
                beta = QuadInt(q, a, b)
                r = (a + b * t0) % q
                if r == 0:
                    continue
                euler = 1 if pow(r, (q - 1) // 2, q) == 1 else -1
                assert hecke_chi(beta) == euler, (q, a, b)
                assert hecke_chi(-beta) == -euler        # chi is odd


def test_character_rejects_ramified_argument():
    for q in (7, 11):
        with pytest.raises(QFieldError):
            hecke_chi(sqrt_minus_q(q))
        with pytest.raises(QFieldError):
            hecke_chi(from_int(q, q))


def test_prop2_base_values(ctx49, ctx121):
    # principal torsion sum equals the base algebraic L-value: 1/2 for the
    # first curve, 0 for the second (odd functional equation)
    v = prop2_sum(ctx49, sqrt_minus_q(7))
    mag, phase = phase_split(v)
    with mp.workdps(ctx49.dps):
        assert abs(mag - mp.mpf(1) / 2) < mp.mpf(10) ** -18
        assert abs(phase - 1) < mp.mpf(10) ** -18
    z = prop2_sum(ctx121, sqrt_minus_q(11))
    assert abs(z) < mp.mpf(10) ** -18


def test_twisted_sum_unit_twist_is_prop2(ctx49):
    g = sqrt_minus_q(7)
    assert twisted_sum(ctx49, g, 1) == prop2_sum(ctx49, g)


def test_twisted_sum_rejects_even_twist(ctx49):
    with pytest.raises(EisensteinError):
        twisted_sum(ctx49, sqrt_minus_q(7), 2)


def test_twisted_sum_rejects_a_twist_off_1_mod_4_or_not_prime_to_q(ctx49):
    # chi_M is read modulo M only for M = 1 mod 4, prime to the conductor
    g = sqrt_minus_q(7)
    with pytest.raises(EisensteinError, match="1 mod 4"):
        twisted_sum(ctx49, g, 3)
    with pytest.raises(EisensteinError, match="conductor"):
        twisted_sum(ctx49, g * PI3, -7)


def test_twisted_sum_conductor_guard(ctx49):
    # modulus must absorb the character conductor sqrt(-q)
    with pytest.raises(EisensteinError):
        prop2_sum(ctx49, QuadInt(7, 1, -4))


def test_twisted_sum_dual_route_121b(ctx121):
    # independent route to L(E^(-3), 1): the twisted torsion sum over
    # modulus sqrt(-11)*3 must have magnitude lalg/sqrt(3) with lalg = 2,
    # the value the series summation recognizes (test_lseries pins it)
    v = twisted_sum(ctx121, sqrt_minus_q(11) * from_int(11, 3), -3)
    mag, _ = phase_split(v)
    with mp.workdps(ctx121.dps):
        assert abs(mag - 2 / mp.sqrt(3)) < mp.mpf(10) ** -15


@pytest.mark.slow
def test_twisted_sum_dual_route_49a():
    # heavyweight cross-check against the series value L^alg(E^(29)) = 2
    ctx = make_context(C49, 15)
    v = twisted_sum(ctx, sqrt_minus_q(7) * from_int(7, 29), 29)
    mag, _ = phase_split(v)
    with mp.workdps(ctx.dps):
        assert abs(mag - 2 / mp.sqrt(29)) < mp.mpf(10) ** -14


PI3 = QuadInt(7, -3, 0)
PI29 = QuadInt(7, 1, -4)


@pytest.mark.parametrize("q, factor, count", [
    (7, from_int(7, 1), 3),
    (7, PI3, 24),
    (7, PI29, 84),
    (11, from_int(11, 3), 20),
], ids=["sqrt-7", "sqrt-7*3", "sqrt-7*(1-4t)", "sqrt-11*3"])
def test_direct_e1star_matches_ladder(ctx49, ctx121, q, factor, count):
    # the q-expansion of E1* against the B-ladder oracle on every
    # representative of (O_K/g)^*/{+-1}, g = sqrt(-q)*factor
    ctx = ctx49 if q == 7 else ctx121
    g = sqrt_minus_q(q) * factor
    tol = mp.mpf(10) ** (5 - ctx.precision)
    n, worst = ladder_discrepancy(ctx, g)
    assert n == count and worst < tol
    reps, values = e1star_values(ctx, g)
    with mp.workdps(ctx.dps):
        for b, v in list(zip(reps, values))[:2]:
            assert abs(v - e1star_torsion(ctx, torsion_point(b, g))) < tol


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q, factor", [
    (7, from_int(7, 1)),
    (7, from_int(7, 29)),
    (7, PI29),
    (11, from_int(11, -7)),
], ids=["sqrt-7", "sqrt-7*29", "sqrt-7*(1-4t)", "sqrt-11*(-7)"])
def test_integer_e1star_matches_mpc_oracle(q, factor, precision):
    # the scaled-integer series against the same series summed in mpc, on
    # every representative of (O_K/g)^*/{+-1}, g = sqrt(-q)*factor
    ctx = _context(q, precision)
    g = sqrt_minus_q(q) * factor
    g_conj, g_norm = g.conj(), g.norm()
    tol = mp.mpf(10) ** (5 - ctx.dps)
    reps, values = e1star_values(ctx, g)
    flips = 0
    with mp.workdps(ctx.dps):
        for b, v in zip(reps, values):
            w = b * g_conj
            s, t = Fraction(w.a, g_norm), Fraction(w.b, g_norm)
            flips += t % 1 > Fraction(1, 2)
            assert abs(v - _e1star_mpc(ctx, s, t)) < tol, b
    assert flips  # some points go through the reflection z -> -z


@pytest.mark.parametrize("q, factor, evaluated, count", [
    (7, PI3, 15, 24),
    (7, QuadInt(7, 5, 0), 45, 72),
    (11, from_int(11, -7), 144, 240),
    (7, PI29, 84, 84),
], ids=["sqrt-7*(-3)", "sqrt-7*5", "sqrt-11*(-7)", "sqrt-7*(1-4t)"])
def test_conjugate_points_share_one_e1star(monkeypatch, q, factor, evaluated, count):
    # conj(g) = -g pairs the points (k, l, flip) and (k, -l, flip), and
    # e1star runs once per pair; g = sqrt(-7)*(1-4t) has no pairs.  Each
    # evaluated bracket is e1star at its own point, and each derived one is
    # within twice the bound of one bracket (6K + 1 units of 2^-B, times
    # 2^G at scale 2^-T) of e1star at its own point
    ctx = _context(q, 50)
    g = sqrt_minus_q(q) * factor
    calls = set()
    e1star = eisenstein._PhaseTable.e1star

    def counted(table, *point):
        calls.add(point)
        return e1star(table, *point)

    monkeypatch.setattr(eisenstein._PhaseTable, "e1star", counted)
    reps, brackets, shift = eisenstein._brackets(ctx, g)
    monkeypatch.undo()
    assert (len(calls), len(reps)) == (evaluated, count)
    d, g_conj = g.norm(), g.conj()
    table = eisenstein._PhaseTable(ctx, d)
    bound = 2 * (6 * ctx.series_terms + 1) << table.guard
    derived = 0
    for b, (x, y) in zip(reps, brackets):
        w = b * g_conj
        point = eisenstein._torsion_coords(w.a, w.b, d)[1:]
        dx, dy = table.e1star(*point)
        if point in calls:
            assert (x, y) == (dx, dy)
        else:
            derived += 1
            assert (x - dx) ** 2 + (y - dy) ** 2 <= bound ** 2, b
    assert derived == count - evaluated


@pytest.mark.parametrize("q, d", [(7, 7), (7, 203), (11, 2959), (7, 2940)])
def test_phase_table_within_its_error_bound(q, d):
    # the entries against omega^l * 2^T and rho^j * 2^T at T + 40 bits: the
    # bounds 1.43d and 1.02j of the _PhaseTable.e1star docstring
    ctx = _context(q, 20)
    table = eisenstein._PhaseTable(ctx, d)
    shift = table.shift
    assert 1 << table.guard > 16 * (2 * d + 1)
    assert len(table.w_re) == 2 * d and len(table.rho) == 3 * d // 2 + 1
    with mp.workprec(shift + 40):
        unit = mp.mpf(2) ** shift
        omega = mp.expjpi(mp.mpf(1) / d)
        rho = mp.exp(mp.log(-ctx.qtau) / d)
        worst_w = max(abs(mp.mpc(x, y) - omega ** l * unit)
                      for l, (x, y) in enumerate(zip(table.w_re, table.w_im)))
        worst_r = max(abs(x - rho ** j * unit) / max(j, 1)
                      for j, x in enumerate(table.rho))
    assert worst_w <= 1.43 * d and worst_r <= 1.02


@pytest.mark.parametrize("q", [7, 11])
@pytest.mark.parametrize("d", [7, 15, 29])
def test_lambert_e1star_matches_the_division_loop(q, d):
    # the Lambert sum against the series summed term by term with one
    # Gaussian division each, at every point (k, l, flip) of the phase
    # table (l = 2j + k mod 2d, the lattice point itself left out): each
    # bracket is within 6K + 1 units of 2^-B, 2^G times that at scale 2^-T
    ctx = _context(q, 50)
    table = eisenstein._PhaseTable(ctx, d)
    bound = 2 * (6 * ctx.series_terms + 1) << table.guard
    points = 0
    for k in range(d // 2 + 1):
        for l in range(k % 2, 2 * d, 2):
            for flip in (False, True):
                if k == l == 0:
                    continue
                x, y = table.e1star(k, l, flip)
                ox, oy = _e1star_division_loop(table, k, l, flip)
                assert (x - ox) ** 2 + (y - oy) ** 2 <= bound ** 2, (k, l, flip)
                points += 1
    assert points == 2 * (d * (d // 2 + 1) - 1)


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("s, t", [
    (Fraction(1, 3), Fraction(1, 2)),    # |qtau/u| = |qtau|^(1/2), largest
    (Fraction(0), Fraction(1, 2)),
    (Fraction(2, 5), Fraction(5, 7)),    # t > 1/2: reflected to -z
    (Fraction(-3, 11), Fraction(13, 9)),
])
def test_integer_e1star_at_half_and_flip(s, t, precision):
    for q in (7, 11):
        ctx = _context(q, precision)
        with mp.workdps(ctx.dps):
            got = _e1star_from_st(ctx, s, t)
            assert abs(got - _e1star_mpc(ctx, s, t)) < mp.mpf(10) ** (5 - ctx.dps)


def test_torsion_sums_do_not_walk_the_ladder(ctx49, monkeypatch):
    def refuse(*args):
        raise RuntimeError("a torsion sum walked the B-ladder")

    monkeypatch.setattr(eisenstein, "_b_ladder_cached", refuse)
    g = sqrt_minus_q(7)
    with mp.workdps(ctx49.dps):
        assert abs(prop2_sum(ctx49, g) - mp.mpf(1) / 2) < mp.mpf(10) ** -18
    # the {pi_3} subset term of test_averaging_single_inert, whose exact
    # coefficient is 0
    assert abs(twisted_sum(ctx49, g * PI3, -3)) < mp.mpf(10) ** -18
    assert averaging_check(ctx49, [PI3]).ok


def test_torsion_sums_take_no_per_point_mpmath_phase(ctx49, monkeypatch):
    def refuse(*args):
        raise RuntimeError("a torsion sum computed a phase in mpmath")

    monkeypatch.setattr(eisenstein, "_reduced_phase", refuse)
    g = sqrt_minus_q(7)
    reps, values = e1star_values(ctx49, g)
    assert [(b.a, b.b) for b in reps] == [(1, 0), (1, 2), (3, 0)]
    pinned = ["1.038260698286168283581769", "-0.1141217371950749690388057",
              "-0.3987366944412019807078441"]
    with mp.workdps(ctx49.dps):
        for v, im in zip(values, pinned):
            assert abs(v - mp.mpc(0, im)) < mp.mpf(10) ** -18
        assert abs(prop2_sum(ctx49, g) - mp.mpf(1) / 2) < mp.mpf(10) ** -18
    assert abs(twisted_sum(ctx49, g * PI3, -3)) < mp.mpf(10) ** -18
    rep = averaging_check(ctx49, [PI3])
    assert rep.ok and rep.coeffs == (
        (Fraction(2, 3), Fraction(0)),
        (Fraction(0), Fraction(0)),
    )
    # one expjpi and one exp (of one log) per modulus, none per point
    calls = {"expjpi": 0, "exp": 0, "log": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(mp, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(mp, name, counted)
    reps, _ = e1star_values(ctx49, g * PI29)
    assert len(reps) == 84 and calls == {"expjpi": 1, "exp": 1, "log": 1}


@settings(max_examples=30, deadline=None)
@given(conductor_moduli)
def test_integer_coordinates_match_reduced_phase(g):
    # (j, k, l, flip) of every representative against the Fraction
    # reduction: s = j/d, t = k/d, and l the exponent of the phase
    ctx = _context(g.q, 20)
    d, g_conj = g.norm(), g.conj()
    with mp.workdps(ctx.dps):
        for b in ResidueRing(g).coprime_residues_mod_units():
            w = b * g_conj
            j, k, l, flip = eisenstein._torsion_coords(w.a, w.b, d)
            u, t, flip_ref = eisenstein._reduced_phase(
                ctx, Fraction(w.a, d), Fraction(w.b, d))
            assert 0 <= j < d and 0 <= 2 * k <= d
            assert l == (2 * j + k) % (2 * d)
            assert flip == flip_ref and t == mp.mpf(k) / d
            # u = e^(pi*i*(2s + t)) * e^(-pi*sqrt(q)*t) with s = j/d
            phase = u * mp.exp(mp.pi * ctx.root_q * t)
            assert abs(phase - mp.expjpi(mp.mpf(l) / d)) < mp.mpf(10) ** (5 - ctx.dps)


def test_averaging_single_inert(ctx49):
    rep = averaging_check(ctx49, [PI3])
    assert rep.ok and rep.recognition_residual < 1e-20
    assert rep.coeffs == (
        (Fraction(2, 3), Fraction(0)),
        (Fraction(0), Fraction(0)),
    )
    with mp.workdps(ctx49.dps):
        assert abs(rep.average - mp.mpf(2) / 3) < mp.mpf(10) ** -18
    assert rep.ord2 == 1 and rep.bound == 0


def test_averaging_single_split(ctx49):
    rep = averaging_check(ctx49, [PI29])
    assert rep.ok and rep.recognition_residual < 1e-20
    assert rep.coeffs == (
        (Fraction(13, 29), Fraction(2, 29)),
        (Fraction(3, 29), Fraction(-4, 29)),
    )
    assert rep.ord2 == 1 and rep.bound == 0


def test_averaging_pair(ctx49):
    rep = averaging_check(ctx49, [PI3, PI29])
    assert rep.ok and rep.recognition_residual < 1e-20
    assert rep.coeffs == (
        (Fraction(52, 87), Fraction(8, 87)),
        (Fraction(0), Fraction(0)),
        (Fraction(2, 29), Fraction(-8, 87)),
        (Fraction(-2, 29), Fraction(8, 87)),
    )
    assert rep.ord2 == 2 and rep.bound == 1
    assert rep.n == 2 and len(rep.terms) == 4


@pytest.mark.parametrize("q, factor, ms", [
    (7, from_int(7, 1), []),
    (11, from_int(11, 1), []),
    (7, PI3, [PI3]),
    (11, from_int(11, 3), [from_int(11, -3)]),
    (7, from_int(7, 29), [from_int(7, 29)]),
], ids=["prop2-7", "prop2-11", "twist-7*(-3)", "twist-11*(-3)", "twist-7*29"])
def test_torsion_sums_match_the_mpc_route(q, factor, ms):
    ctx = _context(q, 20)
    g = sqrt_minus_q(q) * factor
    terms, _, _ = _mpc_torsion_sums(ctx, g, ms)
    got = twisted_sum(ctx, g, ms[0]) if ms else prop2_sum(ctx, g)
    with mp.workdps(ctx.dps):
        assert abs(got - terms[-1]) < mp.mpf(10) ** (5 - ctx.dps)


@pytest.mark.parametrize("q, pi", [
    (7, PI3), (7, PI29), (7, QuadInt(7, 5, 0)), (11, from_int(11, -3)),
], ids=["7*(-3)", "7*(1-4t)", "7*5", "11*(-3)"])
def test_twisted_sum_is_term_1_of_the_kernel(q, pi):
    ctx = _context(q, 20)
    g = torsion_modulus(q, [pi])
    re, im, shift = eisenstein._subset_terms(ctx, g, [pi])
    term1 = eisenstein._bracket_value(ctx, shift, re[1], im[1], ctx.embed(g))
    assert twisted_sum(ctx, g, pi) == term1


@pytest.mark.parametrize("precision, pis, ord2", [
    (50, [PI3], 1),
    (50, [PI29], 1),
    (50, [PI3, PI29], 2),
    (30, [PI3, QuadInt(7, 5, 0), PI29], 3),
], ids=["-3", "29", "-3,29", "-3,5,29"])
def test_averaging_matches_the_mpc_route(precision, pis, ord2):
    ctx = _context(7, precision)
    g = torsion_modulus(7, pis)
    terms, lhs, rhs = _mpc_torsion_sums(ctx, g, pis)
    rep = averaging_check(ctx, pis)
    assert rep.ok and rep.ord2 == ord2 and len(rep.terms) == len(terms)
    tol = mp.mpf(10) ** (5 - ctx.dps)
    with mp.workdps(ctx.dps):
        # the subset-average identity, by the oracle alone: the sum of the
        # terms is 2^n times the sum over the representatives whose every
        # symbol is +1
        assert abs(lhs - rhs) < tol
        for got, want in zip(rep.terms, terms):
            assert abs(got - want) < tol
        assert abs(rep.average - lhs) < tol


@pytest.mark.parametrize("pis", [[PI3, PI29], [PI3, QuadInt(7, 5, 0)]],
                         ids=["-3,29", "-3,5"])
def test_averaging_does_not_depend_on_the_order_of_the_representatives(
        ctx49, monkeypatch, pis):
    # g = sqrt(-7)*(-3)*5 has conj(g) = -g, so its brackets come in
    # conjugate pairs (_brackets): the pairing must not follow the order
    ref = averaging_check(ctx49, pis)
    coprime = ResidueRing.coprime_residues_mod_units
    calls = []

    def reversed_reps(ring):
        calls.append(ring.g)
        return coprime(ring)[::-1]

    monkeypatch.setattr(ResidueRing, "coprime_residues_mod_units", reversed_reps)
    rep = averaging_check(ctx49, pis)
    assert calls
    assert (rep.terms, rep.average) == (ref.terms, ref.average)
    assert rep.coeffs == ref.coeffs and rep.ord2 == ref.ord2


def _alg_mul(pis: list[QuadInt], x: dict, y: dict) -> dict:
    """Product in K[x_1..x_n]/(x_i^2 - pi_i); keys are subset bitmasks."""
    out: dict[int, QuadInt] = {}
    for tx, cx in x.items():
        for ty, cy in y.items():
            c = cx * cy
            inter = tx & ty
            i = 0
            while inter:
                if inter & 1:
                    c = c * pis[i]
                inter >>= 1
                i += 1
            t = tx ^ ty
            out[t] = out[t] + c if t in out else c
    return out


def _charpoly_ascending(mat: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial (monic) via Faddeev-LeVerrier, [c_0..c_d]."""
    d = len(mat)
    n_mat = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    cs: list[Fraction] = []
    for k in range(1, d + 1):
        prod = [
            [sum(mat[i][l] * n_mat[l][j] for l in range(d)) for j in range(d)]
            for i in range(d)
        ]
        ck = -sum(prod[i][i] for i in range(d)) / k
        cs.append(ck)
        for i in range(d):
            prod[i][i] += ck
        n_mat = prod
    return list(reversed(cs)) + [Fraction(1)]


def _element_min_ord2(pis: list[QuadInt], elem: dict, dim_n: int) -> Fraction | None:
    """min over places above 2 of ord2(elem) in K(sqrt(pi_1)..sqrt(pi_n)).

    The oracle of eisenstein._min_ord2: the minimal 2-adic Newton slope of
    the characteristic polynomial of multiplication by elem on the
    2^(n+1)-dimensional algebra over Q; None when elem = 0.
    """
    if all(c.norm() == 0 for c in elem.values()):
        return None
    q = next(iter(elem.values())).q
    d = 1 << (dim_n + 1)
    cols: list[list[Fraction]] = []
    for mask in range(1 << dim_n):
        for a in range(2):
            basis = {mask: QuadInt(q, Fraction(1 - a), Fraction(a))}
            prod = _alg_mul(pis, elem, basis)
            col = []
            for mask2 in range(1 << dim_n):
                c = prod.get(mask2)
                col.extend([c.a, c.b] if c else [Fraction(0), Fraction(0)])
            cols.append(col)
    mat = [[cols[j][i] for j in range(d)] for i in range(d)]
    coeffs = _charpoly_ascending(mat)
    if all(c == 0 for c in coeffs[:-1]):
        return None
    return min_ord2_roots(coeffs)


def test_subset_algebra_squares_to_the_primes():
    # the oracle's multiplication in K[x_1, x_2]/(x_i^2 - pi_i):
    # (x_1 x_2)^2 = pi_1 pi_2 and (x_1 + x_2)^2 = pi_1 + pi_2 + 2 x_1 x_2
    one = QuadInt(7, Fraction(1), Fraction(0))
    assert _alg_mul([PI3, PI29], {3: one}, {3: one}) == {0: PI3 * PI29}
    x = {1: one, 2: one}
    assert _alg_mul([PI3, PI29], x, x) == {0: PI3 + PI29, 3: one + one}


# pairwise coprime elements = 1 mod 4 and prime to q, as _validate_pis
# takes them: inert primes, special split primes and, for q = 7, the
# square 9 of the inert 3
ORD2_POOLS = {
    7: [QuadInt(7, 9, 0), QuadInt(7, 5, 0), PI29,
        normalize_mod4(cornacchia_split(7, 37))],
    11: [QuadInt(11, -7, 0), QuadInt(11, 13, 0),
         normalize_mod4(cornacchia_split(11, 53))],
    19: [QuadInt(19, -3, 0), QuadInt(19, 13, 0),
         normalize_mod4(cornacchia_split(19, 101))],
}
_ORD2_COORD = st.builds(Fraction, st.integers(-48, 48),
                        st.sampled_from([1, 2, 3, 4, 5, 8, 12, 16]))


@st.composite
def _ord2_cases(draw):
    q = draw(st.sampled_from(sorted(ORD2_POOLS)))
    pis = draw(st.lists(st.sampled_from(ORD2_POOLS[q]), min_size=1,
                        max_size=3, unique=True))
    # small rationals make the sums over supersets cancel now and then
    small = st.sampled_from([-2, -1, 1, 2, 4]).map(Fraction)
    coeff = st.one_of(st.just((Fraction(0), Fraction(0))),
                      st.tuples(small, st.just(Fraction(0))),
                      st.tuples(_ORD2_COORD, _ORD2_COORD))
    coeffs = draw(st.lists(coeff, min_size=1 << len(pis),
                           max_size=1 << len(pis)))
    return pis, [QuadInt(q, a, b) for a, b in coeffs]


@settings(max_examples=40, deadline=None)
@given(_ord2_cases())
def test_min_ord2_matches_the_charpoly_oracle(case):
    pis, coeffs = case
    eisenstein._validate_pis(pis[0].q, pis)
    elem = {mask: c for mask, c in enumerate(coeffs) if c.norm() != 0}
    assert eisenstein._min_ord2(pis, coeffs) == _element_min_ord2(pis, elem, len(pis))


def test_averaging_validation_errors(ctx49):
    with pytest.raises(EisensteinError, match="even norm"):
        averaging_check(ctx49, [QuadInt(7, 2, 0)])
    with pytest.raises(EisensteinError, match="unit"):
        averaging_check(ctx49, [QuadInt(7, 1, 0)])
    with pytest.raises(EisensteinError, match="1 mod 4"):
        averaging_check(ctx49, [QuadInt(7, 3, 0)])
    with pytest.raises(EisensteinError, match="coprime to the conductor"):
        averaging_check(ctx49, [QuadInt(7, -7, 0)])
    with pytest.raises(EisensteinError, match="pairwise coprime"):
        averaging_check(ctx49, [PI3, PI3])


def test_conjugate_primes_are_coprime_twisting_primes():
    # the two primes above 29 have distinct residue maps; -3*pi shares pi's
    eisenstein._validate_pis(7, [PI29, PI29.conj()])
    with pytest.raises(EisensteinError, match="pairwise coprime"):
        eisenstein._validate_pis(7, [PI29, PI29 * QuadInt(7, -3, 0)])


def test_lemma_div_small():
    for n in range(1, 7):
        assert lemma_div_bruteforce(n)
    with pytest.raises(EisensteinError):
        lemma_div_bruteforce(0)
    with pytest.raises(EisensteinError):
        lemma_div_bruteforce(13)


def test_bit_parallel_subset_sums_match_the_list_oracle():
    # every sign vector with n <= 8: 510 vectors, each summed both ways
    vectors = 0
    for n in range(1, 9):
        for signs in itertools.product((1, -1), repeat=n):
            assert eisenstein._subset_product_sum(signs) == _lemma_div_list_total(signs)
            vectors += 1
    assert vectors == 510


def test_lemma_div_largest_n():
    # 4096 sign vectors, each with its 4096 subset products
    assert lemma_div_bruteforce(LEMMA_DIV_MAX_N) and LEMMA_DIV_MAX_N == 12


def test_phase_split():
    mag, phase = phase_split(mp.mpc(-3, 4))
    assert abs(mag - 5) < 1e-15 and abs(abs(phase) - 1) < 1e-15
    mag0, phase0 = phase_split(mp.mpc(0))
    assert mag0 == 0 and phase0 == 1
