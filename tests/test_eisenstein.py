"""Lattice sums: wp ladders, character calibration, torsion-sum identities."""

from fractions import Fraction

import mpmath as mp
import pytest

from cmtwist import eisenstein
from cmtwist.coeffs import CoeffError
from cmtwist.eisenstein import (
    EisensteinError,
    averaging_check,
    b_ladder,
    calibrate_character,
    e1star_torsion,
    e1star_values,
    ladder_discrepancy,
    lemma_div_bruteforce,
    make_context,
    phase_split,
    prop2_sum,
    torsion_point,
    twisted_sum,
    wp_values,
)
from cmtwist.qfield import QFieldError, QuadInt, from_int, legendre, sqrt_minus_q
from cmtwist.registry import builtin_curve

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")


@pytest.fixture(scope="module")
def ctx49():
    return make_context(C49, 20)


@pytest.fixture(scope="module")
def ctx121():
    return make_context(C121, 20)


@pytest.fixture(scope="module")
def chi49():
    return calibrate_character(C49)


@pytest.fixture(scope="module")
def chi121():
    return calibrate_character(C121)


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


def test_character_matches_quadratic_residues(chi49, chi121):
    # on (O/sqrt(-q))* = F_q* the calibrated character is the Legendre symbol
    for chi, q in ((chi49, 7), (chi121, 11)):
        for r in range(1, q):
            assert chi.values[r] == legendre(r, q), (q, r)
        assert chi.values[q - 1] == -1  # chi(-1) = -1


def test_character_disjoint_calibration(chi49):
    again = calibrate_character(C49, skip=chi49.samples)
    assert again.values == chi49.values
    assert again.samples >= 10


def test_character_rejects_ramified_argument(chi49):
    with pytest.raises(CoeffError):
        chi49(sqrt_minus_q(7))


def test_prop2_base_values(ctx49, ctx121, chi49, chi121):
    # principal torsion sum equals the base algebraic L-value: 1/2 for the
    # first curve, 0 for the second (odd functional equation)
    v = prop2_sum(ctx49, chi49, sqrt_minus_q(7))
    mag, phase = phase_split(v)
    with mp.workdps(ctx49.dps):
        assert abs(mag - mp.mpf(1) / 2) < mp.mpf(10) ** -18
        assert abs(phase - 1) < mp.mpf(10) ** -18
    z = prop2_sum(ctx121, chi121, sqrt_minus_q(11))
    assert abs(z) < mp.mpf(10) ** -18


def test_twisted_sum_unit_twist_is_prop2(ctx49, chi49):
    g = sqrt_minus_q(7)
    assert twisted_sum(ctx49, chi49, g, 1) == prop2_sum(ctx49, chi49, g)


def test_twisted_sum_rejects_even_twist(ctx49, chi49):
    with pytest.raises(EisensteinError):
        twisted_sum(ctx49, chi49, sqrt_minus_q(7), 2)


def test_twisted_sum_conductor_guard(ctx49, chi49):
    # modulus must absorb the character conductor sqrt(-q)
    with pytest.raises(EisensteinError):
        prop2_sum(ctx49, chi49, QuadInt(7, 1, -4))


def test_twisted_sum_dual_route_121b(ctx121, chi121):
    # independent route to L(E^(-3), 1): the twisted torsion sum over
    # modulus sqrt(-11)*3 must have magnitude lalg/sqrt(3) with lalg = 2,
    # the value the series summation recognizes (test_lseries pins it)
    v = twisted_sum(ctx121, chi121, sqrt_minus_q(11) * from_int(11, 3), -3)
    mag, _ = phase_split(v)
    with mp.workdps(ctx121.dps):
        assert abs(mag - 2 / mp.sqrt(3)) < mp.mpf(10) ** -15


@pytest.mark.slow
def test_twisted_sum_dual_route_49a(chi49):
    # heavyweight cross-check against the series value L^alg(E^(29)) = 2
    ctx = make_context(C49, 15)
    v = twisted_sum(ctx, chi49, sqrt_minus_q(7) * from_int(7, 29), 29)
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


def test_torsion_sums_do_not_walk_the_ladder(ctx49, chi49, monkeypatch):
    def refuse(*args):
        raise RuntimeError("a torsion sum walked the B-ladder")

    monkeypatch.setattr(eisenstein, "_b_ladder_cached", refuse)
    g = sqrt_minus_q(7)
    with mp.workdps(ctx49.dps):
        assert abs(prop2_sum(ctx49, chi49, g) - mp.mpf(1) / 2) < mp.mpf(10) ** -18
    # the {pi_3} subset term of test_averaging_single_inert, whose exact
    # coefficient is 0
    assert abs(twisted_sum(ctx49, chi49, g * PI3, -3)) < mp.mpf(10) ** -18
    assert averaging_check(ctx49, chi49, [PI3]).ok


def test_averaging_single_inert(ctx49, chi49):
    rep = averaging_check(ctx49, chi49, [PI3])
    assert rep.ok and float(rep.residual) < 1e-20
    assert rep.coeffs == (
        (Fraction(2, 3), Fraction(0)),
        (Fraction(0), Fraction(0)),
    )
    with mp.workdps(ctx49.dps):
        assert abs(rep.lhs - mp.mpf(2) / 3) < mp.mpf(10) ** -18
    assert rep.ord2 == 1 and rep.bound == 0


def test_averaging_single_split(ctx49, chi49):
    rep = averaging_check(ctx49, chi49, [PI29])
    assert rep.ok and float(rep.residual) < 1e-20
    assert rep.coeffs == (
        (Fraction(13, 29), Fraction(2, 29)),
        (Fraction(3, 29), Fraction(-4, 29)),
    )
    assert rep.ord2 == 1 and rep.bound == 0


def test_averaging_pair(ctx49, chi49):
    rep = averaging_check(ctx49, chi49, [PI3, PI29])
    assert rep.ok and float(rep.residual) < 1e-20
    assert rep.coeffs == (
        (Fraction(52, 87), Fraction(8, 87)),
        (Fraction(0), Fraction(0)),
        (Fraction(2, 29), Fraction(-8, 87)),
        (Fraction(-2, 29), Fraction(8, 87)),
    )
    assert rep.ord2 == 2 and rep.bound == 1
    assert rep.n == 2 and len(rep.terms) == 4


def test_subset_algebra_squares_to_the_primes():
    # ord2 of the averaged element is read off multiplication in
    # K[x_1, x_2]/(x_i^2 - pi_i): (x_1 x_2)^2 = pi_1 pi_2 and
    # (x_1 + x_2)^2 = pi_1 + pi_2 + 2 x_1 x_2
    one = QuadInt(7, Fraction(1), Fraction(0))
    mul = eisenstein._alg_mul
    assert mul([PI3, PI29], {3: one}, {3: one}) == {0: PI3 * PI29}
    x = {1: one, 2: one}
    assert mul([PI3, PI29], x, x) == {0: PI3 + PI29, 3: one + one}


def test_averaging_validation_errors(ctx49, chi49):
    with pytest.raises(EisensteinError, match="even norm"):
        averaging_check(ctx49, chi49, [QuadInt(7, 2, 0)])
    with pytest.raises(EisensteinError, match="unit"):
        averaging_check(ctx49, chi49, [QuadInt(7, 1, 0)])
    with pytest.raises(EisensteinError, match="1 mod 4"):
        averaging_check(ctx49, chi49, [QuadInt(7, 3, 0)])
    with pytest.raises(EisensteinError, match="coprime to the conductor"):
        averaging_check(ctx49, chi49, [QuadInt(7, -7, 0)])
    with pytest.raises(EisensteinError, match="pairwise coprime"):
        averaging_check(ctx49, chi49, [PI3, PI3])


def test_lemma_div_small():
    for n in range(1, 7):
        assert lemma_div_bruteforce(n)
    with pytest.raises(EisensteinError):
        lemma_div_bruteforce(0)
    with pytest.raises(EisensteinError):
        lemma_div_bruteforce(13)


def test_phase_split():
    mag, phase = phase_split(mp.mpc(-3, 4))
    assert abs(mag - 5) < 1e-15 and abs(abs(phase) - 1) < 1e-15
    mag0, phase0 = phase_split(mp.mpc(0))
    assert mag0 == 0 and phase0 == 1
