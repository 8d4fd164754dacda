"""Weierstrass functions and Eisenstein sums at torsion points of CM lattices.

The period lattice of each supported curve is lam * O_K with lam = i^rot *
Omega for a positive real Omega (see registry.omega_lattice; rot is the
curve's quarter-turn count), where O_K = Z + Z*tau, tau = (1+sqrt(-q))/2.
The modified Eisenstein value E1*(z) = zeta(z) - z*s2 - conj(z)/A is
evaluated at a torsion point z = (s + t*tau)*lam, s and t exact Fractions,
directly from its q-expansion: with u = e^(2*pi*i*(s + t*tau)), 0 <= t <= 1/2
(E1* is odd) and qtau = e^(2*pi*i*tau) = -e^(-pi*sqrt(q)),

    E1*(z) = (2*pi*i/lam) * [ (1+u)/(2(u-1)) + t
             + sum_{n>=1} (qtau^n/u)/(1 - qtau^n/u) - qtau^n*u/(1 - qtau^n*u) ],

one short series per point (Goldstein-Schappacher, J. reine angew. Math.
327 (1981); de Shalit, Iwasawa Theory of Elliptic Curves with Complex
Multiplication (1987), ch. II).  When conj(g) = -g the torsion points of g
come in complex-conjugate pairs whose values are conjugate, as qtau is
real, and the torsion sums run one series per pair (_brackets).  The
weight-one torsion sums

    S(g)      = g^{-1} sum_{beta} chi(beta) E1*(beta*lam/g),
    S_M(g)    = g^{-1} sum_{beta} chi_M((beta)) chi(beta) E1*(beta*lam/g),

with chi the character of conductor sqrt(-q) (qfield.hecke_chi) and
beta running over odd representatives of (O_K/g)^* / {+-1}, compute
partially stripped Hecke L-values divided by Omega; averaging_check
recognizes each S_M(g)*sqrt(M) as an exact element of K, checks that the
recognized element reproduces the average of the S_M, and bounds its 2-adic
valuation.  Both rest on the paper's opening Lemma: for pi = 1 mod 4 prime
to disc K, z = (sqrt(pi)-1)/2 is integral and K(sqrt(pi))/K is unramified
above 2 with conductor pi.  So chi_pi((beta)) is read modulo pi
(qfield.chi_m_symbol_table), and the products of the z_i are a basis above
2 in which the 2-adic valuation of the average is read off its coordinates
(_min_ord2).  For twisting
elements pi_1..pi_n each representative falls into one of 2^n sign classes
(the set of i with chi_{pi_i}((beta)) = -1), and every torsion sum of g is
one of the 2^n subset terms, +-1 combinations of the class sums of
chi(beta)*E1*(beta*lam/g) taken in one pass over the representatives in
exact integers (_subset_terms).

The oracle for the direct values is the classical ladder built from wp, wp'
(themselves q-expansions) at the multiples of a point w of exact odd order m,

    2 B_m(z) = wp''(z)/wp'(z)
             + sum_{k=2}^{m-1} (wp'(kz) - wp'(z)) / (wp(kz) - wp(z)),

    E1*(w) = -B_{m-1}(w) / m,

which costs m - 1 divisions per point (_b_ladder_cached, _e1star_cached,
ladder_discrepancy); the tests and `verify e1-ladder` use it.

The torsion points of one modulus g have coordinates s = j/N, t = k/N,
N = N(g), so their phases u = omega^l * rho^k (omega = e^(pi*i/N),
rho = e^(-pi*sqrt(q)/N)) and the start values qtau*u, qtau/u of the series
come from per-modulus tables of omega^l and rho^j in integers scaled by
2^(B+G), built from one expjpi and one exp (_PhaseTable).  Each point then
costs one Gaussian division for its leading part and the E1* series in its
Lambert form, sum_j ((qtau/u)^j - (qtau*u)^j)/(1 - qtau^j), without any
division: each term is the product of a power of rho (stepped from the
last by one rounded product), an omega^l entry and a weight
2^B/(1 - qtau^j) of the context, the products are summed exactly and the
sum is rounded once, with a proven bound on the table and series error
below one rounding at the working precision (_PhaseTable.e1star).  wp,
wp', their phase (_reduced_phase, from exact Fractions) and the ladder stay
in mpmath at a caller-chosen precision plus guard digits, so the oracle
and the direct route share no arithmetic kernel.  Torsion points are
located by exact rational coordinates, never by accumulated float error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .lseries import recognize_rational
from .qfield import (
    QuadInt,
    ResidueRing,
    as_quadint,
    chi_m_symbol_table,
    factor_ideal,
    hecke_chi,
    ord2_fraction,
    torsion_modulus,
)
from .registry import Curve, omega_lattice


class EisensteinError(ValueError):
    pass


GUARD_DIGITS = 15


# ----------------------------------------------------------------- context


@dataclass(frozen=True)
class EisensteinContext:
    """Precomputed lattice constants for one curve at one working precision.

    omega is the positive real lattice scale and lam = i^rotation * omega the
    actual lattice multiplier (period lattice = lam * O_K); scale = 2*pi*i/lam,
    fac2 = scale^2 and fac3 = scale^3 are the prefactors of the E1*, wp and
    wp' q-expansions, and series_terms bounds the q-power tail at the working
    precision (|qtau| = exp(-pi*sqrt(q))).  bits and lambert_scaled are the
    scale and the integer weights of the E1* sum (_PhaseTable.e1star).
    """

    curve: Curve
    precision: int
    dps: int
    omega: object          # mpf, positive real scale
    lam: object            # mpc, lattice multiplier i^rot * omega
    root_q: object         # mpf, sqrt(q)
    tau: object            # mpc, (1 + i*sqrt(q))/2
    qtau: object           # mpf, -exp(-pi*sqrt(q))
    g2: object             # mpf, c4/12 on the lam*O_K lattice
    g3: object             # mpf, c6/216
    scale: object
    fac2: object
    fac3: object
    series_terms: int
    bits: int              # B: each E1* bracket is within 6K + 1 units of 2^-B
    lambert_scaled: tuple  # 2^B / (1 - qtau^j) rounded, j = 1, 2, ... while not 2^B
    pass_tol: object       # mpf, 10^(5 - precision): the checks' pass threshold

    def embed(self, x: QuadInt):
        """Complex value of x = a + b*tau under tau -> (1+i*sqrt(q))/2."""
        if x.q != self.curve.q:
            raise EisensteinError("element belongs to a different field")
        with mp.workdps(self.dps):
            return +(mp.mpc(x.a) + x.b * self.tau)


def _scaled(x, bits: int) -> int:
    """The integer nearest to x * 2^bits, x an mpf; exact at any precision."""
    man, exp = x.man_exp    # |x| = man * 2^exp
    if x < 0:
        man = -man
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return (man + (1 << (-shift - 1))) >> -shift


def _lambert_weights(qtau, bits: int) -> tuple[int, ...]:
    """(c_1, c_2, ...): c_j = 2^bits / (1 - qtau^j) rounded to the nearest
    integer, exact for the mpf qtau, up to the last j where c_j != 2^bits.

    |qtau|^j falls with j, so once c_j rounds to 2^bits every later c_j
    does too.  With qtau = man * 2^exp, c_j = 2^(bits - j*exp) /
    (2^(-j*exp) - man^j), one integer division.
    """
    man, exp = qtau.man_exp
    if qtau < 0:
        man = -man
    one = 1 << bits
    weights = []
    x_man, x_exp = man, exp         # qtau^j = x_man * 2^x_exp, x_exp < 0
    while True:
        den = (1 << -x_exp) - x_man
        c = ((1 << (bits - x_exp + 1)) + den) // (2 * den)
        if c == one:
            return tuple(weights)
        weights.append(c)
        x_man, x_exp = x_man * man, x_exp + exp


def _significant_digits(decimal: str) -> int:
    mantissa = decimal.strip().lstrip("+-").lower().partition("e")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


def make_context(curve: Curve, precision: int = 50) -> EisensteinContext:
    if precision < 15:
        raise EisensteinError("precision below 15 digits is not supported")
    # the tripwire below allows a relative error of 10^-tol_digits in
    # g3 ~ omega^-6; an omega rounded to s significant digits is off by up
    # to 10^(1-s)/2 relative, and 6 * 10^(1-s)/2 <= 10^-tol_digits needs
    # s >= tol_digits + 2
    tol_digits = precision - 2
    if curve.omega_override is not None:
        have, need = _significant_digits(curve.omega_override), tol_digits + 2
        if have < need:
            raise EisensteinError(
                f"omega of {curve.label} has {have} significant digits; the "
                f"lattice check at {precision} digits needs at least {need}")
    dps = precision + GUARD_DIGITS
    with mp.workdps(dps):
        omega = omega_lattice(curve, dps)
        lam = omega * mp.mpc(0, 1) ** (curve.lattice_rotation % 4)
        root_q = mp.sqrt(curve.q)
        tau = (1 + mp.mpc(0, 1) * root_q) / 2
        qtau = -mp.exp(-mp.pi * root_q)
        scale = 2 * mp.pi * mp.mpc(0, 1) / lam
        fac2 = scale**2
        fac3 = scale**3
        g2 = mp.mpf(curve.c4) / 12
        g3 = mp.mpf(curve.c6) / 216
        n_terms = int((dps + 2) * mp.log(10) / (mp.pi * root_q)) + 6
        qtau = +qtau
        bits = mp.mp.prec + (6 * n_terms).bit_length() + 8
        ctx = EisensteinContext(
            curve=curve, precision=precision, dps=dps, omega=+omega,
            lam=+lam, root_q=+root_q, tau=+tau, qtau=qtau, g2=+g2, g3=+g3,
            scale=+scale, fac2=+fac2, fac3=+fac3, series_terms=n_terms,
            bits=bits, lambert_scaled=_lambert_weights(qtau, bits),
            pass_tol=mp.mpf(10) ** (5 - precision),
        )
        # tripwire: the weight-4/6 Eisenstein series of omega*O_K must equal
        # the exact model invariants c4/12, c6/216
        g2s, g3s = _invariants_from_series(ctx)
        tol = mp.mpf(10) ** -tol_digits
        if abs(g2s - g2) > tol * abs(g2) or abs(g3s - g3) > tol * abs(g3):
            raise EisensteinError(
                f"lattice normalization drift for {curve.label}: "
                f"series g2={g2s}, model g2={g2}"
            )
    return ctx


def _invariants_from_series(ctx: EisensteinContext):
    """(g2, g3) of the lattice lam*(Z + Z*tau) from E4/E6 q-series.

    g2(Z+Ztau) = (2*pi)^4 E4/12 and g3 = (2*pi)^6 E6/216 scale by lam^-4 and
    lam^-6; a quarter-turn rotation therefore flips the sign of g3 only.
    """
    with mp.workdps(ctx.dps):
        e4 = mp.mpf(1)
        e6 = mp.mpf(1)
        qn = mp.mpf(1)
        for n in range(1, ctx.series_terms + 1):
            qn *= ctx.qtau
            common = qn / (1 - qn)
            e4 += 240 * n**3 * common
            e6 -= 504 * n**5 * common
        two_pi = 2 * mp.pi
        return (
            +(two_pi**4 / ctx.lam**4 / 12 * e4),
            +(two_pi**6 / ctx.lam**6 / 216 * e6),
        )


# -------------------------------------------- wp and E1* via q-expansions


def _as_mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def _reduced_phase(ctx: EisensteinContext, s: Fraction, t: Fraction):
    """(u, t, flip) for z = (s + t*tau)*lam, s and t exact Fractions.

    z is reduced modulo the lattice and, when t > 1/2, replaced by -z
    (flip = True), so 0 <= t <= 1/2 and u = e^(2*pi*i*(s + t*tau)) has
    |u| <= 1; the phase e^(2*pi*i*(s + t/2)) is exact to working precision
    and the lattice itself is rejected.  Call inside mp.workdps(ctx.dps).
    """
    s %= 1
    t %= 1
    if s == 0 and t == 0:
        raise EisensteinError("pole: z lies on the lattice")
    flip = t > Fraction(1, 2)
    if flip:
        s, t = (-s) % 1, 1 - t
    phase = _as_mpf(2 * s + t)
    t = _as_mpf(t)
    u = mp.expjpi(phase) * mp.exp(-mp.pi * ctx.root_q * t)
    return u, t, flip


def _wp_from_st(ctx: EisensteinContext, s: Fraction, t: Fraction):
    """(wp(z), wp'(z)) for z = (s + t*tau)*lam, s and t exact Fractions."""
    with mp.workdps(ctx.dps):
        u, _, flip = _reduced_phase(ctx, s, t)
        u_inv = 1 / u
        omu = 1 - u
        wp = mp.mpf(1) / 12 + u / (omu * omu)
        wpd = u * (1 + u) / omu**3
        qn = mp.mpf(1)
        for _ in range(ctx.series_terms):
            qn *= ctx.qtau
            a = qn * u
            b = qn * u_inv
            oma = 1 - a
            omb = 1 - b
            omq = 1 - qn
            wp += a / (oma * oma) + b / (omb * omb) - 2 * qn / (omq * omq)
            wpd += a * (1 + a) / oma**3 - b * (1 + b) / omb**3
        wp = ctx.fac2 * wp
        wpd = ctx.fac3 * wpd
        if flip:
            wpd = -wpd
        return +wp, +wpd


def _torsion_coords(wa: int, wb: int, d: int) -> tuple[int, int, int, bool]:
    """(j, k, l, flip) for z = ((wa + wb*tau)/d)*lam, reduced as _reduced_phase.

    s = j/d and t = k/d after the reduction modulo the lattice and, when
    t > 1/2, the flip z -> -z, so 0 <= k <= d/2; l = (2j + k) mod 2d is the
    exponent of the phase e^(2*pi*i*(s + t/2)) = e^(pi*i/d)^l.
    """
    j, k = wa % d, wb % d
    if j == 0 and k == 0:
        raise EisensteinError("pole: z lies on the lattice")
    flip = 2 * k > d
    if flip:
        j, k = -j % d, d - k
    return j, k, (2 * j + k) % (2 * d), flip


class _PhaseTable:
    """E1* at the torsion points (s + t*tau)*lam with s, t in (1/d)Z.

    With omega = e^(pi*i/d) and rho = (-qtau)^(1/d) = e^(-pi*sqrt(q')/d),
    the point s = j/d, t = k/d has u = omega^l * rho^k, l = (2j + k) mod 2d,
    and, as qtau = -rho^d, qtau*u = -omega^l * rho^(d+k) and
    qtau/u = -conj(omega^l) * rho^(d-k).  So omega^l (0 <= l < 2d) and
    rho^j (0 <= j <= 3d/2) are tabulated once, as integers scaled by 2^T,
    T = B + G with B = ctx.bits and G = 4 + the bit length of 2d + 1 guard
    bits, from one expjpi and one exp; each point then needs integer
    products only.  q' is the q of ctx.qtau = -e^(-pi*sqrt(q')), which
    make_context rounds from the exact value, so |sqrt(q') - sqrt(q)| is
    a few units in the last place of ctx.root_q.
    """

    def __init__(self, ctx: EisensteinContext, d: int):
        self.ctx = ctx
        self.d = d
        self.guard = (2 * d + 1).bit_length() + 4
        self.shift = shift = ctx.bits + self.guard
        with mp.workprec(shift + 16):
            omega = mp.expjpi(mp.mpf(1) / d)
            rho = mp.exp(mp.log(-ctx.qtau) / d)
        one, half = 1 << shift, 1 << (shift - 1)
        c, s = _scaled(omega.real, shift), _scaled(omega.imag, shift)
        w_re, w_im = [one], [0]
        for _ in range(d - 1):
            x, y = w_re[-1], w_im[-1]
            w_re.append((x * c - y * s + half) >> shift)
            w_im.append((x * s + y * c + half) >> shift)
        # omega^(d+l) = -omega^l
        self.w_re = w_re + [-x for x in w_re]
        self.w_im = w_im + [-y for y in w_im]
        r = _scaled(rho, shift)
        powers = [one]
        for _ in range(3 * d // 2):
            powers.append((powers[-1] * r + half) >> shift)
        self.rho = powers

    def e1star(self, k: int, l: int, flip: bool) -> tuple[int, int]:
        """The bracket of E1*(z) at the point (k, l, flip) of _torsion_coords.

        With u = e^(2*pi*i*(s + t*tau)) and 0 <= t <= 1/2 (E1* is odd),

            E1*(z) = (2*pi*i/lam) * [ (1+u)/(2(u-1)) + t
                     + sum_{n>=1} (qtau^n/u)/(1 - qtau^n/u) - qtau^n*u/(1 - qtau^n*u) ],

        and expanding both fractions as geometric series and summing over n
        first gives the series in Lambert form,

            sum_{j>=1} ((qtau/u)^j - (qtau*u)^j) / (1 - qtau^j).

        As qtau/u = conj(omega^l) * P and qtau*u = omega^l * Q with the
        reals P = -rho^(d-k) and Q = -rho^(d+k), term j is c_j * (conj(w) *
        P^j - w * Q^j) with w = omega^m, m = l*j mod 2d, and c_j = 1/(1 -
        qtau^j): real part c_j * Re(w) * (P^j - Q^j), imaginary part -c_j *
        Im(w) * (P^j + Q^j).  p and q, the scaled P^j and Q^j, start at the
        negated table entries rho^(d-k) and rho^(d+k) and step by one
        product with that start and a rounding at scale 2^T; w is a table
        entry.  While j runs through ctx.lambert_scaled, the c_j scaled by
        2^B, each term is the exact integer c_j * (p -+ q) * w at scale
        2^(B+2T); past them c_j rounds to 2^B, and the terms (p -+ q) * w at
        scale 2^(2T) run until p rounds to 0.  One rounded shift brings both
        sums to scale 2^T, so no term needs a division.  The leading part is
        one Gaussian division at scale 2^T.  The bracket is returned as
        integers (re, im) at scale 2^-T, negated when flip is set, so
        E1*(z) = ctx.scale * (re + i*im) * 2^-T (_bracket_value).

        Table error, in units of 2^-T, against omega^l and rho^j times 2^T.
        omega and rho, computed at T + 16 bits, round to entries within
        0.71 and 0.51 (sqrt(2)/2 bounds a rounding in both components).
        Each step of the omega recurrence adds at most 0.71 (the error of
        the factor) + 0.71 (its rounding) + a product of errors below 2^-T,
        so omega^l, 0 <= l < d, is within 1.43d, and so is
        omega^(d+l) = -omega^l; each step of the rho recurrence adds at most
        0.51 + 0.5 + 2^-T, so rho^j is within 1.02j <= 1.53d.  u, rounded to
        2^T, is within 1.43d + 0.51d + 0.71 < 2d + 1 units of 2^-T
        (k <= d/2), that is within 2^-(B+4), as 2^G > 16(2d + 1).

        Series error, in units of 2^-T, against the Lambert sum taken
        exactly with the mpf qtau and u = omega^l * rho^k.  Let r = |qtau|
        <= e^(-pi*sqrt(7)) < 2.5e-4 and s = rho^(d-k) <= r^(1/2) < 0.016
        (k <= d/2); rho^(d+k) <= s.  Products of two errors are below 2^-T
        and are dropped.
        - rho-power steps: p starts within e_1 <= 1.02d (the table), and
          |p_1| <= a * 2^T with a = 0.0161, so the step to p_j leaves
          e_j <= a*e_(j-1) + a^(j-1)*e_1 + 1/2, that is e_j <= 1.02d*j*
          a^(j-1) + 0.51; over J terms they sum to at most 1.06d + 0.51J.
          The same holds for q.
        - Terms: c_j, within 1/2 of 2^B/(1 - qtau^j) <= 1.0003 * 2^B, times
          the w entry (within 1.43d) and p, q leaves term j within 1.0003 *
          (1.43d * 2s^j + e_j + e'_j) + 2^G * s^j (the rounding of c_j, also
          past the weights, where 2^B stands for c_j).  Over all terms that
          is at most 2.17d + 1.03J + 0.017 * 2^G.
        - Truncation tail: the weights cover j = 1, so the loop stops at
          the first j >= 2 with p_j = 0, where s^j * 2^T <= e_j <= 0.033d +
          0.51; the dropped terms, geometric with ratio s, come to at most
          2 * 1.0003 * (0.033d + 0.51) / (1 - s) < 0.07d + 1.04.
        - The final shift rounds each component once: 0.71.
        In all, less than 2.24d + 1.03J + 1.75 + 0.017 * 2^G units of 2^-T.
        |p_j| <= a^j * 2^T + 0.51, and p_j rounds to 0 once |p_(j-1)| < 31,
        so J <= T/5.9 + 2 (the weights end earlier, as r < a^2).  With
        2^G > 16(2d + 1) >= 80 and G/2^G <= 7/128, the series is within
        0.07 + 0.017 + (0.175(B + G) + 3.9)/2^G < 0.15 + 0.0022B units of
        2^-B.  As prec <= 3.33(dps + 2) and K > 0.057(dps + 2) + 5 (q <=
        163), 0.0022B < K: the series is within K + 1 units of 2^-B, and
        the bracket, whose leading part adds less than 3 units of 2^-T,
        within 6K + 1.  B = prec + 8 + the bit length of 6K, prec the
        mantissa bits at ctx.dps, so each bracket is off by less than
        2^-(prec+8): under 1/256 of one rounding of a unit-size value.

        Leading part: (1+u)/(2(u-1)) moves by about |du|/|u-1|^2 for an
        error du in u, and the floors of the division and of t*2^T add
        less than 3 units of 2^-T.  With |du| < 2^-(B+4) <= 2^-(prec+20)
        that is what a u 2^20 times finer than one rounding at ctx.dps
        gives, where an mpc evaluation at ctx.dps meets the same 1/|u-1|^2
        with a u rounded to 2^-prec.

        Torsion sums (_subset_terms) add R brackets exactly, as integers,
        each within 6K + 1 units of 2^-B (the leading part adds under 3
        units of 2^-T), so the sum is within R(6K + 1) <= R * 2^(B-prec-8)
        units of 2^-B, and it is rounded once at ctx.dps.  R <= N(g)/2, so
        for N(g) <= 10^5 (cli.MAX_TORSION_NORM) the sum is off by less than
        2^(8-prec), 256 units of 2^-prec: inside the guard digits.
        """
        ctx = self.ctx
        shift, d = self.shift, self.d
        w_re, w_im, period = self.w_re, self.w_im, 2 * self.d
        half = 1 << (shift - 1)
        step_p, step_q = -self.rho[d - k], -self.rho[d + k]
        p, q, m = step_p, step_q, l
        weighted_re = weighted_im = 0       # scale 2^(B+2T)
        for c in ctx.lambert_scaled:
            weighted_re += c * (p - q) * w_re[m]
            weighted_im -= c * (p + q) * w_im[m]
            p = (p * step_p + half) >> shift
            q = (q * step_q + half) >> shift
            m = (m + l) % period
        plain_re = plain_im = 0             # scale 2^(2T)
        while p:
            plain_re += (p - q) * w_re[m]
            plain_im -= (p + q) * w_im[m]
            p = (p * step_p + half) >> shift
            q = (q * step_q + half) >> shift
            m = (m + l) % period
        bits = ctx.bits
        down = bits + shift
        half_down = 1 << (down - 1)
        series_re = (weighted_re + (plain_re << bits) + half_down) >> down
        series_im = (weighted_im + (plain_im << bits) + half_down) >> down
        # (1+u)/(2(u-1)) + t at scale 2^T, u = omega^l * rho^k
        one_t = 1 << shift
        u_re = (w_re[l] * self.rho[k] + half) >> shift
        u_im = (w_im[l] * self.rho[k] + half) >> shift
        p_re, p_im = one_t + u_re, u_im
        m_re, m_im = u_re - one_t, u_im
        den = m_re * m_re + m_im * m_im
        lead_re = ((p_re * m_re + p_im * m_im) << (shift - 1)) // den
        lead_im = ((p_im * m_re - p_re * m_im) << (shift - 1)) // den
        acc_re = lead_re + (k << shift) // d + series_re
        acc_im = lead_im + series_im
        return (-acc_re, -acc_im) if flip else (acc_re, acc_im)


def _bracket_value(ctx: EisensteinContext, shift: int, re: int, im: int, g_c):
    """ctx.scale * (re + i*im) * 2^-shift / g_c at ctx.dps, for an integer
    bracket or a sum of brackets of _PhaseTable.e1star."""
    with mp.workdps(ctx.dps):
        return ctx.scale * mp.mpc(mp.ldexp(re, -shift), mp.ldexp(im, -shift)) / g_c


# ------------------------------------------------- the B-ladder oracle


class _WpCache:
    """wp/wp' at k*beta*lam/g, keyed by the +-residue of k*beta mod g.

    wp is even and wp' odd, so classes r and -r share one evaluation; the
    canonical key is the lexicographically smaller Hermite representative.
    """

    def __init__(self, ctx: EisensteinContext, g: QuadInt):
        self.ctx = ctx
        self.g = g
        self.ring = ResidueRing(g)
        self.order = self.ring.smallest_positive_integer
        self.g_conj = g.conj()
        self.g_norm = abs(g.norm())
        self.store: dict[tuple[int, int], tuple] = {}

    def wp_at(self, num: QuadInt):
        r = self.ring.reduce(num)
        rn = self.ring.reduce(-r)
        sign = 1
        key = (r.a, r.b)
        other = (rn.a, rn.b)
        if other < key:
            key, sign = other, -1
        hit = self.store.get(key)
        if hit is None:
            canon = QuadInt(self.g.q, key[0], key[1])
            w = canon * self.g_conj
            s = Fraction(w.a, self.g_norm)
            t = Fraction(w.b, self.g_norm)
            hit = _wp_from_st(self.ctx, s, t)
            self.store[key] = hit
        wp, wpd = hit
        return wp, sign * wpd


def _b_ladder_cached(cache: _WpCache, beta: QuadInt, limit: int) -> list:
    """[B_2(z), ..., B_limit(z)] at z = beta*lam/g, shared-cache walk."""
    ctx = cache.ctx
    m = cache.order
    if not 2 <= limit <= m - 1:
        raise EisensteinError(
            f"ladder limit {limit} outside 2..{m - 1} for order {m}"
        )
    with mp.workdps(ctx.dps):
        wp1, wpd1 = cache.wp_at(beta)
        acc = (6 * wp1 * wp1 - ctx.g2 / 2) / wpd1  # wp''/wp' = 2*B_2
        out = [+(acc / 2)]
        guard = mp.mpf(10) ** (-(ctx.precision // 2))
        kbeta = beta
        for k in range(2, limit):
            kbeta = cache.ring.reduce(kbeta + beta)
            wpk, wpdk = cache.wp_at(kbeta)
            den = wpk - wp1
            if abs(den) < guard * (1 + abs(wp1)):
                raise EisensteinError(
                    f"ladder step {k}: wp(kz) collides with wp(z)"
                )
            acc += (wpdk - wpd1) / den
            out.append(+(acc / 2))
        return out


def _e1star_cached(cache: _WpCache, beta: QuadInt):
    """E1*(beta*lam/g) = -B_{m-1}/m at a point of exact odd order m."""
    m = cache.order
    ladder = _b_ladder_cached(cache, beta, m - 1)
    with mp.workdps(cache.ctx.dps):
        return +(-ladder[-1] / m)


# -------------------------------------------------------- torsion sums


def _brackets(ctx: EisensteinContext, g: QuadInt) -> tuple[list, list, int]:
    """(reps, brackets, shift): the representatives beta of (O_K/g)^*/{+-1}
    and the integer bracket of _PhaseTable.e1star at each beta*lam/g.

    beta/g = beta*conj(g)/N(g) = s + t*tau with s, t in (1/N(g))Z, so every
    bracket comes from one phase table.

    Complex-conjugate pairs are evaluated once.  Each point (k, l, flip) of
    _torsion_coords is keyed by (k, min(l, -l mod 2d), flip), d = N(g).
    The bracket at (k, -l, flip) is the exact conjugate of the bracket at
    (k, l, flip): u = omega^l * rho^k becomes conj(u), as rho is real, and
    qtau and t are real, so every term of the expansion is conjugated.
    When two points share a key, e1star runs once, at the smaller phase
    index, and the other point gets (x, -y).  The key alone decides which
    member is evaluated, so the class sums of _subset_terms do not depend
    on the order of the representatives.

    When conj(g) = -g (g = sqrt(-q) times a rational integer), the pairs
    are common.  If the representative beta' is conj(beta), then
    w = beta*conj(g) gives w' = beta'*conj(g) = -conj(beta)*g = -conj(w).
    With w = j + k*tau and conj(tau) = 1 - tau, -conj(w) = -(j + k) + k*tau;
    this map commutes with the reduction modulo d and with z -> -z, so
    (j', k') = (-j - k, k) with the same flip, which depends on k alone.
    Then l' = 2j' + k' = -(2j + k) = -l mod 2d and u' = conj(u).  So the
    derived bracket is the conjugate of a bracket within 6K + 1 units of
    2^-B of its exact value (_PhaseTable.e1star), hence within 6K + 1
    units of the exact bracket at (k, l', flip), and the bound on the
    torsion sums in _PhaseTable.e1star holds unchanged.  (A representative
    -conj(beta) has w' = conj(w), whose k' = d - k gives the opposite flip:
    its key differs, and it is evaluated on its own.)

    When g is neither conj(g) nor -conj(g), no two points share a key, and
    every point is evaluated at its own (k, l, flip).
    """
    reps = ResidueRing(g).coprime_residues_mod_units()
    g_conj = g.conj()
    d = g.norm()
    table = _PhaseTable(ctx, d)
    points = []
    for b in reps:
        w = b * g_conj
        points.append(_torsion_coords(w.a, w.b, d)[1:])
    present = set(points)
    memo: dict[tuple[int, int, bool], tuple[int, int]] = {}
    brackets = []
    for k, l, flip in points:
        l_bar = -l % (2 * d)
        conjugate = l_bar < l and (k, l_bar, flip) in present
        key = (k, l_bar, flip) if conjugate else (k, l, flip)
        if key not in memo:
            memo[key] = table.e1star(*key)
        x, y = memo[key]
        brackets.append((x, -y) if conjugate else (x, y))
    return reps, brackets, table.shift


def e1star_values(ctx: EisensteinContext, g: QuadInt) -> tuple[list, list]:
    """Representatives beta of (O_K/g)^*/{+-1} and E1*(beta*lam/g) at each;
    the ladder (_e1star_cached) is its oracle."""
    reps, brackets, shift = _brackets(ctx, g)
    return reps, [_bracket_value(ctx, shift, x, y, 1) for x, y in brackets]


def ladder_discrepancy(ctx: EisensteinContext, g: QuadInt) -> tuple[int, object]:
    """(count, worst |direct - ladder|) over every representative of g.

    Compares e1star_values with -B_{m-1}/m from the B-ladder on all of
    (O_K/g)^*/{+-1}; the ladders share one wp cache.
    """
    reps, direct = e1star_values(ctx, g)
    cache = _WpCache(ctx, g)
    with mp.workdps(ctx.dps):
        worst = max(
            abs(d - _e1star_cached(cache, b)) for b, d in zip(reps, direct)
        )
    return len(reps), worst


def _subset_terms(ctx: EisensteinContext, g: QuadInt, ms: list) -> tuple[list, list, int]:
    """(re, im, shift): the 2^n subset terms of the torsion sums of g,
    t_mask = sum over beta of prod_{i in mask} chi_{M_i}((beta)) * chi(beta)
    * bracket(beta) (_brackets), each ctx.scale * (re + i*im) * 2^-shift.

    Each beta falls into the sign class c with bit i set where
    chi_{M_i}((beta)) = -1 (chi_m_symbol_table); the class sums C_c are
    added as integers, so they do not depend on the order of the beta, and
    t_mask = sum over c of (-1)^|c & mask| * C_c by an in-place butterfly.
    """
    # (sqrt(-q)) is the only prime above q, so it divides g iff q | N(g)
    if g.norm() % g.q:
        raise EisensteinError(f"modulus {g} is not divisible by the character conductor")
    reps, brackets, shift = _brackets(ctx, g)
    sym = chi_m_symbol_table(ms, reps)
    re, im = [0] * (1 << len(ms)), [0] * (1 << len(ms))
    for j, (b, (x, y)) in enumerate(zip(reps, brackets)):
        mask = sum(1 << i for i, row in enumerate(sym) if row[j] < 0)
        sign = hecke_chi(b)
        re[mask] += sign * x
        im[mask] += sign * y
    for xs in (re, im):
        for i in range(len(ms)):
            bit = 1 << i
            for mask in range(len(xs)):
                if not mask & bit:
                    a, b = xs[mask], xs[mask | bit]
                    xs[mask], xs[mask | bit] = a + b, a - b
    return re, im, shift


def prop2_sum(ctx: EisensteinContext, g: QuadInt):
    """g^{-1} * sum over (O_K/g)^*/{+-1} of chi(beta) * E1*(beta*lam/g).

    Equals the partially stripped L-value L_S(psibar, 1)/Omega, S the primes
    dividing g; chi(beta)*E1*(beta...) = E1*(psi((beta))*lam/g) since E1*
    is odd, so the result only depends on the ideal (beta).
    """
    re, im, shift = _subset_terms(ctx, g, [])
    return _bracket_value(ctx, shift, re[0], im[0], ctx.embed(g))


def twisted_sum(ctx: EisensteinContext, g: QuadInt, m_twist):
    """prop2_sum with the extra quadratic-symbol weight chi_M((beta)).

    m_twist is a QuadInt (or int) congruent to 1 mod 4 and prime to q, as
    _validate_pis takes a twisting element, and prime to the
    representatives being summed; m_twist = 1 recovers prop2_sum exactly.
    """
    m_el = as_quadint(g.q, m_twist)
    ms = [] if m_el == QuadInt(g.q, 1, 0) else [m_el]
    _validate_pis(g.q, ms)
    re, im, shift = _subset_terms(ctx, g, ms)
    return _bracket_value(ctx, shift, re[-1], im[-1], ctx.embed(g))


# ------------------------------------------------- averaged torsion sums


@dataclass
class AveragingReport:
    """The subset terms at g_n = sqrt(-q)*pi_1*...*pi_n and their average.

    terms[mask] = S_M(g_n) for the subset product M of the pi_i in mask,
    and average is their sum.  coeffs, when recognition succeeds, give the
    exact element sum_M c_M * prod_{i in M} sqrt(pi_i) with c_M in K; ord2
    is the minimal 2-adic valuation of that element over the places above 2
    (an integer: those places are unramified), to be compared with the
    bound n - alpha.
    """

    label: str
    pis: tuple
    n: int
    g: QuadInt
    average: object
    terms: tuple                  # t_M per subset mask, ascending mask order
    coeffs: tuple | None          # ((x_M, y_M) Fractions) per mask, or None
    recognition_residual: object
    ord2: int | None
    bound: int
    ok: bool
    note: str


def _validate_pis(q: int, pis: list[QuadInt]) -> None:
    seen: set[tuple[int, int | None]] = set()
    for pi in pis:
        if pi.q != q:
            raise EisensteinError("twisting prime from a different field")
        if not pi.is_odd():
            raise EisensteinError(f"{pi} has even norm")
        if pi.is_unit():
            raise EisensteinError(f"{pi} is a unit")
        if pi.a % 4 != 1 or pi.b % 4 != 0:
            raise EisensteinError(f"{pi} is not congruent to 1 mod 4")
        if pi.norm() % q == 0:
            raise EisensteinError(f"{pi} is not coprime to the conductor")
        for prime, _ in factor_ideal(pi):
            if prime in seen:
                raise EisensteinError("twisting primes are not pairwise coprime")
            seen.add(prime)


def _min_ord2(pis: list[QuadInt], coeffs: list[QuadInt]) -> int | None:
    """min over places above 2 of ord2(sum_M coeffs[M] * prod_{i in M} sqrt(pi_i)).

    Each pi_i = 1 mod 4, so sqrt(pi_i) = 1 + 2*z_i with z_i^2 + z_i =
    (pi_i - 1)/4 integral of unit discriminant pi_i: the products
    Z_S = prod_{i in S} z_i are an etale basis above 2, in which an
    integral element is divisible by 2 exactly when every coordinate is.
    As prod_{i in M} (1 + 2*z_i) = sum_{S in M} 2^|S| Z_S, the minimum is
    min over S of |S| + ord2_K(sum_{M containing S} c_M), with
    ord2_K(x + y*tau) = min(ord2 x, ord2 y); None when the element is 0.
    """
    sums = list(coeffs)
    for i in range(len(pis)):
        bit = 1 << i
        for mask in range(len(sums)):
            if not mask & bit:
                sums[mask] = sums[mask] + sums[mask | bit]
    vals = [bin(mask).count("1") + min(ord2_fraction(x) for x in (c.a, c.b) if x)
            for mask, c in enumerate(sums) if c.a or c.b]
    return min(vals, default=None)


def averaging_check(ctx: EisensteinContext, pis: list[QuadInt]) -> AveragingReport:
    """Recognize the subset average of twisted torsion sums at g = sqrt(-q)*prod(pi_i).

    Each subset term S_M(g) times sqrt(M) is recognized as an exact element
    of K, each recognition within ctx.pass_tol; the recognized element
    sum_M c_M sqrt(M) must reproduce the average (the sum of the 2^n terms)
    within ctx.pass_tol too, and its minimal 2-adic valuation is compared
    against n - alpha.
    """
    curve, n = ctx.curve, len(pis)
    q = curve.q
    _validate_pis(q, pis)
    g = torsion_modulus(q, pis)
    t_re, t_im, shift = _subset_terms(ctx, g, pis)
    g_c = ctx.embed(g)
    with mp.workdps(ctx.dps):
        terms = [_bracket_value(ctx, shift, x, y, g_c) for x, y in zip(t_re, t_im)]
        average = _bracket_value(ctx, shift, sum(t_re), sum(t_im), g_c)
        roots, pi_prods = [mp.mpc(1)], [QuadInt(q, 1, 0)]
        for pi in pis:
            root = mp.sqrt(ctx.embed(pi))
            roots += [r * root for r in roots]
            pi_prods += [x * pi for x in pi_prods]

        # exact recognition: t_M * sqrt(M) lies in K for each subset M
        elems: list[QuadInt] = []
        rec_residual = 0.0
        rec_ok = True
        for mask in range(1 << n):
            s_val = terms[mask] * roots[mask]
            y_c = 2 * mp.im(s_val) / ctx.root_q
            x_c = mp.re(s_val) - y_c / 2
            xf, xres = recognize_rational(x_c, 10**7)
            yf, yres = recognize_rational(y_c, 10**7)
            rec_residual = max(rec_residual, xres, yres)
            if max(xres, yres) > ctx.pass_tol:
                rec_ok = False
            elems.append(QuadInt(q, xf, yf) / pi_prods[mask])
        coeffs = [(c.a, c.b) for c in elems]

        bound = n - curve.alpha
        ord2: int | None = None
        note = ""
        if rec_ok:
            ord2 = _min_ord2(pis, elems)
            if ord2 is None:
                note = "average vanishes exactly"
            # evaluate the recognized element back, same branches
            approx = mp.mpc(0)
            for (xf, yf), root in zip(coeffs, roots):
                approx += (
                    mp.mpf(xf.numerator) / xf.denominator
                    + (mp.mpf(yf.numerator) / yf.denominator) * ctx.tau
                ) * root
            if abs(approx - average) > ctx.pass_tol:
                rec_ok = False
                note = "recognized element does not reproduce the average"
        else:
            note = "rational recognition failed; valuation indeterminate"

        bound_holds = ord2 is None or ord2 >= bound
        ok = bool(rec_ok and bound_holds)
        return AveragingReport(
            label=curve.label,
            pis=tuple(pis),
            n=n,
            g=g,
            average=average,
            terms=tuple(terms),
            coeffs=tuple(coeffs) if rec_ok else None,
            recognition_residual=rec_residual,
            ord2=ord2,
            bound=bound,
            ok=ok,
            note=note,
        )


LEMMA_DIV_MAX_N = 12  # 2^n sign vectors, each a subset table of 2^n bits


def lemma_div_bruteforce(n: int) -> bool:
    """Exhaustively verify sum_{T subset [n]} prod_{i in T} s_i = 2^n or 0.

    The sum over all subsets of a sign vector s in {+-1}^n equals 2^n when
    every s_i = +1 and vanishes otherwise; checked literally for all 2^n
    vectors.  The subset products of one vector are the bits of one int,
    bit T set when prod_{i in T} s_i = -1, built by doubling: after
    s_1..s_i the int holds the products of the masks below 2^i, its width
    w = 2^i, so s_{i+1} = +1 appends a copy of the w bits, x | x << w, and
    -1 their complement, x | (x ^ (2^w - 1)) << w.  The sum is then 2^n
    minus twice the number of set bits.
    """
    if not 1 <= n <= LEMMA_DIV_MAX_N:
        raise EisensteinError(f"n must be between 1 and {LEMMA_DIV_MAX_N}")
    size = 1 << n
    for signs in itertools.product((1, -1), repeat=n):
        expected = size if -1 not in signs else 0
        if _subset_product_sum(signs) != expected:
            return False
    return True


def _subset_product_sum(signs) -> int:
    """sum_{T subset [n]} prod_{i in T} s_i for the signs s_1..s_n, by the
    bit doubling of lemma_div_bruteforce."""
    prods, width = 0, 1                 # the empty product is +1
    for s in signs:
        prods |= (prods if s == 1 else prods ^ ((1 << width) - 1)) << width
        width <<= 1
    return width - 2 * prods.bit_count()


def phase_split(value):
    """(|value|, value/|value|); phase 1 for zero.  Sums above are computed
    with a fixed orientation convention, so callers compare magnitudes and
    report the phase rather than assuming a sign."""
    mag = abs(value)
    if mag == 0:
        return mag, mp.mpc(1)
    return mag, value / mag
