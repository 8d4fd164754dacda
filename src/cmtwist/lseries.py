"""Central L-values of quadratic twists, algebraic parts, Euler factors.

L(E^(D), 1) is evaluated through the exponentially convergent series
2 * sum_{n>=1} (a'_n/n) exp(-2 pi n / (sqrt(N) |D|)); the cutoff is chosen
so the rigorous tail bound (|a_n| <= 2n) is below the digit target.  The
twisted a'_n are streamed from the context's untwisted table times the
periodic Kronecker symbol (coeffs.twisted_coeffs).  Up to 13 digits the
terms are floats, with x^n as a running product, summed by math.fsum
(correctly rounded); beyond that the sum runs in mpmath.  The algebraic part
L * sqrt(|D|) / Omega is recognized as a small-denominator rational by
continued fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, truediv
from typing import Iterable

import mpmath as mp

from .coeffs import (MAX_TABLE, CurveContext, HeckeCharacter, kronecker,
                     twisted_coeffs)
from .qfield import (PrimeIdeal, QuadInt, as_quadint, from_int,
                     min_ord2_roots, ord2_fraction, qr_symbol)
from .registry import Curve, omega_lattice

FLOAT_DIGIT_LIMIT = 13  # beyond this the series runs under mpmath


class LSeriesError(ValueError):
    pass


def twist_root_number(curve: Curve, d: int) -> int:
    """Root number of E^(d): chi_d(-N(E)) * w_E."""
    if d == 0:
        d = 1
    sign_part = 1 if d > 0 else -1  # (d / -1)
    return sign_part * kronecker(d, curve.conductor) * curve.w


def series_cutoff(curve: Curve, d: int, target_digits: int) -> int:
    """Terms needed so that 2*sum_{n>n0} (2n/n) x^n < 10^-target_digits."""
    c = math.sqrt(curve.conductor) * max(abs(d), 1)
    r = 2 * math.pi / c
    one_minus_x = -math.expm1(-r)
    n0 = (target_digits * math.log(10) + math.log(4.0) - math.log(one_minus_x)) / r
    return max(8, math.ceil(n0))


@dataclass(frozen=True)
class LValueResult:
    label: str
    twist_disc: int
    root_number: int
    analytic_value: object  # float or mpf, |L(E^(D), 1)|
    n_terms: int
    tail_bound: float
    lalg: Fraction | None
    lalg_residual: float
    ord2: int | None


def central_value(ctx: CurveContext, d: int, target_digits: int = 10):
    """L(E^(d), 1) and the term count, as (value, n_terms, tail_bound).

    Exact 0 without summation when the twist root number is -1.
    """
    curve = ctx.curve
    if twist_root_number(curve, d) == -1:
        return (0.0 if target_digits <= FLOAT_DIGIT_LIMIT else mp.mpf(0)), 0, 0.0
    n_max = series_cutoff(curve, d, target_digits)
    if n_max > MAX_TABLE:
        raise LSeriesError(
            f"precision unattainable at this scale: {n_max} terms needed")
    coeffs = twisted_coeffs(ctx, d, n_max)
    c = math.sqrt(curve.conductor) * max(abs(d), 1)
    if target_digits <= FLOAT_DIGIT_LIMIT:
        x = math.exp(-2 * math.pi / c)
        powers = accumulate(repeat(x, n_max), mul)       # x, x*x, (x*x)*x, ...
        terms = map(mul, map(truediv, coeffs, range(1, n_max + 1)), powers)
        value = 2.0 * math.fsum(terms)
        tail = 4.0 * x ** (n_max + 1) / (1.0 - x)
    else:
        with mp.workdps(target_digits + 10):
            x = mp.exp(-2 * mp.pi / (mp.sqrt(curve.conductor) * abs(d if d else 1)))
            total = mp.mpf(0)
            xn = mp.mpf(1)
            for n, a_n in enumerate(coeffs, 1):
                xn *= x
                if a_n:
                    total += mp.mpf(a_n) / n * xn
            value = +(2 * total)
            tail = float(4 * xn * x / (1 - x))
    if tail >= 10.0 ** (-target_digits):
        raise LSeriesError(
            f"series tail bound {tail:.3g} exceeds 10^-{target_digits} "
            f"after {n_max} terms")
    return value, n_max, tail


def recognize_rational(x, max_den: int = 64) -> tuple[Fraction, float]:
    """Nearest rational with denominator <= max_den, plus the residual.

    The residual |x - candidate| is computed by mpmath at the caller's
    working precision and returned as a float.
    """
    fr = Fraction(float(x)).limit_denominator(max_den)
    return fr, float(abs(mp.mpf(x) - mp.mpf(fr.numerator) / fr.denominator))


def algebraic_part(ctx: CurveContext, d: int, target_digits: int = 10,
                   max_den: int = 64) -> LValueResult:
    """|L(E^(d),1)| * sqrt(|d|) / Omega_L recognized as an exact rational.

    Omega_L is the period-lattice scale (omega_lattice), the normalization
    under which the algebraic part is a 2-integral-denominator rational.
    When the residual exceeds 1e-6 * max(1, |candidate|) no rational is
    claimed (lalg = None) and the raw ratio stays available through
    analytic_value and lalg_residual.
    """
    curve = ctx.curve
    eps = twist_root_number(curve, d)
    value, n_terms, tail = central_value(ctx, d, target_digits)
    if eps == -1:
        return LValueResult(curve.label, d, eps, value, n_terms, tail,
                            Fraction(0), 0.0, None)
    with mp.workdps(max(target_digits, 15) + 10):
        omega = omega_lattice(curve, max(target_digits, 15))
        ratio = abs(mp.mpf(value)) * mp.sqrt(abs(d) if d else 1) / omega
        fr, residual = recognize_rational(ratio, max_den)
    if residual >= 1e-6 * max(1.0, abs(float(fr))):
        return LValueResult(curve.label, d, eps, value, n_terms, tail,
                            None, residual, None)
    ord2 = ord2_fraction(fr) if fr != 0 else None
    return LValueResult(curve.label, d, eps, value, n_terms, tail,
                        fr, residual, ord2)


# ---- exact Euler factors over K -------------------------------------------

@dataclass(frozen=True)
class StripFactor:
    prime: PrimeIdeal
    num: QuadInt  # factor = num / den with den = N(prime)
    den: int
    ord2: Fraction  # 2-adic valuation of the factor, minimum over places


@dataclass(frozen=True)
class EulerStrip:
    num: QuadInt
    den: int
    factors: tuple[StripFactor, ...]


def _element_ord2(num: QuadInt, den: int) -> Fraction:
    """min over places above 2 of ord_2(num/den), via the Newton polygon
    of the characteristic polynomial x^2 - tr(z) x + N(z)."""
    tr = Fraction(num.trace(), den)
    nm = Fraction(num.norm(), den * den)
    if nm == 0:
        raise LSeriesError("ord2 of zero")
    return min_ord2_roots([nm, -tr, Fraction(1)])


def euler_strip(curve: Curve, m_twist: int, s_primes: Iterable[PrimeIdeal],
                chi: HeckeCharacter) -> EulerStrip:
    """prod_{P in S} (1 - conj(psi_M(P))/N(P)) as an exact element of K.

    psi_M = psi_E * (M/.) is the twisted character; every P must be
    coprime to its conductor (in particular to M and to the base conductor).
    Per-factor 2-adic valuations are exposed for order-of-vanishing checks.
    """
    m_elem = as_quadint(curve.q, m_twist)
    num = from_int(curve.q, 1)
    den = 1
    factors = []
    for prime in s_primes:
        if curve.f_norm % prime.p == 0:
            raise LSeriesError(f"prime above {prime.p} divides the conductor")
        if m_twist % prime.p == 0:
            raise LSeriesError(f"prime above {prime.p} divides the twist {m_twist}")
        tw = qr_symbol(m_elem, prime)
        if tw not in (-1, 1):
            raise LSeriesError(
                f"symbol of {m_twist} at the prime above {prime.p} is {tw}, "
                f"not +-1")
        # conj(psi_M(P)) = (M/P) * chi(gen) * conj(gen)
        psi_bar = prime.gen.conj().scale(tw * chi(prime.gen))
        n_p = prime.residue_size
        fac_num = from_int(curve.q, n_p) - psi_bar
        factors.append(StripFactor(prime, fac_num, n_p,
                                   _element_ord2(fac_num, n_p)))
        num = num * fac_num
        den *= n_p
    return EulerStrip(num, den, tuple(factors))
