"""Central L-values of quadratic twists and their algebraic parts.

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

import mpmath as mp

from .coeffs import MAX_TABLE, CurveContext, kronecker, twisted_coeffs
from .qfield import ord2_fraction
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
    if fr == 0:
        # the sum only approximates a vanishing value; report the exact zero
        return LValueResult(curve.label, d, eps, type(value)(0), n_terms, tail,
                            fr, residual, None)
    return LValueResult(curve.label, d, eps, value, n_terms, tail,
                        fr, residual, ord2_fraction(fr))
