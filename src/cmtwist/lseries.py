"""Central L-values of quadratic twists and their algebraic parts.

L(E^(D), 1) is evaluated through the exponentially convergent series
2 * sum_{n>=1} (a'_n/n) exp(-2 pi n / (sqrt(N) |D|)); the cutoff is chosen
so the rigorous tail bound (|a_n| <= 2n) is below the digit target.  The
nonzero twisted a'_n are streamed from the context's nonzero view of the
untwisted table times the periodic Kronecker symbol (coeffs.twisted_coeffs;
the view is built lazily, once per process and table) and summed at every
precision in integers scaled by a power of 2, with a proven bound on the
tail plus the rounding (central_value), carried in logarithms so that no
float under- or overflows at any precision.  The algebraic part
L * sqrt(|D|) / Omega is recognized as a small-denominator rational by
continued fractions, Omega taken once per context and precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .coeffs import MAX_TABLE, CurveContext, twisted_coeffs
from .qfield import kronecker, ord2_fraction
from .registry import Curve


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
    analytic_value: object  # mpf, |L(E^(D), 1)|
    n_terms: int
    tail_bound: object      # mpf, total series error: truncated tail plus rounding
    lalg: Fraction | None
    lalg_residual: float
    ord2: int | None


class _ScaledPowers(dict):
    """g -> the nearest integer to x^g 2^b, x = exp(-2 pi / (sqrt(N) |d|)).

    X is x 2^B rounded, B = b + 64, so X = x 2^B (1 + eta) with
    |eta| <= 2^-B / x, and x >= exp(-2 pi / 7) since sqrt(N) >= 7.  X^g
    rounded at 2^(Bg - b) is then within 1/2 + 5 g 2^-64 < 1 of x^g 2^b.
    """

    def __init__(self, curve: Curve, d: int, b: int):
        super().__init__()
        self.b, self.big = b, b + 64
        with mp.workprec(self.big + 16):
            x = mp.exp(-2 * mp.pi / (mp.sqrt(curve.conductor) * max(abs(d), 1)))
            self.x = int(mp.nint(mp.ldexp(x, self.big)))

    def __missing__(self, g: int) -> int:
        shift = self.big * g - self.b
        step = self[g] = (self.x ** g + (1 << (shift - 1))) >> shift
        return step


def central_value(ctx: CurveContext, d: int, target_digits: int = 10):
    """L(E^(d), 1) as (value, n_terms, bound), value and bound mpfs.

    The series 2 * sum_{n <= n_max} a_n x^n / n, x = exp(-2 pi / c),
    c = sqrt(N) |d|, is summed in integers scaled by S = 2^b over the
    nonzero a_n at n_1 < ... < n_k.  G_g is within one unit of x^g S
    (_ScaledPowers).  P_0 = S and P_j = floor(P_{j-1} G_g / S) with
    g = n_j - n_{j-1}; the sum is T = sum_j floor(a_{n_j} P_j / n_j) and
    value = 2 T / S, exact as an mpf.

    Error budget.  e_j = P_j - x^{n_j} S obeys
    |e_j| <= |e_{j-1}| (1 + 1/S) + 2 (the error of G_g, scaled by
    x^{n_{j-1}} <= 1, plus one floor), so |e_j| <= 3j while 3k <= S.
    With |a_n| <= d(n) sqrt(n) <= 2n, the j-th term is off by at most
    2 * 3j + 1 units, and 2 T / S by at most 2 (3k(k+1) + k) / S.  The
    truncated tail is 2 sum_{n > n_max} 2 x^n = 4 x^{n_max+1} / (1 - x).
    The bound returned is tail plus rounding, and it must lie below
    eps = 10^-target_digits.  b is chosen so that the rounding, with
    k <= n_max, is at most half of the slack the tail leaves below eps.

    The budget is carried relative to eps through base-2 logarithms, so no
    float under- or overflows at any precision: tail / eps is
    2^(2 - (n_max+1) r / ln 2 - log2(1 - x) - log2 eps), r = 2 pi / c,
    with the exponent raised by 1e-9 plus 2^-40 of the size of its terms,
    past their float error.  The bound is rounded up as an mpf.

    Exact 0 without summation when the twist root number is -1.
    """
    curve = ctx.curve
    if twist_root_number(curve, d) == -1:
        return mp.mpf(0), 0, 0.0
    n_max = series_cutoff(curve, d, target_digits)
    if n_max > MAX_TABLE:
        raise LSeriesError(
            f"precision unattainable at this scale: {n_max} terms needed")
    r = 2 * math.pi / (math.sqrt(curve.conductor) * max(abs(d), 1))
    log2_eps = -target_digits * math.log2(10)
    y = r * (n_max + 1) / math.log(2)       # -log2 x^(n_max+1)
    slop = 1e-9 + 2.0 ** -40 * (y - log2_eps + 64)
    log2_tail = 2 - y - math.log2(-math.expm1(-r)) - log2_eps + slop
    tail = 2.0 ** min(log2_tail, 0)         # tail / eps, capped at 1
    if tail >= 1:
        raise LSeriesError(f"series tail bound exceeds 10^-{target_digits} "
                           f"after {n_max} terms")
    b = math.ceil(math.log2(4 * (3 * n_max * (n_max + 1) + n_max))
                  - log2_eps - math.log2(1 - tail))
    power = _ScaledPowers(curve, d, b)
    total = k = prev = 0
    p = 1 << b
    for n, a_n in twisted_coeffs(ctx, d, n_max):
        p = p * power[n - prev] >> b
        total += a_n * p // n
        prev = n
        k += 1
    with mp.workprec(max(total.bit_length(), 1)):
        value = mp.ldexp(total, 1 - b)
    # (tail + rounding) / eps; 2^-b / eps is within float range
    bound = tail + 2 * (3 * k * (k + 1) + k) * 2.0 ** (slop - b - log2_eps)
    if bound >= 1:
        raise LSeriesError(
            f"series error bound exceeds 10^-{target_digits} "
            f"after {n_max} terms")
    eps = mp.ldexp(mp.fdiv(1, 5 ** target_digits, rounding="u"), -target_digits)
    return value, n_max, mp.fmul(bound, eps, rounding="u")


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

    Omega_L is the period-lattice scale (omega_lattice, taken once per
    context and precision through CurveContext.omega), the normalization
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
        omega = ctx.omega(max(target_digits, 15))
        ratio = abs(mp.mpf(value)) * mp.sqrt(abs(d) if d else 1) / omega
        fr, residual = recognize_rational(ratio, max_den)
    if residual >= 1e-6 * max(1.0, abs(float(fr))):
        return LValueResult(curve.label, d, eps, value, n_terms, tail,
                            None, residual, None)
    if fr == 0:
        # the sum only approximates a vanishing value; report the exact zero
        return LValueResult(curve.label, d, eps, mp.mpf(0), n_terms, tail,
                            fr, residual, None)
    return LValueResult(curve.label, d, eps, value, n_terms, tail,
                        fr, residual, ord2_fraction(fr))
