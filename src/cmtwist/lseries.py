"""Central L-values of quadratic twists and their algebraic parts.

L(E^(D), 1) is evaluated through the exponentially convergent series
2 * sum_{n>=1} (a'_n/n) exp(-2 pi n / (sqrt(N) |D|)); the cutoff is chosen
so the rigorous tail bound (|a_n| <= 2n) is below the digit target.  The
twisted a'_n = (D d0/n) a_n(E0) are never listed: the sum runs in blocks
of whole periods of the symbol directly over the context's nonzero view of
E0's a_n (built once per command, window by window so that no dense table
of a_n exists, before a table scan of a user curve forks its row workers),
with the symbol folded into one table of scaled powers x^v per twist and
one power x^(uW) per block (central_value).  Each block is one C-level map
chain, so no Python loop runs over the terms.
The sum is taken in integers scaled by a power of 2 at every precision,
with a proven bound on the tail plus the rounding that is linear in the
number of terms, carried in logarithms so that no float under- or
overflows.  The algebraic part L * sqrt(|D|) / Omega is recognized as a
small-denominator rational by continued fractions, Omega taken once per
context and precision.  The table command of the builtin curves reads the
same algebraic part exactly from modular symbols (modsym) instead; both
routes return an LValueResult, which bsd.theorem18_report judges.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, cycle, repeat
from operator import floordiv, mul, sub
from typing import Iterator

import mpmath as mp

from .coeffs import MAX_TABLE, CurveContext, twist_symbol_period
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


def series_terms(curve: Curve, d: int, target_digits: int) -> int:
    """series_cutoff, refused above the MAX_TABLE terms a view may hold."""
    n_max = series_cutoff(curve, d, target_digits)
    if n_max > MAX_TABLE:
        raise LSeriesError(
            f"precision unattainable at this scale: {n_max} terms needed")
    return n_max


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

    @cached_property
    def ord2(self) -> int | None:
        """ord2 of lalg; None when lalg is None or 0."""
        return ord2_fraction(self.lalg) if self.lalg else None


def _power_tables(curve: Curve, d: int, c: int, width: int,
                  blocks: int) -> tuple[Iterator[int], Iterator[int]]:
    """(x^v 2^c for v < width, x^(u width) 2^c for u < blocks) as two
    streams, every entry within one unit and at most 2^c,
    x = exp(-2 pi / (sqrt(N) |d|)).

    Each stream is an integer chain at s = c + g bits, g = 3 plus the bit
    length of the longer one.  Its step X, x^w 2^s with w = 1 or width,
    is rounded within 1; P_0 = 2^s and P_j = floor(P_{j-1} X / 2^s).  The
    error e_j = P_j - x^(jw) 2^s obeys |e_j| <= |e_{j-1}| (1 + 2^-s) + 2
    (x^((j-1)w) 2^s <= 2^s times the error of X, plus one floor), so
    |e_j| <= 3j as j < 2^g <= 2^(s-c).  Each P_j is rounded once to an
    integer multiple of 2^g, which adds 1/2 unit of 2^c to 3j / 2^g < 1/2.
    """
    g = max(width, blocks).bit_length() + 3
    s = c + g
    with mp.workprec(s + 16):
        r = 2 * mp.pi / (mp.sqrt(curve.conductor) * max(abs(d), 1))
        steps = [int(mp.nint(mp.ldexp(mp.exp(-r * w), s))) for w in (1, width)]
    half = 1 << (g - 1)

    def chain(step: int, length: int) -> Iterator[int]:
        powers = accumulate(repeat(step, length - 1),
                            lambda p, step: p * step >> s, initial=1 << s)
        return ((p + half) >> g for p in powers)

    return chain(steps[0], width), chain(steps[1], blocks)


def central_value(ctx: CurveContext, d: int, target_digits: int = 10):
    """L(E^(d), 1) as (value, n_terms, bound), value and bound mpfs.

    The series 2 * sum_{n <= n_max} a_n x^n / n, x = exp(-2 pi / c),
    c = sqrt(N) |d|, a_n = (d d0/n) a_n(E0), is summed in integers at the
    scale S = 2^b, in blocks over the k positions n <= n_max of E0's
    nonzero view.  The symbol has period m = |d d0| (m = 1 for d d0 = 1);
    write n = u W + v, 0 <= v < W, with the block width
    W = m max(1, floor(sqrt(n_max) / m)) a whole number of periods, so that
    (d d0/n) = (d d0/v).  _power_tables gives x^v S for v < W, kept times
    the symbol as the table lo[v], and H_u, x^(u W) S for the
    U = floor(n_max / W) + 1 blocks; each entry is within one unit.  Block
    u sums S_u = sum floor(a_n lo[n - u W] / n) over its k_u positions, the
    positions where the symbol vanishes adding 0, and
    T = sum_u H_u S_u, value = 2 T / S^2, exact as an mpf.

    Error budget, in units of 1/S on T / S against S times the series.
    With |a_n| <= d(n) sqrt(n) <= 2n each floor is off by at most
    2 * 1 + 1 = 3 units from a_n (d d0/v) x^v S / n, so S_u by 3 k_u from
    its exact block sum, which x^(u W) <= 1 does not enlarge.  The error
    of H_u adds |S_u| / S <= k_u (2 S + 1) / S.  T / S is therefore within
    5k + k/S <= 5k + 1 units, and 2 T / S^2 within 2 (5k + 1) / S.  The
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
    n_max = series_terms(curve, d, target_digits)
    r = 2 * math.pi / (math.sqrt(curve.conductor) * max(abs(d), 1))
    log2_eps = -target_digits * math.log2(10)
    y = r * (n_max + 1) / math.log(2)       # -log2 x^(n_max+1)
    slop = 1e-9 + 2.0 ** -40 * (y - log2_eps + 64)
    log2_tail = 2 - y - math.log2(-math.expm1(-r)) - log2_eps + slop
    tail = 2.0 ** min(log2_tail, 0)         # tail / eps, capped at 1
    if tail >= 1:
        raise LSeriesError(f"series tail bound exceeds 10^-{target_digits} "
                           f"after {n_max} terms")
    b = math.ceil(math.log2(4 * (5 * n_max + 1)) - log2_eps - math.log2(1 - tail))
    period = twist_symbol_period(curve, d)
    positions, values = ctx.nonzero(n_max)
    k = bisect_right(positions, n_max)
    m = len(period)
    width = m * max(1, math.isqrt(n_max) // m)
    lo, high = _power_tables(curve, d, b, width, n_max // width + 1)
    lo = list(map(mul, cycle(period), lo))
    total = start = 0
    for u, h in enumerate(high):
        end = bisect_left(positions, (u + 1) * width, start, k)
        ns = positions[start:end]
        v = map(sub, ns, repeat(u * width))
        total += h * sum(map(floordiv, map(mul, values[start:end],
                                           map(lo.__getitem__, v)), ns))
        start = end
    with mp.workprec(max(total.bit_length(), 1)):
        value = mp.ldexp(total, 1 - 2 * b)
    # (tail + rounding) / eps; 2^-b / eps is within float range
    bound = tail + 2 * (5 * k + 1) * 2.0 ** (slop - b - log2_eps)
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


def algebraic_part(ctx: CurveContext, d: int, target_digits: int = 10) -> LValueResult:
    """|L(E^(d),1)| * sqrt(|d|) / Omega_L recognized as an exact rational
    of denominator at most 64.

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
                            Fraction(0), 0.0)
    with mp.workdps(max(target_digits, 15) + 10):
        omega = ctx.omega(max(target_digits, 15))
        ratio = abs(mp.mpf(value)) * mp.sqrt(abs(d) if d else 1) / omega
        fr, residual = recognize_rational(ratio)
    if residual >= 1e-6 * max(1.0, abs(float(fr))):
        return LValueResult(curve.label, d, eps, value, n_terms, tail,
                            None, residual)
    if fr == 0:
        # the sum only approximates a vanishing value; report the exact zero
        value = mp.mpf(0)
    return LValueResult(curve.label, d, eps, value, n_terms, tail, fr, residual)
