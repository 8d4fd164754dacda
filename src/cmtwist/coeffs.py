"""Dirichlet coefficients a_n of L(E, s) and of its quadratic twists.

A curve E with CM by O_K is the twist E0^(d0) of the curve E0 of K whose
Hecke character psi((alpha)) = chi(alpha) * alpha has conductor sqrt(-q)
(d0 = Curve.base_twist, 1 for the built-in curves); chi is the Legendre
symbol mod sqrt(-q) (qfield.hecke_chi).  For E0, a_p = 0 at inert primes
and a_p = chi(pi_p) * trace(pi_p) at split primes, so
a_p(E) = (d0/p) chi(pi_p) trace(pi_p).  Point counts mod p on the
Weierstrass model check that formula (check_point_counts); they do not
feed the coefficients.

A CurveContext keeps E0's untwisted a_n once per command, and only as
the positions n with a_n(E0) != 0 and their values: most a_n of a CM
curve vanish (about 83% below 10^6 for q = 7).  The a_n come from the
theta series of psi over O_K (theta_window), since L(E0, s) = L(psi, s):
no sieve and no a_p.  The view is built window by window: each window of
a_n is compressed into the view and dropped, so no dense table of a_n
exists, and a request past the view appends windows to it.  The table
command of a user curve builds this view before its row workers fork, so
they share it and build nothing (the builtin curves' tables read modular
symbols and build no view).  A twist by a discriminant d coprime to N
multiplies a_n by the Kronecker symbol (d/n), so
a_n(E^(d)) = (d d0/n) a_n(E0), and (d d0/.) is periodic mod |d d0|.
twist_symbol_period gives one period of it; the series sum
(lseries.central_value) folds that period into a table of powers of its
own and runs over the view directly, so no twisted a_n is ever listed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, islice
from math import gcd, isqrt, prod
from operator import itemgetter, mul
from typing import Iterable, Iterator

from .qfield import (cornacchia_split, factor_int, hecke_chi, kronecker,
                     primes_below, split_type)
from .registry import Curve, omega_lattice

MAX_TABLE = 10 ** 6  # 32-bit storage is safe: |a_n| <= n at this scale
CHECK_SPLIT_PRIMES = 10  # good split primes whose point counts each context checks
THETA_WINDOW = 1 << 16  # a_n per theta_window call of the nonzero view
_quarters = itemgetter(0)  # floor(a^2/4) of a theta_window pair, its bisect key


class CoeffError(ValueError):
    pass


def ap_point_count(curve: Curve, p: int) -> int:
    """Trace of Frobenius at an odd good prime, from Legendre sums.

    For odd p the substitution u = 2y + a1*x + a3 is a bijection, so
    #E(F_p) = 1 + sum_x (1 + (f(x)/p)) with f = 4x^3 + b2 x^2 + 2 b4 x + b6
    the 2-division cubic (Curve.division2_cubic), giving a_p = -sum_x (f(x)/p).
    The symbols (f(x)/p) are read from one table of the squares mod p.
    """
    if p == 2 or curve.conductor % p == 0:
        raise CoeffError(f"p = {p} is not an odd good prime for {curve.label}")
    four, b2, two_b4, b6 = (c % p for c in curve.division2_cubic())
    legendre = _legendre_table(p)
    a = -sum(legendre[(((four * x + b2) * x + two_b4) * x + b6) % p]
             for x in range(p))
    if a * a > 4 * p:
        raise CoeffError(f"Hasse bound violated at {p}: a_p = {a}")
    return a


def _legendre_table(p: int) -> list[int]:
    """The Legendre symbol (x/p) for x = 0..p-1, p an odd prime."""
    legendre = [-1] * p
    legendre[0] = 0
    for x in range(1, p // 2 + 1):
        legendre[x * x % p] = 1
    return legendre


def good_odd_primes(curve: Curve) -> Iterator[int]:
    """The odd primes of good reduction of the curve, ascending, without end.

    The walk sieves below 2^7 first and sieves again below twice the last
    bound each time it passes it, so a walk that stops at p costs a sieve
    of O(p) entries.
    """
    lo, hi = 3, 1 << 7
    while True:
        for p in primes_below(hi):
            if p >= lo and curve.conductor % p:
                yield p
        lo, hi = hi, 2 * hi


def character_ap(q: int, p: int) -> int:
    """a_p(E0) from its character at a prime p != q: chi(pi_p) trace(pi_p)
    when p splits in Q(sqrt(-q)), 0 when p is inert."""
    if split_type(q, p) != "split":
        return 0
    pi = cornacchia_split(q, p)
    return hecke_chi(pi) * pi.trace()


def check_point_counts(curve: Curve, primes: Iterable[int]) -> int:
    """Check a_p(E) = (d0/p) chi(pi_p) trace(pi_p) at split p and a_p = 0 at
    inert p, for each odd good prime p given; the count of primes checked.

    Raises CoeffError at the first p whose point count disagrees: the curve
    is then not the twist by d0 of the curve whose character has conductor
    sqrt(-q), and the theta table would not be its a_n.
    """
    q, d0 = curve.q, curve.base_twist
    checked = 0
    for p in primes:
        ap = ap_point_count(curve, p)
        want = kronecker(d0, p) * character_ap(q, p)
        if ap != want:
            raise CoeffError(
                f"{curve.label} is not the twist by {d0} of the curve whose "
                f"character has conductor sqrt(-{q}): a_{p} = {ap} by point "
                f"count, {want} from the character")
        checked += 1
    return checked


# ------------------------------------------------------- curve context


class CurveContext:
    """One curve and the data derived from it, for one command.

    E0, the curve whose twist by curve.base_twist is this one, enters only
    through the nonzero view of its a_n (nonzero), which grows on demand
    by appended windows up to MAX_TABLE; the first build checks the point
    counts at the first CHECK_SPLIT_PRIMES good split primes
    (check_character).  The period scale Omega_L is kept per precision
    (omega).  All of it lives only as long as the context.
    """

    def __init__(self, curve: Curve):
        self.curve = curve
        self._checked = False
        self._nonzero = (array("i"), array("i"))
        self._nonzero_max = 0       # the view covers n = 1.._nonzero_max
        self._omega: dict[int, object] = {}

    def check_character(self) -> None:
        """check_point_counts at the first good split primes, once per context."""
        if not self._checked:
            q = self.curve.q
            split = (p for p in good_odd_primes(self.curve)
                     if split_type(q, p) == "split")
            check_point_counts(self.curve, islice(split, CHECK_SPLIT_PRIMES))
            self._checked = True

    def nonzero(self, n_max: int) -> tuple[array, array]:
        """(positions, values): the n with a_n(E0) != 0 and those a_n, for
        n from 1 up to at least n_max, in increasing n.

        The view is built in windows of THETA_WINDOW terms (theta_window),
        each compressed into it and dropped, so no dense table of a_n is
        held.  A request past the view appends the windows from the end of
        the view up to n_max, in place.
        """
        if not 1 <= n_max <= MAX_TABLE:
            raise CoeffError(f"n_max out of range: {n_max}")
        if n_max > self._nonzero_max:
            self.check_character()
            positions, values = self._nonzero
            for lo in range(self._nonzero_max + 1, n_max + 1, THETA_WINDOW):
                hi = min(lo + THETA_WINDOW, n_max + 1)
                window = theta_window(self.curve.q, lo, hi)
                if lo == 1 and window[0] != 1:
                    raise CoeffError(f"{self.curve.label}: a_1 = {window[0]}, not 1")
                positions.extend(compress(range(lo, hi), window))
                values.extend(filter(None, window))
                self._nonzero_max = hi - 1  # the bound never runs behind the arrays
        return self._nonzero

    def omega(self, precision: int):
        """registry.omega_lattice(curve, precision), computed once per precision."""
        if precision not in self._omega:
            self._omega[precision] = omega_lattice(self.curve, precision)
        return self._omega[precision]


def theta_window(q: int, lo: int, hi: int) -> list[int]:
    """a_n of L(psi, s) for lo <= n < hi, where psi((alpha)) = chi(alpha) *
    alpha and chi = hecke_chi is the Legendre symbol mod sqrt(-q).

    An ideal of norm n has the two generators +-alpha and chi is odd, and
    chi(conj alpha) = chi(alpha), so a_n is 1/4 of the sum of
    chi(alpha) * (alpha + conj alpha) over the alpha of norm n.  With
    alpha = (a + b sqrt(-q))/2, a = b mod 2: N(alpha) = (a^2 + q b^2)/4,
    alpha + conj alpha = a and alpha = a/2 mod sqrt(-q).  Collecting the
    signs of a and b,

        a_n = sum_{a, b > 0, a^2 + q b^2 = 4n} chi(a/2) a + [n = c^2] chi(c) c.

    Every supported q is 3 mod 4, so n = floor(a^2/4) + floor((q b^2 + 3)/4).
    The pairs (floor(a^2/4), chi(a/2) a) are listed once for each parity of
    a, without the a divisible by q (chi(a/2) = 0 there); each b then adds
    the run of its parity's pairs whose norm falls in the window, found by
    two bisects.  The window is a plain list: CPython specialises list
    subscripts, not array ones.
    """
    values = _legendre_table(q)
    half = (q + 1) // 2                     # the inverse of 2 mod q
    last = hi - 1
    runs = [[(a * a >> 2, values[a * half % q] * a)
             for a in range(start, isqrt(4 * last) + 1, 2) if a % q]
            for start in (2, 1)]            # pairs for a even, a odd
    t = [0] * (hi - lo)
    for c in range(isqrt(max(lo, 1) - 1) + 1, isqrt(last) + 1):
        t[c * c - lo] = values[c % q] * c
    for b in range(1, isqrt(4 * last // q) + 1):
        offset = (q * b * b + 3) >> 2
        run = runs[b % 2]                   # a = b mod 2, a > 0
        start = bisect_left(run, lo - offset, key=_quarters)
        end = bisect_left(run, hi - offset, start, key=_quarters)
        shift = offset - lo
        for k, v in run[start:end]:
            t[k + shift] += v
    return t


def _twist_disc_primes(curve: Curve, d: int) -> list[int]:
    """The primes of d d0, from one factor_int call, for a discriminant d
    coprime to N(E) (d = 0 or 1 meaning E itself); CoeffError otherwise.

    d0 is an odd square-free product of primes dividing N(E), so d d0 is
    square-free exactly when d is."""
    if d not in (0, 1):
        if d % 4 != 1:
            raise CoeffError(f"twist discriminant {d} is not 1 mod 4")
        if curve.conductor % 2 == 0 or gcd(d, curve.conductor) != 1:
            raise CoeffError(f"twist discriminant {d} shares a factor with the conductor")
    factors = factor_int((d or 1) * curve.base_twist)
    if any(e > 1 for _, e in factors):
        raise CoeffError(f"twist discriminant {d} is not square-free")
    return [p for p, _ in factors]


def _kronecker_period(primes: list[int]) -> list[int]:
    """(d/n) for n = 0..|d|-1, d the square-free discriminant with the given
    primes ([1] for d = 1).

    Such a d is the product of p* = (-1)^((p-1)/2) p over the primes p | d,
    and (p*/n) = (n/p) by quadratic reciprocity, so (d/.) is the product of
    the Legendre symbols mod the p | d and has period |d|.
    """
    m = prod(primes)
    period = [1] * m
    for p in primes:
        period = list(map(mul, period, _legendre_table(p) * (m // p)))
    return period


def twist_symbol_period(curve: Curve, d: int) -> list[int]:
    """One period of the symbol that twists E0's a_n into those of E^(d):
    (d d0/v) for v = 0..|d d0|-1, or [1] when d d0 = 1.

    For a discriminant d coprime to N(E), a_n(E^(d)) = (d/n) * a_n(E) =
    (d d0/n) * a_n(E0), and (d d0/.) is periodic mod |d d0|.  d = 0 or 1
    means E itself, the twist of E0 by d0.  Raises CoeffError for a d that
    is no such discriminant.
    """
    return _kronecker_period(_twist_disc_primes(curve, d))
