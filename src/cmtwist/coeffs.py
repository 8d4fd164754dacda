"""Dirichlet coefficients a_n of L(E, s) and of its quadratic twists.

Ground truth for a_p is point counting mod p on the Weierstrass model.  A
curve E with CM by O_K is the twist E0^(d0) of the curve E0 of K whose
Hecke character chi has conductor sqrt(-q) (d0 = Curve.base_twist, 1 for
the built-in curves).  For E0, a_p = 0 at inert primes and
a_p = chi(pi_p) * trace(pi_p) at split primes; chi is calibrated from the
point counts of E times (d0/p), and the theta table built from it must
agree with point counts bit for bit.

A CurveContext keeps one untwisted a_n table of E0 per command.
L(E0, s) = L(psi, s) with psi((alpha)) = chi(alpha) * alpha, so the table
is the theta series of psi over O_K (theta_table): no sieve and no a_p.
A twist by a discriminant d coprime to N multiplies a_n by the Kronecker
symbol (d/n), which is periodic mod |d|; twisted_coeffs streams
a_n(E^(d)) = (d d0/n) a_n(E0) from the shared table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import cycle, islice, product
from math import gcd, isqrt
from operator import mul
from typing import Iterator

from .qfield import (PrimeIdeal, QuadInt, cornacchia_split, factor_int,
                     is_prime, primes_above, reduction_mod, split_type)
from .registry import Curve

MAX_TABLE = 10 ** 6  # 32-bit storage is safe: |a_n| <= n at this scale


class CoeffError(ValueError):
    pass


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1."""
    if n < 1:
        raise CoeffError(f"kronecker needs a positive second argument, got {n}")
    if n == 1:
        return 1
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    # strip factors of 2 from n: (d/2) = 0, +1, -1 for d mod 8 in {even},{1,7},{3,5}
    while n % 2 == 0:
        n //= 2
        if d % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    a = d % n
    # jacobi loop for odd n > 1; reciprocity flip uses the pre-swap pair
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def ap_enumerate(curve: Curve, p: int) -> int:
    """a_p = p - #affine points, counted on the long model; intended for p <= 3."""
    if curve.conductor % p == 0:
        raise CoeffError(f"p = {p} is a bad prime for {curve.label}")
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    count = 0
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                count += 1
    return p - count


def ap_point_count(curve: Curve, p: int) -> int:
    """Trace of Frobenius at an odd good prime, from Legendre sums.

    For p >= 5 the substitution u = 2y + a1*x + a3 is a bijection, so
    #E(F_p) = 1 + sum_x (1 + (f(x)/p)) with f = 4x^3 + b2 x^2 + 2 b4 x + b6,
    giving a_p = -sum_x (f(x)/p).  p = 3 falls back to enumeration.
    """
    if p == 2 or curve.conductor % p == 0:
        raise CoeffError(f"p = {p} is not an odd good prime for {curve.label}")
    if p == 3:
        return ap_enumerate(curve, 3)
    b2, b4, b6 = curve.b2 % p, (2 * curve.b4) % p, curve.b6 % p
    total = 0
    for x in range(p):
        v = ((4 * x * x * x + b2 * x * x + b4 * x + b6)) % p
        total += kronecker(v, p)
    a = -total
    if a * a > 4 * p:
        raise CoeffError(f"Hasse bound violated at {p}: a_p = {a}")
    return a


# ------------------------------------------------------ Hecke character


@dataclass(frozen=True)
class HeckeCharacter:
    """The order-2 character chi on (O_K/sqrt(-q))^* with psi((beta)) = chi(beta)*beta.

    values[r] is chi on the residue class r in 1..q-1 (index 0 unused); the
    table is calibrated against point counts, not assumed from a formula.
    """

    q: int
    ramified: PrimeIdeal
    values: tuple[int, ...]
    samples: int

    def __call__(self, beta: QuadInt) -> int:
        r = reduction_mod(self.ramified, beta)
        if r == 0:
            raise CoeffError(f"{beta} is not coprime to the conductor")
        return self.values[r]


def calibrate_character(
    curve: Curve, min_samples: int = 10, skip: int = 0, prime_bound: int = 5000
) -> HeckeCharacter:
    """Fit the character chi of E0 from a_p(E0) = chi(pi_p) * trace(pi_p).

    The curve is E0^(d0), so a_p(E0) = a_p(E) * (d0/p) at the split primes
    of good reduction, and E0 needs no Weierstrass model.  Each sampled
    prime pins one residue class mod sqrt(-q); the table is completed by
    multiplicative closure.  Every new sample and every closure product is
    checked against existing entries, and chi(-1) = -1 is checked at the
    end; any failure raises CoeffError, so an inconsistent fit cannot be
    returned silently.  `skip` ignores the first few usable primes
    (disjoint samples must agree).
    """
    q, d0 = curve.q, curve.base_twist
    ram = primes_above(q, q)[0]
    values: dict[int, int] = {1: 1}

    def put(r: int, s: int) -> None:
        if r in values:
            if values[r] != s:
                raise CoeffError(
                    f"character calibration inconsistent at class {r} mod {q}"
                )
        else:
            values[r] = s

    def close() -> None:
        while True:
            items = list(values.items())
            before = len(values)
            for (r1, s1), (r2, s2) in product(items, items):
                put(r1 * r2 % q, s1 * s2)
            if len(values) == before:
                break

    used = 0
    skipped = 0
    for p in range(3, prime_bound):
        if len(values) == q - 1 and used >= min_samples:
            break
        if curve.conductor % p == 0 or split_type(q, p) != "split":
            continue
        if not is_prime(p):
            continue
        if skipped < skip:
            skipped += 1
            continue
        pi = cornacchia_split(q, p)
        ap = ap_point_count(curve, p) * kronecker(d0, p)
        tr = pi.trace()
        # CM forces |a_p| = |trace pi_p| at good split primes
        if tr == 0 or abs(ap) != abs(tr):
            raise CoeffError(
                f"split prime {p}: a_p={ap} incompatible with trace {tr}"
            )
        put(reduction_mod(ram, pi), 1 if ap == tr else -1)
        close()
        used += 1
    if len(values) != q - 1:
        raise CoeffError("character table incomplete; raise prime_bound")
    if values[q - 1] != -1:
        raise CoeffError("calibrated character is even; chi(-1) must be -1")
    table = tuple(values.get(r, 0) for r in range(q))
    return HeckeCharacter(q=q, ramified=ram, values=table, samples=used)


# ------------------------------------------------------- curve context


class CurveContext:
    """One curve and the coefficient data derived from it, for one command.

    The character is that of E0, the curve whose twist by curve.base_twist
    is this one, and the untwisted a_n table is E0's theta series of psi.
    The character is calibrated on first use, and the table grows on
    demand up to MAX_TABLE; both live only as long as the context.
    """

    def __init__(self, curve: Curve):
        self.curve = curve
        self._character: HeckeCharacter | None = None
        self._an = array("i")
        self._an_max = 0

    @property
    def character(self) -> HeckeCharacter:
        if self._character is None:
            self._character = calibrate_character(self.curve)
        return self._character

    def an_table(self, n_max: int) -> array:
        """a_n of E0 for 0..n_max (possibly beyond); index 0 is unused."""
        if not 1 <= n_max <= MAX_TABLE:
            raise CoeffError(f"n_max out of range: {n_max}")
        if n_max > self._an_max:
            # doubling keeps a run of growing requests linear overall
            size = min(MAX_TABLE, max(n_max, 2 * self._an_max))
            table = theta_table(self.character, size)
            if table[1] != 1:
                raise CoeffError(f"{self.curve.label}: a_1 = {table[1]}, not 1")
            self._an, self._an_max = table, size
        return self._an


def theta_table(chi: HeckeCharacter, n_max: int) -> array:
    """a_n of L(psi, s) for 0..n_max, where psi((alpha)) = chi(alpha) * alpha.

    An ideal of norm n has the two generators +-alpha and chi is odd, and
    chi(conj alpha) = chi(alpha), so a_n is 1/4 of the sum of
    chi(alpha) * (alpha + conj alpha) over the alpha of norm n.  With
    alpha = (a + b sqrt(-q))/2, a = b mod 2: N(alpha) = (a^2 + q b^2)/4,
    alpha + conj alpha = a and alpha = a/2 mod sqrt(-q).  Collecting the
    signs of a and b,

        a_n = sum_{a, b > 0, a^2 + q b^2 = 4n} chi(a/2) a + [n = c^2] chi(c) c.

    Every supported q is 3 mod 4, so n = floor(a^2/4) + floor((q b^2 + 3)/4).
    """
    q, values = chi.q, chi.values
    half = (q + 1) // 2                     # the inverse of 2 mod q
    top = isqrt(4 * n_max)
    term = [values[a * half % q] * a for a in range(top + 1)]
    quarter = [a * a >> 2 for a in range(top + 1)]
    t = array("i", bytes(4 * (n_max + 1)))
    for c in range(1, isqrt(n_max) + 1):
        t[c * c] = values[c % q] * c
    for b in range(1, isqrt(4 * n_max // q) + 1):
        qb = q * b * b
        offset = (qb + 3) >> 2
        end = isqrt(4 * n_max - qb) + 1
        start = 2 - b % 2                   # a = b mod 2, a > 0
        for k, v in zip(quarter[start:end:2], term[start:end:2]):
            t[k + offset] += v
    return t


def _check_twist_disc(curve: Curve, d: int) -> None:
    if d == 0 or d == 1:
        return
    if d % 4 != 1:
        raise CoeffError(f"twist discriminant {d} is not 1 mod 4")
    if curve.conductor % 2 == 0 or gcd(d, curve.conductor) != 1:
        raise CoeffError(f"twist discriminant {d} shares a factor with the conductor")
    if any(e > 1 for _, e in factor_int(d)):
        raise CoeffError(f"twist discriminant {d} is not square-free")


def _kronecker_period(d: int) -> list[int]:
    """(d/n) for n = 0..|d|-1, d a square-free discriminant other than 1.

    Such a d is the product of p* = (-1)^((p-1)/2) p over the primes p | d,
    and (p*/n) = (n/p) by quadratic reciprocity, so (d/.) is the product of
    the Legendre symbols mod the p | d and has period |d|.
    """
    m = abs(d)
    period = [1] * m
    for p, _ in factor_int(d):
        legendre = [-1] * p
        legendre[0] = 0
        for x in range(1, p // 2 + 1):
            legendre[x * x % p] = 1
        period = list(map(mul, period, legendre * (m // p)))
    return period


def twisted_coeffs(ctx: CurveContext, d: int, n_max: int) -> Iterator[int]:
    """a_1, ..., a_{n_max} of L(E^(d), s), streamed from the context's table.

    For a discriminant d coprime to N(E), a_n(E^(d)) = (d/n) * a_n(E) =
    (d d0/n) * a_n(E0), and (d d0/.) is periodic mod |d d0|, so one period
    of the symbol is cycled against E0's table.  d = 0 or 1 means E itself,
    the twist of E0 by d0.
    """
    _check_twist_disc(ctx.curve, d)
    coeffs = islice(ctx.an_table(n_max), 1, n_max + 1)
    d = (d or 1) * ctx.curve.base_twist
    if d == 1:
        return coeffs
    return map(mul, islice(cycle(_kronecker_period(d)), 1, n_max + 1), coeffs)
