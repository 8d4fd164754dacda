"""Exact L^alg of quadratic twists from modular symbols, for q in {7, 11}.

The curve E0 of K = Q(sqrt(-q)) whose Hecke character has conductor
sqrt(-q) (49a for q = 7, 121b for q = 11) has conductor N = q^2.  Its
modular symbols are read through the Manin symbols (c:d) of P^1(Z/N)
(Manin 1972; Cremona, Algorithms for Modular Elliptic Curves, 1997,
ch. 2): (c:d) is the symbol {b/d, a/c} = g{0, oo} of any
g = [[a, b], [c, d]] in SL_2(Z) with that bottom row.  P^1(Z/q^2) has
q(q + 1) points, listed as (c:1) for c mod N, then (1:qj) for j mod q.

For s = +1 or -1, lambda_s is the functional on the Manin symbols that
takes E0's modular symbols to the s-eigenspace of the star involution.  It
kills the 2-term relations x + x S, S = [[0, -1], [1, 0]], and the 3-term
relations x + x t + x t^2, t = [[0, -1], [1, -1]]; lambda_s(x*) =
s lambda_s(x) with (c:d)* = (-c:d); and lambda_s(T_p x) = a_p(E0)
lambda_s(x) for the primes p != q, where T_p x is the sum of the x h over
Merel's Heilbronn matrices h (ad - bc = p, a > b >= 0, d > c >= 0) and
a_p comes from coeffs.theta_window.  These conditions cut out one line, and
lambda_s is its primitive integer vector whose first nonzero entry is
positive (winding_vector).

The conditions are solved modulo the prime 2^31 - 1.  The 2-term and star
relations sort the symbols into orbits of at most four, each one free
unknown up to sign or forced to zero.  The 3-term rows, then the rows of
T_2, T_3, T_5, ..., each prime's rows whole, are reduced one by one until
at most one free direction is left (T_2 suffices for q = 7 and 11).  The
kernel vector is read back by rational reconstruction and scaled to
primitive integers, and the integer vector is checked exactly against
every row that was reduced: it lies in their kernel over Q, whose
dimension the reduction showed to be at most 1.

Birch's formula gives, for a fundamental discriminant D prime to N with
sign s, the twisted sum

    S(D) = sum_{a mod |D|} (D/a) lambda_s({oo, a/|D|}) = c L^alg(E0^(D)),

where L^alg = L(E0^(D), 1) sqrt(|D|) / Omega_L (lseries.algebraic_part),
and c is a constant per curve and sign (TWIST_SCALE).  {oo, a/m} splits
along the convergent denominators q_k of a/m (q_-1 = 0, q_0 = 1, q_n = m)
into the symbols ((-1)^(k-1) q_k : q_(k-1)), k = 0..n, on which lambda_s
takes s^(k-1) lambda_s(q_k : q_(k-1)).  The term of a equals the term of
m - a: {oo, (m - a)/m} is the star image of {oo, a/m} translated by 1, and
(D/(m - a)) = s (D/a).  So the sum runs over a < m/2 and is doubled.
For |D| > 1 the (D/a) sum to 0, so {0, a/|D|} = {oo, a/|D|} - {oo, 0}
gives the same S(D); D = 1 needs the {oo, 0} form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import itemgetter, mul

import mpmath as mp

from .coeffs import CurveContext, theta_window, twist_symbol_period
from .lseries import LValueResult, twist_root_number
from .qfield import factor_int, ord2_fraction, primes_below
from .registry import BUILTIN, Curve

# label -> (s, c): the sign of D of every admissible twist of the builtin
# curve, and the constant with S(D) = c L^alg(E^(D)) for the lambda_s above
TWIST_SCALE = {"49a": (1, -4), "121b": (-1, 2)}
HECKE_BOUND = 14        # the T_p with p < HECKE_BOUND, p != q, are at hand
_P = (1 << 31) - 1      # the prime the conditions are solved modulo


class ModSymError(ValueError):
    pass


def supports(curve: Curve) -> bool:
    """True for the builtin curves whose twists TwistSums computes."""
    return curve.label in TWIST_SCALE and BUILTIN[curve.label] == curve


def p1_points(q: int) -> list[tuple[int, int]]:
    """The points of P^1(Z/q^2) in index order: (c:1), then (1:qj)."""
    n = q * q
    return [(c, 1) for c in range(n)] + [(1, q * j) for j in range(q)]


def _p1_index(q: int):
    """index(c, d): the position in p1_points(q) of the point (c:d), for
    any integers c, d not both divisible by q."""
    n = q * q
    inverse = [pow(u, -1, n) if u % q else 0 for u in range(n)]

    def index(c: int, d: int) -> int:
        if d % q:
            return c * inverse[d % n] % n
        return n + d * inverse[c % n] % n // q

    return index


def heilbronn(p: int) -> list[tuple[int, int, int, int]]:
    """Merel's matrices (a, b, c, d): ad - bc = p, a > b >= 0, d > c >= 0."""
    out = []
    for a in range(1, p + 1):
        for b in range(a):
            # d >= c + 1 gives p = ad - bc >= a + c (a - b) > c (a - b)
            for c in range((p - 1) // (a - b) + 1):
                d, r = divmod(p + b * c, a)
                if r == 0 and d > c:
                    out.append((a, b, c, d))
    return out


def _small_fraction(x: int) -> Fraction:
    """The u/v with |u|, |v| <= sqrt(_P / 2) and u = v x mod _P."""
    bound = isqrt(_P // 2)
    r0, r1, t0, t1 = _P, x, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > bound:
        raise ModSymError(f"{x} is no small fraction modulo {_P}")
    return Fraction(r1, t1)


def winding_vector(q: int, sign: int, ap: dict[int, int]) -> list[int]:
    """lambda_sign on p1_points(q), from a_p(E0) for the primes p != q
    below HECKE_BOUND (ap maps each to its a_p).

    Raises ModSymError when the conditions do not cut out one line.
    """
    index = _p1_index(q)
    points = p1_points(q)
    # lambda(x) = coef[x] * unknown[orbit[x]]; coef 0 where the 2-term and
    # star relations force lambda(x) = -lambda(x)
    orbit, coef = [-1] * len(points), [0] * len(points)
    free = []                   # a point of each orbit not forced to zero
    for i, (c, d) in enumerate(points):
        if orbit[i] < 0:
            members = {i: 1}
            clash = False
            for cc, dd, s in ((d, -c, -1), (-c, d, sign), (d, c, -sign)):
                clash |= members.setdefault(index(cc, dd), s) != s
            for j, s in members.items():
                orbit[j], coef[j] = len(free), 0 if clash else s
            if not clash:
                free.append((c, d))
    width = len(free)

    def row(terms) -> tuple[int, ...]:
        out = [0] * width
        for c, d in terms:
            j = index(c, d)
            if coef[j]:
                out[orbit[j]] += coef[j]
        return tuple(out)

    three_term = {row(((c, d), (d, -c - d), (-c - d, c))) for c, d in points}

    def hecke_rows(p: int) -> list[tuple[int, ...]]:
        mats = heilbronn(p)
        return [tuple(x - ap[p] * y for x, y in zip(
                    row([(c * a + d * cc, c * b + d * dd) for a, b, cc, dd in mats]),
                    row([(c, d)])))
                for c, d in free]

    groups = chain([sorted(three_term)],
                   (hecke_rows(p) for p in primes_below(HECKE_BOUND) if p != q))
    used, pivots = [], []       # pivots: (column, row with 1 there), in order
    for group in groups:
        for r in group:
            v = [x % _P for x in r]
            for col, piv in pivots:
                f = v[col]
                if f:
                    v = [(x - f * y) % _P for x, y in zip(v, piv)]
            lead = next((k for k, x in enumerate(v) if x), None)
            if lead is not None:
                scale = pow(v[lead], -1, _P)
                pivots.append((lead, [x * scale % _P for x in v]))
        used += group
        if len(pivots) >= width - 1:
            break
    if len(pivots) != width - 1:
        raise ModSymError(f"the relations and T_p for p < {HECKE_BOUND} leave "
                          f"{width - len(pivots)} directions for q = {q}, "
                          f"sign {sign:+d}")
    (last,) = set(range(width)) - {col for col, _ in pivots}
    v = [0] * width
    v[last] = 1
    for col, piv in reversed(pivots):
        v[col] = -sum(map(mul, piv, v)) % _P
    fractions = [_small_fraction(x) for x in v]
    den = lcm(*(f.denominator for f in fractions))
    ints = [int(f * den) for f in fractions]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if any(sum(map(mul, r, ints)) for r in used):
        raise ModSymError(f"the kernel vector for q = {q}, sign {sign:+d} "
                          f"fails a relation over Q")
    lam = [s and s * ints[k] for s, k in zip(coef, orbit)]
    return [-x for x in lam] if next(filter(None, lam)) < 0 else lam


class TwistSums:
    """lambda_s of a builtin curve E = E0, for the sign s of its admissible
    twists, and the twisted sums S(D) for the D of that sign.

    lambda_s is kept as rows[d][c] = lambda_s(c:d) for c, d mod n = q^2, so
    the sums look a symbol up without normalizing it.  For d prime to q,
    rows[d][c] = lambda_s(c d^-1 : 1), so the row of d g is the row of d
    read at the c g^-1: with g a generator of (Z/n)^*, each row is the one
    before it permuted by one itemgetter.  One is built per command, before
    any table worker forks.
    """

    def __init__(self, curve: Curve):
        if not supports(curve):
            raise ModSymError(f"no modular symbols for {curve.label}: only "
                              f"the builtin curves {', '.join(TWIST_SCALE)}")
        self.curve = curve
        self.sign, self.scale = TWIST_SCALE[curve.label]
        q = curve.q
        window = theta_window(q, 1, HECKE_BOUND)
        ap = {p: window[p - 1] for p in primes_below(HECKE_BOUND) if p != q}
        lam = winding_vector(q, self.sign, ap)
        n, units = q * q, q * (q - 1)
        g = next(g for g in range(2, n) if g % q and all(
            pow(g, units // p, n) != 1 for p, _ in factor_int(units)))
        back = pow(g, -1, n)
        step = itemgetter(*(c * back % n for c in range(n)))
        rows: list[list[int]] = [[]] * n
        row, d = lam[:n], 1
        for _ in range(units):
            rows[d] = row
            row, d = list(step(row)), d * g % n
        index = _p1_index(q)
        for d in range(0, n, q):
            rows[d] = [c % q and lam[index(c, d)] for c in range(n)]
        self._rows = rows

    def twisted_sum(self, d: int) -> int:
        """S(d) for a fundamental discriminant d of sign s prime to q; d = 1
        included, where S(1) = lambda_s({oo, 0})."""
        if (d > 0) != (self.sign > 0):
            raise ModSymError(f"D = {d} does not have the sign {self.sign:+d} "
                              f"of the twists of {self.curve.label}")
        n, s, rows = self.curve.q ** 2, self.sign, self._rows
        head = rows[0][1]           # k = 0: (-1:0) = (1:0)
        m = abs(d)
        if m == 1:
            return head
        chi = twist_symbol_period(self.curve, d)
        total = 0
        for a in range(1, (m + 1) // 2):
            if chi[a]:
                acc, sk = head, 1
                y, r, q0, q1 = m, a, 0, 1
                while r:
                    t = y // r
                    y, r = r, y - t * r
                    q0, q1 = q1, (t * q1 + q0) % n
                    acc += sk * rows[q0][q1]
                    sk *= s
                total += chi[a] * acc
        return 2 * total

    def lalg(self, d: int) -> Fraction:
        """L^alg(E^(d)) = S(d) / c, exactly."""
        return Fraction(self.twisted_sum(d), self.scale)

    def algebraic_part(self, ctx: CurveContext, d: int,
                       target_digits: int = 10) -> LValueResult:
        """lseries.algebraic_part(ctx, d, target_digits) from the symbols:
        the same exact L^alg, and L(E^(d), 1) = L^alg Omega_L / sqrt(|d|) to
        target_digits digits, with no series term and no tail."""
        curve = ctx.curve
        eps = twist_root_number(curve, d)
        lalg = Fraction(0) if eps == -1 else self.lalg(d)
        if lalg < 0:
            raise ModSymError(f"S({d}) / c = {lalg} is negative")
        if lalg == 0:
            return LValueResult(curve.label, d, eps, mp.mpf(0), 0, 0.0,
                                lalg, 0.0, None)
        digits = max(target_digits, 15)
        with mp.workdps(digits + 10):
            value = ctx.omega(digits) * lalg.numerator / lalg.denominator \
                / mp.sqrt(abs(d))
        return LValueResult(curve.label, d, eps, value, 0, 0.0, lalg, 0.0,
                            ord2_fraction(lalg))
