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
Merel's Heilbronn matrices h (ad - bc = p, a > b >= 0, d > c >= 0).  These
conditions cut out one line, and lambda_s is its primitive integer vector
whose first nonzero entry is positive; T_2 alone, with the relations,
already leaves that line for q = 7 and 11.

The lambda_s of the builtin curves' twists, lambda_+ for 49a and lambda_-
for 121b, are literal tuples on p1_points(q) (WINDING_VECTORS).  Every
TwistSums build checks its tuple linearly (winding_rows): at every point
of P^1(Z/q^2) it must kill the 2-term and 3-term relations, satisfy the
star relation and take T_2 x to a_2 lambda_s(x), a_2 from
coeffs.theta_window; the tuple must be primitive with its first nonzero
entry positive.  A failure raises ModSymError.  That the conditions leave
one line is a fact of the fixed data, not checked at run time: the tests
rebuild each kernel over Q from the relations and every T_p, p < 14, with
a_p from point counts, and find it one line equal to the tuple; the kernel
of the checked conditions alone, with or without the 3-term relation, is
that same line at both signs.

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

TwistSums walks the convergent denominators backwards, as Euclidean
remainders.  Let a/m = [0; t_1, ..., t_n] with a < m/2, so t_1 >= 2, and
t_n >= 2.  From q_k = t_k q_(k-1) + q_(k-2) with 0 <= q_(k-2) < q_(k-1),
the denominators m = q_n > q_(n-1) > ... > q_0 = 1 > q_-1 = 0 are the
remainders of Euclid's algorithm on (m, e), e = q_(n-1).  As
e/m = [0; t_n, ..., t_1], a -> e is an involution of the units below
m/2.  With the numerators p_k, p_n q_(n-1) - p_(n-1) q_n = (-1)^(n-1) and
p_n = a give a e = (-1)^(n-1) mod m; chi = (D/.) is a character mod m
with chi(-1) = s and chi(a)^2 = 1, so chi(e) = s^(n-1) chi(a).  Let

    Phi(y, r) = lambda_s(y:r) + s Phi(r, y mod r),   Phi(y, 0) = 0.

The term of a is lambda_s(1:0) + s^(n-1) Phi(m, e), and so

    S(D)/2 = lambda_s(1:0) sum_{a<m/2} chi(a) + sum_{e<m/2} chi(e) Phi(m, e).

The first sum is 0 (lambda_-(1:0) = 0 as (1:0)* = (1:0), and an even chi
sums to 0 over a < m/2 for m > 1).  Phi depends on its pair alone, so
TwistSums tabulates it below CHAIN_BOUND, and a chain stops at its first
pair (y, r) with y < CHAIN_BOUND.  The table is built by columns
(chain_table): for a fixed r, y -> lambda_s(y:r) has period q^2 and
y -> Phi(r, y mod r) period r, so the column of r is a tiled row of
lambda_s plus s times row r of Phi tiled, one C-level map, and row r is
complete once the columns below r are.  No q_k recurrence and no per-step
sign remain: two Euclid steps run per turn, the terms at even and odd
depth go to their own sums, and the odd sum takes the factor s once.  The chain
sums hold for any values on P^1; what follows needs lambda_s itself.

TwistSums walks the chains of one square class only, and recovers the
rest of S(D) from the Hecke relations at the primes of D.  D = 1 mod 4
is square-free, so m = |D| = p_1 ... p_k is odd.  Write [x]_n for
lambda_s({oo, x/n}), Sq for the squares of (Z/m)^*, p* = +-p = 1 mod 4,
and for d | m, D_d = prod_{p|d} p* (D_1 = 1, D_m = D) and chi_d = (D_d/.).
The chi_d are the 2^k real characters mod m, and chi_d(-1) = sign D_d.

  (1) For a real character psi mod m with psi(-1) = s, a -> e above gives
      sum_{e<m/2} psi(e) Phi(m, e) = sum_{a<m/2} psi(a) ([a]_m - lambda_s(1:0)),
      since psi(e) = s^(n-1) psi(a) as for chi.  As [-x]_m = s [x]_m, the
      right side is half the sum over all units, less phi(m)/2
      lambda_s(1:0) when psi = 1 (an even psi != 1 sums to 0 over a < m/2;
      an odd psi needs s = -1, and lambda_-(1:0) = 0).
  (2) lambda_s is a T_p eigenvector at each p | m (p != q), so
      a_p [r]_n = [p r]_n + sum_{b mod p} [r + b n]_(pn) for n | m, p not
      dividing n (Mazur-Tate-Teitelbaum 1986).  Let V_d(n) be the sum of
      chi_d(x) [x]_n over the units x mod n, for d | n.  Sum the relation
      against chi_d(r) over the units r mod n.  The x = r + b n run once
      over the x mod pn prime to n: the units, and the p x' with x' a
      unit mod n, where [p x']_(pn) = [x']_n.  Both [p r]_n and the p x'
      give chi_d(p) V_d(n), so V_d(pn) = (a_p - 2 chi_d(p)) V_d(n).  From
      V_d(d) = S(D_d) (chi_d vanishes off the units mod d; V_1(1) = [0]_1
      = S(1)):
          V_d(m) = S(D_d) prod_{p | m/d} (a_p - 2 chi_d(p)).
  (3) For a unit x, 1_Sq(x) = 2^-k sum_{d|m} chi_d(x), so
      1_Sq(x) + s 1_Sq(-x) = 2^(1-k) sum_{d|m, sign D_d = s} chi_d(x).

With W = sum_{e<m/2, e in Sq} Phi(m, e) + s sum_{e<m/2, m-e in Sq} Phi(m, e),
(3), (1) and (2) give 2^k W = sum over the d | m with sign D_d = s of
V_d(m) - [d = 1] phi(m) lambda_s(1:0), and V_m(m) = S(D).  So

    S(D) = 2^k W - sum_d (S(D_d) prod_{p | m/d} (a_p - 2 chi_d(p))
                          - [d = 1] phi(m) lambda_s(1:0)),

d running over the proper divisors of m with sign D_d = s, and each
S(D_d) by the same formula for the smaller |D_d| = d.  a_p(E0) comes from
E0's character (coeffs.character_ap).  When every p | m is 1 mod 4, -1 is
a square, the two classes of W are one, and W = 2 sum over e in Sq:
phi(m)/2^(k+1) chains instead of the phi(m)/2 of the units below m/2.
Otherwise the classes are disjoint: phi(m)/2^k chains.

The classes are read off one byte mask per D (_square_classes): sq[x] = 1
for the x <= m in Sq.  Per p | m, one Python pass over x < p/2 marks the
nonzero squares mod p in a bytearray of length p; bytes repetition tiles
it to length m + 1, and the tiles are ANDed as integers.  With h = (m+1)/2,
compress(range(h), sq) gives the e < m/2 in Sq, and compress(range(h),
sq[m:m - h:-1]) the e with m - e in Sq (sq[m] = 0, as m is no unit), all
in C.  No table outlives its D.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, prod
from operator import add, itemgetter, sub

import mpmath as mp
from mpmath.libmp import (dps_to_prec, from_int, mpf_div, mpf_mul_int,
                          mpf_sqrt, round_nearest)

from .coeffs import (CurveContext, _twist_disc_primes, character_ap,
                     theta_window)
from .lseries import LValueResult, twist_root_number
from .qfield import factor_int, kronecker
from .registry import BUILTIN, Curve

# label -> (s, c): the sign of D of every admissible twist of the builtin
# curve, and the constant with S(D) = c L^alg(E^(D)) for the lambda_s above
TWIST_SCALE = {"49a": (1, -4), "121b": (-1, 2)}
CHAIN_BOUND = 128       # Phi(y, r) is tabulated for 0 <= r < y < CHAIN_BOUND
# label -> lambda_s on p1_points(q), s the sign of TWIST_SCALE; winding_rows
# checks it on every build
WINDING_VECTORS = {
    "49a": (
        2, 0, 4, 4, 4, 2, 0, 1, 0, 2, -2, -2, -4, 0, -1, 0, -4, 0, 0, 0,
        0, -1, 0, 0, -4, -4, 0, 0, -1, 0, 0, 0, 0, -4, 0, -1, 0, -4, -2,
        -2, 2, 0, 1, 0, 2, 4, 4, 4, 0, -2, -1, 1, 1, 1, 1, -1),
    "121b": (
        0, 0, 0, 2, 2, 4, 4, 1, 2, -1, 0, 0, 0, -1, -3, -2, -1, -1, -1,
        -3, -4, 0, -2, 0, -4, -2, -3, -1, -1, 2, -2, 0, 0, -1, 0, 0, -2,
        -2, 0, 0, -2, -2, -2, 0, -1, 0, -2, 1, 0, -2, -2, -3, 1, -1, 0,
        0, 0, -1, 0, 2, 0, 0, -2, 0, 1, 0, 0, 0, 1, -1, 3, 2, 2, 0, -1,
        2, 0, 1, 0, 2, 2, 2, 0, 0, 2, 2, 0, 0, 1, 0, 0, 2, -2, 1, 1, 3,
        2, 4, 0, 2, 0, 4, 3, 1, 1, 1, 2, 3, 1, 0, 0, 0, 1, -2, -1, -4,
        -4, -2, -2, 0, 0, 0, 0, -2, -1, -1, 0, 0, 1, 1, 2, 0),
}


class ModSymError(ValueError):
    pass


def supports(curve: Curve) -> bool:
    """True for the builtin curves whose twists TwistSums computes."""
    return curve.label in TWIST_SCALE and BUILTIN[curve.label] == curve


def p1_points(q: int) -> list[tuple[int, int]]:
    """The points of P^1(Z/q^2) in index order: (c:1), then (1:qj)."""
    n = q * q
    return [(c, 1) for c in range(n)] + [(1, q * j) for j in range(q)]


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


def _lookup_rows(q: int, lam: Sequence[int]) -> list[list[int]]:
    """rows[d][c] = lam(c:d) for c, d mod n = q^2, from lam on p1_points(q)
    (the TwistSums docstring)."""
    n, units = q * q, q * (q - 1)
    g = next(g for g in range(2, n) if g % q and all(
        pow(g, units // p, n) != 1 for p, _ in factor_int(units)))
    back = pow(g, -1, n)
    step = itemgetter(*(c * back % n for c in range(n)))
    rows: list[list[int]] = [[]] * n
    row, d = list(lam[:n]), 1
    for _ in range(units):
        rows[d] = row
        row, d = list(step(row)), d * g % n
    # (c:0) = (1:0) and (c:q) = (1 : q c^-1) for c prime to q
    rows[0] = [c % q and lam[n] for c in range(n)]
    row, d = [c % q and lam[n + pow(c, -1, q)] for c in range(n)], q
    for _ in range(q - 1):              # the rows of the d = q j, j prime to q
        rows[d] = row
        row, d = list(step(row)), d * g % n
    return rows


def winding_rows(q: int, sign: int, lam: Sequence[int],
                 a2: int) -> list[list[int]]:
    """The lookup rows of lam (_lookup_rows), once lam is checked to be
    lambda_sign: a vector on p1_points(q) that kills the 2-term and 3-term
    relations, has lam(x*) = sign lam(x) and lam(T_2 x) = a2 lam(x) at
    every point x, is primitive, and has its first nonzero entry positive.

    Raises ModSymError on the first condition that lam fails.
    """
    n = q * q
    if len(lam) != n + q:
        raise ModSymError(f"lambda_{sign:+d} for q = {q} has {len(lam)} "
                          f"entries, not the {n + q} points of P^1")
    rows = _lookup_rows(q, lam)
    t2 = heilbronn(2)
    for c, d in p1_points(q):
        x = rows[d][c]
        if x + rows[-c % n][d]:
            fails = "the 2-term relation"
        elif rows[d][-c % n] != sign * x:
            fails = "the star relation"
        elif x + rows[(-c - d) % n][d] + rows[c][(-c - d) % n]:
            fails = "the 3-term relation"
        elif sum(rows[(c * b + d * dd) % n][(c * a + d * cc) % n]
                 for a, b, cc, dd in t2) != a2 * x:
            fails = f"T_2 = {a2}"
        else:
            continue
        raise ModSymError(f"lambda_{sign:+d} for q = {q} fails {fails} "
                          f"at ({c}:{d})")
    if gcd(*lam) != 1:
        raise ModSymError(f"lambda_{sign:+d} for q = {q} is not primitive")
    if next(filter(None, lam)) < 0:
        raise ModSymError(f"the first nonzero entry of lambda_{sign:+d} for "
                          f"q = {q} is negative")
    return rows


def chain_table(rows: list[list[int]], sign: int) -> list[int]:
    """Phi(y, r) at index r * CHAIN_BOUND + y, for 0 <= r < y < CHAIN_BOUND
    (0 elsewhere): Phi(y, 0) = 0 and Phi(y, r) = lambda(y:r) + sign *
    Phi(r, y mod r), with lambda(y:r) = rows[r mod n][y mod n].

    Column r, the Phi(y, r) for r < y < CHAIN_BOUND, is one map: as y runs,
    lambda(y:r) is row r mod n of rows tiled with period n, and
    Phi(r, y mod r) is row r of Phi tiled with period r, complete once the
    columns below r are.  The slice phi[r + B:(r + 1) B:B] (B =
    CHAIN_BOUND) is that row from y mod r = 1, the value at y = r + 1,
    closed by Phi(r, r) = 0 for y mod r = 0; the map stops with the
    shorter lambda slice."""
    n, width = len(rows), CHAIN_BOUND
    combine = add if sign > 0 else sub
    tiles = [row * (width // n + 1) for row in rows[:width]]
    phi = [0] * (width * width)
    for r in range(1, width - 1):
        phi[r * width + r + 1:(r + 1) * width] = map(
            combine, tiles[r % n][r + 1:width],
            phi[r + width:(r + 1) * width:width] * (width // r + 1))
    return phi


def _square_classes(m: int, primes: list[int]):
    """The e < m/2 in Sq and the e < m/2 with m - e in Sq, each in
    increasing order, for m > 1 the product of the odd primes in primes:
    two compress iterators over the byte mask sq of the module docstring."""
    size, half = m + 1, (m + 1) // 2
    sq = -1
    for p in primes:
        table = bytearray(p)
        for x in range(1, p // 2 + 1):
            table[x * x % p] = 1
        sq &= int.from_bytes((table * (m // p + 1))[:size], "big")
    sq = sq.to_bytes(size, "big")
    units = range(half)
    return compress(units, sq), compress(units, sq[m:m - half:-1])


class TwistSums:
    """lambda_s of a builtin curve E = E0, for the sign s of its admissible
    twists, and the twisted sums S(D) for the D of that sign.

    lambda_s is kept as rows[d][c] = lambda_s(c:d) for c, d mod n = q^2, so
    the sums look a symbol up without normalizing it.  For d prime to q,
    rows[d][c] = lambda_s(c d^-1 : 1), and for d = q j, j prime to q,
    rows[d][c] = lambda_s(c j^-1 : q).  Either way the row of d g is the
    row of d read at the c g^-1: with g a generator of (Z/n)^*, each row
    is the one before it permuted by one itemgetter, and only rows 0 and q
    are read off lambda_s point by point: (c:0) = (1:0) and
    (c:q) = (1 : q c^-1).

    The rows come from the literal lambda_s of WINDING_VECTORS, checked on
    every build by winding_rows; nothing of lambda_s, its check or the
    table outlives the instance.  _phi is chain_table(rows, s): Phi(y, r)
    at r * CHAIN_BOUND + y for 0 <= r < y < CHAIN_BOUND, 16,384 entries,
    built column by column.  One TwistSums, table included, is built per
    command, before any table worker forks.

    twisted_sum walks the chains of W only (the module docstring): for a
    prime |D| = p, (p - 1)/4 chains when p = 1 mod 4 (the 49a twists of
    prime |D|) and (p - 1)/2 when p = 3 mod 4 (those of 121b).  Its e come
    from the byte mask of _square_classes, built for each D and dropped
    with it.  The S(D_d) it needs, and every S(D) it returns, are kept in
    _sums, keyed by D: each is walked once per instance.
    """

    def __init__(self, curve: Curve):
        if not supports(curve):
            raise ModSymError(f"no modular symbols for {curve.label}: only "
                              f"the builtin curves {', '.join(TWIST_SCALE)}")
        self.curve = curve
        self.sign, self.scale = TWIST_SCALE[curve.label]
        q = curve.q
        self._rows = winding_rows(q, self.sign, WINDING_VECTORS[curve.label],
                                  theta_window(q, 2, 3)[0])
        self._phi = chain_table(self._rows, self.sign)
        self._sums: dict[int, int] = {}     # D -> S(D)
        self._aps: dict[int, int] = {}      # p -> a_p(E0), for the p | D met

    def twisted_sum(self, d: int) -> int:
        """S(d) for a fundamental discriminant d of sign s prime to q; d = 1
        included, where S(1) = lambda_s({oo, 0})."""
        known = self._sums.get(d)
        if known is None:
            known = self._sums[d] = self._reduced_sum(d)
        return known

    def _reduced_sum(self, d: int) -> int:
        """S(d) = 2^k W less the divisor terms of the module docstring."""
        if d == 0 or d == -1:
            raise ModSymError(f"D = {d} is not a fundamental discriminant")
        s = self.sign
        if (d > 0) != (s > 0):
            raise ModSymError(f"D = {d} does not have the sign {s:+d} "
                              f"of the twists of {self.curve.label}")
        head = self._rows[0][1]     # lambda_s(1:0)
        if d == 1:
            return head
        primes = _twist_disc_primes(self.curve, d)
        m, k = abs(d), len(primes)
        first, second = _square_classes(m, primes)
        if all(p % 4 == 1 for p in primes):         # -1 in Sq: one class
            w = 2 * self._chain_sums(m, first)
        else:
            w = self._chain_sums(m, first) + s * self._chain_sums(m, second)
        total = w << k
        stars = [p if p % 4 == 1 else -p for p in primes]
        for p in primes:
            if p not in self._aps:
                self._aps[p] = character_ap(self.curve.q, p)
        aps = [self._aps[p] for p in primes]
        for mask in range((1 << k) - 1):            # the proper divisors
            sub = prod(x for i, x in enumerate(stars) if mask >> i & 1)
            if (sub > 0) != (s > 0):
                continue
            term = self.twisted_sum(sub)
            for i, (p, ap) in enumerate(zip(primes, aps)):
                if not mask >> i & 1:
                    term *= ap - 2 * kronecker(sub, p)
            if mask == 0:
                term -= prod(p - 1 for p in primes) * head
            total -= term
        return total

    def _chain_sums(self, m: int, units) -> int:
        """The sum of Phi(m, e) over the e in units: each chain runs two
        Euclid steps a turn until its first pair (y, r) with y < CHAIN_BOUND,
        whose Phi the table gives."""
        n, rows, phi = self.curve.q ** 2, self._rows, self._phi
        bound = CHAIN_BOUND
        even = odd = 0
        for r in units:
            y = m
            while y >= bound:
                even += rows[r % n][y % n]
                y, r = r, y % r
                if y < bound:
                    odd += phi[r * bound + y]
                    break
                odd += rows[r % n][y % n]
                y, r = r, y % r
            else:
                even += phi[r * bound + y]
        return even + self.sign * odd

    def lalg(self, d: int) -> Fraction:
        """L^alg(E^(d)) = S(d) / c, exactly."""
        return Fraction(self.twisted_sum(d), self.scale)

    def algebraic_part(self, ctx: CurveContext, d: int,
                       target_digits: int = 10) -> LValueResult:
        """lseries.algebraic_part(ctx, d, target_digits) from the symbols:
        the same exact L^alg, and L(E^(d), 1) = L^alg Omega_L / sqrt(|d|) to
        target_digits digits, with no series term and no tail.  The table
        command of a builtin curve takes its rows from this method."""
        curve = ctx.curve
        eps = twist_root_number(curve, d)
        lalg = Fraction(0) if eps == -1 else self.lalg(d)
        if lalg < 0:
            raise ModSymError(f"S({d}) / c = {lalg} is negative")
        digits = max(target_digits, 15)
        # Omega * num / den / sqrt(|d|) by the libmp steps that mpf * int,
        # mpf / int and mp.sqrt take inside workdps(digits + 10), each rounded
        # to nearest at its precision, without entering that context per row
        prec, near = dps_to_prec(digits + 10), round_nearest
        value = mpf_mul_int(ctx.omega(digits)._mpf_, lalg.numerator, prec, near)
        value = mpf_div(value, from_int(lalg.denominator), prec, near)
        value = mpf_div(value, mpf_sqrt(from_int(abs(d)), prec, near), prec, near)
        return LValueResult(curve.label, d, eps, mp.make_mpf(value), 0, 0.0,
                            lalg, 0.0)
