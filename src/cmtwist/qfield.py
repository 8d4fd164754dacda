"""Exact arithmetic in the imaginary quadratic fields K = Q(sqrt(-q)).

Supported fields have q in {7, 11, 19, 43, 67, 163}: class number one, q = 3
(mod 4), so the ring of integers is Z[tau] with tau = (1 + sqrt(-q))/2 and
tau^2 = tau - m, m = (q+1)/4.  Everything here is exact: QuadInt arithmetic
in K (integral or with Fraction coordinates), prime splitting, unit
normalization mod 4, the Kronecker symbol, the character chi of conductor
sqrt(-q) (hecke_chi), quadratic residue symbols in residue fields, ideal
factorization, the symbols chi_M((beta)) of K(sqrt(M))/K for M = 1 mod 4,
read modulo M by the product formula (chi_m_symbol_table), residue rings
modulo an odd element (used to enumerate torsion points exactly), root
counts of cubics over F_p (cubic_root_count), the prime sieve behind the
walks over primes (primes_below) and 2-adic valuations of rationals.  A
prime P of O_K is its residue map (p, t0), t0 the image of tau in
O_K/P = F_p (None when P = (p) is inert); Cornacchia's norm equation is
solved only where a generator's coordinates are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

ALLOWED_Q = (7, 11, 19, 43, 67, 163)


class QFieldError(ValueError):
    pass


def _check_q(q: int) -> None:
    if q not in ALLOWED_Q:
        raise QFieldError(f"field not supported: q={q}")


@dataclass(frozen=True)
class QuadInt:
    """a + b*tau, an element of K = Q(sqrt(-q)).

    It lies in the ring of integers O_K = Z[tau] when a and b are ints;
    Fraction coordinates give the other elements of K.
    """

    q: int
    a: int
    b: int

    @property
    def m(self) -> int:
        return (self.q + 1) // 4

    def _same_field(self, other: "QuadInt") -> None:
        if self.q != other.q:
            raise QFieldError(f"elements of different fields: q={self.q}, q={other.q}")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._same_field(other)
        return QuadInt(self.q, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._same_field(other)
        return QuadInt(self.q, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.q, -self.a, -self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        # (a1 + b1 t)(a2 + b2 t) with t^2 = t - m
        self._same_field(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadInt(self.q, a1 * a2 - self.m * b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)

    def __truediv__(self, other: "QuadInt") -> "QuadInt":
        """self / other in K, with Fraction coordinates: other^-1 = conj/norm."""
        n = other.norm()
        if n == 0:
            raise QFieldError("division by zero in K")
        c = other.conj()
        return self * QuadInt(other.q, Fraction(c.a, n), Fraction(c.b, n))

    def scale(self, n: int) -> "QuadInt":
        return QuadInt(self.q, n * self.a, n * self.b)

    def conj(self) -> "QuadInt":
        # conjugate of tau is 1 - tau
        return QuadInt(self.q, self.a + self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b + self.m * self.b * self.b

    def trace(self) -> int:
        return 2 * self.a + self.b

    def is_odd(self) -> bool:
        return self.norm() % 2 == 1

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        t = "t" if abs(self.b) == 1 else f"{abs(self.b)}*t"
        sign = "+" if self.b > 0 else "-"
        if self.a == 0:
            return t if self.b > 0 else f"-{t}"
        return f"{self.a}{sign}{t}"


def from_int(q: int, n: int) -> QuadInt:
    return QuadInt(q, n, 0)


def sqrt_minus_q(q: int) -> QuadInt:
    """sqrt(-q) = 2*tau - 1."""
    _check_q(q)
    return QuadInt(q, -1, 2)


def torsion_modulus(q: int, pis) -> QuadInt:
    """g = sqrt(-q) * prod(pi_i), the modulus of the torsion sums twisted
    by the elements pi_i."""
    g = sqrt_minus_q(q)
    for pi in pis:
        g = g * pi
    return g


def as_quadint(q: int, x) -> QuadInt:
    if isinstance(x, QuadInt):
        if x.q != q:
            raise QFieldError(f"{x} is not in Q(sqrt(-{q}))")
        return x
    return QuadInt(q, int(x), 0)


# ---------------------------------------------------------------- splitting

def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1; the Legendre symbol at an odd prime n."""
    if n < 1:
        raise QFieldError(f"kronecker needs a positive second argument, got {n}")
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


def hecke_chi(beta: QuadInt) -> int:
    """chi(beta), the character of E0 with psi((beta)) = chi(beta) * beta.

    chi is a +-1-valued character of (O_K/sqrt(-q))^* = F_q^*, and odd,
    since psi((-beta)) = psi((beta)); for q = 3 mod 4 the Legendre symbol
    mod q is the only such character.  tau = 1/2 = (q+1)/2 mod sqrt(-q).
    """
    q = beta.q
    r = (beta.a + beta.b * ((q + 1) // 2)) % q
    if r == 0:
        raise QFieldError(f"{beta} is not coprime to the conductor sqrt(-{q})")
    return kronecker(r, q)


def split_type(q: int, p: int) -> str:
    """'split', 'inert' or 'ramified' for the rational prime p in Q(sqrt(-q)).

    p splits iff (-q/p) = 1, and as q = 3 mod 4, (-q/p) = (p/q) for odd
    p != q by quadratic reciprocity, and (-q/2) = (2/q); Euler's criterion
    decides (p/q) with one pow."""
    _check_q(q)
    if p % q == 0:
        return "ramified"
    return "split" if pow(p, (q - 1) // 2, q) == 1 else "inert"


def sqrt_mod(n: int, p: int) -> int:
    """Tonelli-Shanks square root of n mod an odd prime p; raises if none."""
    n %= p
    if n == 0:
        return 0
    if kronecker(n, p) != 1:
        raise QFieldError(f"{n} is not a square mod {p}")
    return _sqrt_of_square(n, p)


def _sqrt_of_square(n: int, p: int) -> int:
    """sqrt_mod for an n already known to be a nonzero square mod p."""
    n %= p
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # p = 1 (mod 4): write p - 1 = odd * 2^s and steer the error term down
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    # both searches are bounded: a composite p (a square has no
    # non-residue at all) ends at the check below instead of looping
    z = 2
    while z < p and kronecker(z, p) != -1:
        z += 1
    c = pow(z, odd, p)
    x = pow(n, (odd + 1) // 2, p)
    t = pow(n, odd, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1 and i < s:
            t2 = t2 * t2 % p
            i += 1
        if i == s:
            break
        b = pow(c, 1 << (s - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        s = i
    if x * x % p != n:
        raise QFieldError(f"square root of {n} mod {p} failed; is {p} prime?")
    return x


def cubic_root_count(a: int, b: int, c: int, d: int, p: int) -> int:
    """The number of roots in F_p of f = a x^3 + b x^2 + c x + d: 0, 1 or 3.

    p must be an odd prime not dividing a; a repeated root (disc(f) = 0
    mod p) is refused.  By Stickelberger's theorem (disc/p) = (-1)^(3 - r)
    for the number r of irreducible factors of f mod p, so (disc/p) = -1
    means one linear and one quadratic factor: exactly one root.  Otherwise
    f splits into three roots or stays irreducible, and the Frobenius test
    tells which: f divides x^p - x iff every root lies in F_p.  x^p mod f
    is formed by square-and-multiply on residues c0 + c1 x + c2 x^2, so the
    count takes O(log p) operations where evaluating f at every residue
    takes O(p).
    """
    if a % p == 0:
        raise QFieldError(f"the cubic has leading coefficient {a} = 0 mod {p}")
    disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d
            + 18 * a * b * c * d)
    legendre = kronecker(disc, p)
    if legendre == 0:
        raise QFieldError(f"the cubic has a repeated root mod {p}")
    if legendre == -1:
        return 1
    # the monic f / a = x^3 + B x^2 + C x + D, and x^3 = -B x^2 - C x - D
    inv = pow(a, -1, p)
    B, C, D = b * inv % p, c * inv % p, d * inv % p
    r0, r1, r2 = 0, 1, 0                         # x
    for bit in bin(p)[3:]:
        # square: e0 + e1 x + e2 x^2 + e3 x^3 + e4 x^4, folded from the top
        e4 = r2 * r2 % p
        e3 = (2 * r1 * r2 - B * e4) % p
        e2 = r1 * r1 + 2 * r0 * r2 - C * e4
        e1 = 2 * r0 * r1 - D * e4
        r0, r1, r2 = (r0 * r0 - D * e3) % p, (e1 - C * e3) % p, (e2 - B * e3) % p
        if bit == "1":                           # times x
            r0, r1, r2 = -D * r2 % p, (r0 - C * r2) % p, (r1 - B * r2) % p
    return 3 if (r0, r1, r2) == (0, 1, 0) else 0


def cornacchia_split(q: int, p: int) -> QuadInt:
    """A prime element of norm p, for p split in Q(sqrt(-q)).

    Solves x^2 + q*y^2 = 4p by Euclidean descent on a square root of -q
    (integer arithmetic only) and returns pi = (x + y*sqrt(-q))/2, defined
    up to sign and conjugation.
    """
    if split_type(q, p) != "split":
        raise QFieldError(f"{p} is not split in Q(sqrt(-{q}))")
    if p == 2:  # only q = 7; norm equation 4*2 = 1 + 7
        pi = QuadInt(q, 0, 1)
        if pi.norm() != 2:
            raise QFieldError(f"{pi} has norm {pi.norm()}, not 2")
        return pi
    x0 = _sqrt_of_square(-q, p)     # -q is a square mod the split p
    if x0 % 2 == 0:
        x0 = p - x0  # force x0 odd so x0^2 = -q (mod 4p)
    a, b = 2 * p, x0
    limit = isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    x = b
    rem = 4 * p - x * x
    if rem % q != 0:
        raise QFieldError(f"norm equation x^2 + {q}y^2 = 4*{p} has no solution")
    ysq = rem // q
    y = isqrt(ysq)
    if y * y != ysq:
        raise QFieldError(f"norm equation x^2 + {q}y^2 = 4*{p} has no solution")
    if (x - y) % 2:
        raise QFieldError(f"x = {x} and y = {y} differ in parity")
    pi = QuadInt(q, (x - y) // 2, y)
    if pi.norm() != p:
        raise QFieldError(f"{pi} has norm {pi.norm()}, not {p}")
    return pi


def normalize_mod4(z: QuadInt) -> QuadInt:
    """The associate u*z (u = +-1) congruent to 1 mod 4*O_K."""
    for cand in (z, -z):
        if cand.a % 4 == 1 and cand.b % 4 == 0:
            return cand
    raise QFieldError(f"{z} has no associate congruent to 1 mod 4")


def is_special_split(q: int, p: int) -> bool:
    """True when p = pi*pi' with both generators normalizable to 1 mod 4.

    Equivalent to: p split, p = 1 (mod 4), and the norm form solution
    p = a^2 + ab + m b^2 has b even (the parity of b is invariant under
    sign change and conjugation).  For q = 7 the parity condition is
    automatic.
    """
    if split_type(q, p) != "split" or p % 4 != 1:
        return False
    return q == 7 or is_special_element(cornacchia_split(q, p))


def is_special_element(pi: QuadInt) -> bool:
    """is_special_split for the norm p of pi, a prime element above a split
    odd p: p = 1 (mod 4) and pi = a + b*tau with b even."""
    return pi.b % 2 == 0 and pi.norm() % 4 == 1


def special_split_primes(q: int, bound: int) -> list[int]:
    """All special split primes p <= bound, ascending."""
    return [p for p in primes_below(bound + 1) if p >= 5 and is_special_split(q, p)]


def primes_below(n: int) -> list[int]:
    """The primes p < n, ascending, by a sieve of Eratosthenes on a bytearray.

    The walks over a range of primes use it; is_prime checks a single
    integer that comes from outside.
    """
    if n < 3:
        return []
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
    # deterministic Miller-Rabin for n < 3.3e24
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Trial division stops here: every prime up to the largest M that table
# accepts is found, and a large prime factor costs bounded time.
TRIAL_BOUND = 10 ** 6


def factor_int(n: int) -> list[tuple[int, int]]:
    """Ascending (p, e) pairs with |n| = prod p^e, by trial division to
    TRIAL_BOUND; a cofactor left above TRIAL_BOUND^2 must be prime."""
    if n == 0:
        raise QFieldError("cannot factor 0")
    n = whole = abs(n)
    out = []
    p, stop = 2, min(isqrt(n), TRIAL_BOUND)
    while p <= stop:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
            stop = min(isqrt(n), TRIAL_BOUND)
        p += 1 if p == 2 else 2
    if n > TRIAL_BOUND ** 2 and not is_prime(n):
        raise QFieldError(f"cannot factor {whole}: the cofactor {n} has no prime "
                          f"factor up to {TRIAL_BOUND} and is not prime")
    if n > 1:
        out.append((n, 1))
    return out


# ------------------------------------------------------------- prime ideals

def primes_above(q: int, p: int) -> list[tuple[int, int | None]]:
    """The primes P above p, ascending, as residue maps (p, t0): t0 is a root
    of t^2 - t + m mod p and a + b*tau lies in P iff a + b*t0 = 0 mod p;
    t0 is None for the inert P = (p)."""
    kind = split_type(q, p)
    if kind == "inert":
        return [(p, None)]
    if kind == "ramified":  # the double root 1/2 mod q
        return [(p, (q + 1) // 2)]
    if p == 2:  # only q = 7: t^2 - t = 0 mod 2
        return [(2, 0), (2, 1)]
    s = sqrt_mod(-q, p)  # t0 = (1 +- s)/2, and (p + 1)/2 = 1/2 mod p
    return sorted((p, (1 + r) * (p + 1) // 2 % p) for r in (s, -s))


def residue_size(P: tuple[int, int | None]) -> int:
    """|O_K/P|: p^2 for the inert P = (p), else p."""
    p, t0 = P
    return p * p if t0 is None else p


def qr_symbol(alpha: QuadInt, P: tuple[int, int | None]) -> int:
    """Quadratic residue symbol of alpha modulo P = (p, t0), +1 or -1.

    P must be an odd unramified prime not dividing (alpha).  At a split P
    it is the Legendre symbol of the image a + b*t0 of alpha in F_p; at an
    inert P = (p), where Frobenius is conjugation, alpha^((p^2-1)/2) =
    N(alpha)^((p-1)/2), the Legendre symbol of the norm.
    """
    p, t0 = P
    if p == 2:
        raise QFieldError("symbol undefined at primes above 2")
    if p == alpha.q:
        raise QFieldError("symbol undefined at the ramified prime")
    # p is prime in O_K when inert, so it divides N(alpha) iff alpha in (p)
    r = alpha.norm() if t0 is None else alpha.a + alpha.b * t0
    if r % p == 0:
        raise QFieldError(f"symbol undefined: {alpha} lies in a prime above {p}")
    return kronecker(r, p)


def factor_ideal(beta: QuadInt) -> list[tuple[tuple[int, int | None], int]]:
    """[((p, t0), e)], ascending: the primes of (beta) as residue maps
    (primes_above), read from the factorization of N(beta).

    With p^e exactly dividing N(beta): an inert (p) has exponent e/2 and
    the ramified prime e.  For split p, beta = p^c * beta' with p dividing
    not both coordinates of beta', so beta' lies in at most one of the two
    primes above p, with exponent e - 2c, and their residue maps tell
    which; integers only.
    """
    if beta.a == 0 and beta.b == 0:
        raise QFieldError("cannot factor the zero ideal")
    out = []
    for p, e in factor_int(beta.norm()):
        primes = primes_above(beta.q, p)
        if len(primes) == 1:
            out.append((primes[0], e // 2 if primes[0][1] is None else e))
            continue
        a, b, c = beta.a, beta.b, 0
        while a % p == 0 and b % p == 0:
            a, b, c = a // p, b // p, c + 1
        inside = [(a + b * t0) % p == 0 for _, t0 in primes]
        if sum(inside) != (e > 2 * c):
            raise QFieldError(
                f"{beta}: {p}^{e - 2 * c} of its norm is not in one prime above {p}")
        for P, hit in zip(primes, inside):
            if c + (e - 2 * c) * hit:
                out.append((P, c + (e - 2 * c) * hit))
    return out


def chi_m_symbol_table(ms: list, betas: list[QuadInt]) -> list[list[int]]:
    """[[chi_M((beta)) for beta in betas] for M in ms], M = 1 mod 4.

    chi_M is the Artin symbol of K(sqrt(M))/K, the multiplicative extension
    of qr_symbol(M, .) over the primes of (beta).  For M = 1 mod 4,
    K_v(sqrt(M))/K_v is unramified at every v above 2, where an odd beta is
    a unit, so the Hilbert symbol (M, beta)_v is 1 there; the product
    formula then turns chi_M((beta)) into prod (beta/P) over the primes P
    dividing M to an odd power.  So each M is factored once and no beta.
    beta must be odd and prime to M.  Entries are visited row by row,
    which fixes the first error raised.
    """
    table = []
    for M in ms:
        primes = None
        row = []
        for beta in betas:
            if primes is None:
                M = as_quadint(beta.q, M)
                if M.a % 4 != 1 or M.b % 4 != 0:
                    raise QFieldError(f"chi_M needs M = 1 mod 4, got {M}")
                primes = [P for P, e in factor_ideal(M) if e % 2]
            if not beta.is_odd():
                raise QFieldError(f"chi_M needs an odd argument, got {beta}")
            s = 1
            for P in primes:
                s *= qr_symbol(beta, P)
            row.append(s)
        table.append(row)
    return table


# ------------------------------------------------------------ residue rings

class ResidueRing:
    """O_K modulo an odd nonzero g, with exact coset enumeration.

    The ideal (g) is a rank-2 sublattice of Z + Z*tau; a Hermite basis
    (d1, 0), (r0, d2) gives canonical representatives 0 <= a < d1,
    0 <= b < d2.  d1 is the smallest positive rational integer in (g),
    which is the exact additive order of the torsion point 1/g mod O_K.
    prime_factors holds the primes of (g) as the residue maps (p, t0) of
    factor_ideal, which decide coprimality without a generator.
    """

    def __init__(self, g: QuadInt):
        if g.norm() == 0:
            raise QFieldError("modulus must be nonzero")
        if g.norm() % 2 == 0:
            raise QFieldError("modulus must be odd")
        if g.is_unit():
            raise QFieldError("modulus must not be a unit")
        self.g = g
        self.q = g.q
        n = abs(g.norm())
        # lattice rows: g = (a, b) and tau*g = (-m*b, a+b)
        a, b = g.a, g.b
        m = g.m
        e = gcd(b, a + b)
        if e == 0:
            # g rational: lattice a*Z + a*tau*Z
            d1, d2, r0 = abs(a), abs(a), 0
        else:
            # unimodular combination with second coordinate e
            u, v = _bezout(b, a + b)
            r0 = u * a + v * (-m * b)
            d1 = n // e
            d2 = e
            r0 %= d1
        self.d1, self.d2, self.r0 = d1, d2, r0
        if d1 * d2 != n:
            raise QFieldError(f"Hermite basis of ({g}) has index {d1 * d2}, not {n}")
        self.prime_factors = [P for P, _ in factor_ideal(g)]

    @property
    def smallest_positive_integer(self) -> int:
        return self.d1

    def reduce(self, x: QuadInt) -> QuadInt:
        """Canonical representative of x mod (g) in the Hermite box."""
        k = x.b // self.d2
        b = x.b - k * self.d2
        a = (x.a - k * self.r0) % self.d1
        return QuadInt(self.q, a, b)

    def _coprime(self, a: int, b: int) -> bool:
        """a + b*tau lies in no prime factor (p, t0) of g: a + b*t0 != 0
        mod p when P is split or ramified, p does not divide both a and b
        when P = (p) is inert."""
        for p, t0 in self.prime_factors:
            if t0 is None:
                if a % p == 0 and b % p == 0:
                    return False
            elif (a + b * t0) % p == 0:
                return False
        return True

    def unit_count(self) -> int:
        n = abs(self.g.norm())
        for P in self.prime_factors:
            n = n // residue_size(P) * (residue_size(P) - 1)
        return n

    def coprime_residues_mod_units(self) -> list[QuadInt]:
        """Odd representatives of (O_K/g)* / {+-1}, deterministic order.

        Each class is represented by an element of odd norm (needed by
        chi_M symbols); oddness is arranged by adding 0, g, tau*g or
        (1 + tau)*g, which stays in the residue class.  The Hermite box is
        walked in (a, b) order, and each class marks its negative, reduced
        into the box, as seen.
        """
        d1, d2, r0 = self.d1, self.d2, self.r0
        m = self.g.m
        ga, gb = self.g.a, self.g.b
        shifts = ((0, 0), (ga, gb), (-m * gb, ga + gb), (ga - m * gb, ga + 2 * gb))
        seen = bytearray(d1 * d2)
        reps: list[QuadInt] = []
        for a in range(d1):
            for b in range(d2):
                if seen[a * d2 + b] or not self._coprime(a, b):
                    continue
                # -(a + b*tau) reduced into the box, as reduce() does
                nb = -b % d2
                na = (-a + (b > 0) * r0) % d1
                seen[a * d2 + b] = seen[na * d2 + nb] = 1
                for sa, sb in shifts:
                    x, y = a + sa, b + sb
                    if (x * x + x * y + m * y * y) % 2:
                        reps.append(QuadInt(self.q, x, y))
                        break
                else:
                    raise QFieldError("no odd representative found")
        if len(reps) * 2 != self.unit_count():
            # degenerate case -1 = 1 mod g cannot occur for odd non-unit g
            raise QFieldError("unit pairing failed")
        return reps


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(u, v) with u*x + v*y = gcd(x, y)."""
    old_r, r = x, y
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return old_u, old_v


# -------------------------------------------------------- 2-adic valuations

def ord2_int(n: int) -> int:
    if n == 0:
        raise QFieldError("ord2 of 0 is infinite")
    return (n & -n).bit_length() - 1


def ord2_fraction(x) -> int:
    """2-adic valuation of a nonzero rational, normalized ord2(2) = 1."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return ord2_int(x.numerator) - ord2_int(x.denominator)
