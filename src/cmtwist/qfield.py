"""Exact arithmetic in the imaginary quadratic fields K = Q(sqrt(-q)).

Supported fields have q in {7, 11, 19, 43, 67, 163}: class number one, q = 3
(mod 4), so the ring of integers is Z[tau] with tau = (1 + sqrt(-q))/2 and
tau^2 = tau - m, m = (q+1)/4.  Everything here is exact: QuadInt arithmetic
in K (integral or with Fraction coordinates), prime splitting, Cornacchia's
norm equation, unit normalization mod 4, quadratic residue symbols in residue
fields, ideal factorization, and residue rings modulo an odd element (used to
enumerate torsion points exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def is_rational(self) -> bool:
        return self.b == 0

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


def as_quadint(q: int, x) -> QuadInt:
    if isinstance(x, QuadInt):
        if x.q != q:
            raise QFieldError(f"{x} is not in Q(sqrt(-{q}))")
        return x
    return QuadInt(q, int(x), 0)


# ---------------------------------------------------------------- splitting

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, values in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def split_type(q: int, p: int) -> str:
    """'split', 'inert' or 'ramified' for the rational prime p in Q(sqrt(-q))."""
    _check_q(q)
    if p == q:
        return "ramified"
    if p == 2:
        # 2 splits iff -q = 1 (mod 8)
        return "split" if q % 8 == 7 else "inert"
    return "split" if legendre(-q, p) == 1 else "inert"


def sqrt_mod(n: int, p: int) -> int:
    """Tonelli-Shanks square root of n mod an odd prime p; raises if none."""
    n %= p
    if n == 0:
        return 0
    if legendre(n, p) != 1:
        raise QFieldError(f"{n} is not a square mod {p}")
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # p = 1 (mod 4): write p - 1 = odd * 2^s and steer the error term down
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, odd, p)
    x = pow(n, (odd + 1) // 2, p)
    t = pow(n, odd, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        s = i
    if x * x % p != n:
        raise QFieldError(f"square root of {n} mod {p} failed; is {p} prime?")
    return x


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
    x0 = sqrt_mod(-q, p)
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
    if q == 7:
        return True
    return cornacchia_split(q, p).b % 2 == 0


def special_split_primes(q: int, bound: int) -> list[int]:
    """All special split primes p <= bound, ascending."""
    return [p for p in range(5, bound + 1) if is_prime(p) and is_special_split(q, p)]


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


def factor_int(n: int) -> list[tuple[int, int]]:
    """Ascending (p, e) pairs with |n| = prod p^e, by trial division."""
    if n == 0:
        raise QFieldError("cannot factor 0")
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# ------------------------------------------------------------- prime ideals

@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal of O_K, carried with its residue characteristic."""

    q: int
    p: int
    kind: str  # 'split' | 'inert' | 'ramified'
    gen: QuadInt  # generator (the rational prime itself when inert)

    @property
    def residue_size(self) -> int:
        return self.p * self.p if self.kind == "inert" else self.p

    def contains(self, beta: QuadInt) -> bool:
        return divide_exact(beta, self) is not None

    def __str__(self) -> str:
        return f"({self.gen})"


def primes_above(q: int, p: int) -> list[PrimeIdeal]:
    kind = split_type(q, p)
    if kind == "ramified":
        return [PrimeIdeal(q, p, kind, sqrt_minus_q(q))]
    if kind == "inert":
        return [PrimeIdeal(q, p, kind, from_int(q, p))]
    pi = cornacchia_split(q, p)
    return [PrimeIdeal(q, p, kind, pi), PrimeIdeal(q, p, kind, pi.conj())]


def divide_exact(beta: QuadInt, P: PrimeIdeal) -> QuadInt | None:
    """beta / gen(P) if beta lies in P, else None."""
    if P.kind == "inert":
        if beta.a % P.p == 0 and beta.b % P.p == 0:
            return QuadInt(beta.q, beta.a // P.p, beta.b // P.p)
        return None
    g = beta * P.gen.conj()
    n = P.gen.norm()  # p for split, q for ramified
    if g.a % n == 0 and g.b % n == 0:
        return QuadInt(beta.q, g.a // n, g.b // n)
    return None


def reduction_mod(P: PrimeIdeal, beta: QuadInt) -> int:
    """Image of beta in O_K/P = F_p (split or ramified P only)."""
    if P.kind == "inert":
        raise QFieldError(f"the residue field of the inert prime {P} is not F_p")
    p = P.p
    d = P.gen.b % p
    if d == 0:  # a norm-p generator cannot have p | b
        raise QFieldError(f"generator {P.gen} of {P} has p | b")
    t0 = (-P.gen.a) * pow(d, -1, p) % p  # image of tau
    return (beta.a + beta.b * t0) % p


def qr_symbol(alpha, P: PrimeIdeal) -> int:
    """Quadratic residue symbol of alpha modulo P, by residue-field power.

    P must be an odd unramified prime not dividing (alpha); the value is
    alpha^((NP-1)/2) in the residue field, +1 or -1.
    """
    if P.p == 2:
        raise QFieldError("symbol undefined at primes above 2")
    if P.kind == "ramified":
        raise QFieldError("symbol undefined at the ramified prime")
    alpha = as_quadint(P.q, alpha)
    if P.kind == "split":
        r = reduction_mod(P, alpha)
        if r == 0:
            raise QFieldError(f"symbol undefined: {alpha} lies in {P}")
        return legendre(r, P.p)
    # inert: residue field F_{p^2} = F_p[t]/(t^2 - t + m)
    p, m = P.p, alpha.m
    a, b = alpha.a % p, alpha.b % p
    if a == 0 and b == 0:
        raise QFieldError(f"symbol undefined: {alpha} lies in {P}")
    ra, rb = 1, 0
    e = (p * p - 1) // 2
    while e:
        if e & 1:
            ra, rb = (ra * a - m * rb * b) % p, (ra * b + rb * a + rb * b) % p
        a, b = (a * a - m * b * b) % p, (2 * a * b + b * b) % p
        e >>= 1
    if rb != 0:
        raise QFieldError("residue power did not land in the prime field")
    return 1 if ra == 1 else -1


def factor_ideal(beta: QuadInt) -> list[tuple[PrimeIdeal, int]]:
    """Prime ideal factorization of (beta), by trial division of the norm."""
    if beta.a == 0 and beta.b == 0:
        raise QFieldError("cannot factor the zero ideal")
    out: list[tuple[PrimeIdeal, int]] = []
    rest = beta
    for p, _ in factor_int(beta.norm()):
        for P in primes_above(beta.q, p):
            e = 0
            nxt = divide_exact(rest, P)
            while nxt is not None:
                rest = nxt
                e += 1
                nxt = divide_exact(rest, P)
            if e:
                out.append((P, e))
    if not rest.is_unit():
        raise QFieldError(f"factorization of {beta} left non-unit {rest}")
    out.sort(key=lambda t: (t[0].p, t[0].gen.a, t[0].gen.b))
    return out


def chi_m_symbol(M, beta: QuadInt) -> int:
    """chi_M-symbol of the principal ideal (beta): the Artin symbol of
    K(sqrt(M))/K, as the multiplicative extension of qr_symbol(M, .) over
    the factorization of (beta).  Requires (beta) coprime to 2M."""
    M = as_quadint(beta.q, M)
    if not beta.is_odd():
        raise QFieldError(f"chi_M needs an odd argument, got {beta}")
    s = 1
    for P, e in factor_ideal(beta):
        if e % 2 == 0:
            continue
        s *= qr_symbol(M, P)
    return s


# ------------------------------------------------------------ residue rings

class ResidueRing:
    """O_K modulo an odd nonzero g, with exact coset enumeration.

    The ideal (g) is a rank-2 sublattice of Z + Z*tau; a Hermite basis
    (d1, 0), (r0, d2) gives canonical representatives 0 <= a < d1,
    0 <= b < d2.  d1 is the smallest positive rational integer in (g),
    which is the exact additive order of the torsion point 1/g mod O_K.
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

    def is_coprime(self, x: QuadInt) -> bool:
        return all(not P.contains(x) for P in self.prime_factors)

    def unit_count(self) -> int:
        n = abs(self.g.norm())
        for P in self.prime_factors:
            n = n // P.residue_size * (P.residue_size - 1)
        return n

    def coprime_residues_mod_units(self) -> list[QuadInt]:
        """Odd representatives of (O_K/g)* / {+-1}, deterministic order.

        Each class is represented by an element of odd norm (needed by
        chi_M symbols); oddness is arranged by adding a multiple of g,
        which stays in the residue class.
        """
        seen: set[tuple[int, int]] = set()
        reps: list[QuadInt] = []
        one = QuadInt(self.q, 1, 0)
        tau = QuadInt(self.q, 0, 1)
        for a in range(self.d1):
            for b in range(self.d2):
                x = QuadInt(self.q, a, b)
                if (a, b) in seen or not self.is_coprime(x):
                    continue
                mx = self.reduce(-x)
                seen.add((a, b))
                seen.add((mx.a, mx.b))
                for shift in (QuadInt(self.q, 0, 0), one, tau, one + tau):
                    cand = x + shift * self.g
                    if cand.is_odd():
                        reps.append(cand)
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
    x = Fraction(x)
    return ord2_int(x.numerator) - ord2_int(x.denominator)


def min_ord2_roots(coeffs: list[Fraction]) -> Fraction:
    """Minimal 2-adic valuation among the roots of a monic polynomial.

    coeffs are [c_0, ..., c_d] with c_d = 1; the answer is the minimal
    slope-negative of the 2-adic Newton polygon, min_k ord2(c_k)/(d-k).
    Zero coefficients are skipped (zero roots contribute valuation +inf).
    """
    d = len(coeffs) - 1
    if coeffs[d] != 1:
        raise QFieldError(f"polynomial is not monic: leading coefficient {coeffs[d]}")
    best: Fraction | None = None
    for k in range(d):
        c = coeffs[k]
        if c == 0:
            continue
        v = Fraction(ord2_fraction(c), d - k)
        if best is None or v < best:
            best = v
    if best is None:
        raise QFieldError("polynomial is a power of x; all roots are 0")
    return best
