"""Weierstrass functions and Eisenstein sums at torsion points of CM lattices.

The period lattice of each supported curve is lam * O_K with lam = i^rot *
Omega for a positive real Omega (see registry.omega_lattice; rot is the
curve's quarter-turn count), where O_K = Z + Z*tau, tau = (1+sqrt(-q))/2.
The modified Eisenstein value E1*(z) = zeta(z) - z*s2 - conj(z)/A is
evaluated at a torsion point z = (s + t*tau)*lam, s and t exact Fractions,
directly from its q-expansion: with u = e^(2*pi*i*(s + t*tau)), 0 <= t <= 1/2
(E1* is odd) and qtau = e^(2*pi*i*tau) = -e^(-pi*sqrt(q)),

    E1*(z) = (2*pi*i/lam) * [ (1+u)/(2(u-1)) + t
             + sum_{n>=1} (qtau^n/u)/(1 - qtau^n/u) - qtau^n*u/(1 - qtau^n*u) ],

one short series per point (Goldstein-Schappacher, J. reine angew. Math.
327 (1981); de Shalit, Iwasawa Theory of Elliptic Curves with Complex
Multiplication (1987), ch. II).  The weight-one torsion sums

    S(g)      = g^{-1} sum_{beta} chi(beta) E1*(beta*lam/g),
    S_M(g)    = g^{-1} sum_{beta} chi_M((beta)) chi(beta) E1*(beta*lam/g),

with beta running over odd representatives of (O_K/g)^* / {+-1}, are
reductions of one per-modulus array of chi(beta)*E1*(beta*lam/g).  They
compute partially stripped Hecke L-values divided by Omega; averaging_check
verifies the subset-average identity relating the S_M to a sign-condition
sub-sum and bounds the 2-adic valuation of the average.

The oracle for the direct values is the classical ladder built from wp, wp'
(themselves q-expansions) at the multiples of a point w of exact odd order m,

    2 B_m(z) = wp''(z)/wp'(z)
             + sum_{k=2}^{m-1} (wp'(kz) - wp'(z)) / (wp(kz) - wp(z)),

    E1*(w) = -B_{m-1}(w) / m,

which costs m - 1 divisions per point (b_ladder, e1star_torsion,
ladder_discrepancy); the tests and `verify e1-ladder` use it.

All floating work is mpmath at a caller-chosen precision plus guard digits;
torsion points are located by exact rational coordinates so that phases are
computed from Fractions, never from accumulated float error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

# the character lives next to the a_p code; it is re-exported from here
from .coeffs import HeckeCharacter, calibrate_character
from .lseries import recognize_rational
from .qfield import (
    QuadInt,
    ResidueRing,
    as_quadint,
    chi_m_symbol,
    divide_exact,
    factor_ideal,
    min_ord2_roots,
    sqrt_minus_q,
)
from .registry import Curve, omega_lattice


class EisensteinError(ValueError):
    pass


GUARD_DIGITS = 15


# ----------------------------------------------------------------- context


@dataclass(frozen=True)
class EisensteinContext:
    """Precomputed lattice constants for one curve at one working precision.

    omega is the positive real lattice scale and lam = i^rotation * omega the
    actual lattice multiplier (period lattice = lam * O_K); scale = 2*pi*i/lam,
    fac2 = scale^2 and fac3 = scale^3 are the prefactors of the E1*, wp and
    wp' q-expansions, and series_terms bounds the q-power tail at the working
    precision (|qtau| = exp(-pi*sqrt(q))).
    """

    curve: Curve
    precision: int
    dps: int
    omega: object          # mpf, positive real scale
    lam: object            # mpc, lattice multiplier i^rot * omega
    root_q: object         # mpf, sqrt(q)
    tau: object            # mpc, (1 + i*sqrt(q))/2
    qtau: object           # mpf, -exp(-pi*sqrt(q))
    g2: object             # mpf, c4/12 on the lam*O_K lattice
    g3: object             # mpf, c6/216
    scale: object
    fac2: object
    fac3: object
    series_terms: int

    def embed(self, x: QuadInt):
        """Complex value of x = a + b*tau under tau -> (1+i*sqrt(q))/2."""
        if x.q != self.curve.q:
            raise EisensteinError("element belongs to a different field")
        with mp.workdps(self.dps):
            return +(mp.mpc(x.a) + x.b * self.tau)


def _significant_digits(decimal: str) -> int:
    mantissa = decimal.strip().lstrip("+-").lower().partition("e")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


def make_context(curve: Curve, precision: int = 50) -> EisensteinContext:
    if precision < 15:
        raise EisensteinError("precision below 15 digits is not supported")
    # the tripwire below allows a relative error of 10^-tol_digits in
    # g3 ~ omega^-6; an omega rounded to s significant digits is off by up
    # to 10^(1-s)/2 relative, and 6 * 10^(1-s)/2 <= 10^-tol_digits needs
    # s >= tol_digits + 2
    tol_digits = precision - 2
    if curve.omega_override is not None:
        have, need = _significant_digits(curve.omega_override), tol_digits + 2
        if have < need:
            raise EisensteinError(
                f"omega of {curve.label} has {have} significant digits; the "
                f"lattice check at {precision} digits needs at least {need}")
    dps = precision + GUARD_DIGITS
    with mp.workdps(dps):
        omega = omega_lattice(curve, dps)
        lam = omega * mp.mpc(0, 1) ** (curve.lattice_rotation % 4)
        root_q = mp.sqrt(curve.q)
        tau = (1 + mp.mpc(0, 1) * root_q) / 2
        qtau = -mp.exp(-mp.pi * root_q)
        scale = 2 * mp.pi * mp.mpc(0, 1) / lam
        fac2 = scale**2
        fac3 = scale**3
        g2 = mp.mpf(curve.c4) / 12
        g3 = mp.mpf(curve.c6) / 216
        n_terms = int((dps + 2) * mp.log(10) / (mp.pi * root_q)) + 6
        ctx = EisensteinContext(
            curve=curve, precision=precision, dps=dps, omega=+omega,
            lam=+lam, root_q=+root_q, tau=+tau, qtau=+qtau, g2=+g2, g3=+g3,
            scale=+scale, fac2=+fac2, fac3=+fac3, series_terms=n_terms,
        )
        # tripwire: the weight-4/6 Eisenstein series of omega*O_K must equal
        # the exact model invariants c4/12, c6/216
        g2s, g3s = _invariants_from_series(ctx)
        tol = mp.mpf(10) ** -tol_digits
        if abs(g2s - g2) > tol * abs(g2) or abs(g3s - g3) > tol * abs(g3):
            raise EisensteinError(
                f"lattice normalization drift for {curve.label}: "
                f"series g2={g2s}, model g2={g2}"
            )
    return ctx


def _invariants_from_series(ctx: EisensteinContext):
    """(g2, g3) of the lattice lam*(Z + Z*tau) from E4/E6 q-series.

    g2(Z+Ztau) = (2*pi)^4 E4/12 and g3 = (2*pi)^6 E6/216 scale by lam^-4 and
    lam^-6; a quarter-turn rotation therefore flips the sign of g3 only.
    """
    with mp.workdps(ctx.dps):
        e4 = mp.mpf(1)
        e6 = mp.mpf(1)
        qn = mp.mpf(1)
        for n in range(1, ctx.series_terms + 1):
            qn *= ctx.qtau
            common = qn / (1 - qn)
            e4 += 240 * n**3 * common
            e6 -= 504 * n**5 * common
        two_pi = 2 * mp.pi
        return (
            +(two_pi**4 / ctx.lam**4 / 12 * e4),
            +(two_pi**6 / ctx.lam**6 / 216 * e6),
        )


# -------------------------------------------- wp and E1* via q-expansions


def _as_mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _reduced_phase(ctx: EisensteinContext, s, t):
    """(u, t, flip) for z = (s + t*tau)*lam, s and t rational or real.

    z is reduced modulo the lattice and, when t > 1/2, replaced by -z
    (flip = True), so 0 <= t <= 1/2 and u = e^(2*pi*i*(s + t*tau)) has
    |u| <= 1.  Fraction inputs keep the phase e^(2*pi*i*(s + t/2)) exact to
    working precision; the lattice itself is rejected.  Call inside
    mp.workdps(ctx.dps).
    """
    if isinstance(s, Fraction) and isinstance(t, Fraction):
        s %= 1
        t %= 1
        if s == 0 and t == 0:
            raise EisensteinError("pole: z lies on the lattice")
        flip = t > Fraction(1, 2)
        if flip:
            s, t = (-s) % 1, 1 - t
    else:
        s = mp.mpf(s)
        t = mp.mpf(t)
        s -= mp.floor(s)
        t -= mp.floor(t)
        eps = mp.mpf(10) ** (-(ctx.dps - 5))
        if min(s, 1 - s) < eps and min(t, 1 - t) < eps:
            raise EisensteinError("pole: z is too close to the lattice")
        flip = t > mp.mpf(1) / 2
        if flip:
            s, t = (1 - s) % 1, 1 - t
    phase = _as_mpf(2 * s + t)
    t = _as_mpf(t)
    u = mp.expjpi(phase) * mp.exp(-mp.pi * ctx.root_q * t)
    return u, t, flip


def _wp_from_st(ctx: EisensteinContext, s, t):
    """(wp(z), wp'(z)) for z = (s + t*tau)*lam, s and t rational or real."""
    with mp.workdps(ctx.dps):
        u, _, flip = _reduced_phase(ctx, s, t)
        u_inv = 1 / u
        omu = 1 - u
        wp = mp.mpf(1) / 12 + u / (omu * omu)
        wpd = u * (1 + u) / omu**3
        qn = mp.mpf(1)
        for _ in range(ctx.series_terms):
            qn *= ctx.qtau
            a = qn * u
            b = qn * u_inv
            oma = 1 - a
            omb = 1 - b
            omq = 1 - qn
            wp += a / (oma * oma) + b / (omb * omb) - 2 * qn / (omq * omq)
            wpd += a * (1 + a) / oma**3 - b * (1 + b) / omb**3
        wp = ctx.fac2 * wp
        wpd = ctx.fac3 * wpd
        if flip:
            wpd = -wpd
        return +wp, +wpd


def _e1star_from_st(ctx: EisensteinContext, s: Fraction, t: Fraction):
    """E1*(z) for z = (s + t*tau)*lam off the lattice, from its q-expansion.

    With u = e^(2*pi*i*(s + t*tau)) and 0 <= t <= 1/2 (E1* is odd),

        E1*(z) = (2*pi*i/lam) * [ (1+u)/(2(u-1)) + t
                 + sum_{n>=1} (qtau^n/u)/(1 - qtau^n/u) - qtau^n*u/(1 - qtau^n*u) ],

    the two fractions of each term merged over one denominator.
    """
    with mp.workdps(ctx.dps):
        u, t, flip = _reduced_phase(ctx, s, t)
        u_inv = 1 / u
        acc = (1 + u) / (2 * (u - 1)) + t
        qn = mp.mpf(1)
        for _ in range(ctx.series_terms):
            qn *= ctx.qtau
            a = qn * u
            b = qn * u_inv
            acc += (b - a) / ((1 - a) * (1 - b))
        val = ctx.scale * acc
        return -val if flip else +val


def wp_values(ctx: EisensteinContext, z):
    """(wp(z), wp'(z)) on the curve's period lattice for a complex z."""
    with mp.workdps(ctx.dps):
        w = mp.mpc(z) / ctx.lam
        t = 2 * mp.im(w) / ctx.root_q
        s = mp.re(w) - t / 2
        return _wp_from_st(ctx, s, t)


# ------------------------------------------------------- torsion points


@dataclass(frozen=True)
class TorsionPoint:
    """beta*lam/g modulo the lattice, beta coprime to the odd modulus g."""

    beta: QuadInt
    g: QuadInt
    order: int


def torsion_point(beta: QuadInt, g: QuadInt) -> TorsionPoint:
    ring = ResidueRing(g)
    if not ring.is_coprime(beta):
        raise EisensteinError(f"{beta} is not coprime to the modulus {g}")
    # ResidueRing admits only odd non-unit moduli, so the order is odd, >= 3
    return TorsionPoint(beta=beta, g=g, order=ring.smallest_positive_integer)


# ------------------------------------------------- the B-ladder oracle


class _WpCache:
    """wp/wp' at k*beta*lam/g, keyed by the +-residue of k*beta mod g.

    wp is even and wp' odd, so classes r and -r share one evaluation; the
    canonical key is the lexicographically smaller Hermite representative.
    """

    def __init__(self, ctx: EisensteinContext, g: QuadInt):
        self.ctx = ctx
        self.g = g
        self.ring = ResidueRing(g)
        self.order = self.ring.smallest_positive_integer
        self.g_conj = g.conj()
        self.g_norm = abs(g.norm())
        self.store: dict[tuple[int, int], tuple] = {}

    def wp_at(self, num: QuadInt):
        r = self.ring.reduce(num)
        rn = self.ring.reduce(-r)
        sign = 1
        key = (r.a, r.b)
        other = (rn.a, rn.b)
        if other < key:
            key, sign = other, -1
        hit = self.store.get(key)
        if hit is None:
            canon = QuadInt(self.g.q, key[0], key[1])
            w = canon * self.g_conj
            s = Fraction(w.a, self.g_norm)
            t = Fraction(w.b, self.g_norm)
            hit = _wp_from_st(self.ctx, s, t)
            self.store[key] = hit
        wp, wpd = hit
        return wp, sign * wpd


def _b_ladder_cached(cache: _WpCache, beta: QuadInt, limit: int) -> list:
    """[B_2(z), ..., B_limit(z)] at z = beta*lam/g, shared-cache walk."""
    ctx = cache.ctx
    m = cache.order
    if not 2 <= limit <= m - 1:
        raise EisensteinError(
            f"ladder limit {limit} outside 2..{m - 1} for order {m}"
        )
    with mp.workdps(ctx.dps):
        wp1, wpd1 = cache.wp_at(beta)
        acc = (6 * wp1 * wp1 - ctx.g2 / 2) / wpd1  # wp''/wp' = 2*B_2
        out = [+(acc / 2)]
        guard = mp.mpf(10) ** (-(ctx.precision // 2))
        kbeta = beta
        for k in range(2, limit):
            kbeta = cache.ring.reduce(kbeta + beta)
            wpk, wpdk = cache.wp_at(kbeta)
            den = wpk - wp1
            if abs(den) < guard * (1 + abs(wp1)):
                raise EisensteinError(
                    f"ladder step {k}: wp(kz) collides with wp(z)"
                )
            acc += (wpdk - wpd1) / den
            out.append(+(acc / 2))
        return out


def b_ladder(ctx: EisensteinContext, point: TorsionPoint, limit: int) -> list:
    return _b_ladder_cached(_WpCache(ctx, point.g), point.beta, limit)


def _e1star_cached(cache: _WpCache, beta: QuadInt):
    m = cache.order
    ladder = _b_ladder_cached(cache, beta, m - 1)
    with mp.workdps(cache.ctx.dps):
        return +(-ladder[-1] / m)


def e1star_torsion(ctx: EisensteinContext, point: TorsionPoint):
    """E1*(beta*lam/g) = -B_{m-1}/m at a point of exact odd order m."""
    return _e1star_cached(_WpCache(ctx, point.g), point.beta)


# -------------------------------------------------------- torsion sums


def _pairwise_sum(values: list):
    """Fixed-shape binary summation tree; deterministic for a fixed order."""
    if not values:
        return mp.mpc(0)
    layer = list(values)
    while len(layer) > 1:
        nxt = [layer[i] + layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def _require_conductor(char: HeckeCharacter, g: QuadInt) -> None:
    if divide_exact(g, char.ramified) is None:
        raise EisensteinError(
            f"modulus {g} is not divisible by the character conductor"
        )


def e1star_values(ctx: EisensteinContext, g: QuadInt) -> tuple[list, list]:
    """Representatives beta of (O_K/g)^*/{+-1} and E1*(beta*lam/g) at each.

    beta/g = beta*conj(g)/N(g) = s + t*tau with exact Fractions s, t, and
    each value is one q-expansion; the ladder (e1star_torsion) is its oracle.
    """
    reps = ResidueRing(g).coprime_residues_mod_units()
    g_conj = g.conj()
    g_norm = g.norm()
    values = []
    for b in reps:
        w = b * g_conj
        values.append(
            _e1star_from_st(ctx, Fraction(w.a, g_norm), Fraction(w.b, g_norm))
        )
    return reps, values


def ladder_discrepancy(ctx: EisensteinContext, g: QuadInt) -> tuple[int, object]:
    """(count, worst |direct - ladder|) over every representative of g.

    Compares e1star_values with -B_{m-1}/m from the B-ladder, the value
    e1star_torsion returns, on all of (O_K/g)^*/{+-1}; the ladders share
    one wp cache.
    """
    reps, direct = e1star_values(ctx, g)
    cache = _WpCache(ctx, g)
    with mp.workdps(ctx.dps):
        worst = max(
            abs(d - _e1star_cached(cache, b)) for b, d in zip(reps, direct)
        )
    return len(reps), worst


def _torsion_terms(ctx: EisensteinContext, char: HeckeCharacter, g: QuadInt):
    """(reps, [chi(beta) * E1*(beta*lam/g)], embedding of g).

    The per-modulus data that prop2_sum, twisted_sum and averaging_check
    reduce; the symbol weights they add are +-1 or 0, so every product
    with these terms is exact.
    """
    _require_conductor(char, g)
    reps, e1 = e1star_values(ctx, g)
    with mp.workdps(ctx.dps):
        return reps, [char(b) * v for b, v in zip(reps, e1)], ctx.embed(g)


def prop2_sum(ctx: EisensteinContext, char: HeckeCharacter, g: QuadInt):
    """g^{-1} * sum over (O_K/g)^*/{+-1} of chi(beta) * E1*(beta*lam/g).

    Equals the partially stripped L-value L_S(psibar, 1)/Omega, S the primes
    dividing g; chi(beta)*E1*(beta...) = E1*(psi((beta))*lam/g) since E1*
    is odd, so the result only depends on the ideal (beta).
    """
    _, terms, g_c = _torsion_terms(ctx, char, g)
    with mp.workdps(ctx.dps):
        return +(_pairwise_sum(terms) / g_c)


def twisted_sum(ctx: EisensteinContext, char: HeckeCharacter, g: QuadInt, m_twist):
    """prop2_sum with the extra quadratic-symbol weight chi_M((beta)).

    m_twist is a QuadInt (or int) with odd norm, coprime to g's residue
    classes being summed; m_twist = 1 recovers prop2_sum exactly.
    """
    m_el = as_quadint(g.q, m_twist)
    if not m_el.is_odd():
        raise EisensteinError("twisting element must have odd norm")
    reps, terms, g_c = _torsion_terms(ctx, char, g)
    with mp.workdps(ctx.dps):
        weighted = [chi_m_symbol(m_el, b) * v for b, v in zip(reps, terms)]
        return +(_pairwise_sum(weighted) / g_c)


# ------------------------------------------------- averaged torsion sums


@dataclass
class AveragingReport:
    """Both sides of the subset-average identity at g_n = sqrt(-q)*pi_1*...*pi_n.

    lhs = sum over subsets M of {pi_i} of S_M(g_n); rhs folds the same data
    through the sign-condition sub-sum 2^n * g_n^{-1} * sum_{all symbols +1}.
    coeffs, when recognition succeeds, give the exact element
    sum_M c_M * prod_{i in M} sqrt(pi_i) with c_M in K; ord2 is the minimal
    2-adic valuation of that element over the places above 2, to be compared
    with the bound n - alpha.
    """

    label: str
    pis: tuple
    n: int
    g: QuadInt
    lhs: object
    rhs: object
    residual: object
    terms: tuple                  # t_M per subset mask, ascending mask order
    coeffs: tuple | None          # ((x_M, y_M) Fractions) per mask, or None
    recognition_residual: object
    ord2: Fraction | None
    bound: int
    ok: bool
    note: str


def _validate_pis(char: HeckeCharacter, pis: list[QuadInt]) -> None:
    seen: set[tuple[int, int, str]] = set()
    for pi in pis:
        if pi.q != char.q:
            raise EisensteinError("twisting prime from a different field")
        if not pi.is_odd():
            raise EisensteinError(f"{pi} has even norm")
        if pi.is_unit():
            raise EisensteinError(f"{pi} is a unit")
        if pi.a % 4 != 1 or pi.b % 4 != 0:
            raise EisensteinError(f"{pi} is not congruent to 1 mod 4")
        if pi.norm() % char.q == 0:
            raise EisensteinError(f"{pi} is not coprime to the conductor")
        for prime, _ in factor_ideal(pi):
            key = (prime.p, prime.gen.a, prime.gen.b, prime.kind)
            if key in seen:
                raise EisensteinError("twisting primes are not pairwise coprime")
            seen.add(key)


def _alg_mul(pis: list[QuadInt], x: dict, y: dict) -> dict:
    """Product in K[x_1..x_n]/(x_i^2 - pi_i); keys are subset bitmasks."""
    out: dict[int, QuadInt] = {}
    for tx, cx in x.items():
        for ty, cy in y.items():
            c = cx * cy
            inter = tx & ty
            i = 0
            while inter:
                if inter & 1:
                    c = c * pis[i]
                inter >>= 1
                i += 1
            t = tx ^ ty
            out[t] = out[t] + c if t in out else c
    return out


def _charpoly_ascending(mat: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial (monic) via Faddeev-LeVerrier, [c_0..c_d]."""
    d = len(mat)
    n_mat = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    cs: list[Fraction] = []
    for k in range(1, d + 1):
        prod = [
            [sum(mat[i][l] * n_mat[l][j] for l in range(d)) for j in range(d)]
            for i in range(d)
        ]
        ck = -sum(prod[i][i] for i in range(d)) / k
        cs.append(ck)
        for i in range(d):
            prod[i][i] += ck
        n_mat = prod
    coeffs = list(reversed(cs)) + [Fraction(1)]
    return coeffs


def _element_min_ord2(pis: list[QuadInt], elem: dict, dim_n: int) -> Fraction | None:
    """min over places above 2 of ord2(elem) in K(sqrt(pi_1)..sqrt(pi_n)).

    Computed as the minimal 2-adic Newton slope of the characteristic
    polynomial of multiplication by elem on the 2^(n+1)-dimensional algebra;
    None when elem = 0.
    """
    if all(c.norm() == 0 for c in elem.values()):
        return None
    q = next(iter(elem.values())).q
    d = 1 << (dim_n + 1)
    cols: list[list[Fraction]] = []
    for mask in range(1 << dim_n):
        for a in range(2):
            basis = {mask: QuadInt(q, Fraction(1 - a), Fraction(a))}
            prod = _alg_mul(pis, elem, basis)
            col = []
            for mask2 in range(1 << dim_n):
                c = prod.get(mask2)
                col.extend([c.a, c.b] if c else [Fraction(0), Fraction(0)])
            cols.append(col)
    mat = [[cols[j][i] for j in range(d)] for i in range(d)]
    coeffs = _charpoly_ascending(mat)
    if all(c == 0 for c in coeffs[:-1]):
        return None
    return min_ord2_roots(coeffs)


def averaging_check(
    ctx: EisensteinContext,
    char: HeckeCharacter,
    pis: list[QuadInt],
    tol: float = 1e-8,
) -> AveragingReport:
    """Check the subset average of twisted torsion sums at g = sqrt(-q)*prod(pi_i).

    Left side: sum over the 2^n subset products M of the chi_M-weighted sums
    S_M(g).  Right side: the same torsion data folded through the indicator
    of "all symbols +1", scaled by 2^n.  Beyond |lhs - rhs| < tol, the left
    side is recognized as an exact element sum_M c_M sqrt(M) (c_M in K) and
    its minimal 2-adic valuation is compared against n - alpha.
    """
    _validate_pis(char, pis)
    n = len(pis)
    curve = ctx.curve
    q = curve.q
    g = sqrt_minus_q(q)
    for pi in pis:
        g = g * pi
    reps, chi_e1, g_c = _torsion_terms(ctx, char, g)
    with mp.workdps(ctx.dps):
        sym = [[chi_m_symbol(pi, b) for b in reps] for pi in pis]

        # left side: one twisted sum per subset of the pi_i
        terms = []
        for mask in range(1 << n):
            weighted = []
            for j, v in enumerate(chi_e1):
                c = 1
                for i in range(n):
                    if mask >> i & 1:
                        c *= sym[i][j]
                weighted.append(c * v)
            terms.append(+(_pairwise_sum(weighted) / g_c))
        lhs = +_pairwise_sum(terms)

        # right side: 2^n times the sub-sum over the all-plus sign classes
        keep = [
            v for j, v in enumerate(chi_e1)
            if all(sym[i][j] == 1 for i in range(n))
        ]
        rhs = +(2**n * _pairwise_sum(keep) / g_c)
        residual = +abs(lhs - rhs)

        # exact recognition: t_M * sqrt(M) lies in K for each subset M
        sqrt_pi = [mp.sqrt(ctx.embed(pi)) for pi in pis]
        coeffs: list[tuple] = []
        rec_residual = 0.0
        rec_ok = True
        elem: dict[int, QuadInt] = {}
        for mask in range(1 << n):
            root = mp.mpc(1)
            for i in range(n):
                if mask >> i & 1:
                    root *= sqrt_pi[i]
            s_val = terms[mask] * root
            y_c = 2 * mp.im(s_val) / ctx.root_q
            x_c = mp.re(s_val) - y_c / 2
            xf, xres = recognize_rational(x_c, 10**7)
            yf, yres = recognize_rational(y_c, 10**7)
            rec_residual = max(rec_residual, xres, yres)
            if xres > tol or yres > tol:
                rec_ok = False
            c_m = QuadInt(q, xf, yf)
            for i in range(n):
                if mask >> i & 1:
                    c_m = c_m / pis[i]
            coeffs.append((c_m.a, c_m.b))
            if c_m.norm() != 0:
                elem[mask] = c_m

        bound = n - curve.alpha
        ord2: Fraction | None = None
        note = ""
        if rec_ok:
            ord2 = _element_min_ord2(pis, elem, n)
            if ord2 is None:
                note = "average vanishes exactly"
            # evaluate the recognized element back, same branches
            approx = mp.mpc(0)
            for mask, (xf, yf) in zip(range(1 << n), coeffs):
                root = mp.mpc(1)
                for i in range(n):
                    if mask >> i & 1:
                        root *= sqrt_pi[i]
                approx += (
                    mp.mpf(xf.numerator) / xf.denominator
                    + (mp.mpf(yf.numerator) / yf.denominator) * ctx.tau
                ) * root
            if abs(approx - lhs) > tol:
                rec_ok = False
                note = "recognized element does not reproduce the average"
        else:
            note = "rational recognition failed; valuation indeterminate"

        bound_holds = ord2 is None or ord2 >= bound
        ok = bool(residual < tol and rec_ok and bound_holds)
        return AveragingReport(
            label=curve.label,
            pis=tuple(pis),
            n=n,
            g=g,
            lhs=lhs,
            rhs=rhs,
            residual=residual,
            terms=tuple(terms),
            coeffs=tuple(coeffs) if rec_ok else None,
            recognition_residual=rec_residual,
            ord2=ord2,
            bound=bound,
            ok=ok,
            note=note,
        )


LEMMA_DIV_MAX_N = 12  # 2^n sign vectors, each a 2^n-entry subset table


def lemma_div_bruteforce(n: int) -> bool:
    """Exhaustively verify sum_{T subset [n]} prod_{i in T} s_i = 2^n or 0.

    The sum over all subsets of a sign vector s in {+-1}^n equals 2^n when
    every s_i = +1 and vanishes otherwise; checked literally for all 2^n
    vectors via subset-product dynamic programming.
    """
    if not 1 <= n <= LEMMA_DIV_MAX_N:
        raise EisensteinError(f"n must be between 1 and {LEMMA_DIV_MAX_N}")
    size = 1 << n
    for signs in itertools.product((1, -1), repeat=n):
        prods = [1] * size
        for mask in range(1, size):
            low = mask & -mask
            prods[mask] = prods[mask ^ low] * signs[low.bit_length() - 1]
        total = sum(prods)
        expected = size if all(s == 1 for s in signs) else 0
        if total != expected:
            return False
    return True


def phase_split(value):
    """(|value|, value/|value|); phase 1 for zero.  Sums above are computed
    with a fixed orientation convention, so callers compare magnitudes and
    report the phase rather than assuming a sign."""
    mag = abs(value)
    if mag == 0:
        return mag, mp.mpc(1)
    return mag, value / mag
