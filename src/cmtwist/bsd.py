"""Admissible twists, 2-adic Tamagawa factors, and central-value bounds.

A square-free M >= 1 is admissible for a curve when (i) gcd(M, N) = 1,
(ii) M = 1 or 3 mod 4 according as the root number is +1 or -1, and
(iii) every prime factor of M that splits in K is a special split prime.
For admissible M the valuation of the algebraic central value of the
eps*M-twist is bounded below by r(M) - phi, r(M) the number of primes of K
over M; this module classifies twists, computes ord2 of the Tamagawa factors
c_p at p | M from the 2-division polynomial and their sum (equal to r(M)
when all factors are 1 mod 4, which the tests check), and forms the
resulting prediction for the 2-part of the Tate-Shafarevich order.

Each of these facts depends on one prime p of M alone: its kind in K, its
special-ness and ord2(c_p).  twist_factor derives them from p once, the
TwistFactors of TwistSpec.factors carry them, and the Tamagawa report and
the Sha prediction only sum integers read off the spec.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .coeffs import CurveContext
from .lseries import LValueResult, algebraic_part
from .qfield import (
    QFieldError,
    cornacchia_split,
    cubic_root_count,
    factor_int,
    is_prime,
    is_special_element,
    ord2_fraction,
    ord2_int,
    split_type,
)
from .registry import Curve, phi_of


class BSDError(ValueError):
    pass


class NotApplicable(BSDError):
    """A check's hypotheses fail; the check is skipped, not failed."""


MAX_TWIST = 10**7


# -------------------------------------------------------- classification


class TwistFactor(NamedTuple):
    """A prime p of M with the facts twist_factor derives from p alone (a
    tuple: the tamagawa-cross walk builds one per prime)."""
    p: int
    kind: str          # "split" | "inert" | "ramified"
    special: bool
    ord2: int | None   # ord2(c_p) of the twists at p; None for p = 2 or p | N
    rule: str | None   # the rule that labels ord2, None with it


class TwistSpec(NamedTuple):
    M: int
    epsilon: int                     # +1 for M = 1 mod 4, -1 for 3 mod 4
    factors: tuple[TwistFactor, ...]
    r_of_M: int                      # primes of K dividing M
    k_of_M: int                      # rational primes dividing M
    admissible: bool
    reasons: tuple[str, ...]         # empty iff admissible


def twist_factor(curve: Curve, p: int) -> TwistFactor:
    """The facts of the prime p for every twist of the curve that p divides:
    its kind in K, whether it is a special split prime, and, for odd p
    prime to N, ord2 of the Tamagawa factor c_p of those twists and its rule.

    The twisted curve has additive reduction at p and ord2(c_p) equals
    ord2(#E(Q_p)[2]), which by good reduction at p is counted by the roots
    of the 2-division cubic 4x^3 + b2 x^2 + 2 b4 x + b6 over F_p; the value
    does not depend on M.  qfield.cubic_root_count counts them in O(log p)
    steps: Stickelberger's theorem reads one root off a non-square
    discriminant, and the Frobenius test x^p = x mod the cubic tells three
    roots from none.  The rule labels the trace-parity / congruence case
    analysis where it applies, and that case analysis is checked against
    the root count (a mismatch is a hard error, since the two routes must
    agree); outside its hypotheses the label is "division-poly-count".

    One split_type and, for an odd split p, one cornacchia_split: special-
    ness and the parity of a_p (that of the trace of any generator above
    p) are both read off the same prime element.  p must be a prime.
    """
    q = curve.q
    kind = split_type(q, p)
    pi = cornacchia_split(q, p) if kind == "split" and p > 2 else None
    special = pi is not None and is_special_element(pi)
    if p == 2 or curve.conductor % p == 0:
        return TwistFactor(p, kind, special, None, None)
    try:
        count = cubic_root_count(*curve.division2_cubic(), p)
    except QFieldError:
        raise BSDError(f"the 2-division cubic of {curve.label} has a repeated "
                       f"root mod {p}, so {p} is not a good prime") from None
    val = ord2_int(1 + count)
    expected: int | None = None
    if pi is not None:
        if pi.trace() % 2:
            rule, expected = "split-odd-ap", 0
        else:
            rule, expected = "split-even-ap", 2
    elif kind == "inert" and p % 4 == 1:
        rule, expected = "inert-case", 1
    else:
        rule = "division-poly-count"
    if expected is not None and expected != val:
        raise BSDError(
            f"2-division root count gives ord2(c_{p}) = {val}, but the "
            f"{rule} case analysis predicts {expected}"
        )
    return TwistFactor(p, kind, special, val, rule)


def _factor_squarefree(M: int) -> list[int]:
    """Ascending prime factors; rejects square factors naming the prime."""
    factors = factor_int(M)
    for p, e in factors:
        if e > 1:
            raise BSDError(f"{M} is not square-free ({p}^2 divides it)")
    return [p for p, _ in factors]


def admissible_class_mod4(curve: Curve) -> int:
    """M mod 4 of every admissible M: 1 for root number +1, 3 for -1."""
    return 1 if curve.w == 1 else 3


def classify_twist(curve: Curve, M: int,
                   facts: dict[int, TwistFactor] | None = None) -> TwistSpec:
    """The TwistSpec of M: its factors with their facts, r(M), k(M), and
    whether M is admissible, with the reasons when it is not.

    facts maps primes to their twist_factor; the factors of M missing from
    it are derived and added, so a caller that classifies many M shares
    one dict among them and derives each prime once."""
    if not isinstance(M, int) or M < 1:
        raise BSDError("twisting integer must be a positive integer")
    if M > MAX_TWIST:
        raise BSDError(f"twisting integer above {MAX_TWIST} not supported")
    primes = _factor_squarefree(M)
    if facts is None:
        facts = {}
    factors = []
    for p in primes:
        fac = facts.get(p)
        if fac is None:
            fac = facts[p] = twist_factor(curve, p)
        factors.append(fac)
    reasons = [f"split factor {f.p} is not special" for f in factors
               if f.kind == "split" and not f.special]
    g = math.gcd(M, curve.conductor)
    if g != 1:
        reasons.append(f"gcd(M, N) = {g} != 1")
    need = admissible_class_mod4(curve)
    epsilon = 1 if M % 4 == 1 else (-1 if M % 4 == 3 else 0)
    if M % 4 != need:
        reasons.append(
            f"M = {M % 4} mod 4, but root number {curve.w:+d} needs {need} mod 4"
        )
    return TwistSpec(
        M=M,
        epsilon=epsilon,
        factors=tuple(factors),
        r_of_M=sum(2 if f.kind == "split" else 1 for f in factors),
        k_of_M=len(primes),
        admissible=not reasons,
        reasons=tuple(reasons),
    )


def _admissible_spec(curve: Curve, M: int) -> TwistSpec:
    spec = classify_twist(curve, M)
    if not spec.admissible:
        raise NotApplicable("; ".join(spec.reasons))
    return spec


# ------------------------------------------------------ Tamagawa factors


class TamagawaReport(NamedTuple):
    entries: tuple[TwistFactor, ...]     # the factors of M, with ord2 and rule
    product_ord2: int


def tamagawa_ord2_at(curve: Curve, p: int) -> tuple[int, str]:
    """ord2 of the Tamagawa factor of any eps*M-twist at the twist prime p,
    and its rule (twist_factor)."""
    if p < 3 or not is_prime(p):
        raise BSDError(f"{p} is not an odd prime")
    if curve.conductor % p == 0:
        raise BSDError(
            f"{p} divides the conductor; Tamagawa factors at bad primes are "
            "not computed (they are equal for E and all its twists here)"
        )
    fac = twist_factor(curve, p)
    return fac.ord2, fac.rule


def tamagawa_report(spec: TwistSpec) -> TamagawaReport:
    """The Tamagawa factors of the eps*M-twist at the p | M, as classify_twist
    derived them, and the sum of their ord2."""
    missing = [f.p for f in spec.factors if f.ord2 is None]
    if missing:
        raise BSDError(f"no Tamagawa factor at {missing}: 2 and the primes "
                       f"of the conductor have none computed")
    return TamagawaReport(entries=spec.factors,
                          product_ord2=sum(f.ord2 for f in spec.factors))


# ------------------------------------------------------------- reports


class BSDReport(NamedTuple):
    spec: TwistSpec
    lvalue: LValueResult
    tamagawa: TamagawaReport
    bound_rhs: int
    bound_holds: bool
    indeterminate: bool
    sha_ord2_predicted: int | None
    sha_flags: tuple[str, ...]


def _check_base(base: Fraction | None) -> int:
    """ord2 of base, the curve's own L^alg; NotApplicable unless it is
    nonzero with a negative ord2."""
    val = None if base is None or base == 0 else ord2_fraction(base)
    if val is None or val >= 0:
        raise NotApplicable("curve must have L(E,1) != 0 and ord2(lalg) < 0")
    return val


def theorem18_check(ctx: CurveContext, M: int, target_digits: int = 12) -> BSDReport:
    """Valuation bound ord2(lalg) >= r(M) - phi for the eps*M twist of the
    curve, on the series' L-value (lseries.algebraic_part)."""
    spec = _admissible_spec(ctx.curve, M)
    return theorem18_report(ctx.curve, spec,
                            algebraic_part(ctx, spec.epsilon * M, target_digits))


def theorem18_report(curve: Curve, spec: TwistSpec, res: LValueResult) -> BSDReport:
    """The valuation bound, Tamagawa factors and predicted Sha for the spec
    of an admissible M, as classify_twist gave it, judged on res, the
    LValueResult of its eps*M twist from either route (the series or the
    modular symbols).  A vanishing central value satisfies the bound by the
    +infinity convention; a failed rational recognition is reported as
    indeterminate and never counts as a pass."""
    tama = tamagawa_report(spec)
    bound_rhs = spec.r_of_M - phi_of(curve)
    indeterminate = res.lalg is None
    # ord2 is None for lalg = 0 as well, where the bound holds
    bound_holds = not indeterminate and (res.ord2 is None or res.ord2 >= bound_rhs)
    sha: int | None = None
    flags: tuple[str, ...] = ()
    try:
        sha = _sha_ord2(curve.lalg_base, spec, res, tama)
        flags = _sha_flags(sha)
    except NotApplicable:
        pass
    return BSDReport(
        spec=spec,
        lvalue=res,
        tamagawa=tama,
        bound_rhs=bound_rhs,
        bound_holds=bound_holds,
        indeterminate=indeterminate,
        sha_ord2_predicted=sha,
        sha_flags=flags,
    )


def _sha_flags(value: int) -> tuple[str, ...]:
    flags = []
    if value < 0:
        flags.append("negative")
    if value % 2:
        flags.append("odd-parity")
    return tuple(flags)


def _sha_ord2(base: Fraction | None, spec: TwistSpec, res: LValueResult,
              tama: TamagawaReport) -> int:
    """ord2(lalg(M)/base) - sum_p ord2(c_p) for an admissible spec, from
    the integer valuations of lalg(M) and base."""
    base_ord2 = _check_base(base)
    bad = [f.p for f in spec.factors if f.p % 4 != 1]
    if bad:
        raise NotApplicable(f"factors {bad} are not 1 mod 4")
    if res.lalg is None:
        raise BSDError(f"rational recognition failed for M={spec.M}")
    if res.lalg == 0:
        raise NotApplicable("twisted central value vanishes")
    return res.ord2 - base_ord2 - tama.product_ord2


def predicted_sha_ord2(ctx: CurveContext, M: int, target_digits: int = 12) -> int:
    """ord2(lalg(M)/lalg(1)) - sum_p ord2(c_p): the conjectural 2-part of Sha.

    Applies only when L(E,1) != 0 with ord2(lalg) < 0, M is admissible with
    every factor 1 mod 4, and the twisted value does not vanish.
    """
    curve = ctx.curve
    _check_base(curve.lalg_base)
    spec = _admissible_spec(curve, M)
    res = algebraic_part(ctx, spec.epsilon * M, target_digits=target_digits)
    return _sha_ord2(curve.lalg_base, spec, res, tamagawa_report(spec))


def torsion2_order(curve: Curve) -> int:
    """#E(Q)[2]: 2 when 2 splits in K, else 1; root search must agree."""
    predicted = 2 if split_type(curve.q, 2) == "split" else 1
    four, b2, two_b4, b6 = curve.division2_cubic()
    roots = set()
    const = b6
    if const == 0:
        roots.add(Fraction(0))
        const = two_b4 if two_b4 else (b2 if b2 else 1)
    for num in _divisors_signed(const):
        for den in (1, 2, 4):
            x = Fraction(num, den)
            if four * x**3 + b2 * x**2 + two_b4 * x + b6 == 0:
                roots.add(x)
    counted = 1 + len(roots)
    if counted != predicted:
        raise BSDError(
            f"2-splitting predicts #E(Q)[2] = {predicted}, but the "
            f"2-division cubic has {len(roots)} rational roots"
        )
    return predicted


def _divisors_signed(n: int) -> list[int]:
    divs = [1]
    for p, e in factor_int(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return [s * d for d in sorted(divs) for s in (1, -1)]


# ----------------------------------------------------------- CSV schema


CSV_HEADER = [
    "M", "epsilon", "L_value", "L_alg_num", "L_alg_den", "ord2",
    "r_M", "bound_rhs", "bound_ok", "tamagawa", "sha_ord2",
]


def csv_row(curve: Curve, report: BSDReport) -> list[str]:
    """One table row; L_value is printed in the tables' normalization
    |L|/2^lattice_shift (identity for 49a)."""
    res = report.lvalue
    shown = float(abs(res.analytic_value)) / 2**curve.lattice_shift
    if res.lalg is None:
        num = den = ord2 = ""
    else:
        num, den = str(res.lalg.numerator), str(res.lalg.denominator)
        ord2 = "" if res.ord2 is None else str(res.ord2)
    return [
        str(report.spec.M),
        f"{report.spec.epsilon:+d}",
        "%.10g" % shown,
        num,
        den,
        ord2,
        str(report.spec.r_of_M),
        str(report.bound_rhs),
        "1" if report.bound_holds else "0",
        ";".join(f"{e.p}:{e.ord2}" for e in report.tamagawa.entries),
        "" if report.sha_ord2_predicted is None else str(report.sha_ord2_predicted),
    ]
