"""The identity checks of `cmtwist verify`: one scenario each, named on
the command line as NAME or NAME:ARGUMENT.

    eisenstein-base        the torsion sum at g = sqrt(-q) recognizes L^alg(E, 1)
    averaging:<pi,...>     the subset average of twisted torsion sums and
                           its 2-adic bound
    e1-ladder[:<pi,...>]   E1* at every torsion point of g against the
                           B-ladder of wp
    lemma-div[:<n>]        the subset sums of sign vectors, by enumeration
    character              a_p against the character of the curve
    tamagawa-cross[:<lim>] the Tamagawa case analysis against the root count
    modsym[:<m_max>]       the modular symbols' L^alg against the series

parse_scenarios reads every argument, and refuses a usage error, before any
scenario runs; cli.cmd_verify runs them, each with the working precision.
cli.main imports this module for `verify` alone, and the scenarios that sum
over torsion points import eisenstein themselves, so no other command
compiles either.  This module imports census, never cli.
"""

from __future__ import annotations

from itertools import count, takewhile

import mpmath as mp

from . import bsd, census
from .bsd import BSDError
from .coeffs import CoeffError, CurveContext, check_point_counts, good_odd_primes
from .lseries import algebraic_part, recognize_rational
from .qfield import QuadInt, cornacchia_split, is_prime, is_special_split, normalize_mod4, split_type
from .registry import Curve

CHARACTER_BOUND = 200   # verify character checks every odd good prime below
MAX_TORSION_NORM = 10 ** 5   # largest N(g) of an averaging or e1-ladder modulus
MAX_LADDER_STEPS = 5 * 10 ** 5   # most wp steps of verify e1-ladder
MAX_TAMAGAWA_LIMIT = 10 ** 6   # largest limit of verify tamagawa-cross
MAX_MODSYM_M = 5000            # largest m_max of verify modsym


def _parse_pi_entry(entry: str, q: int) -> QuadInt:
    """One twisting-prime entry: 'a+b*t' literally, or a rational prime
    (auto-split when split, sign-normalized to 1 mod 4)."""
    text = entry.strip().replace(" ", "")
    if text.endswith("*t"):
        body = text[:-2]
        cut = max(body.rfind("+", 1), body.rfind("-", 1))
        if cut < 1:
            raise ValueError(f"cannot parse {entry!r} as a+b*t")
        try:
            a, b = int(body[:cut]), int(body[cut:])
        except ValueError:
            raise ValueError(f"cannot parse {entry!r} as a+b*t") from None
        return QuadInt(q, a, b)
    try:
        p = int(text)
    except ValueError:
        raise ValueError(
            f"cannot parse {entry!r}: expected a rational prime or an "
            f"'a+b*t' literal (e.g. -3 or 1-4*t)"
        ) from None
    if not is_prime(abs(p)):
        raise ValueError(
            f"{p} is not a rational prime: give any other element as an "
            f"'a+b*t' literal (e.g. 9+0*t or 1-4*t)")
    kind = split_type(q, abs(p))
    if kind == "ramified":
        raise ValueError(f"{p} ramifies in Q(sqrt(-{q}))")
    if kind == "split":
        if not is_special_split(q, abs(p)):
            raise ValueError(
                f"{abs(p)} is a split prime of Q(sqrt(-{q})) that is not "
                f"special: no generator of a prime above it is congruent "
                f"to 1 mod 4")
        return normalize_mod4(cornacchia_split(q, abs(p)))
    return QuadInt(q, p if p % 4 == 1 else -p, 0)


def _int_arg(name: str, arg: str, default: int, low: int, high: int | None = None) -> int:
    try:
        n = int(arg) if arg else default
    except ValueError:
        raise ValueError(f"{name} needs an integer argument, got {arg!r}") from None
    if n < low or (high is not None and n > high):
        at_most = "" if high is None else f" and at most {high}"
        raise ValueError(f"{name} needs an integer above {low - 1}{at_most}, got {n}")
    return n


def _pi_list(curve: Curve, name: str, arg: str) -> tuple[list[str], list[QuadInt]]:
    """The entries and elements pi_i of a torsion modulus
    g = sqrt(-q) * prod(pi_i), refused when N(g) is zero or even, or above
    MAX_TORSION_NORM: the sums over g walk its whole residue ring."""
    from .eisenstein import torsion_modulus
    entries = arg.split(",") if arg else []
    try:
        elements = [_parse_pi_entry(e, curve.q) for e in entries]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    norm = torsion_modulus(curve.q, elements).norm()
    if norm % 2 == 0:
        raise ValueError(f"{name}: the modulus has norm N(g) = {norm}; it "
                         f"must be odd")
    if norm > MAX_TORSION_NORM:
        raise ValueError(f"{name}: the modulus has norm N(g) = {norm}, above "
                         f"the bound {MAX_TORSION_NORM}")
    return entries, elements


def _twisting_pi_list(curve: Curve, name: str, arg: str) -> tuple[list[str], list[QuadInt]]:
    """A nonempty _pi_list of twisting elements, as averaging_check takes them."""
    from .eisenstein import _validate_pis
    if not arg:
        raise ValueError(f"{name} needs a pi list, e.g. {name}:-3")
    entries, elements = _pi_list(curve, name, arg)
    try:
        _validate_pis(curve.q, elements)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return entries, elements


def _ladder_pi_list(curve: Curve, name: str, arg: str) -> tuple[list[str], list[QuadInt]]:
    """A _pi_list whose B-ladder finishes: the ladder walks order - 1 wp
    steps from each representative of (O_K/g)^*/{+-1}, order the smallest
    positive integer in (g), and is refused above MAX_LADDER_STEPS steps."""
    from .eisenstein import ResidueRing, torsion_modulus
    entries, elements = _pi_list(curve, name, arg)
    ring = ResidueRing(torsion_modulus(curve.q, elements))
    reps, order = ring.unit_count() // 2, ring.smallest_positive_integer
    steps = reps * (order - 1)
    if steps > MAX_LADDER_STEPS:
        raise ValueError(f"{name}: the ladder takes {steps} wp steps ({reps} "
                         f"representatives of order {order}), above the bound "
                         f"{MAX_LADDER_STEPS}")
    return entries, elements


def _lemma_div_n(curve: Curve, name: str, arg: str) -> int:
    from .eisenstein import LEMMA_DIV_MAX_N
    return _int_arg(name, arg, 10, 1, LEMMA_DIV_MAX_N)


def _eis_context(precision: int, curve: Curve):
    from . import eisenstein as eis
    return eis.make_context(curve, precision=max(precision, 30))


def _eisenstein_base(precision: int, ctx: CurveContext, _) -> tuple[str, bool]:
    from . import eisenstein as eis
    ctx.check_character()
    census.ensure_base_value(ctx, precision)
    curve = ctx.curve
    eis_ctx = _eis_context(precision, curve)
    val = eis.prop2_sum(eis_ctx, eis.torsion_modulus(curve.q, []))
    with mp.workdps(eis_ctx.dps):
        amp, _phase = eis.phase_split(val)
        target, residual = recognize_rational(amp, 64)
    ok = residual < eis_ctx.pass_tol and target == curve.lalg_base
    return (f"eisenstein-base[{curve.label}]: |sum| = {float(amp):.12g}, "
            f"recognized {target}, residual {residual:.3g}", ok)


def _averaging(precision: int, ctx: CurveContext,
               pis: tuple[list[str], list[QuadInt]]) -> tuple[str, bool]:
    from . import eisenstein as eis
    entries, elements = pis
    ctx.check_character()
    eis_ctx = _eis_context(precision, ctx.curve)
    rep = eis.averaging_check(eis_ctx, elements)
    ord2 = "n/a" if rep.ord2 is None else str(rep.ord2)
    msg = (f"averaging[{rep.label}: {','.join(entries)}]: "
           f"{len(rep.terms)} terms recognized to "
           f"{float(rep.recognition_residual):.3g}, "
           f"ord2 = {ord2} (need >= {rep.bound})")
    if rep.note:
        msg += f" [{rep.note}]"
    return msg, rep.ok


def _e1_ladder(precision: int, ctx: CurveContext,
               pis: tuple[list[str], list[QuadInt]]) -> tuple[str, bool]:
    from . import eisenstein as eis
    curve = ctx.curve
    entries, elements = pis
    eis_ctx = _eis_context(precision, curve)
    count, worst = eis.ladder_discrepancy(eis_ctx, eis.torsion_modulus(curve.q, elements))
    ok = worst < eis_ctx.pass_tol
    where = "*".join([f"sqrt(-{curve.q})"] + [f"({e})" for e in entries])
    return (f"e1-ladder[{curve.label}: {where}]: {count} representatives, "
            f"worst |direct - ladder| = {mp.nstr(worst, 3)}", ok)


def _lemma_div(precision: int, ctx: CurveContext, n: int) -> tuple[str, bool]:
    from . import eisenstein as eis
    ok = eis.lemma_div_bruteforce(n)
    return f"lemma-div[n={n}]: {2 ** n} sign vectors checked", ok


def _character(precision: int, ctx: CurveContext, _) -> tuple[str, bool]:
    curve = ctx.curve
    primes = takewhile(lambda p: p < CHARACTER_BOUND, good_odd_primes(curve))
    try:
        n = check_point_counts(curve, primes)
    except CoeffError as exc:
        return f"character[{curve.label}]: {exc}", False
    return (f"character[{curve.label}]: a_p at {n} odd good primes "
            f"p < {CHARACTER_BOUND} match chi = (./{curve.q}) mod "
            f"sqrt(-{curve.q}), d0 = {curve.base_twist}", True)


def _tamagawa_cross(precision: int, ctx: CurveContext, limit: int) -> tuple[str, bool]:
    curve = ctx.curve
    counts: dict[str, int] = {}
    try:
        for p in takewhile(lambda p: p < limit, good_odd_primes(curve)):
            rule = bsd.twist_factor(curve, p).rule
            counts[rule] = counts.get(rule, 0) + 1
    except BSDError as exc:
        return f"tamagawa-cross[{curve.label}]: {exc}", False
    total = sum(counts.values())
    detail = " ".join(f"{k}:{counts[k]}" for k in sorted(counts))
    return (f"tamagawa-cross[{curve.label}]: {total} primes < {limit} "
            f"agree ({detail})", True)


def _modsym_m_max(curve: Curve, name: str, arg: str) -> int:
    """An m_max no smaller than the curve's first admissible M: a smaller
    one would check no twist."""
    from . import modsym
    if not modsym.supports(curve):
        raise ValueError(f"{name} needs one of the builtin curves "
                         f"{', '.join(modsym.TWIST_SCALE)}, not {curve.label}")
    first = next(m for m in count(1) if census.admissible_specs(curve, 1, m))
    return _int_arg(name, arg, 1000, first, MAX_MODSYM_M)


def _modsym(precision: int, ctx: CurveContext, m_max: int) -> tuple[str, bool]:
    """S(D)/c from the modular symbols against the series' L^alg, at every
    admissible M <= m_max (M = 1 included when admissible)."""
    from . import modsym
    curve = ctx.curve
    digits = census.table_digits(precision)
    specs = census.admissible_specs(curve, 1, m_max)
    symbols = modsym.TwistSums(curve)
    nonzero = 0
    for spec in specs:
        d = spec.epsilon * spec.M
        got, want = symbols.lalg(d), algebraic_part(ctx, d, digits).lalg
        if got != want:
            return (f"modsym[{curve.label}]: M={spec.M}: S(D)/c = {got}, the "
                    f"series gives {want}"), False
        nonzero += got != 0
    return (f"modsym[{curve.label}]: S(D)/c = L^alg at all {len(specs)} "
            f"admissible M <= {m_max} ({nonzero} nonzero), "
            f"c = {symbols.scale}"), True


# name -> (parse the argument after the colon, or None; run the check)
SCENARIOS = {
    "eisenstein-base": (None, _eisenstein_base),
    "averaging": (_twisting_pi_list, _averaging),
    "e1-ladder": (_ladder_pi_list, _e1_ladder),
    "lemma-div": (_lemma_div_n, _lemma_div),
    "character": (None, _character),
    "tamagawa-cross": (lambda curve, name, arg:
                       _int_arg(name, arg, 1000, 4, MAX_TAMAGAWA_LIMIT),
                       _tamagawa_cross),
    "modsym": (_modsym_m_max, _modsym),
}
# the sums over torsion points that need E0's own period lattice
LATTICE_SCENARIOS = ("eisenstein-base", "averaging")


def parse_scenarios(curve: Curve, scenarios: list[str]) -> list[tuple]:
    """(run, parsed argument) for every scenario, or a ValueError for the
    first usage error, before any scenario runs."""
    checks = []
    for scenario in scenarios:
        name, _, arg = scenario.partition(":")
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if name in LATTICE_SCENARIOS and curve.base_twist != 1:
            raise ValueError(
                f"{name} needs the period lattice of the curve whose character "
                f"has conductor sqrt(-{curve.q}); {curve.label} is its twist by "
                f"{curve.base_twist}")
        parse, run = SCENARIOS[name]
        if parse is None and arg:
            raise ValueError(f"{name} takes no argument, got {arg!r}")
        checks.append((run, parse and parse(curve, name, arg)))
    return checks
