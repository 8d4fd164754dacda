"""Twist classification, local factors, bound checks, order predictions."""

from fractions import Fraction
from itertools import takewhile

import pytest

from cmtwist import census
from cmtwist.bsd import (
    MAX_TWIST,
    BSDError,
    NotApplicable,
    classify_twist,
    predicted_sha_ord2,
    tamagawa_ord2_at,
    tamagawa_report,
    theorem18_check,
    torsion2_order,
    twist_factor,
    _admissible_spec,
    _check_base,
    _sha_flags,
    _sha_ord2,
)
from cmtwist.coeffs import CurveContext, good_odd_primes
from cmtwist.lseries import algebraic_part
from cmtwist.modsym import TwistSums
from cmtwist.qfield import cubic_root_count, ord2_fraction, ord2_int
from cmtwist.registry import builtin_curve, resolve_curve, validate_user_curve
from golden_tables import TABLE_121B, TABLE_49A

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")


@pytest.fixture(scope="module")
def ctx49():
    return CurveContext(C49)


@pytest.fixture(scope="module")
def ctx121():
    return CurveContext(C121)


def test_classify_admissible_split():
    spec = classify_twist(C49, 29)
    assert spec.admissible and spec.epsilon == 1
    assert spec.r_of_M == 2 and spec.k_of_M == 1
    assert spec.factors[0].kind == "split" and spec.factors[0].special


def test_classify_admissible_mixed():
    spec = classify_twist(C121, 371)  # 7 * 53
    assert spec.admissible and spec.epsilon == -1
    assert spec.r_of_M == 3  # inert 7 contributes 1, split 53 contributes 2
    kinds = {f.p: f.kind for f in spec.factors}
    assert kinds == {7: "inert", 53: "split"}


def test_classify_rejections():
    spec = classify_twist(C49, 21)
    assert not spec.admissible
    assert any("gcd" in r for r in spec.reasons)
    spec2 = classify_twist(C121, 5)
    assert not spec2.admissible and len(spec2.reasons) == 2
    assert any("root number" in r for r in spec2.reasons)
    assert any("special" in r for r in spec2.reasons)
    with pytest.raises(BSDError):
        classify_twist(C49, 12)  # square factor
    with pytest.raises(BSDError):
        classify_twist(C49, 0)
    with pytest.raises(BSDError):
        classify_twist(C49, MAX_TWIST + 1)


def test_tamagawa_rules_and_anchors():
    ord2, rule = tamagawa_ord2_at(C49, 29)
    assert (ord2, rule) == (2, "split-even-ap")
    ord2, rule = tamagawa_ord2_at(C49, 5)
    assert (ord2, rule) == (1, "inert-case")
    ord2, rule = tamagawa_ord2_at(C121, 7)
    assert (ord2, rule) == (1, "division-poly-count")
    ord2, rule = tamagawa_ord2_at(C121, 53)
    assert (ord2, rule) == (2, "split-even-ap")


def test_tamagawa_rejects_bad_input():
    with pytest.raises(BSDError):
        tamagawa_ord2_at(C49, 7)   # ramified
    with pytest.raises(BSDError):
        tamagawa_ord2_at(C49, 15)  # composite
    for p in (1, 2, 9):
        with pytest.raises(BSDError, match=f"^{p} is not an odd prime$"):
            tamagawa_ord2_at(C49, p)
    # the factors 7 of 21 = 3 * 7 and 2 of 58 = 2 * 29 carry no ord2(c_p)
    for M, p in ((21, 7), (58, 2)):
        spec = classify_twist(C49, M)
        assert [f.ord2 is None for f in spec.factors] == [f.p == p for f in spec.factors]
        with pytest.raises(BSDError, match=rf"no Tamagawa factor at \[{p}\]"):
            tamagawa_report(spec)


def _roots_by_residues(curve, p):
    """Roots of the 2-division cubic in F_p, one evaluation per residue."""
    four, b2, two_b4, b6 = curve.division2_cubic()
    return sum(1 for x in range(p)
               if (((four * x + b2) * x + two_b4) * x + b6) % p == 0)


def test_root_count_matches_the_residue_loop(e29_file):
    # the O(log p) count against the O(p) loop at every odd good p < 5000
    for curve in (C49, C121, resolve_curve("e29", e29_file)):
        cubic = curve.division2_cubic()
        for p in takewhile(lambda p: p < 5000, good_odd_primes(curve)):
            count = _roots_by_residues(curve, p)
            assert cubic_root_count(*cubic, p) == count, (curve.label, p)
            assert tamagawa_ord2_at(curve, p)[0] == ord2_int(1 + count)
            # the per-prime facts carry the same ord2 and rule
            fac = twist_factor(curve, p)
            assert (fac.ord2, fac.rule) == tamagawa_ord2_at(curve, p)


@pytest.mark.parametrize("a2", [1, 0], ids=["double", "triple"])
def test_tamagawa_refuses_a_repeated_root(a2):
    # y^2 = x^3 + a2 x^2 with 49a's conductor: the cubic 4x^3 + 4 a2 x^2
    # has a double root at 0 (a2 = 1) or a triple one (a2 = 0) mod every
    # p; a count of distinct roots read the triple root as one simple root
    curve = C49._replace(a1=0, a2=a2, a3=0, a4=0, a6=0)
    for p in (3, 5, 29):
        with pytest.raises(BSDError, match=f"has a repeated root mod {p}, "
                                           f"so {p} is not a good prime"):
            tamagawa_ord2_at(curve, p)


def test_tamagawa_matches_golden_tables():
    # every pinned local factor, both curves, with the product identity
    for curve, table in ((C49, TABLE_49A), (C121, TABLE_121B)):
        for M, _L, _lalg, _ord2, r, cps in table:
            spec = classify_twist(curve, M)
            rep = tamagawa_report(spec)
            got = {e.p: 2**e.ord2 for e in rep.entries}
            assert got == cps, (curve.label, M)
            assert rep.product_ord2 == sum(e.ord2 for e in rep.entries)


def product_check(curve, M: int) -> bool:
    """sum_p ord2(c_p) = r(M) for admissible M with all factors 1 mod 4."""
    spec = _admissible_spec(curve, M)
    bad = [f.p for f in spec.factors if f.p % 4 != 1]
    if bad:
        raise NotApplicable(f"factors {bad} are not 1 mod 4")
    return tamagawa_report(spec).product_ord2 == spec.r_of_M


def test_product_identity():
    assert product_check(C49, 145)   # 5 inert + 29 split: 1 + 2 = r
    assert product_check(C49, 29)
    with pytest.raises(NotApplicable):
        product_check(C49, 21)       # inadmissible
    with pytest.raises(NotApplicable):
        product_check(C49, 3)        # factor 3 mod 4


def test_theorem18_tight_row(ctx49):
    rep = theorem18_check(ctx49, 29)
    assert rep.lvalue.lalg == 2 and rep.lvalue.ord2 == 1
    assert rep.bound_rhs == 1 and rep.bound_holds and not rep.indeterminate
    assert rep.sha_ord2_predicted == 0 and rep.sha_flags == ()


def test_theorem18_large_sha_row(ctx49):
    rep = theorem18_check(ctx49, 449)
    assert rep.lvalue.lalg == 32 and rep.lvalue.ord2 == 5
    assert rep.sha_ord2_predicted == 4  # order-16 prediction


def test_theorem18_mixed_row(ctx121):
    rep = theorem18_check(ctx121, 371)
    assert rep.lvalue.lalg == 16 and rep.lvalue.ord2 == 4
    assert rep.bound_rhs == 3 and rep.bound_holds
    assert rep.sha_ord2_predicted is None  # base value vanishes: no ratio


def test_theorem18_slack_statistic(ctx121):
    rep = theorem18_check(ctx121, 7)
    assert rep.lvalue.ord2 == 2 and rep.bound_rhs == 1
    assert rep.lvalue.ord2 - rep.bound_rhs == 1  # min slack on this curve


def test_theorem18_vanishing_twist(ctx49):
    # inadmissible M (wrong class mod 4) still yields a report when the
    # L-value is forced to zero: the bound holds vacuously
    rep = theorem18_check(ctx49, 1)
    assert rep.lvalue.lalg == Fraction(1, 2)
    assert rep.bound_holds


def corollary_ap_check(ctx: CurveContext, M: int, target_digits: int = 12) -> bool:
    """ord2(lalg(M)/lalg(1)) >= 2 k(M) for all-split admissible M.

    Requires L(E,1) != 0 with ord2(lalg(E,1)) < 0, and every factor of M
    split in K; anything else raises NotApplicable.
    """
    base = ctx.curve.lalg_base
    _check_base(base)
    spec = _admissible_spec(ctx.curve, M)
    inert = [f.p for f in spec.factors if f.kind != "split"]
    if inert:
        raise NotApplicable(f"factors {inert} are not split")
    res = algebraic_part(ctx, spec.epsilon * M, target_digits=target_digits)
    if res.lalg is None:
        raise BSDError(f"rational recognition failed for M={M}")
    if res.lalg == 0:
        return True
    return ord2_fraction(res.lalg / base) >= 2 * spec.k_of_M


def test_corollary_divisibility(ctx49, ctx121):
    assert corollary_ap_check(ctx49, 29)
    assert corollary_ap_check(ctx49, 1)
    with pytest.raises(NotApplicable):
        corollary_ap_check(ctx49, 145)   # inert factor 5
    with pytest.raises(NotApplicable):
        corollary_ap_check(ctx121, 53)   # vanishing base value


def test_predicted_sha_anchors(ctx49, ctx121):
    assert predicted_sha_ord2(ctx49, 29) == 0
    assert predicted_sha_ord2(ctx49, 145) == 0
    assert predicted_sha_ord2(ctx49, 449) == 4
    with pytest.raises(NotApplicable):
        predicted_sha_ord2(ctx121, 7)


def _sha_by_division(base, spec, res, tama):
    """_sha_ord2 as the valuation of the quotient lalg / base: the oracle of
    its integer form."""
    _check_base(base)
    bad = [f.p for f in spec.factors if f.p % 4 != 1]
    if bad:
        raise NotApplicable(f"factors {bad} are not 1 mod 4")
    if res.lalg is None:
        raise BSDError(f"rational recognition failed for M={spec.M}")
    if res.lalg == 0:
        raise NotApplicable("twisted central value vanishes")
    return ord2_fraction(res.lalg / base) - tama.product_ord2


@pytest.mark.parametrize("label, least", [("49a", 1000), ("121b", 0)])
def test_sha_valuation_is_the_fraction_form(label, least):
    # every admissible M <= 5000, on the curve's own base value (121b's
    # vanishes) and on bases of other valuations; each admissible M of 121b
    # is 3 mod 4, so has a factor 3 mod 4, and its prediction never applies
    curve = builtin_curve(label)
    ctx, sums = CurveContext(curve), TwistSums(curve)
    numeric = 0
    for spec in census.admissible_specs(curve, 2, 5000):
        res = sums.algebraic_part(ctx, spec.epsilon * spec.M, 12)
        tama = tamagawa_report(spec)
        for base in (curve.lalg_base, Fraction(1, 2), Fraction(5, 8),
                     Fraction(6, 1)):
            outcomes = []
            for form in (_sha_ord2, _sha_by_division):
                try:
                    outcomes.append(form(base, spec, res, tama))
                except NotApplicable as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (spec.M, base)
            numeric += isinstance(outcomes[0], int)
    assert numeric >= least


def test_sha_flags():
    assert _sha_flags(4) == ()
    assert _sha_flags(3) == ("odd-parity",)
    assert _sha_flags(-2) == ("negative",)
    assert _sha_flags(-1) == ("negative", "odd-parity")


def test_torsion2_order():
    # (2, -1) satisfies both the model and the 2-torsion condition
    x, y = 2, -1
    assert y * y + C49.a1 * x * y + C49.a3 * y == x**3 + C49.a2 * x**2 + C49.a4 * x + C49.a6
    assert 2 * y + C49.a1 * x + C49.a3 == 0
    assert torsion2_order(C49) == 2
    assert torsion2_order(C121) == 1


def test_torsion2_order_large_b6():
    # the 6301-twist of 49a: b6 = -4 * 6301^3, about -10^12, so a divisor
    # scan over 1..|b6| would never finish
    d = 6301
    curve = validate_user_curve("e6301", (1, (-3 * d - 1) // 4, 0, -2 * d * d, -d**3),
                                q=7, w=1, omega="1.0")
    assert abs(curve.b6) > 10**12
    assert torsion2_order(curve) == 2
