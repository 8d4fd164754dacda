"""Acceptance gate: twelve end-to-end criteria, one test per criterion.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line each.
Criteria 1-2 replay every pinned reference row for both builtin curves;
the rest exercise the base value, special primes, the torsion-sum
identities, the subset-averaging bound, local-factor rules, the product
identity, order predictions, and multi-process determinism, each with
the tolerance stated inline.
"""

import time
from fractions import Fraction

import mpmath as mp
import pytest

from cmtwist.bsd import BSDError, classify_twist, product_check, tamagawa_report
from cmtwist.cli import RunConfig, cmd_table
from cmtwist.coeffs import CurveContext, ap_point_count
from cmtwist.eisenstein import (
    averaging_check,
    calibrate_character,
    lemma_div_bruteforce,
    make_context,
    phase_split,
    prop2_sum,
)
from cmtwist.lseries import algebraic_part
from cmtwist.qfield import QuadInt, is_prime, special_split_primes, sqrt_minus_q
from cmtwist.registry import builtin_curve
from golden_tables import SPECIAL_PRIMES_11, TABLE_121B, TABLE_49A

C49 = builtin_curve("49a")
C121 = builtin_curve("121b")
L_REL_TOL = 5e-9
TABLE_BUDGET_SECONDS = 300.0


def _config(threads: int = 1) -> RunConfig:
    return RunConfig(curve_label="", curve_file=None, precision=15,
                     threads=threads, fmt="csv", output=None)


def _parse_rows(lines):
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    header = data[0].split(",")
    return {int(rec["M"]): rec
            for rec in (dict(zip(header, ln.split(","))) for ln in data[1:])}


@pytest.fixture(scope="module")
def table49():
    t0 = time.perf_counter()
    lines, code = cmd_table(_config(), CurveContext(C49), 1, 1000)
    return lines, code, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table121():
    t0 = time.perf_counter()
    lines, code = cmd_table(_config(), CurveContext(C121), 1, 1000)
    return lines, code, time.perf_counter() - t0


@pytest.fixture(scope="module")
def chi49():
    return calibrate_character(C49)


@pytest.fixture(scope="module")
def chi121():
    return calibrate_character(C121)


@pytest.fixture(scope="module")
def ctx49_50():
    return make_context(C49, 50)


def _check_against_golden(table, golden):
    lines, code, elapsed = table
    assert code == 0, "table run reported violations or flagged rows"
    rows = _parse_rows(lines)
    for M, L10, lalg, ord2, r, cps in golden:
        assert M in rows, f"listed twist M={M} missing from the scan"
        rec = rows[M]
        got_l = float(rec["L_value"])
        want_l = float(L10)
        assert abs(got_l - want_l) <= L_REL_TOL * want_l, (M, rec["L_value"], L10)
        assert int(rec["L_alg_num"]) == lalg and int(rec["L_alg_den"]) == 1, M
        assert int(rec["ord2"]) == ord2, M
        assert int(rec["r_M"]) == r, M
        got_c = {int(p): 2 ** int(o) for p, o in
                 (part.split(":") for part in rec["tamagawa"].split(";"))}
        assert got_c == cps, M
        assert rec["bound_ok"] == "1", M
    assert elapsed < TABLE_BUDGET_SECONDS, f"single-thread scan took {elapsed:.1f}s"


def test_criterion_01_reference_rows_49a(table49):
    # 44 pinned rows: |L| to 5e-9 relative, exact algebraic part, exact
    # 2-valuation, exact prime count r(M), exact local factors, under budget
    assert len(TABLE_49A) == 44
    _check_against_golden(table49, TABLE_49A)


def test_criterion_02_reference_rows_121b(table121):
    assert len(TABLE_121B) == 43
    _check_against_golden(table121, TABLE_121B)


def test_criterion_03_base_algebraic_value():
    res = algebraic_part(CurveContext(C49), 1, target_digits=15)
    assert res.lalg == Fraction(1, 2)
    assert res.lalg_residual < 1e-12


def test_criterion_04_special_primes():
    assert special_split_primes(11, 1000) == SPECIAL_PRIMES_11


def test_criterion_05_principal_torsion_sums(ctx49_50, chi49, chi121):
    v = prop2_sum(ctx49_50, chi49, sqrt_minus_q(7))
    with mp.workdps(ctx49_50.dps):
        mag, phase = phase_split(v)
        assert abs(mag - mp.mpf(1) / 2) < 1e-8
        assert abs(phase - 1) < 1e-8
    ctx121 = make_context(C121, 50)
    z = prop2_sum(ctx121, chi121, sqrt_minus_q(11))
    assert abs(z) < 1e-8


def test_criterion_06_subset_averaging(ctx49_50, chi49):
    # inert -3, split 1-4t (norm 29), and the pair; residuals below 1e-8,
    # valuation at least n - alpha, all three inside the 120s budget
    pi3 = QuadInt(7, -3, 0)
    pi29 = QuadInt(7, 1, -4)
    t0 = time.perf_counter()
    for pis in ([pi3], [pi29], [pi3, pi29]):
        rep = averaging_check(ctx49_50, chi49, pis)
        assert float(rep.residual) < 1e-8, rep.pis
        assert rep.coeffs is not None, rep.note
        assert rep.ord2 is not None and rep.ord2 >= rep.n - C49.alpha, rep.pis
        assert rep.ok
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_sign_sum_identity():
    for n in range(1, 11):
        assert lemma_div_bruteforce(n), n


def test_criterion_08_valuation_bound_full_scan(table49, table121):
    # every admissible nonvanishing twist to 1000 satisfies
    # ord2(lalg) >= r(M) - phi; at least one tight row for the first curve,
    # slack >= 1 everywhere for the second (observed statistic)
    for lines, code, _ in (table49, table121):
        assert code == 0
        for rec in _parse_rows(lines).values():
            assert rec["bound_ok"] == "1"
            assert int(rec["ord2"]) >= int(rec["bound_rhs"])
    slack49 = [int(r["ord2"]) - int(r["bound_rhs"])
               for r in _parse_rows(table49[0]).values()]
    assert min(slack49) == 0
    slack121 = [int(r["ord2"]) - int(r["bound_rhs"])
                for r in _parse_rows(table121[0]).values()]
    assert min(slack121) >= 1


def test_criterion_09_coefficient_and_local_rules():
    # character route (the theta table) vs point counts at every good odd
    # prime below 2000, then the local-factor rule labels against root
    # counts for every prime factor of every admissible twist
    for curve in (C49, C121):
        table = CurveContext(curve).an_table(2000)
        for p in range(3, 2000):
            if is_prime(p) and curve.conductor % p:
                assert table[p] == ap_point_count(curve, p), (curve.label, p)
        for M in range(2, 1001):
            try:
                spec = classify_twist(curve, M)
            except BSDError:
                continue
            if spec.admissible:
                tamagawa_report(curve, spec)  # raises on any rule mismatch


def test_criterion_10_local_product_identity():
    checked = 0
    for curve in (C49, C121):
        for M in range(2, 1001):
            try:
                spec = classify_twist(curve, M)
            except BSDError:
                continue
            if spec.admissible and all(f.p % 4 == 1 for f in spec.factors):
                assert product_check(curve, M), (curve.label, M)
                checked += 1
    assert checked >= 40


def test_criterion_11_order_predictions(table49):
    rows = _parse_rows(table49[0])
    applicable = [(M, int(rows[M]["sha_ord2"]))
                  for M, *_ in TABLE_49A if rows[M]["sha_ord2"] != ""]
    assert applicable
    for M, v in applicable:
        assert v >= 0 and v % 2 == 0, (M, v)
    assert dict(applicable)[449] == 4
    assert dict(applicable)[29] == 0


def test_criterion_12_thread_determinism(table49):
    lines8, code8 = cmd_table(_config(threads=8), CurveContext(C49), 1, 1000)
    assert code8 == table49[1]
    assert "\n".join(lines8) == "\n".join(table49[0])
