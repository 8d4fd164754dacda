"""Fuzzing the command line: every run exits 0, 1 or 2, prints no
traceback, and claims no exact zero that the series contradicts.

The first input fuzzed is the omega field of a user curve's record: the
curve file of e29, the 29-twist of 49a, with omega drawn from finite,
huge, tiny, infinite, NaN and malformed strings.
"""

import contextlib
import io

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtwist import bsd, census
from cmtwist.cli import main
from cmtwist.coeffs import CurveContext
from cmtwist.lseries import central_value
from cmtwist.registry import builtin_curve, omega_infinity, resolve_curve

RECORD = "e29 1 -22 0 -1682 -24389 7 1 {}\n"
with mp.workdps(60):
    OMEGA = mp.nstr(omega_infinity(builtin_curve("49a"), 50) / mp.sqrt(29), 45)
DIGITS = census.table_digits(15)

OMEGAS = st.one_of(
    st.sampled_from([OMEGA, OMEGA[:12], "inf", "-inf", "+inf", "Infinity",
                     "nan", "NaN", "0", "0.0", "-1", "-" + OMEGA, "1e30",
                     "1e-30", "1e400", "1e-400", "1e999999999", "abc", "1/2",
                     "0x1p-3", "1_0", "1e", ".", "e5", "--1", "1..2"]),
    st.integers(-500, 500).map(lambda e: f"1e{e}"),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.eE+-_xinfa", min_size=1, max_size=8),
)


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("omega") / "e29.txt")


@pytest.fixture(scope="module")
def nonzero(curve_file):
    """The M of `twist 5` and `table 1 60` whose central value lies beyond
    the series' proven error bound: no omega may make them an exact 0."""
    with open(curve_file, "w", encoding="utf-8") as fh:
        fh.write(RECORD.format(OMEGA))
    curve = resolve_curve("e29", curve_file)
    ctx = CurveContext(curve)
    found = set()
    for spec in census.admissible_specs(curve, 2, 60) + [bsd.classify_twist(curve, 5)]:
        value, _, bound = central_value(ctx, spec.epsilon * spec.M, DIGITS)
        if abs(value) > bound:
            found.add(spec.M)
    assert 5 in found
    return found


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(omega=OMEGAS)
def test_an_omega_string_never_ends_in_a_traceback_or_a_false_zero(
        curve_file, nonzero, omega):
    with open(curve_file, "w", encoding="utf-8") as fh:
        fh.write(RECORD.format(omega))
    flags = ["--curve", "e29", "--curve-file", curve_file]

    code, out, err = _run(["twist", "5"] + flags)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert "L^alg = 0/1" not in out and "vanishing value" not in out

    code, out, err = _run(["table", "1", "60", "--format", "csv"] + flags)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        # a row of every nonzero value, or a flag: never a silent zero
        shown = {int(line.split(",")[0]) for line in out.splitlines()[1:]
                 if line and not line.startswith("#")}
        shown |= {int(line[len("# M="):].split()[0]) for line in out.splitlines()
                  if line.startswith("# M=")}
        assert nonzero <= shown


@pytest.mark.parametrize("omega", ["inf", "nan", "-1", "0", "abc", "1_0"])
def test_an_omega_that_is_no_finite_positive_decimal_is_refused(curve_file, omega):
    with open(curve_file, "w", encoding="utf-8") as fh:
        fh.write(RECORD.format(omega))
    code, out, err = _run(["table", "1", "60", "--curve", "e29",
                           "--curve-file", curve_file])
    assert (code, out) == (2, "")
    assert err == (f"error: {curve_file}:1: omega must be a finite positive "
                   f"decimal, got {omega!r}\n")


@pytest.mark.parametrize("omega, residual", [("1e30", "7.18e-31"), ("1e-400", "inf"),
                                             ("1e-30", "7.44e+11"), ("1e-5", "2.56e-04")])
def test_an_omega_off_by_a_huge_factor_recognizes_no_base_value(curve_file, omega,
                                                               residual):
    # 1e30 once made every value an exact 0, 1e-400 an OverflowError, 1e-30
    # a 31-digit integer L^alg (a float that large is an integer to within
    # its rounding) and 1e-5 L^alg = 7467345/52: the residuals of both are
    # below 1e-6 of the ratio but not below 1/(2 * 64^2)
    with open(curve_file, "w", encoding="utf-8") as fh:
        fh.write(RECORD.format(omega))
    for argv in (["twist", "5"], ["table", "1", "60"]):
        code, out, err = _run(argv + ["--curve", "e29", "--curve-file", curve_file])
        assert (code, out) == (2, "")
        assert err == (f"error: could not recognize the base L-value of e29 "
                       f"(residual {residual}); check omega\n")
