"""Command-line interface: arguments, output formats, exit codes."""

import pytest

from cmtwist import cli, coeffs, eisenstein
from cmtwist.cli import main
from cmtwist.registry import resolve_curve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_empty_range(capsys):
    code, out, err = run(capsys, "table", "2", "2", "--curve", "49a")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "# rows=0"


def test_table_csv_single_row(capsys):
    code, out, _ = run(capsys, "table", "29", "29", "--curve", "49a",
                       "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header, row = lines[0].split(","), lines[1].split(",")
    rec = dict(zip(header, row))
    assert rec["M"] == "29" and rec["epsilon"] == "+1"
    assert rec["L_alg_num"] == "2" and rec["L_alg_den"] == "1"
    assert rec["ord2"] == "1" and rec["r_M"] == "2" and rec["bound_ok"] == "1"
    assert rec["tamagawa"] == "29:2" and rec["sha_ord2"] == "0"
    assert rec["L_value"].startswith("0.71801394")
    assert "# rows=1" in out


def test_table_thread_determinism(capsys):
    _, out1, _ = run(capsys, "table", "1", "120", "--curve", "49a",
                     "--format", "csv")
    _, out8, _ = run(capsys, "table", "1", "120", "--curve", "49a",
                     "--format", "csv", "--threads", "8")
    assert out1 == out8


def test_table_pool_no_larger_than_rows(capsys, monkeypatch):
    # the pool forks all of its workers at the first submit, so it must not
    # be sized past the number of rows; the recorder starts no process
    sizes = []

    class Recorder:
        def __init__(self, max_workers, initializer, initargs, **kwargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli, "_worker_args", ())    # set by the initializer
    code, out, _ = run(capsys, "table", "2", "16", "--curve", "49a",
                       "--threads", "64")
    assert code == 0 and "# rows=2" in out     # M = 5 and 13
    assert sizes == [2]


def test_table_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "table", "29", "37", "--curve", "49a",
                       "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert "# rows=2" in target.read_text()


def test_table_rejects_bad_range(capsys):
    code, _, err = run(capsys, "table", "50", "20")
    assert code == 2 and "m_min" in err


def test_twist_text_report(capsys):
    code, out, _ = run(capsys, "twist", "29", "--curve", "49a")
    assert code == 0
    assert "twist M=29" in out and "split, special" in out
    assert "ord2=2 [split-even-ap]" in out and "predicted sha ord2 = 0" in out


def test_vanishing_twist_prints_exact_zero(capsys):
    # L(E^(53), 1) = 0 with root number +1: the series leaves ~1e-15 of
    # rounding noise, which must not be printed as a value
    code, out, _ = run(capsys, "twist", "53", "--curve", "49a", "--format", "csv")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]
    rec = dict(zip(*rows))
    assert rec["L_alg_num"] == "0" and rec["L_value"] == "0"
    code, out, _ = run(capsys, "twist", "53", "--curve", "49a")
    assert code == 0 and "|L(E^(D),1)| = 0  (" in out


def test_twist_square_free_error(capsys):
    code, _, err = run(capsys, "twist", "12", "--curve", "49a")
    assert code == 2 and "square-free" in err


def test_twist_inadmissible_reported_not_failed(capsys):
    code, out, _ = run(capsys, "twist", "21", "--curve", "49a")
    assert code == 0
    assert "not admissible" in out and "gcd" in out


def test_verify_lemma_div(capsys):
    code, out, _ = run(capsys, "verify", "lemma-div:4")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_tamagawa_cross_needs_a_prime(capsys):
    # below 4 the scan visits no prime and would pass vacuously
    for limit in ("2", "3"):
        code, out, err = run(capsys, "verify", f"tamagawa-cross:{limit}",
                             "--curve", "49a")
        assert code == 2 and out == "" and "above 3" in err
    code, out, _ = run(capsys, "verify", "tamagawa-cross:4", "--curve", "49a")
    assert code == 0 and out.startswith("PASS  tamagawa-cross[49a]: 1 primes < 4")


@pytest.mark.parametrize("scenario", ["lemma-div:x", "tamagawa-cross:y"])
def test_verify_bad_integer_argument_names_the_scenario(capsys, scenario):
    name, _, arg = scenario.partition(":")
    code, out, err = run(capsys, "verify", "lemma-div:4", scenario)
    assert code == 2 and out == ""
    assert f"error: {name} needs an integer argument, got '{arg}'" in err


def test_verify_parses_every_scenario_before_running_any(capsys, monkeypatch,
                                                         e29_file):
    # the refusal of eisenstein-base on e29 must come before the character
    # scenario (or the base value of e29) calibrates anything
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrate_character called")
    monkeypatch.setattr(coeffs, "calibrate_character", calibrate)
    monkeypatch.setattr(eisenstein, "calibrate_character", calibrate)
    code, out, err = run(capsys, "verify", "character", "eisenstein-base",
                         "--curve", "e29", "--curve-file", e29_file)
    assert code == 2 and out == ""
    assert "error: eisenstein-base needs the period lattice" in err


def test_verify_refuses_an_omega_too_short_for_the_lattice(capsys, e29_file_25):
    code, out, err = run(capsys, "verify", "e1-ladder", "--curve", "e29",
                         "--curve-file", e29_file_25)
    assert code == 2 and out == ""
    assert ("error: omega of e29 has 25 significant digits; the lattice "
            "check at 30 digits needs at least 30") in err


def test_verify_unknown_scenario(capsys):
    code, _, err = run(capsys, "verify", "no-such-check")
    assert code == 2 and "scenario" in err


def test_verify_bad_averaging_prime(capsys):
    # 5 is inert with norm 25 = 1 mod 4... but the literal element 5+0*t
    # normalizes to 5 = 1 mod 4; use an even-norm element instead
    code, _, err = run(capsys, "verify", "averaging:2+0*t", "--curve", "49a")
    assert code == 2 and "norm" in err


@pytest.mark.parametrize("curve, p, q", [
    ("121b", "3", 11), ("49a", "2", 7), ("49a", "11", 7),
])
def test_verify_averaging_rejects_non_special_split_prime(capsys, curve, p, q):
    code, out, err = run(capsys, "verify", f"averaging:{p}", "--curve", curve)
    assert code == 2 and out == ""
    assert f"{p} is a split prime of Q(sqrt(-{q})) that is not special" in err


def test_verify_e1_ladder(capsys):
    code, out, _ = run(capsys, "verify", "e1-ladder", "e1-ladder:-3",
                       "--curve", "49a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS  e1-ladder[49a: sqrt(-7)]: 3 representatives")
    assert lines[1].startswith("PASS  e1-ladder[49a: sqrt(-7)*(-3)]: 24 ")


def test_verify_e1_ladder_fails_on_disagreement(capsys, monkeypatch):
    import mpmath as mp
    from cmtwist import eisenstein
    monkeypatch.setattr(eisenstein, "ladder_discrepancy",
                        lambda ctx, g: (3, mp.mpf(10) ** -20))
    code, out, _ = run(capsys, "verify", "e1-ladder", "--curve", "49a")
    assert code == 1 and out.startswith("FAIL  e1-ladder[49a: sqrt(-7)]")


def test_special_primes(capsys):
    code, out, _ = run(capsys, "special-primes", "11", "1000")
    assert code == 0
    assert out.strip() == "53, 257, 269, 397, 401, 421, 617, 757, 773, 929"


def test_special_primes_csv(capsys):
    code, out, _ = run(capsys, "special-primes", "7", "60", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["p", "29", "37", "53"]


def test_special_primes_bad_field(capsys):
    code, _, err = run(capsys, "special-primes", "13", "100")
    assert code == 2 and "must be one of" in err


def test_unknown_curve(capsys):
    code, _, err = run(capsys, "twist", "29", "--curve", "99z")
    assert code == 2 and "99z" in err


def test_precision_floor(capsys):
    code, _, err = run(capsys, "twist", "29", "--precision", "10")
    assert code == 2 and "15" in err


def test_threads_floor(capsys):
    code, _, err = run(capsys, "table", "1", "10", "--threads", "0")
    assert code == 2


def test_env_defaults(capsys, monkeypatch):
    monkeypatch.setenv("CMTWIST_CURVE", "121b")
    monkeypatch.setenv("CMTWIST_FORMAT", "csv")
    code, out, _ = run(capsys, "special-primes", "11", "100")
    assert code == 0 and out.splitlines()[0] == "p"
    # explicit flag beats the environment
    code, out, _ = run(capsys, "special-primes", "11", "100", "--format", "text")
    assert out.strip() == "53"


@pytest.mark.parametrize("name, value", [
    ("PRECISION", "abc"), ("THREADS", "two"), ("FORMAT", "xml"),
])
def test_bad_env_default_is_usage_error(capsys, monkeypatch, name, value):
    monkeypatch.setenv("CMTWIST_" + name, value)
    code, out, err = run(capsys, "special-primes", "7", "60")
    assert code == 2 and out == "" and value in err


def test_twist_uses_the_character_not_point_counts(capsys, monkeypatch, e29_file):
    # twist 449 of 49a needs a_p at ~1000 split primes, table 2 60 of the
    # user curve e29 at ~2000; the only point counts allowed are those of
    # the character calibration
    counted = coeffs.ap_point_count
    for argv, expect in ((("twist", "449", "--curve", "49a"), "L^alg = 32/1"),
                         (("table", "2", "60", "--curve", "e29"), "# rows=5")):
        calibration, during = [], []

        def recording(curve, p):
            calibration.append(p)
            return counted(curve, p)

        def counting(curve, p):
            # stop at the first count the calibration does not make
            assert p in calibration, p
            during.append(p)
            return counted(curve, p)

        monkeypatch.setattr(coeffs, "ap_point_count", recording)
        coeffs.calibrate_character(resolve_curve(argv[-1], e29_file))
        monkeypatch.setattr(coeffs, "ap_point_count", counting)
        code, out, _ = run(capsys, *argv, "--curve-file", e29_file)
        assert code == 0 and expect in out
        assert during == calibration


def test_curve_file_resolution(capsys, tmp_path):
    f = tmp_path / "curves.txt"
    f.write_text("121b 0 -1 1 -7 10 11 -1\n")
    code, out, _ = run(capsys, "twist", "7", "--curve", "121b",
                       "--curve-file", str(f))
    assert code == 0 and "twist M=7" in out


def test_user_curve_base_value_derived(capsys, e29_file):
    # a user curve records no base L-value; the CLI must compute it before
    # applying the bound.  This curve is the 29-twist of the builtin 49a,
    # so its 5-twist must reproduce the builtin M=145 row: lalg 4, ord2 2.
    code, out, _ = run(capsys, "twist", "5", "--curve", "e29",
                       "--curve-file", e29_file)
    assert code == 0
    assert "L^alg = 4/1  (ord2 = 2)" in out
    assert "holds" in out


def test_user_curve_table_matches_twist(capsys, e29_file):
    # e29 = 49a^(29): its rows come from 49a's theta table twisted by 29*M
    f = e29_file
    code, table, err = run(capsys, "table", "2", "6", "--curve", "e29",
                           "--curve-file", f, "--format", "csv")
    assert code == 0, err
    code, twist, _ = run(capsys, "twist", "5", "--curve", "e29",
                         "--curve-file", f, "--format", "csv")
    assert code == 0
    rows = [ln for ln in table.splitlines() if not ln.startswith("#")]
    assert rows == twist.splitlines()
    assert rows[1].startswith("5,+1,") and ",4,1,2," in rows[1]


def test_user_curve_verify_refuses_only_lattice_scenarios(capsys, e29_file):
    # the character of 49a is calibrated from e29's point counts; the sums
    # over torsion points need 49a's own period lattice, so they are refused
    code, out, err = run(capsys, "verify", "character", "--curve", "e29",
                         "--curve-file", e29_file)
    assert code == 0 and err == ""
    assert out.startswith("PASS  character[e29]: 10 + 10 disjoint split primes")
    for scenario in ("eisenstein-base", "averaging:-3"):
        code, out, err = run(capsys, "verify", scenario, "--curve", "e29",
                             "--curve-file", e29_file, "--precision", "50")
        assert code == 2 and out == ""
        name = scenario.partition(":")[0]
        assert (f"error: {name} needs the period lattice of the curve whose "
                f"character has conductor sqrt(-7); e29 is its twist by 29") in err
