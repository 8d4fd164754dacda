"""Command-line interface: arguments, output formats, exit codes."""

import argparse
import concurrent.futures
import math
import os
import re
import subprocess
import sys
import time

import mpmath as mp
import pytest

from cmtwist import bsd, cli, coeffs, eisenstein
from cmtwist.cli import main
from cmtwist.lseries import series_cutoff
from cmtwist.qfield import QuadInt, is_prime, split_type
from cmtwist.registry import resolve_curve

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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


def _recording_pool(monkeypatch, at_init=lambda *initargs: None):
    """Put an in-process stand-in for the table command's
    ProcessPoolExecutor in its place; the size of each pool goes to the
    list returned.  For a pool with an initializer (the row pool) the
    stand-in shows at_init the initializer arguments and runs the
    initializer; then it runs the jobs, and it starts no process."""
    sizes = []

    class Pool:
        def __init__(self, max_workers, initializer=None, initargs=(), **kwargs):
            sizes.append(max_workers)
            if initializer is not None:
                at_init(*initargs)
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli, "_worker_args", ())    # set by the initializer
    return sizes


def _windows(lo, hi):
    """The theta_window calls of a view grown from n = lo to n = hi - 1."""
    step = coeffs.THETA_WINDOW
    return [(n, min(n + step, hi)) for n in range(lo, hi, step)]


def test_table_pool_no_larger_than_rows(capsys, monkeypatch):
    # the pool forks all of its workers at the first submit, so it must not
    # be sized past the number of rows; the recorder starts no process
    pools = _recording_pool(monkeypatch)
    code, out, _ = run(capsys, "table", "2", "16", "--curve", "49a",
                       "--threads", "64")
    assert code == 0 and "# rows=2" in out     # M = 5 and 13
    assert pools == [2]


def _cpus(monkeypatch, usable, count=None):
    """Let this process run on `usable` CPUs of the `count` (default
    `usable`) that os.cpu_count() reports."""
    monkeypatch.setattr(os, "cpu_count", lambda: count or usable)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)


def test_table_pool_no_larger_than_cpus(capsys, monkeypatch):
    # workers past the CPU count only add processes: --threads 500 gets as
    # many as there are CPUs, and one CPU runs the scan without a pool
    _cpus(monkeypatch, 3)
    pools = _recording_pool(monkeypatch)
    code, out, _ = run(capsys, "table", "1", "200", "--curve", "49a",
                       "--threads", "500")
    assert code == 0 and pools == [3]
    _cpus(monkeypatch, 1)
    code, serial, _ = run(capsys, "table", "1", "200", "--curve", "49a",
                          "--threads", "500")
    assert code == 0 and pools == [3] and serial == out


def test_table_pool_no_larger_than_the_affinity_mask(capsys, monkeypatch):
    # os.cpu_count() also counts the CPUs that taskset or a cpuset forbids:
    # 64 of them, but only one this process may run on, start no pool
    _cpus(monkeypatch, 1, count=64)
    pools = _recording_pool(monkeypatch)
    pinned = run(capsys, "table", "1", "200", "--curve", "49a", "--threads", "8")
    assert pools == []
    assert pinned == run(capsys, "table", "1", "200", "--curve", "49a")
    assert pinned[0] == 0


def test_table_workers_inherit_the_view(capsys, monkeypatch, theta_windows):
    # the view of E0's a_n is built once, before the pool forks, up to the
    # cutoff of the largest twist; no job builds one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    curve = resolve_curve("49a")
    cutoff = series_cutoff(curve, cli._admissible_twists(curve, 1, 200)[-1],
                           cli._table_digits(15))
    held = []       # (builds so far, context, its view and bound) at the fork
    pools = _recording_pool(monkeypatch, lambda ctx, digits: held.append(
        (list(theta_windows), ctx, ctx._nonzero, ctx._nonzero_max)))
    code, out, _ = run(capsys, "table", "1", "200", "--curve", "49a",
                       "--threads", "2")
    assert code == 0 and pools == [2]
    (built, ctx, view, bound), = held
    assert built == theta_windows == _windows(1, cutoff + 1) and bound >= cutoff
    assert ctx._nonzero is view     # every job read the view held at the fork
    assert out == run(capsys, "table", "1", "200", "--curve", "49a")[1]



# a window of 49a whose largest twist needs the whole 10^6-term view (16
# windows): three rows under the cap, and the four above it flagged
DEEP_TABLE = ("table", "22877", "22945", "--curve", "49a")
DEEP_FLAGGED = (22921, 22929, 22937, 22945)


def test_pooled_table_builds_a_multi_window_view_in_a_pool(capsys, monkeypatch,
                                                         theta_windows):
    # a view pool builds every window once, in order, then closes; the row
    # pool starts second and its workers inherit the whole view
    _cpus(monkeypatch, 2)
    held = []       # (pools started, builds so far, view bound) at the row fork
    pools = _recording_pool(monkeypatch, lambda ctx, digits: held.append(
        (len(pools), list(theta_windows), ctx._nonzero_max)))
    pooled = run(capsys, *DEEP_TABLE, "--threads", "2")
    everything = _windows(1, coeffs.MAX_TABLE + 1)
    assert pools == [2, 2]
    assert held == [(2, everything, coeffs.MAX_TABLE)]
    assert theta_windows == everything
    assert pooled == run(capsys, *DEEP_TABLE, "--threads", "1")
    code, out, err = pooled
    assert code == 1 and err == ""
    assert re.findall(r"^# M=(\d+) flagged", out, re.M) == [str(M) for M in DEEP_FLAGGED]


def test_single_window_view_starts_no_view_pool(capsys, monkeypatch):
    _cpus(monkeypatch, 2)
    pools = _recording_pool(monkeypatch)
    code, _, _ = run(capsys, "table", "1", "200", "--curve", "49a",
                     "--threads", "2")
    assert code == 0 and pools == [2]       # the row pool alone


def test_view_pool_no_larger_than_the_missing_windows(capsys, monkeypatch):
    # six rows whose largest twist needs two windows: four row workers,
    # and a view pool of two
    _cpus(monkeypatch, 4)
    pools = _recording_pool(monkeypatch)
    code, out, _ = run(capsys, "table", "2300", "2340", "--curve", "49a",
                       "--threads", "4")
    assert code == 0 and "# rows=6" in out and pools == [2, 4]


def test_character_is_checked_before_a_view_pool_starts(monkeypatch, tmp_path):
    # a context whose curve fails its point counts starts no pool
    _cpus(monkeypatch, 2)
    pools = _recording_pool(monkeypatch)
    f = tmp_path / "bad.txt"
    f.write_text("bad 1 -1 0 -2 13 7 1 1.0\n", encoding="utf-8")
    config = cli.RunConfig(curve_label="bad", curve_file=str(f), precision=15,
                           threads=2, fmt="text", output=None)
    ctx = coeffs.CurveContext(resolve_curve("bad", str(f)))
    with pytest.raises(coeffs.CoeffError, match="a_11 = 2 by point count"):
        cli.cmd_table(config, ctx, 2300, 2340)
    assert pools == []


def _spy_pools(monkeypatch):
    """Record the size of every pool the table command starts; the pools
    are real and fork real workers."""
    sizes = []
    fork_pool = cli._fork_pool
    monkeypatch.setattr(cli, "_fork_pool", lambda workers, **kwargs:
                        sizes.append(workers) or fork_pool(workers, **kwargs))
    return sizes


def test_pooled_table_matches_the_serial_one_with_real_workers(capsys, monkeypatch):
    _cpus(monkeypatch, 2)
    pools = _spy_pools(monkeypatch)
    serial = run(capsys, *DEEP_TABLE, "--format", "csv", "--threads", "1")
    pooled = run(capsys, *DEEP_TABLE, "--format", "csv", "--threads", "2")
    assert pools == [2, 2]                  # the view pool, then the row pool
    assert pooled == serial and serial[0] == 1


def test_bad_a1_is_refused_alike_with_and_without_a_view_pool(capsys, monkeypatch):
    # every window reads a_n = -1, so the one from n = 1 fails its a_1 check
    # in a forked view worker, and the refusal crosses back to the parent
    _cpus(monkeypatch, 2)
    pools = _spy_pools(monkeypatch)
    monkeypatch.setattr(coeffs, "theta_window", lambda q, lo, hi: [-1] * (hi - lo))
    serial = run(capsys, *DEEP_TABLE, "--threads", "1")
    pooled = run(capsys, *DEEP_TABLE, "--threads", "2")
    assert pools == [2]                     # the view pool, and no row pool
    assert pooled == serial == (2, "", "error: 49a: a_1 = -1, not 1\n")

E29_TABLE_1_60 = """\
M   epsilon  L_value       L_alg_num  L_alg_den  ord2  r_M  bound_rhs  bound_ok  tamagawa  sha_ord2
5   +1       0.6422111932  4          1          2     1    0          1         5:1
13  +1       0.3982824745  4          1          2     1    0          1         13:1
37  +1       0.4721630597  8          1          3     2    1          1         37:2
41  +1       0.8970795072  16         1          4     1    0          1         41:1
53  +1       1.5780288     32         1          5     2    1          1         53:2
# rows=5
# bound slack histogram: 2:3 4:2
"""


def test_user_curve_table_grows_the_base_value_view(capsys, theta_windows, e29_file):
    # the base L-value builds the view to its own cutoff first; the scan
    # then appends to it once, up to the cutoff of its largest twist
    code, out, _ = run(capsys, "table", "1", "60", "--curve", "e29",
                       "--curve-file", e29_file)
    assert code == 0 and out == E29_TABLE_1_60
    curve, digits = resolve_curve("e29", e29_file), cli._table_digits(15)
    base = series_cutoff(curve, 1, digits)
    top = series_cutoff(curve, cli._admissible_twists(curve, 1, 60)[-1], digits)
    assert top > 2 * base
    assert theta_windows == [(1, base + 1), *_windows(base + 1, top + 1)]


@pytest.mark.parametrize("label", ["49a", "121b", "e29"])
def test_table_candidates_are_the_unfiltered_classification(label, e29_file):
    # the scan classifies only the M of the root number's class mod 4; no
    # M of the other classes may be admissible
    curve = resolve_curve(label, e29_file)
    every = []
    for M in range(2, 1001):
        try:
            if bsd.classify_twist(curve, M).admissible:
                every.append(M)
        except bsd.BSDError:
            continue
    assert len(every) > 50
    assert cli._admissible_twists(curve, 1, 1000) == every
    for m_min, m_max in ((2, 2), (5, 5), (6, 9), (7, 400), (400, 1000)):
        assert cli._admissible_twists(curve, m_min, m_max) == \
            [M for M in every if m_min <= M <= m_max]


def test_table_path_imports_neither_eisenstein_nor_numpy():
    # the table path, series kernel included, must not pull eisenstein or
    # numpy into an interpreter that starts without them; and a command
    # that forks no worker pool, run in a fresh interpreter, loads none of
    # the pool's modules
    names = ("cmtwist.eisenstein", "numpy", "concurrent.futures",
             "multiprocessing")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["table", "1", "50"], ["twist", "5"], ["verify", "character"]):
        code = (f"import sys; from cmtwist import cli; "
                f"rc = cli.main({argv!r}); "
                f"print(rc, *(m for m in {names!r} if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        rc, *loaded = done.stdout.splitlines()[-1].split()
        held = names if argv[0] == "table" else names[2:]
        assert rc == "0" and not set(loaded) & set(held), (argv, loaded)


def test_table_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "table", "29", "37", "--curve", "49a",
                       "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert "# rows=2" in target.read_text()


def test_table_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = run(capsys, "table", "1", "30", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err and not target.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_curve_file_is_usage_error(capsys, tmp_path, kind):
    path = tmp_path / "curves.txt" if kind == "missing" else tmp_path
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    code, out, err = run(capsys, "verify", "eisenstein-base", "--curve", "x",
                         "--curve-file", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: {reason}\n"


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


def test_verify_tamagawa_cross_to_100000(capsys):
    # the line the O(p) residue loop printed, now in well under 2 s
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "tamagawa-cross:100000",
                         "--curve", "49a")
    assert code == 0 and err == ""
    assert out == ("PASS  tamagawa-cross[49a]: 9590 primes < 100000 agree "
                   "(division-poly-count:2396 inert-case:2417 "
                   "split-even-ap:4777)\n")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv, why", [
    (("verify", "tamagawa-cross:1000001"),
     "tamagawa-cross needs an integer above 3 and at most 1000000, got 1000001"),
    (("special-primes", "7", "1000001"), "limit must be at most 1000000"),
    (("verify", "lemma-div:13"),
     "lemma-div needs an integer above 0 and at most 12, got 13"),
    (("table", "1", "1000001"), "need 1 <= m_min <= m_max <= 10^6"),
    (("twist", "10000001"), "twisting integer above 10000000 not supported"),
], ids=["tamagawa-cross", "special-primes", "lemma-div", "table", "twist"])
def test_one_past_each_upper_bound_is_refused_at_once(capsys, argv, why):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--curve", "49a")
    assert code == 2 and out == "" and why in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("scenario", ["lemma-div:x", "tamagawa-cross:y"])
def test_verify_bad_integer_argument_names_the_scenario(capsys, scenario):
    name, _, arg = scenario.partition(":")
    code, out, err = run(capsys, "verify", "lemma-div:4", scenario)
    assert code == 2 and out == ""
    assert f"error: {name} needs an integer argument, got '{arg}'" in err


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} called")
    return refuse


def test_verify_parses_every_scenario_before_running_any(capsys, monkeypatch,
                                                         e29_file):
    # the refusal of eisenstein-base on e29 must come before the character
    # scenario (or the base value of e29) counts a point or builds a table
    monkeypatch.setattr(coeffs, "ap_point_count", _refuse("ap_point_count"))
    monkeypatch.setattr(coeffs, "theta_window", _refuse("theta_window"))
    code, out, err = run(capsys, "verify", "character", "eisenstein-base",
                         "--curve", "e29", "--curve-file", e29_file)
    assert code == 2 and out == ""
    assert "error: eisenstein-base needs the period lattice" in err


@pytest.mark.parametrize("scenario", ["character:zzz", "eisenstein-base:7"])
def test_verify_refuses_an_argument_to_a_scenario_without_one(capsys, scenario):
    name, _, arg = scenario.partition(":")
    code, out, err = run(capsys, "verify", "lemma-div:2", scenario,
                         "--curve", "49a")
    assert code == 2 and out == ""
    assert f"error: {name} takes no argument, got '{arg}'" in err


def test_verify_computes_no_base_value_it_does_not_read(capsys, monkeypatch,
                                                        e29_file):
    # e29 records no base L-value; lemma-div never reads it
    monkeypatch.setattr(coeffs, "ap_point_count", _refuse("ap_point_count"))
    monkeypatch.setattr(coeffs, "theta_window", _refuse("theta_window"))
    code, out, err = run(capsys, "verify", "lemma-div:2", "--curve", "e29",
                         "--curve-file", e29_file)
    assert code == 0 and err == "" and out.startswith("PASS  lemma-div[n=2]")


def test_scenarios_are_documented():
    # every scenario appears in the README's verify list and in the help
    # string of the verify subcommand
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("### `verify", 1)[1].split("\n### ", 1)[0]
    listed = set(re.findall(r"^- `([a-z0-9-]+)", section, re.MULTILINE))
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helped = next(a.help for a in sub._choices_actions if a.dest == "verify")
    helped = set(re.findall(r"[a-z0-9-]+", helped))
    assert set(cli.SCENARIOS) <= listed
    assert set(cli.SCENARIOS) <= helped


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


@pytest.mark.parametrize("scenario", ["averaging:9", "averaging:25", "e1-ladder:9"])
def test_verify_composite_integer_entry_exits_2(scenario):
    # a square once sent sqrt_mod hunting for a non-residue that does not
    # exist; run in a subprocess so that a hang fails instead of blocking
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "cmtwist.cli", "verify", scenario, "--curve", "49a"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert "is not a rational prime" in done.stderr and "a+b*t" in done.stderr


@pytest.mark.parametrize("scenario, norm", [
    ("averaging:10009", 7 * 10009 ** 2),        # 10009 is inert for q = 7
    ("e1-ladder:-3,5,29,37", 7 * 9 * 25 * 29 * 37),
    ("averaging:1+400*t", 7 * (1 + 400 + 2 * 400 ** 2)),   # a^2 + ab + 2b^2
])
def test_verify_refuses_a_torsion_modulus_past_the_bound(capsys, scenario, norm):
    # the sums over g walk all of O_K/g: refused before any scenario runs,
    # where 10009 once filled a 701 MB bytearray
    code, out, err = run(capsys, "verify", "lemma-div", scenario, "--curve", "49a")
    assert code == 2 and out == ""
    name = scenario.partition(":")[0]
    assert (f"error: {name}: the modulus has norm N(g) = {norm}, above the "
            f"bound {cli.MAX_TORSION_NORM}") in err


def test_verify_accepts_the_largest_modulus_in_use():
    # N(g) = 7 * 9 * 25 * 29 = 45,675 stays under the bound
    (run_check, (entries, pis)), = cli.parse_scenarios(
        resolve_curve("49a"), ["averaging:-3,5,29"])
    assert run_check is cli._averaging and entries == ["-3", "5", "29"]
    assert 7 * math.prod(pi.norm() for pi in pis) == 45675


@pytest.mark.parametrize("scenario, why", [
    ("averaging:3+0*t", "3 is not congruent to 1 mod 4"),
    ("averaging:1-4*t,1-4*t", "twisting primes are not pairwise coprime"),
    ("averaging:0+0*t", "averaging: the modulus has norm N(g) = 0; it must be odd"),
    ("e1-ladder:2+0*t", "e1-ladder: the modulus has norm N(g) = 28; it must be odd"),
    ("e1-ladder:0+0*t", "e1-ladder: the modulus has norm N(g) = 0; it must be odd"),
])
def test_verify_refuses_a_torsion_list_before_any_scenario_runs(
        capsys, monkeypatch, scenario, why):
    with pytest.raises(ValueError, match=re.escape(why)):
        cli.parse_scenarios(resolve_curve("49a"), [scenario])
    calls = []
    parse, _ = cli.SCENARIOS["tamagawa-cross"]
    monkeypatch.setitem(cli.SCENARIOS, "tamagawa-cross",
                        (parse, lambda *args: calls.append(args)))
    code, out, err = run(capsys, "verify", "tamagawa-cross:10000", scenario,
                         "--curve", "49a")
    # every refusal names its scenario
    name = scenario.partition(":")[0]
    assert code == 2 and out == "" and err.startswith(f"error: {name}: ")
    assert why in err and calls == []


def test_verify_averaging_prints_the_recognition_residual(capsys):
    # the printed number is the one that gates PASS, not the subset-average
    # identity, which holds for any class sums
    code, out, _ = run(capsys, "verify", "averaging:-3", "--curve", "49a",
                       "--precision", "50")
    rep = eisenstein.averaging_check(
        eisenstein.make_context(resolve_curve("49a"), 50), [QuadInt(7, -3, 0)])
    assert code == 0 and out == (
        f"PASS  averaging[49a: -3]: 2 terms recognized to "
        f"{rep.recognition_residual:.3g}, ord2 = 1 (need >= 0)\n")
    assert rep.recognition_residual < 1e-45


def test_verify_composite_entry_is_not_called_a_split_prime(capsys):
    code, out, err = run(capsys, "verify", "averaging:15", "--curve", "49a")
    assert code == 2 and out == ""
    assert "15 is not a rational prime" in err and "split" not in err


@pytest.mark.parametrize("scenarios, want", [
    (["averaging:-3", "averaging:3+0*t"],
     "error: averaging: 3 is not congruent to 1 mod 4\n"),
    (["e1-ladder:x"],
     "error: e1-ladder: cannot parse 'x': expected a rational prime or an "
     "'a+b*t' literal (e.g. -3 or 1-4*t)\n"),
    (["e1-ladder:x+1*t"], "error: e1-ladder: cannot parse 'x+1*t' as a+b*t\n"),
    (["averaging:1+4*t*t"],
     "error: averaging: cannot parse '1+4*t*t' as a+b*t\n"),
    (["averaging:1+x*t"], "error: averaging: cannot parse '1+x*t' as a+b*t\n"),
])
def test_refused_pi_list_names_its_scenario(capsys, scenarios, want):
    code, out, err = run(capsys, "verify", *scenarios, "--curve", "49a")
    assert (code, out, err) == (2, "", want)


def test_verify_e1_ladder(capsys):
    code, out, _ = run(capsys, "verify", "e1-ladder", "e1-ladder:-3",
                       "--curve", "49a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS  e1-ladder[49a: sqrt(-7)]: 3 representatives")
    assert lines[1].startswith("PASS  e1-ladder[49a: sqrt(-7)*(-3)]: 24 ")


def test_verify_e1_ladder_fails_on_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(eisenstein, "ladder_discrepancy",
                        lambda ctx, g: (3, mp.mpf(10) ** -20))
    code, out, _ = run(capsys, "verify", "e1-ladder", "--curve", "49a")
    assert code == 1 and out.startswith("FAIL  e1-ladder[49a: sqrt(-7)]")


@pytest.mark.parametrize("scenario", ["eisenstein-base", "averaging:-3"])
def test_verify_fails_an_error_past_the_17th_digit(capsys, monkeypatch, scenario):
    # at 50 digits the pass threshold is 10^-45: every E1* bracket off by
    # 1e-17 relative must fail, where a fixed 1e-8 would let it pass
    code, out, _ = run(capsys, "verify", scenario, "--curve", "49a",
                       "--precision", "50")
    assert code == 0 and out.startswith("PASS")
    e1star = eisenstein._PhaseTable.e1star

    def perturbed(self, k, l, flip):
        re, im = e1star(self, k, l, flip)
        return re + re // 10 ** 17, im + im // 10 ** 17

    monkeypatch.setattr(eisenstein._PhaseTable, "e1star", perturbed)
    code, out, _ = run(capsys, "verify", scenario, "--curve", "49a",
                       "--precision", "50")
    assert code == 1 and out.startswith("FAIL")


def test_special_primes(capsys):
    code, out, _ = run(capsys, "special-primes", "11", "1000")
    assert code == 0
    assert out.strip() == "53, 257, 269, 397, 401, 421, 617, 757, 773, 929"


def test_special_primes_csv(capsys):
    code, out, _ = run(capsys, "special-primes", "7", "60", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["p", "29", "37", "53"]


@pytest.mark.parametrize("q, limit", [("7", "29"), ("11", "53")])
def test_special_primes_include_the_limit(capsys, q, limit):
    # the listing is p <= limit, as README and the help say
    code, out, _ = run(capsys, "special-primes", q, limit)
    assert code == 0 and out.strip().split(", ")[-1] == limit
    code, out, _ = run(capsys, "special-primes", q, str(int(limit) - 1))
    assert code == 0 and limit not in out.strip().split(", ")
    with open(README, encoding="utf-8") as fh:
        assert "The split primes p ≤ limit of Q(√−q)" in fh.read()
    assert "special split primes p <= limit" in cli._build_parser().format_help()


def test_special_primes_bad_field(capsys):
    code, _, err = run(capsys, "special-primes", "13", "100")
    assert code == 2 and "must be one of" in err


def test_unknown_curve(capsys):
    code, _, err = run(capsys, "twist", "29", "--curve", "99z")
    assert code == 2 and "99z" in err


def test_precision_floor(capsys):
    code, _, err = run(capsys, "twist", "29", "--precision", "10")
    assert code == 2 and "15" in err


@pytest.mark.parametrize("precision", ["300", "310", "326", "330"])
def test_twist_precision_past_the_float_range(capsys, precision):
    # the series budget of 10^-(precision - 3) lies below the float range
    code, out, err = run(capsys, "twist", "5", "--precision", precision)
    assert code == 0 and err == ""
    assert "|L(E^(D),1)| = 0.8646032791" in out and "L^alg = 1/1" in out


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
    # user curve e29 at ~2000; the only point counts allowed are the check
    # of the character at the first ten good split primes, made once
    counted = coeffs.ap_point_count
    for argv, expect in ((("twist", "449", "--curve", "49a"), "L^alg = 32/1"),
                         (("table", "2", "60", "--curve", "e29"), "# rows=5")):
        curve = resolve_curve(argv[-1], e29_file)
        checked = [p for p in range(3, 200) if is_prime(p) and curve.conductor % p
                   and split_type(curve.q, p) == "split"][:10]
        during = []

        def counting(curve, p):
            # stop at the first count the check does not make
            assert p in checked, p
            during.append(p)
            return counted(curve, p)

        monkeypatch.setattr(coeffs, "ap_point_count", counting)
        code, out, _ = run(capsys, *argv, "--curve-file", e29_file)
        assert code == 0 and expect in out
        assert during == checked


def test_verify_character_checks_every_prime_below_200(capsys, e29_file):
    # a_p by point count against (d0/p) chi(pi_p) tr(pi_p), or 0 when p is
    # inert, at every odd good prime below 200 (29 is a bad prime of e29)
    for curve, q, n, d0 in (("49a", 7, 44, 1), ("121b", 11, 44, 1),
                            ("e29", 7, 43, 29)):
        code, out, err = run(capsys, "verify", "character", "--curve", curve,
                             "--curve-file", e29_file)
        assert code == 0 and err == ""
        assert out == (f"PASS  character[{curve}]: a_p at {n} odd good primes "
                       f"p < 200 match chi = (./{q}) mod sqrt(-{q}), "
                       f"d0 = {d0}\n")


def test_curve_that_is_no_twist_is_refused(capsys, tmp_path):
    # 49a with a6 = 13 passes the curve-file checks (q = 7, 7 | disc, odd
    # disc) but is not a twist of 49a: a_11 is 2, the character gives 4
    f = tmp_path / "bad.txt"
    f.write_text("bad 1 -1 0 -2 13 7 1 1.0\n", encoding="utf-8")
    why = "a_11 = 2 by point count, 4 from the character"
    for argv in (("twist", "5"), ("table", "2", "30")):
        code, out, err = run(capsys, *argv, "--curve", "bad",
                             "--curve-file", str(f))
        assert code == 2 and out == "" and why in err
    code, out, _ = run(capsys, "verify", "character", "--curve", "bad",
                       "--curve-file", str(f))
    assert code == 1 and out.startswith("FAIL  character[bad]") and why in out


@pytest.mark.parametrize("record, why", [
    # |disc| = 64000000000000007803 is prime: trial division once ran to
    # its square root; 7 does not divide it, so it is refused unfactored
    ("bad 0 0 1 1000000 4 7 1 1.0",
     "q does not divide the conductor twice"),
    # 7 | disc, and the cofactor 1953184606463821 has no prime factor
    # below 10^6 but is not prime
    ("bad 0 0 1 1000000 7 7 1 1.0",
     "the cofactor 1953184606463821 has no prime factor up to 1000000"),
])
def test_curve_with_a_large_discriminant_factor_is_refused_quickly(
        capsys, tmp_path, record, why):
    f = tmp_path / "bad.txt"
    f.write_text(record + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "twist", "5", "--curve", "bad",
                         "--curve-file", str(f))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and why in err


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
    # e29's point counts are checked against the character of 49a; the sums
    # over torsion points need 49a's own period lattice, so they are refused
    code, out, err = run(capsys, "verify", "character", "--curve", "e29",
                         "--curve-file", e29_file)
    assert code == 0 and err == ""
    assert out.startswith("PASS  character[e29]: a_p at 43 odd good primes")
    for scenario in ("eisenstein-base", "averaging:-3"):
        code, out, err = run(capsys, "verify", scenario, "--curve", "e29",
                             "--curve-file", e29_file, "--precision", "50")
        assert code == 2 and out == ""
        name = scenario.partition(":")[0]
        assert (f"error: {name} needs the period lattice of the curve whose "
                f"character has conductor sqrt(-7); e29 is its twist by 29") in err
