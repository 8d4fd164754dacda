"""Command-line interface: arguments, output formats, exit codes."""

import argparse
import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter

import mpmath as mp
import pytest

from cmtwist import bsd, cli, coeffs, eisenstein, lseries, modsym
from cmtwist.cli import main
from cmtwist.lseries import series_cutoff
from cmtwist.qfield import QuadInt, is_prime, split_type
from cmtwist.registry import BUILTIN, resolve_curve

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


def test_table_thread_determinism(capsys, forking):
    _, out1, _ = run(capsys, "table", "1", "120", "--curve", "49a",
                     "--format", "csv")
    _, out8, _ = run(capsys, "table", "1", "120", "--curve", "49a",
                     "--format", "csv", "--threads", "8")
    assert out1 == out8


def _recording_map(monkeypatch, at_fork=lambda fn, items: None):
    """Put an in-process stand-in for cli._fork_map in its place: it runs
    fn over the items here, in order, and starts no process.  The number of
    processes of every map that would fork (two or more) goes to the list
    returned, and at_fork sees fn and the items of such a map first."""
    sizes = []

    def fork_map(fn, items, workers):
        items = list(items)
        if min(workers, len(items)) >= 2:
            sizes.append(min(workers, len(items)))
            at_fork(fn, items)
        return [fn(x) for x in items]

    monkeypatch.setattr(cli, "_fork_map", fork_map)
    return sizes


def _spy_maps(monkeypatch):
    """Record the number of processes of every cli._fork_map call that
    forks; the maps are real and fork real children."""
    sizes = []
    fork_map = cli._fork_map

    def spy(fn, items, workers):
        items = list(items)
        if min(workers, len(items)) >= 2:
            sizes.append(min(workers, len(items)))
        return fork_map(fn, items, workers)

    monkeypatch.setattr(cli, "_fork_map", spy)
    return sizes


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _windows(lo, hi):
    """The theta_window calls of a view grown from n = lo to n = hi - 1."""
    step = coeffs.THETA_WINDOW
    return [(n, min(n + step, hi)) for n in range(lo, hi, step)]


def _cpus(monkeypatch, usable, count=None):
    """Let this process run on `usable` CPUs of the `count` (default
    `usable`) that os.cpu_count() reports."""
    monkeypatch.setattr(os, "cpu_count", lambda: count or usable)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)


def test_table_pool_no_larger_than_rows(capsys, monkeypatch, forking):
    # one process per row at most: two rows fork one child, whatever the
    # CPUs and --threads allow
    _cpus(monkeypatch, 64)
    maps = _spy_maps(monkeypatch)
    code, out, _ = run(capsys, "table", "2", "16", "--curve", "49a",
                       "--threads", "64")
    assert code == 0 and "# rows=2" in out     # M = 5 and 13
    assert maps == [2]


def test_table_pool_no_larger_than_cpus(capsys, monkeypatch, forking):
    # workers past the CPU count only add processes: --threads 500 gets as
    # many as there are CPUs, and one CPU runs the scan without a fork
    _cpus(monkeypatch, 3)
    maps = _spy_maps(monkeypatch)
    code, out, _ = run(capsys, "table", "1", "200", "--curve", "49a",
                       "--threads", "500")
    assert code == 0 and maps == [3]
    _cpus(monkeypatch, 1)
    code, serial, _ = run(capsys, "table", "1", "200", "--curve", "49a",
                          "--threads", "500")
    assert code == 0 and maps == [3] and serial == out


def test_table_without_an_affinity_mask_or_a_cpu_count_forks_nothing(capsys,
                                                                     monkeypatch,
                                                                     forking):
    # a platform without os.sched_getaffinity whose os.cpu_count() knows
    # nothing counts one usable CPU: --threads 8 prints the serial bytes
    serial = run(capsys, "table", "1", "200", "--curve", "49a")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    maps = _spy_maps(monkeypatch)
    assert cli._usable_cpus() == 1
    assert run(capsys, "table", "1", "200", "--curve", "49a", "--threads", "8") == serial
    assert maps == [] and serial[0] == 0


def test_table_pool_no_larger_than_the_affinity_mask(capsys, monkeypatch, forking):
    # os.cpu_count() also counts the CPUs that taskset or a cpuset forbids:
    # 64 of them, but only one this process may run on, fork nothing
    _cpus(monkeypatch, 1, count=64)
    maps = _spy_maps(monkeypatch)
    pinned = run(capsys, "table", "1", "200", "--curve", "49a", "--threads", "8")
    assert maps == []
    assert pinned == run(capsys, "table", "1", "200", "--curve", "49a")
    assert pinned[0] == 0


def _table_work(label, m_min, m_max, curve_file=None):
    """The units of work of table m_min m_max on its route."""
    curve = resolve_curve(label, curve_file)
    return cli._table_rows(curve, cli._admissible_specs(curve, m_min, m_max),
                           cli._table_digits(15), modsym.supports(curve))[2]


def _refused(curve, Ms, digits):
    """The flags of the rows M above the cap, as _table_rows returns them
    to the parent process."""
    return [(M, None, "precision unattainable at this scale: "
                      f"{series_cutoff(curve, M, digits)} terms needed")
            for M in Ms]


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_table_below_the_break_even_forks_no_child(capsys, monkeypatch, label):
    # table 1 1000 sums less |D| than the symbols' threshold: two usable
    # CPUs and --threads 2 still run it in this process, with the serial bytes
    _cpus(monkeypatch, 2)
    argv = ("table", "1", "1000", "--curve", label, "--format", "csv")
    serial = run(capsys, *argv, "--threads", "1")
    maps = _spy_maps(monkeypatch)
    monkeypatch.setattr(os, "fork", _refuse("os.fork"))
    assert run(capsys, *argv, "--threads", "2") == serial
    assert maps == [] and serial[0] == 0
    assert _table_work(label, 1, 1000) < cli.FORK_AT["symbols"]


@pytest.mark.parametrize("route, other, label, m_max, units", [
    ("symbols", "series", "49a", 1000, 67_576),     # the summed |D|
    ("series", "symbols", "e29", 50, 130_761),      # the summed series terms
], ids=["symbols", "series"])
def test_table_at_the_threshold_forks(capsys, monkeypatch, e29_file, route, other,
                                      label, m_max, units):
    # a table forks two workers once its rows' units reach the threshold of
    # its route, and prints the same bytes; one unit short, it forks none,
    # whatever the other route's threshold
    _cpus(monkeypatch, 2)
    argv = ("table", "1", str(m_max), "--curve", label, "--curve-file", e29_file,
            "--format", "csv")
    serial = run(capsys, *argv, "--threads", "1")
    maps = _spy_maps(monkeypatch)
    assert _table_work(label, 1, m_max, e29_file) == units
    monkeypatch.setattr(cli, "FORK_AT", {route: units, other: units + 1})
    assert run(capsys, *argv, "--threads", "2") == serial
    assert maps == [2]
    monkeypatch.setattr(cli, "FORK_AT", {route: units + 1, other: 0})
    assert run(capsys, *argv, "--threads", "2") == serial
    assert maps == [2] and serial[0] == 0
    _no_children()


def test_table_work_counts_only_the_rows_under_the_cap():
    # of the seven rows of DEEP_TABLE, the four above the cap are refused
    # before any sum and count nothing; the symbols count |D| per row
    curve, digits = resolve_curve("49a"), cli._table_digits(15)
    specs = cli._admissible_specs(curve, *map(int, DEEP_TABLE[1:3]))
    computed, refused, *work = cli._table_rows(curve, specs, digits, True)
    assert work == [22877 + 22893 + 22901, series_cutoff(curve, 22901, digits)]
    assert [spec.M for spec in computed] == [22877, 22893, 22901]
    assert refused == _refused(curve, DEEP_FLAGGED, digits)


def test_rows_above_the_cap_follow_every_row_under_it(e29_file):
    # cmd_table puts the parent's flags after the row map's results, which
    # keeps M order because no cutoff falls as M grows
    digits = cli._table_digits(15)
    for label in ("49a", "121b", "e29"):
        curve = resolve_curve(label, e29_file)
        cutoffs = [series_cutoff(curve, M, digits) for M in range(1, 40_001)]
        assert cutoffs == sorted(cutoffs), label


def test_user_curve_table_work_counts_series_terms(e29_file):
    # a user curve's rows sum the series: each counts its cutoff in terms
    curve, digits = resolve_curve("e29", e29_file), cli._table_digits(15)
    specs = cli._admissible_specs(curve, 1, 400)
    cutoffs = [series_cutoff(curve, spec.M, digits) for spec in specs]
    assert cli._table_rows(curve, specs, digits, False) == (
        specs, [], sum(cutoffs), cutoffs[-1])
    # above the cap, only the rows under it count, M = 773 and 785, and the
    # largest cutoff is M = 785's; with no row under it, nothing counts
    specs = cli._admissible_specs(curve, *E29_DEEP)
    assert cli._table_rows(curve, specs, digits, False) == (
        specs[:2], _refused(curve, E29_DEEP_FLAGGED, digits),
        sum(series_cutoff(curve, M, digits) for M in (773, 785)), 993_140)
    specs = cli._admissible_specs(curve, *E29_ABOVE)
    assert cli._table_rows(curve, specs, digits, False) == (
        [], _refused(curve, [spec.M for spec in specs], digits), 0, 0)


def _e29_context(e29_file, threads=2):
    """A run configuration for e29 and a context whose curve carries its
    base L-value, with an empty view: cmd_table then builds the whole view."""
    config = cli.RunConfig(curve_label="e29", curve_file=e29_file, precision=15,
                           threads=threads, fmt="text", output=None)
    ctx = coeffs.CurveContext(resolve_curve("e29", e29_file))
    cli._ensure_base_value(ctx, config)
    return config, coeffs.CurveContext(ctx.curve)


def test_table_workers_inherit_the_view(monkeypatch, theta_windows, e29_file,
                                        forking):
    # the view of E0's a_n is built once, before the row workers fork, up
    # to the cutoff of the largest twist; no job builds one
    _cpus(monkeypatch, 2)
    config, ctx = _e29_context(e29_file)
    cutoff = series_cutoff(ctx.curve, cli._admissible_specs(ctx.curve, 1, 50)[-1].M,
                           cli._table_digits(15))
    held = []       # (builds so far, view bound) at the row fork
    maps = _recording_map(monkeypatch, lambda fn, items: held.append(
        (list(theta_windows), ctx._nonzero_max)))
    theta_windows.clear()
    lines, code = cli.cmd_table(config, ctx, 1, 50)
    assert code == 0 and maps == [2]
    assert held == [(theta_windows, ctx._nonzero_max)]
    assert theta_windows == _windows(1, cutoff + 1) and ctx._nonzero_max >= cutoff
    serial_config, serial_ctx = _e29_context(e29_file, threads=1)
    assert lines == cli.cmd_table(serial_config, serial_ctx, 1, 50)[0]


# a window of 49a whose largest twist needs the whole 10^6-term series:
# three rows under the cap, and the four above it flagged
DEEP_TABLE = ("table", "22877", "22945", "--curve", "49a")
DEEP_FLAGGED = (22921, 22929, 22937, 22945)
# the same for e29, whose series are 29 times longer: M = 773 and 785
# under the cap, 793 and 797 above it
E29_DEEP = (770, 800)
E29_DEEP_FLAGGED = (793, 797)
# an e29 range whose every row is above the cap
E29_ABOVE = (900, 1000)


def test_pooled_table_builds_the_whole_view_before_its_row_map(monkeypatch,
                                                              theta_windows, e29_file,
                                                              forking):
    # the parent builds every window of a view of many windows once, in
    # order; only then does the one row map fork, and its workers inherit
    # the whole view.  The view ends at the cutoff of the last row under
    # the cap, M = 785, not at the cap that the rows above it would need
    _cpus(monkeypatch, 2)
    config, ctx = _e29_context(e29_file)
    held = []       # (builds so far, view bound) at each fork
    maps = _recording_map(monkeypatch, lambda fn, items: held.append(
        (list(theta_windows), ctx._nonzero_max)))
    theta_windows.clear()
    lines, code = cli.cmd_table(config, ctx, *E29_DEEP)
    everything = _windows(1, 993_140 + 1)
    assert maps == [2]
    assert held == [(everything, 993_140)]
    assert theta_windows == everything
    serial_config, serial_ctx = _e29_context(e29_file, threads=1)
    assert (lines, code) == cli.cmd_table(serial_config, serial_ctx, *E29_DEEP)
    flagged = [ln for ln in lines if ln.startswith("# M=")]
    assert code == 1 and [int(re.match(r"# M=(\d+) flagged", ln)[1])
                          for ln in flagged] == list(E29_DEEP_FLAGGED)


def test_user_curve_table_above_the_cap_builds_no_view(monkeypatch, theta_windows,
                                                      e29_file, forking):
    # every row of E29_ABOVE is flagged in the parent, so no window of the
    # view is built and no row map forks; the point counts are still
    # checked, and each row is flagged with the terms it would need
    _cpus(monkeypatch, 2)
    config, ctx = _e29_context(e29_file)
    maps = _recording_map(monkeypatch)
    theta_windows.clear()
    lines, code = cli.cmd_table(config, ctx, *E29_ABOVE)
    assert theta_windows == [] and ctx._nonzero_max == 0 and ctx._checked
    assert maps == [] and code == 1
    flagged = ((901, 1143909), (905, 1149117), (921, 1169954), (929, 1180376),
               (933, 1185588), (937, 1190800), (941, 1196013), (949, 1206441),
               (953, 1211655), (965, 1227302), (969, 1232519), (977, 1242954),
               (985, 1253392), (997, 1269051))
    assert lines == [f"# M={M} flagged: precision unattainable at this scale: "
                     f"{terms} terms needed" for M, terms in flagged] + [
        "# rows=0", "# bound slack histogram: (empty)"]


@pytest.mark.parametrize("label, window, under, flagged", [
    ("49a", tuple(map(int, DEEP_TABLE[1:3])), (22877, 22893, 22901), DEEP_FLAGGED),
    ("e29", E29_DEEP, (773, 785), E29_DEEP_FLAGGED),
], ids=["symbols", "series"])
def test_table_straddling_the_cap_maps_only_the_rows_under_it(
        capsys, monkeypatch, e29_file, forking, label, window, under, flagged):
    # the parent flags the rows above the cap, in M order, with the
    # series' refusal; the row map gets the rows under it alone, and the
    # bytes are the serial ones
    _cpus(monkeypatch, 2)
    argv = ("table", *map(str, window), "--curve", label, "--curve-file", e29_file,
            "--format", "csv")
    serial = run(capsys, *argv, "--threads", "1")
    mapped = []
    maps = _recording_map(monkeypatch, lambda fn, items: mapped.append(
        [spec.M for spec in items]))
    assert run(capsys, *argv, "--threads", "2") == serial
    assert maps == [2] and mapped == [list(under)] and serial[0] == 1
    curve = resolve_curve(label, e29_file)
    assert re.findall(r"^# M=.*", serial[1], re.M) == [
        f"# M={M} flagged: {err}"
        for M, _, err in _refused(curve, flagged, cli._table_digits(15))]


def test_symbol_rows_call_no_series_function(capsys, monkeypatch):
    # the cap is decided in the parent: a row job on the modular symbols
    # runs no code of lseries but the root number and the ord2 of its
    # result, so no series cutoff, term count, sum or recognition
    job, jobs, called = cli._table_job, [], set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == lseries.__file__:
            called.add(frame.f_code.co_name)

    def spy(ctx, digits, route, spec):
        jobs.append(spec.M)
        sys.setprofile(profile)
        try:
            return job(ctx, digits, route, spec)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(cli, "_table_job", spy)
    code, out, err = run(capsys, *DEEP_TABLE, "--threads", "1")
    assert (code, err) == (1, "") and "# rows=3" in out
    assert jobs == [22877, 22893, 22901]
    assert called == {"twist_root_number", "ord2"}


def test_builtin_table_above_the_cap_builds_no_symbols(capsys, monkeypatch):
    # every row of 49a from M = 22921 on is refused before any sum, so no
    # TwistSums is built; the point counts are still checked
    checked = []
    monkeypatch.setattr(coeffs, "check_point_counts", lambda curve, primes:
                        checked.append(len(list(primes))) or 10)
    monkeypatch.setattr(modsym, "TwistSums", _refuse("TwistSums"))
    code, out, err = run(capsys, "table", "22921", "22960", "--curve", "49a")
    assert (code, err) == (1, "") and checked == [coeffs.CHECK_SPLIT_PRIMES]
    assert re.findall(r"^# M=(\d+) flagged", out, re.M)[:4] == [
        str(M) for M in DEEP_FLAGGED]
    assert "# rows=0" in out


@pytest.mark.parametrize("m_min, m_max, cpus, rows", [
    (1, 50, 2, 4),          # a view of one window
    (100, 160, 4, 5),       # seven twists whose view grows by three windows
])
def test_user_curve_table_starts_one_row_map(capsys, monkeypatch, e29_file,
                                            forking, m_min, m_max, cpus, rows):
    # however many windows the view lacks, the scan forks once, for its rows
    _cpus(monkeypatch, cpus)
    maps = _recording_map(monkeypatch)
    code, out, _ = run(capsys, "table", str(m_min), str(m_max), "--curve", "e29",
                       "--curve-file", e29_file, "--threads", str(cpus))
    assert code == 0 and f"# rows={rows}" in out and maps == [cpus]


def test_character_is_checked_before_the_row_map_starts(monkeypatch, tmp_path):
    # a context whose curve fails its point counts starts no row map
    _cpus(monkeypatch, 2)
    maps = _recording_map(monkeypatch)
    f = tmp_path / "bad.txt"
    f.write_text("bad 1 -1 0 -2 13 7 1 1.0\n", encoding="utf-8")
    config = cli.RunConfig(curve_label="bad", curve_file=str(f), precision=15,
                           threads=2, fmt="text", output=None)
    ctx = coeffs.CurveContext(resolve_curve("bad", str(f)))
    with pytest.raises(coeffs.CoeffError, match="a_11 = 2 by point count"):
        cli.cmd_table(config, ctx, 2300, 2340)
    assert maps == []


def test_pooled_table_matches_the_serial_one_with_real_workers(capsys, monkeypatch,
                                                               forking):
    # the modular symbols are built before the one row map forks
    _cpus(monkeypatch, 2)
    maps = _spy_maps(monkeypatch)
    serial = run(capsys, *DEEP_TABLE, "--format", "csv", "--threads", "1")
    pooled = run(capsys, *DEEP_TABLE, "--format", "csv", "--threads", "2")
    assert maps == [2]
    assert pooled == serial and serial[0] == 1
    code, out, err = pooled
    assert err == ""
    assert re.findall(r"^# M=(\d+) flagged", out, re.M) == [str(M) for M in DEEP_FLAGGED]
    _no_children()


def test_pooled_user_curve_table_matches_the_serial_one_with_real_workers(
        capsys, monkeypatch, e29_file, forking):
    _cpus(monkeypatch, 2)
    maps = _spy_maps(monkeypatch)
    argv = ("table", *map(str, E29_DEEP), "--curve", "e29", "--curve-file",
            e29_file, "--format", "csv")
    serial = run(capsys, *argv, "--threads", "1")
    pooled = run(capsys, *argv, "--threads", "2")
    assert maps == [2]                      # the row map alone
    assert pooled == serial and serial[0] == 1
    _no_children()


def test_bad_a1_is_refused_before_any_fork(monkeypatch, e29_file):
    # every window reads a_n = -1, so the parent's view build fails the a_1
    # check of the window from n = 1, at 1 and 2 workers alike, before the
    # row map forks
    _cpus(monkeypatch, 2)
    runs = [_e29_context(e29_file, threads) for threads in (1, 2)]
    monkeypatch.setattr(coeffs, "theta_window", lambda q, lo, hi: [-1] * (hi - lo))
    monkeypatch.setattr(os, "fork", _refuse("os.fork"))
    for config, ctx in runs:
        with pytest.raises(coeffs.CoeffError, match=r"^e29: a_1 = -1, not 1$"):
            cli.cmd_table(config, ctx, *E29_DEEP)


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_builtin_table_sums_no_series(capsys, monkeypatch, theta_windows, label):
    # the rows come from the modular symbols: the only theta_window call
    # reads the a_2 their lambda is checked with, no view of E0's a_n is
    # built and no central value is summed; the point counts are still checked
    build = modsym.theta_window
    monkeypatch.setattr(modsym, "theta_window", lambda q, lo, hi:
                        theta_windows.append((lo, hi)) or build(q, lo, hi))
    checked = []
    monkeypatch.setattr(coeffs, "check_point_counts", lambda curve, primes:
                        checked.append(len(list(primes))) or 10)
    monkeypatch.setattr(lseries, "central_value", None)
    monkeypatch.setattr(coeffs.CurveContext, "nonzero", None)
    code, out, err = run(capsys, "table", "1", "1000", "--curve", label)
    assert code == 0 and err == "" and "# rows=" in out
    assert theta_windows == [(2, 3)]
    assert checked == [coeffs.CHECK_SPLIT_PRIMES]


def test_pooled_table_builds_one_chain_table_in_the_parent(capsys, monkeypatch,
                                                           tmp_path, forking):
    # the table of small chain sums is built once per command, before the
    # row map forks: the parent builds it and no worker builds another
    _cpus(monkeypatch, 2)
    maps = _spy_maps(monkeypatch)
    log = tmp_path / "builds"
    build = modsym.chain_table

    def spy(rows, sign):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return build(rows, sign)

    monkeypatch.setattr(modsym, "chain_table", spy)
    code, out, err = run(capsys, "table", "1", "1000", "--curve", "49a",
                         "--threads", "2")
    assert (code, err) == (0, "") and maps == [2]
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]
    _no_children()


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_table_classifies_each_twist_once(capsys, monkeypatch, label):
    # the pre-pass classifies each M that survives its sieve once and hands
    # its TwistSpec to the row; no row classifies again.  Below 1000 the
    # sieve reaches every prime, so the survivors are the admissible M
    classify = bsd.classify_twist
    first = 5 if label == "49a" else 3
    curve = BUILTIN[label]
    admissible = []
    for M in range(first, 1001, 4):
        try:
            if classify(curve, M).admissible:
                admissible.append(M)
        except bsd.BSDError:
            continue            # a square factor
    seen = []
    monkeypatch.setattr(bsd, "classify_twist", lambda curve, M, facts=None:
                        seen.append(M) or classify(curve, M, facts))
    code, _, _ = run(capsys, "table", "1", "1000", "--curve", label)
    assert code == 0
    assert seen == admissible


@pytest.mark.parametrize("label, M", [("49a", 449), ("121b", 7), ("49a", 31)])
def test_twist_classifies_its_twist_once(capsys, monkeypatch, label, M):
    # cmd_twist classifies M and judges the L-value on that TwistSpec; 31 is
    # not admissible for 49a and stops there
    classify = bsd.classify_twist
    seen = []
    monkeypatch.setattr(bsd, "classify_twist", lambda curve, M:
                        seen.append(M) or classify(curve, M))
    code, _, _ = run(capsys, "twist", str(M), "--curve", label)
    assert code == 0 and seen == [M]


def test_fork_map_returns_the_results_in_order():
    parent = os.getpid()
    for workers in (1, 2, 3, 10):
        got = cli._fork_map(lambda x: (x * x, os.getpid() == parent),
                            range(10), workers)
        assert [v for v, _ in got] == [x * x for x in range(10)]
        # the parent takes the last item and every workers-th before it
        here = [x for x, (_, mine) in enumerate(got) if mine]
        assert here == sorted(range(9, -1, -workers))
        _no_children()


def test_fork_map_raises_the_first_exception_of_a_child():
    def fn(x):
        if x in (4, 7):
            raise ValueError(f"item {x}")
        return x

    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match=r"^item 4$"):
            cli._fork_map(fn, range(10), workers)
        _no_children()


def test_fork_map_raises_when_a_child_is_killed():
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match=f"signal {signal.SIGKILL}"):
        cli._fork_map(fn, range(4), 2)
    _no_children()


def test_fork_map_parent_failure_ends_a_child_blocked_on_its_pipe():
    # the child's answer is larger than a pipe holds, so it blocks writing
    # it while the parent's own item fails: the parent closes the read end,
    # so the child ends on EPIPE, and reaps it, without hanging
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            time.sleep(0.2)             # the child fills its pipe meanwhile
            raise KeyboardInterrupt
        return b"x" * (1 << 22)

    def hung(*_):
        raise TimeoutError("the fork map hung")

    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)                    # a hang fails the test instead
    try:
        with pytest.raises(KeyboardInterrupt):
            cli._fork_map(fn, range(2), 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    _no_children()

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
    top = series_cutoff(curve, cli._admissible_specs(curve, 1, 60)[-1].M, digits)
    assert top > 2 * base
    assert theta_windows == [(1, base + 1), *_windows(base + 1, top + 1)]


@pytest.mark.parametrize("label", ["49a", "121b", "e29"])
def test_table_candidates_are_the_unfiltered_classification(monkeypatch, label,
                                                            e29_file):
    # the TwistSpecs of the sieve, facts included, are those of the admissible
    # classify_twist(curve, M) over every M, one at a time: no M of the other
    # classes mod 4 may be admissible.  The survivors are classified without
    # a square factor, and from 1 on the sieve reaches every prime, so each
    # survivor is admissible
    curve = resolve_curve(label, e29_file)

    def plain(m_min, m_max):
        specs = []
        for M in range(max(m_min, 2), m_max + 1):
            try:
                spec = bsd.classify_twist(curve, M)
            except bsd.BSDError:
                continue            # a square factor
            if spec.admissible:
                specs.append(spec)
        return specs

    ms = [spec.M for spec in plain(1, 3000)]
    assert len(ms) > 150
    gap = max(range(len(ms) - 1), key=lambda i: ms[i + 1] - ms[i])
    ranges = [(1, 3000), (2, 2), (5, 5), (6, 9), (7, 400), (400, 1000),
              (22877, 22945), (14580, 14630), (45, 60), (63, 80),
              (ms[gap] + 1, ms[gap + 1] - 1)]
    ranges += [(M, M) for M in ms[:3] + [ms[0] + 4, ms[gap] + 4]]
    assert plain(ms[gap] + 1, ms[gap + 1] - 1) == []
    classify = bsd.classify_twist
    seen = []
    monkeypatch.setattr(bsd, "classify_twist", lambda curve, M, facts=None:
                        seen.append(M) or classify(curve, M, facts))
    for m_min, m_max in ranges:
        seen.clear()
        got = cli._admissible_specs(curve, m_min, m_max)
        if m_min == 1:
            assert seen == ms
        assert got == plain(m_min, m_max), (m_min, m_max)


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_table_analyses_each_prime_once(capsys, monkeypatch, label):
    # outside the character check, a table derives the root count and the
    # prime element of each prime once, and its TwistSums each a_p once
    calls = {}
    for module, name, at in ((bsd, "cubic_root_count", 4),
                             (bsd, "cornacchia_split", 1),
                             (modsym, "character_ap", 1)):
        seen = calls[name] = Counter()
        monkeypatch.setattr(module, name, lambda *args, fn=getattr(module, name),
                            seen=seen, at=at: seen.update([args[at]]) or fn(*args))
    assert cli.main(["table", "1", "1000", "--curve", label]) == 0
    capsys.readouterr()
    for name, seen in calls.items():
        assert seen and max(seen.values()) == 1, name
    specs = cli._admissible_specs(BUILTIN[label], 1, 1000)
    assert {f.p for spec in specs for f in spec.factors} <= set(calls["cubic_root_count"])


# sha256 of the standard output of `table 1 3000 --format csv`, taken before
# the rows were judged from per-prime facts: every byte of every row holds
TABLE_CSV_SHA256 = {
    "49a": "ee1a520927875f35afb482f623047009ce5d48814ac7f29c64e8ca62a2b1c9be",
    "121b": "d14595275e951a6c76581f54353c08abbdd2d08b85f112ad0ffd1c8efcdca056",
}


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_table_csv_bytes_are_pinned(capsys, label):
    code, out, err = run(capsys, "table", "1", "3000", "--format", "csv",
                         "--curve", label)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_CSV_SHA256[label]


def test_table_path_imports_neither_eisenstein_nor_numpy():
    # the table path, series kernel included, must not pull eisenstein or
    # numpy into an interpreter that starts without them; and no command,
    # a pooled table included, run in a fresh interpreter, loads a process
    # pool's modules
    names = ("cmtwist.eisenstein", "numpy", "concurrent.futures",
             "multiprocessing")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["table", "1", "50"], ["table", "1", "200", "--threads", "2"],
                 ["twist", "5"], ["verify", "character"]):
        code = (f"import sys; from cmtwist import cli; "
                f"cli.FORK_AT = dict.fromkeys(cli.FORK_AT, 0); "
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


@pytest.mark.parametrize("argv, reason", [
    (("twist", "21"), "gcd(M, N) = 7 != 1"),
    (("twist", "3", "--curve", "121b"), "split factor 3 is not special"),
    (("twist", "2"), "split factor 2 is not special; "
                     "M = 2 mod 4, but root number +1 needs 1 mod 4"),
])
def test_twist_inadmissible_csv_is_a_header_and_a_comment(capsys, argv, reason):
    # a CSV reader gets the header and one comment line, as table flags a row
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    M = argv[1]
    assert out == f"{','.join(bsd.CSV_HEADER)}\n# M={M} not admissible: {reason}\n"


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


PARSER_CASES = [[command, "--help"] for command in cli.COMMANDS] + [
    ["--help"], [], ["tabel", "1"], ["twist", "x"],
    ["twist", "5", "--precision", "3"], ["table", "5", "1"],
    ["verify", "lemma-div", "--threads", "0"]]


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_the_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    # help, usage errors and the checks made after parsing print the same
    # stdout and stderr, with the same exit code, whether the parser has
    # every subcommand or only the one argv names
    build = cli._build_parser
    sub = next(a for a in build(argv)._actions
               if isinstance(a, argparse._SubParsersAction))
    named = argv[:1] if argv and argv[0] in cli.COMMANDS else list(cli.COMMANDS)
    assert list(sub.choices) == named
    one = run(capsys, *argv)
    monkeypatch.setattr(cli, "_build_parser", lambda argv: build())
    assert run(capsys, *argv) == one
    assert one[0] in (0, 2) and one[1] + one[2]


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


@pytest.mark.parametrize("label, arg, steps, reps, order", [
    ("49a", "103", 22913280, 31824, 721),
    ("49a", "-3,5,29", 49093632, 16128, 3045),
    ("121b", "83", 31409280, 34440, 913),
])
def test_e1_ladder_past_the_step_bound_is_refused_at_parse_time(
        capsys, monkeypatch, label, arg, steps, reps, order):
    # reps * (order - 1) wp steps, though every N(g) is under MAX_TORSION_NORM:
    # refused from the residue ring alone, before any scenario runs
    monkeypatch.setattr(eisenstein, "ladder_discrepancy", _refuse("the ladder"))
    why = (f"e1-ladder: the ladder takes {steps} wp steps ({reps} representatives "
           f"of order {order}), above the bound {cli.MAX_LADDER_STEPS}")
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        cli.parse_scenarios(resolve_curve(label), [f"e1-ladder:{arg}"])
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "lemma-div:2", f"e1-ladder:{arg}",
                         "--curve", label)
    assert (code, out, err) == (2, "", f"error: {why}\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("arg", ["17", "113"])
def test_e1_ladder_under_the_step_bound_is_accepted(arg):
    # 101,952 and 265,440 steps: the largest ladders the tests know to finish
    (run_check, (entries, _)), = cli.parse_scenarios(resolve_curve("49a"),
                                                    [f"e1-ladder:{arg}"])
    assert run_check is cli._e1_ladder and entries == [arg]


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


def test_verify_modsym_matches_the_series(capsys):
    for curve, line in (
            ("49a", "all 43 admissible M <= 300 (38 nonzero), c = -4"),
            ("121b", "all 22 admissible M <= 300 (18 nonzero), c = 2")):
        code, out, err = run(capsys, "verify", "modsym:300", "--curve", curve)
        assert (code, err) == (0, "")
        assert out == f"PASS  modsym[{curve}]: S(D)/c = L^alg at {line}\n"


def test_verify_modsym_checks_from_the_first_admissible_twist(capsys):
    # 7 is the first admissible M of 121b, 1 that of 49a
    for curve, m_max, line in (
            ("121b", 7, "all 1 admissible M <= 7 (1 nonzero), c = 2"),
            ("49a", 1, "all 1 admissible M <= 1 (1 nonzero), c = -4")):
        code, out, err = run(capsys, "verify", f"modsym:{m_max}", "--curve", curve)
        assert (code, err) == (0, "")
        assert out == f"PASS  modsym[{curve}]: S(D)/c = L^alg at {line}\n"


def test_verify_modsym_fails_on_a_wrong_symbol_sum(capsys, monkeypatch):
    # a sum with the wrong sign fails at the first nonzero twist
    lalg = modsym.TwistSums.lalg
    monkeypatch.setattr(modsym.TwistSums, "lalg", lambda self, d: -lalg(self, d))
    code, out, _ = run(capsys, "verify", "modsym:100", "--curve", "49a")
    assert code == 1
    assert out == ("FAIL  modsym[49a]: M=1: S(D)/c = -1/2, the series "
                   "gives 1/2\n")


@pytest.mark.parametrize("argv, why", [
    (("verify", "character", "modsym:5001"),
     "modsym needs an integer above 0 and at most 5000, got 5001"),
    (("verify", "character", "modsym:0"),
     "modsym needs an integer above 0 and at most 5000, got 0"),
    (("verify", "character", "modsym", "--curve", "e29"),
     "modsym needs one of the builtin curves 49a, 121b, not e29"),
    (("verify", "character", "modsym:6", "--curve", "121b"),
     "modsym needs an integer above 6 and at most 5000, got 6"),
])
def test_verify_modsym_refuses_before_any_scenario_runs(capsys, e29_file, argv, why):
    code, out, err = run(capsys, *argv, "--curve-file", e29_file)
    assert (code, out, err) == (2, "", f"error: {why}\n")


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
