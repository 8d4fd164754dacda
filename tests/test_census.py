"""The census behind `cmtwist table`: the admissible sieve, the row plan
at the 10^6-term cap, the fork map and the user curve's base value."""

import os
import signal
import time

import pytest

from cmtwist import bsd, census, coeffs
from cmtwist.lseries import series_cutoff
from cmtwist.registry import BUILTIN, resolve_curve


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


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refused(curve, Ms, digits):
    """The flags of the rows M above the cap, as table_rows returns them
    to the parent process."""
    return [(M, None, "precision unattainable at this scale: "
                      f"{series_cutoff(curve, M, digits)} terms needed")
            for M in Ms]


def test_table_work_counts_only_the_rows_under_the_cap():
    # of the seven rows of DEEP_TABLE, the four above the cap are refused
    # before any sum and count nothing; the symbols count |D| per row
    curve, digits = resolve_curve("49a"), census.table_digits(15)
    specs = census.admissible_specs(curve, *map(int, DEEP_TABLE[1:3]))
    computed, refused, *work = census.table_rows(curve, specs, digits, True)
    assert work == [22877 + 22893 + 22901, series_cutoff(curve, 22901, digits)]
    assert [spec.M for spec in computed] == [22877, 22893, 22901]
    assert refused == _refused(curve, DEEP_FLAGGED, digits)


def test_rows_above_the_cap_follow_every_row_under_it(e29_file):
    # table_results puts the parent's flags after the row map's results,
    # which keeps M order because no cutoff falls as M grows
    digits = census.table_digits(15)
    for label in ("49a", "121b", "e29"):
        curve = resolve_curve(label, e29_file)
        cutoffs = [series_cutoff(curve, M, digits) for M in range(1, 40_001)]
        assert cutoffs == sorted(cutoffs), label


def test_user_curve_table_work_counts_series_terms(e29_file):
    # a user curve's rows sum the series: each counts its cutoff in terms
    curve, digits = resolve_curve("e29", e29_file), census.table_digits(15)
    specs = census.admissible_specs(curve, 2, 400)
    cutoffs = [series_cutoff(curve, spec.M, digits) for spec in specs]
    assert census.table_rows(curve, specs, digits, False) == (
        specs, [], sum(cutoffs), cutoffs[-1])
    # above the cap, only the rows under it count, M = 773 and 785, and the
    # largest cutoff is M = 785's; with no row under it, nothing counts
    specs = census.admissible_specs(curve, *E29_DEEP)
    assert census.table_rows(curve, specs, digits, False) == (
        specs[:2], _refused(curve, E29_DEEP_FLAGGED, digits),
        sum(series_cutoff(curve, M, digits) for M in (773, 785)), 993_140)
    specs = census.admissible_specs(curve, *E29_ABOVE)
    assert census.table_rows(curve, specs, digits, False) == (
        [], _refused(curve, [spec.M for spec in specs], digits), 0, 0)


@pytest.mark.parametrize("label", ["49a", "121b", "e29"])
def test_table_candidates_are_the_unfiltered_classification(monkeypatch, label,
                                                            e29_file):
    # the TwistSpecs of the sieve, facts included, are those of the admissible
    # classify_twist(curve, M) over every M, one at a time: no M of the other
    # classes mod 4 may be admissible.  The survivors are classified without
    # a square factor, and from 1 on the sieve reaches every prime, so each
    # survivor is admissible.  The range is taken as given: M = 1 is among
    # them when the curve itself is admissible
    curve = resolve_curve(label, e29_file)

    def plain(m_min, m_max):
        specs = []
        for M in range(m_min, m_max + 1):
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
        got = census.admissible_specs(curve, m_min, m_max)
        if (m_min, m_max) == (1, 3000):
            assert seen == ms
        assert got == plain(m_min, m_max), (m_min, m_max)


def test_fork_map_returns_the_results_in_order():
    parent = os.getpid()
    for workers in (1, 2, 3, 10):
        got = census.fork_map(lambda x: (x * x, os.getpid() == parent),
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
            census.fork_map(fn, range(10), workers)
        _no_children()


def test_fork_map_raises_when_a_child_is_killed():
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match=f"signal {signal.SIGKILL}"):
        census.fork_map(fn, range(4), 2)
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
            census.fork_map(fn, range(2), 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    _no_children()


def test_usable_cpus_are_the_affinity_mask(monkeypatch):
    # the mask wins over os.cpu_count(); without one, the count does, and
    # a count that knows nothing is one CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert census.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert census.usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert census.usable_cpus() == 1


def test_base_value_is_filled_in_once(e29_file):
    # a builtin curve keeps its recorded value; e29, the 29-twist of 49a,
    # records none and gets 2, the L^alg of 49a's row M = 29, and keeps
    # the view its series built
    ctx = coeffs.CurveContext(BUILTIN["49a"])
    census.ensure_base_value(ctx, 15)
    assert ctx.curve is BUILTIN["49a"] and ctx._nonzero_max == 0
    ctx = coeffs.CurveContext(resolve_curve("e29", e29_file))
    assert ctx.curve.lalg_base is None
    census.ensure_base_value(ctx, 15)
    built = ctx._nonzero_max
    assert ctx.curve.lalg_base == 2 and built > 0
    census.ensure_base_value(ctx, 50)           # recorded now: nothing runs
    assert ctx.curve.lalg_base == 2 and ctx._nonzero_max == built
