"""Sweep the thresholds at which `cmtwist table` forks its row workers.

Usage, from the root of the repository:

    python3 tools/fork_sweep.py sweep [RUNS]  # RUNS >= 5, default 7

`sweep` runs `table 1 M` in-process through cli.main at 1 and 2 workers,
alternating, RUNS times per point: 49a and 121b at M in SYMBOL_POINTS, on
the modular symbols, and e29, the 29-twist of 49a read as a user curve, at
M in SERIES_POINTS, on the series.  The 2-worker runs force the fork by
setting both thresholds of cli.FORK_AT to 0.  Each run is bracketed by the
frozen speed probe of perfbench/run.py and reported, as there, in
reference milliseconds: the measured time times PROBE_REF_S over the mean
of the probes just before and after it, so that two sweeps compare.  It
prints each point's route, its work in the route's unit (cli._table_work:
the summed |D| of the symbol rows, the summed terms of the series rows),
the decision of the current thresholds and the median times.  Then, per
route, it prints the threshold that minimises the route's summed medians
when every point runs serially below it and forked at or above it; among
the thresholds within 2% of that minimum it takes the largest, since each
fork costs a process and its memory.
"""

import contextlib
import importlib.util
import io
import math
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run)

import mpmath as mp  # noqa: E402

from cmtwist import cli, modsym  # noqa: E402
from cmtwist.registry import builtin_curve, omega_infinity, resolve_curve  # noqa: E402

SYMBOL_POINTS = (500, 1000, 1500, 2000, 3000, 4000, 6000)
SERIES_POINTS = (50, 100, 200, 400)
WITHIN = 0.02


def e29_file(folder: str) -> str:
    """A curve file of e29: 49a twisted by 29, omega |Omega(49a)|/sqrt(29)."""
    with mp.workdps(60):
        om = mp.nstr(omega_infinity(builtin_curve("49a"), 50) / mp.sqrt(29), 45)
    path = os.path.join(folder, "e29.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"e29 1 -22 0 -1682 -24389 7 1 {om}\n")
    return path


def table_ref_ms(argv: list[str], threads: int) -> float:
    """One run of argv in reference milliseconds (perfbench/run.py)."""
    saved = cli.FORK_AT
    cli.FORK_AT = dict.fromkeys(saved, 0) if threads > 1 else saved
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            before = _run.speed_probe()
            start = time.perf_counter()
            code = cli.main(argv + ["--threads", str(threads)])
            seconds = time.perf_counter() - start
            after = _run.speed_probe()
    finally:
        cli.FORK_AT = saved
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return seconds * _run.PROBE_REF_S / ((before + after) / 2) * 1e3


def summed_medians(rows: list[tuple[int, float, float]]) -> dict[float, float]:
    """threshold -> the summed medians of rows (units, serial, forked) when
    the rows of fewer units than the threshold run serially, the others
    forked; the thresholds are the rows' units and infinity."""
    candidates = sorted({units for units, _, _ in rows}) + [math.inf]
    return {t: sum(one if units < t else two for units, one, two in rows)
            for t in candidates}


def choose(rows: list[tuple[int, float, float]]) -> float:
    """The largest threshold whose summed medians are within WITHIN of the
    least."""
    total = summed_medians(rows)
    least = min(total.values())
    return max(t for t, ms in total.items() if ms <= least * (1 + WITHIN))


def sweep(curves: str, runs: int) -> None:
    points = [(label, m) for label in ("49a", "121b") for m in SYMBOL_POINTS]
    points += [("e29", m) for m in SERIES_POINTS]
    rows = {"symbols": [], "series": []}
    print("table        route        units  decision  1_worker_ref_ms  "
          "2_workers_ref_ms")
    for label, m in points:
        argv = ["table", "1", str(m), "--curve", label, "--curve-file", curves,
                "--format", "csv"]
        times = {1: [], 2: []}
        for run in range(runs):
            for threads in ((1, 2) if run % 2 == 0 else (2, 1)):
                times[threads].append(table_ref_ms(argv, threads))
        curve = resolve_curve(label, curves)
        symbols = modsym.supports(curve)
        route = "symbols" if symbols else "series"
        units, _ = cli._table_work(curve, cli._admissible_specs(curve, 1, m),
                                   cli._table_digits(15), symbols)
        decision = "fork" if units >= cli.FORK_AT[route] else "serial"
        one, two = (statistics.median(times[t]) for t in (1, 2))
        rows[route].append((units, one, two))
        print(f"{label:4} 1 {m:<5}  {route:7}  {units:>11,}  {decision:8}"
              f"  {one:15.1f}  {two:16.1f}")
    for route, route_rows in rows.items():
        total = summed_medians(route_rows)
        for t, ms in total.items():
            print(f"{route} at {t:>11,}: summed medians {ms:8.1f} ref ms")
        print(f"{route}: least {min(total.values()):.1f} ref ms; largest "
              f"threshold within {WITHIN:.0%}: {choose(route_rows):,} "
              f"(FORK_AT {cli.FORK_AT[route]:,})")


def main() -> None:
    if sys.argv[1:2] != ["sweep"]:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as folder:
        sweep(e29_file(folder), max(5, int(sys.argv[2])) if len(sys.argv) > 2 else 7)


if __name__ == "__main__":
    main()
