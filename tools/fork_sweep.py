"""Sweep the thresholds at which `cmtwist table` forks its row workers.

Usage, from the root of the repository:

    python3 tools/fork_sweep.py sweep [RUNS]  # RUNS >= 5, default 7

`sweep` runs `table 1 M` in-process through cli.main at 1 and 2 workers,
alternating, RUNS times per point: 49a and 121b at M in SYMBOL_POINTS, on
the modular symbols, and e29, the 29-twist of 49a read as a user curve, at
M in SERIES_POINTS, on the series.  The 2-worker runs force the fork by
setting both thresholds of cli.FORK_AT to 0.  It prints each point's route,
its work in the route's unit (cli._table_work: the summed |D| of the
symbol rows, the summed terms of the series rows), the decision of the
current thresholds and the median times.  Then, per route, it prints the
threshold that minimises the route's summed medians when every point runs
serially below it and forked at or above it; among the thresholds within 2%
of that minimum it takes the largest, since each fork costs a process and
its memory.
"""

import contextlib
import io
import math
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

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


def table_seconds(argv: list[str], threads: int) -> float:
    saved = cli.FORK_AT
    cli.FORK_AT = dict.fromkeys(saved, 0) if threads > 1 else saved
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv + ["--threads", str(threads)])
            seconds = time.perf_counter() - start
    finally:
        cli.FORK_AT = saved
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return seconds


def choose(route: str, rows: list[tuple[int, float, float]]) -> None:
    """Print the summed medians of each threshold of route and the one chosen."""
    # a threshold t runs serially exactly the points of fewer units
    candidates = sorted({units for units, _, _ in rows}) + [math.inf]
    total = {t: sum(one if units < t else two for units, one, two in rows)
             for t in candidates}
    least = min(total.values())
    chosen = max(t for t in candidates if total[t] <= least * (1 + WITHIN))
    for t in candidates:
        print(f"{route} at {t:>11,}: summed medians {total[t]:8.1f} ms")
    print(f"{route}: least {least:.1f} ms; largest threshold within "
          f"{WITHIN:.0%}: {chosen:,} (FORK_AT {cli.FORK_AT[route]:,})")


def sweep(curves: str, runs: int) -> None:
    points = [(label, m) for label in ("49a", "121b") for m in SYMBOL_POINTS]
    points += [("e29", m) for m in SERIES_POINTS]
    rows = {"symbols": [], "series": []}
    print("table        route        units  decision  1_worker_ms  2_workers_ms")
    for label, m in points:
        argv = ["table", "1", str(m), "--curve", label, "--curve-file", curves,
                "--format", "csv"]
        times = {1: [], 2: []}
        for run in range(runs):
            for threads in ((1, 2) if run % 2 == 0 else (2, 1)):
                times[threads].append(table_seconds(argv, threads))
        curve = resolve_curve(label, curves)
        symbols = modsym.supports(curve)
        route = "symbols" if symbols else "series"
        units, _ = cli._table_work(curve, cli._admissible_specs(curve, 1, m),
                                   cli._table_digits(15), symbols)
        decision = "fork" if units >= cli.FORK_AT[route] else "serial"
        one, two = (statistics.median(times[t]) * 1e3 for t in (1, 2))
        rows[route].append((units, one, two))
        print(f"{label:4} 1 {m:<5}  {route:7}  {units:>11,}  {decision:8}"
              f"  {one:11.1f}  {two:12.1f}")
    for route, route_rows in rows.items():
        choose(route, route_rows)


def main() -> None:
    if sys.argv[1:2] != ["sweep"]:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as folder:
        sweep(e29_file(folder), max(5, int(sys.argv[2])) if len(sys.argv) > 2 else 7)


if __name__ == "__main__":
    main()
