"""Measure the cost model with which `cmtwist table` decides to fork.

Usage, from the root of the repository:

    python3 tools/fork_sweep.py weights       # the per-row weights
    python3 tools/fork_sweep.py sweep [RUNS]  # the break-even (RUNS >= 5)

`weights` times the rows of `table 1 3000` for 49a and 121b and of
`table 1 400` for e29, the 29-twist of 49a read as a user curve, and prints
the nanoseconds per unit of |D| of a modular-symbol row, per term of a
series row, and of the rest of a row (its BSD report and CSV cells): the
weights of cli._table_work, the symbol weight per curve and the last over
all rows of the three tables.  Each series row is timed at
its best of 5, the symbol rows as one table on a fresh TwistSums, best of
5, since an instance sums each S(D) once.

`sweep` runs `table 1 M` in-process through cli.main at 1 and 2 workers,
alternating, RUNS times (default 7) per point: 49a and 121b at M in
SYMBOL_POINTS, e29 at M in SERIES_POINTS.  The 2-worker runs force the fork
by setting cli.FORK_BREAK_EVEN_NS to 0.  It prints each point's estimate
and median times, then the break-even that minimises the summed medians
when every point runs serially below it and forked at or above it; among
the break-evens within 2% of that minimum it takes the largest, since each
fork costs a process and its memory.
"""

import contextlib
import io
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import mpmath as mp  # noqa: E402

from cmtwist import cli, modsym  # noqa: E402
from cmtwist.coeffs import CurveContext  # noqa: E402
from cmtwist.lseries import algebraic_part, series_cutoff  # noqa: E402
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


def best(fn, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def symbol_rows_seconds(ctx: CurveContext, specs, digits: int) -> float:
    """The time of every row of specs on the modular symbols, on a fresh
    TwistSums: it keeps each S(D) it computes, so a row timed twice would
    time a lookup, and a row's divisors are summed once per table."""
    route = modsym.TwistSums(ctx.curve).algebraic_part
    start = time.perf_counter()
    for s in specs:
        route(ctx, s.epsilon * s.M, digits)
    return time.perf_counter() - start


def weights(curves: str) -> None:
    digits = cli._table_digits(15)
    rests, count = 0.0, 0
    for label, m_max in (("49a", 3000), ("121b", 3000), ("e29", 400)):
        config = cli.RunConfig(label, curves, 15, 1, "csv", None)
        ctx = CurveContext(resolve_curve(label, curves))
        cli._ensure_base_value(ctx, config)
        specs = cli._admissible_specs(ctx.curve, 1, m_max)
        if modsym.supports(ctx.curve):
            ctx.check_character()
            route, unit = modsym.TwistSums(ctx.curve).algebraic_part, "unit of |D|"
            units = sum(spec.M for spec in specs)
            summed = min(symbol_rows_seconds(ctx, specs, digits)
                         for _ in range(5))
        else:
            route, unit = algebraic_part, "series term"
            units = sum(series_cutoff(ctx.curve, s.M, digits) for s in specs)
            ctx.nonzero(series_cutoff(ctx.curve, specs[-1].M, digits))
            summed = sum(best(lambda: route(ctx, s.epsilon * s.M, digits))
                         for s in specs)
        done = {s.M: route(ctx, s.epsilon * s.M, digits) for s in specs}
        rest = sum(best(lambda: cli._table_job(
            ctx, digits, lambda c, d, g: done[abs(d)], s)) for s in specs)
        print(f"{label} table 1 {m_max}: {len(specs)} rows, "
              f"{summed / units * 1e9:.0f} ns per {unit}, "
              f"{rest / len(specs) * 1e9:.0f} ns per row besides")
        rests, count = rests + rest, count + len(specs)
    print(f"all {count} rows: {rests / count * 1e9:.0f} ns per row besides")


def table_seconds(argv: list[str], threads: int) -> float:
    saved = cli.FORK_BREAK_EVEN_NS
    cli.FORK_BREAK_EVEN_NS = 0 if threads > 1 else saved
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv + ["--threads", str(threads)])
            seconds = time.perf_counter() - start
    finally:
        cli.FORK_BREAK_EVEN_NS = saved
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return seconds


def estimate(label: str, curves: str, m_max: int) -> int:
    curve = resolve_curve(label, curves)
    specs = cli._admissible_specs(curve, 1, m_max)
    return cli._table_work(curve, specs, cli._table_digits(15),
                           modsym.supports(curve))


def sweep(curves: str, runs: int) -> None:
    points = [(label, m) for label in ("49a", "121b") for m in SYMBOL_POINTS]
    points += [("e29", m) for m in SERIES_POINTS]
    rows = []
    print("table        estimate_ms  1_worker_ms  2_workers_ms")
    for label, m in points:
        argv = ["table", "1", str(m), "--curve", label, "--curve-file", curves,
                "--format", "csv"]
        times = {1: [], 2: []}
        for run in range(runs):
            for threads in ((1, 2) if run % 2 == 0 else (2, 1)):
                times[threads].append(table_seconds(argv, threads))
        est = estimate(label, curves, m)
        one, two = (statistics.median(times[t]) * 1e3 for t in (1, 2))
        rows.append((est, one, two))
        print(f"{label:4} 1 {m:<5}  {est / 1e6:11.1f}  {one:11.1f}  {two:12.1f}")
    # a break-even b runs serially exactly the points estimated below it
    candidates = sorted({est for est, _, _ in rows}) + [float("inf")]
    total = {b: sum(one if est < b else two for est, one, two in rows)
             for b in candidates}
    least = min(total.values())
    chosen = max(b for b in candidates if total[b] <= least * (1 + WITHIN))
    for b in candidates:
        print(f"break-even {b / 1e6:9.1f} ms: summed medians {total[b]:8.1f} ms")
    print(f"least {least:.1f} ms; largest break-even within {WITHIN:.0%}: "
          f"{chosen / 1e6:.1f} ms = {chosen} ns")


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode not in ("weights", "sweep"):
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as folder:
        curves = e29_file(folder)
        if mode == "weights":
            weights(curves)
        else:
            sweep(curves, max(5, int(sys.argv[2])) if len(sys.argv) > 2 else 7)


if __name__ == "__main__":
    main()
