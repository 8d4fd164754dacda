"""Command-line front end: twist tables, single-twist reports, identity
verification, and special-prime listings.

Commands
    table [m_min] [m_max]   BSD-style rows for admissible twists in range
    twist M                 full report for one twisting integer
    verify SCENARIO...      run named identity checks; exit 0 iff all pass
    special-primes q limit  ascending special split primes p <= limit

Global flags may be given after the command name: --curve, --curve-file,
--precision, --threads, --format, --output.  Each flag has an environment
override CMTWIST_<NAME> (e.g. CMTWIST_PRECISION); explicit flags win.

Exit codes: 0 all checks pass, 1 a bound or identity violation (or a
flagged row), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from functools import partial
from itertools import compress
from math import isqrt
from typing import NamedTuple

from . import bsd
from .bsd import BSDReport
from .coeffs import CurveContext
from .lseries import LSeriesError, algebraic_part, series_terms
from .qfield import ALLOWED_Q, factor_int, primes_below, special_split_primes, split_type
from .registry import Curve, RegistryError, resolve_curve

ENV_PREFIX = "CMTWIST_"
USAGE_ERROR = 2
CHECK_FAILED = 1
MAX_SPECIAL_LIMIT = 10 ** 6    # largest limit of special-primes
# A table forks its row workers only when its computed rows, those under
# the MAX_TABLE cap (_table_rows), sum to FORK_AT units of their route:
# - symbols (49a, 121b), in summed |D|: about 3x the 67,576 |D| of
#   `table 1 1000 --curve 49a`, so tables of that size, which a fork slows
#   down, keep running in one process;
# - series (user curves), in summed terms: the 931,571-term break-even on
#   which every recorded sweep agreed, rounded down.
# The sweeps behind both, on a 2-vCPU Xeon under Python 3.11, are recorded
# in CHANGES.md.
FORK_AT = {"symbols": 205_000, "series": 900_000}


class RunConfig(NamedTuple):
    curve_label: str
    curve_file: str | None
    precision: int
    threads: int
    fmt: str            # "csv" | "text"
    output: str | None  # path, or None for stdout


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(ENV_PREFIX + name, fallback)


def _add_common(p: argparse.ArgumentParser) -> None:
    """The flags every command takes."""
    p.add_argument("--curve", default=_env("CURVE", "49a"),
                   help="curve label (default 49a; env CMTWIST_CURVE)")
    p.add_argument("--curve-file", default=_env("CURVE_FILE"),
                   help="file of curve records: label a1 a2 a3 a4 a6 q w [omega]")
    # string defaults from the environment go through type= like flags do
    p.add_argument("--precision", type=int, default=_env("PRECISION", "15"),
                   help="working decimal digits, >= 15 (default 15)")
    p.add_argument("--threads", type=int, default=_env("THREADS", "1"),
                   help="most worker processes for table scans (default "
                        "1): a table runs in one process unless its rows "
                        "under the 10^6-term cap sum to "
                        f"{FORK_AT['symbols']:,} |D| on the modular symbols "
                        f"or {FORK_AT['series']:,} series terms, and never "
                        "uses more processes than rows or usable CPUs")
    p.add_argument("--format", dest="fmt", choices=("csv", "text"),
                   default=_env("FORMAT", "text"),
                   help="output format (default text)")
    p.add_argument("--output", default=_env("OUTPUT"),
                   help="output path (default: standard output)")


def _add_table(sub) -> None:
    p = sub.add_parser("table", help="rows for all admissible twists in a range")
    p.add_argument("m_min", nargs="?", type=int, default=1)
    p.add_argument("m_max", nargs="?", type=int, default=1000)
    _add_common(p)


def _add_twist(sub) -> None:
    p = sub.add_parser("twist", help="full report for a single twisting integer")
    p.add_argument("M", type=int)
    _add_common(p)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify",
                       help="identity checks: eisenstein-base, "
                            "averaging:<pi,...>, e1-ladder[:<pi,...>], "
                            "lemma-div[:<n>], character, "
                            "tamagawa-cross[:<limit>], modsym[:<m_max>]")
    p.add_argument("scenarios", nargs="+", metavar="SCENARIO")
    _add_common(p)


def _add_special_primes(sub) -> None:
    p = sub.add_parser("special-primes",
                       help="ascending special split primes p <= limit")
    p.add_argument("q", type=int)
    p.add_argument("limit", type=int)
    _add_common(p)


COMMANDS = {"table": _add_table, "twist": _add_twist, "verify": _add_verify,
            "special-primes": _add_special_primes}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the command line argv.  When argv starts with a
    command, only that command's subparser is built: a command line names
    one command, and each subparser costs about a millisecond.  Help, a
    missing command or an unknown one get every subparser.  The usage line
    of the top-level parser always lists every command, as the errors
    raised after parsing (parser.error) print it."""
    named = argv[0] if argv and argv[0] in COMMANDS else None
    ap = argparse.ArgumentParser(
        prog="cmtwist",
        description="Central L-values of quadratic twists of CM curves "
                    "with 2-adic bound and Tamagawa-factor checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, add in COMMANDS.items():
        if named in (None, name):
            add(sub)
    # set after add_subparsers, which derives the subparsers' prog from it
    ap.usage = "%(prog)s [-h] {" + ",".join(COMMANDS) + "} ..."
    return ap


def _config_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    if args.precision < 15:
        parser.error("--precision must be at least 15")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.fmt not in ("csv", "text"):     # an environment default skips choices=
        parser.error(f"--format must be csv or text, got {args.fmt!r}")
    return RunConfig(curve_label=args.curve, curve_file=args.curve_file,
                     precision=args.precision, threads=args.threads,
                     fmt=args.fmt, output=args.output)


def _emit(config: RunConfig, lines: list[str]) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {config.output}: "
                             f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _format_rows(rows: list[list[str]], fmt: str) -> list[str]:
    if fmt == "csv":
        return [",".join(r) for r in rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(f.ljust(w) for f, w in zip(r, widths)).rstrip()
            for r in rows]


# --------------------------------------------------------------- table


def _table_digits(precision: int) -> int:
    # three guard digits over the 10 printed, more if asked for
    return max(12, precision - 3)


def _table_rows(curve: Curve, specs: list[bsd.TwistSpec], digits: int,
                symbols: bool) -> tuple[list[bsd.TwistSpec], list[tuple], int, int]:
    """Split the rows of specs at the MAX_TABLE cap in one pass, which
    takes each row's series cutoff once: (computed, refused, work, n_max).

    computed lists the specs under the cap, in order.  refused holds
    (M, None, message) for each spec above it, in order and in the shape
    of a _table_job failure; the series' cap refuses symbol rows too, and
    deep expects them flagged.  The cutoff grows with M, so every refused
    row comes after every computed one.  work sums the |D| of the computed
    rows on the symbol route (symbols), or their series terms; n_max is the
    largest of their cutoffs, 0 when no row is computed."""
    computed, refused = [], []
    work = n_max = 0
    for spec in specs:
        try:
            terms = series_terms(curve, spec.M, digits)
        except LSeriesError as exc:
            refused.append((spec.M, None, str(exc)))
            continue
        computed.append(spec)
        work += spec.M if symbols else terms
        n_max = max(n_max, terms)
    return computed, refused, work, n_max


def _table_job(ctx: CurveContext, digits: int, route, spec: bsd.TwistSpec):
    """(M, row, failure message) for the admissible spec under the cap, its
    L-value from route(ctx, d, digits), row = (CSV cells, ord2 slack, bound
    holds) or None for no row: only what the table prints crosses back
    from a worker."""
    M, d = spec.M, spec.epsilon * spec.M
    try:
        rep = bsd.theorem18_report(ctx.curve, spec, route(ctx, d, digits))
    except ValueError as exc:
        return M, None, str(exc)
    if rep.lvalue.lalg == 0:
        return M, None, None                # vanishing central value
    if rep.indeterminate:
        return M, None, "rational recognition failed"
    return M, (bsd.csv_row(ctx.curve, rep), rep.lvalue.ord2 - rep.bound_rhs,
               rep.bound_holds), None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (taskset and container cpusets narrow it), else
    os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _attempt(fn, item) -> tuple[bool, object]:
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _fork_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], computed by this process and workers - 1
    children forked from it, at most one process per item.

    The items are dealt from the last, the largest, round-robin: the parent
    takes the last, the first child the one before it, and so on.  A child
    inherits fn and the items with the rest of this process, so nothing is
    pickled on the way in; it pickles its results, or the exceptions its
    items raised, into a pipe and ends with os._exit.  When items raise,
    the exception of the first of them in order is raised here, as the
    serial loop would raise it; a child that dies without an answer raises
    RuntimeError.  Every read end is closed before its child is waited for,
    so a child blocked on a full pipe gets EPIPE and ends; on any error the
    children still running are killed, and every child is reaped.  The
    process must run no other thread, since a fork copies only this one.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2:
        return [fn(x) for x in items]
    # imported here: only a pooled scan uses them, and they weigh on the
    # start-up of every command
    import pickle
    import signal
    shares = [range(len(items) - 1 - w, -1, -workers) for w in range(workers)]
    pids: list[int] = []                        # children not yet reaped
    reads: list[int] = []                       # their read ends still open
    done = False
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                raise
            if pid == 0:                        # the child never returns
                for fd in reads:
                    os.close(fd)
                _child(fn, items, share, write)
            os.close(write)
            pids.append(pid)
        outcomes = [None] * len(items)
        for i in shares[0]:
            outcomes[i] = _attempt(fn, items[i])
        for share in shares[1:]:
            data = _read_all(reads[0])
            os.close(reads.pop(0))
            # unpickled while the child ends, unless it sent nothing
            answer = data and pickle.loads(data)
            _, status = os.waitpid(pids[0], 0)
            pid = pids.pop(0)
            if not data:
                raise RuntimeError(f"table worker {pid} ended without an answer "
                                   f"({_ending(status)})")
            for i, outcome in zip(share, answer):
                outcomes[i] = outcome
        done = True
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _child(fn, items, share, write: int):
    """Run a _fork_map child's share and end the process: a child never
    returns into its caller, whatever it raises."""
    import pickle
    code = 0
    try:
        try:
            data = pickle.dumps([_attempt(fn, items[i]) for i in share])
        except BaseException as exc:        # an unpicklable result, an interrupt
            data = pickle.dumps([(False, RuntimeError(
                f"table worker failed: {exc!r}"))] * len(share))
        with open(write, "wb") as pipe:
            pipe.write(data)
    except BaseException:
        code = 1
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _ending(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"signal {os.WTERMSIG(status)}"
    return f"exit code {os.waitstatus_to_exitcode(status)}"


def _admissible_specs(curve: Curve, m_min: int, m_max: int) -> list[bsd.TwistSpec]:
    """The TwistSpecs of the admissible M with max(m_min, 2) <= M <= m_max,
    ascending.

    An M outside the root number's class mod 4 is never admissible, so only
    the candidates M = start + 4i of that class are marked, in a bytearray.
    Slice assignments strike the multiples of p^2 for every p <= sqrt(m_max),
    so every survivor is square-free; the multiples of every prime of N; and,
    among the primes up to the range's length (or sqrt(m_max) when larger),
    the multiples of each non-special split prime.  classify_twist judges
    every survivor, the one arbiter of admissibility: a non-special split
    prime above that bound is caught there.
    The facts of each prime are derived once, in a dict of this call that
    the sieve and every classify_twist share.
    """
    first, need = max(m_min, 2), bsd.admissible_class_mod4(curve)
    start = first + (need - first) % 4
    size = max(0, (m_max - start) // 4 + 1)
    alive = bytearray([1]) * size
    facts: dict[int, bsd.TwistFactor] = {}

    def multiples(m: int) -> slice:
        """The candidates divisible by an odd m."""
        return slice(-start * pow(4, -1, m) % m, None, m)

    def strike(m: int) -> None:
        where = multiples(m)
        alive[where] = bytes(len(range(*where.indices(size))))

    q, conductor = curve.q, curve.conductor
    for p, _ in factor_int(conductor):
        strike(p)
    for p in primes_below(max(m_max - first + 1, isqrt(m_max)) + 1)[1:]:
        if p * p <= m_max:
            strike(p * p)
        if conductor % p == 0 or split_type(q, p) != "split":
            continue            # struck with N already, or inert: never struck
        if p % 4 == 1:          # special or not: the facts of p tell
            if 1 not in alive[multiples(p)]:
                continue
            fac = facts[p] = bsd.twist_factor(curve, p)
            if fac.special:
                continue
        strike(p)               # a split p = 3 mod 4 is never special
    specs = []
    for M in compress(range(start, m_max + 1, 4), alive):
        spec = bsd.classify_twist(curve, M, facts)
        if spec.admissible:
            specs.append(spec)
    return specs


def cmd_table(config: RunConfig, ctx: CurveContext, m_min: int, m_max: int) -> tuple[list[str], int]:
    from . import modsym
    curve = ctx.curve
    digits = _table_digits(config.precision)
    # the point counts, checked before any prime's facts are derived (their
    # trace parity is read off E0's character) and before the workers fork
    ctx.check_character()
    specs = _admissible_specs(curve, m_min, m_max)
    symbols = modsym.supports(curve)
    # the rows above the MAX_TABLE cap are flagged here; only the computed
    # ones reach the row map.  One process unless they sum to FORK_AT units
    # of their route; at or above it, no more workers than --threads, rows
    # or usable CPUs
    computed, refused, work, n_max = _table_rows(curve, specs, digits, symbols)
    workers = 1
    if work >= FORK_AT["symbols" if symbols else "series"]:
        workers = min(config.threads, len(computed), _usable_cpus())
    route = algebraic_part                  # the series
    # with no row computed nothing is built
    if computed and symbols:
        # exact L^alg from the modular symbols, built before the row workers fork
        route = modsym.TwistSums(curve).algebraic_part
    elif computed:
        # one nonzero view of E0's a_n for the whole scan, up to the largest
        # cutoff of a computed row, built here window by window before the
        # row workers fork: they share it and build none of their own
        ctx.nonzero(n_max)
    # the longest row last: it is dealt first, so no worker is left with
    # a big twist at the end
    results = _fork_map(partial(_table_job, ctx, digits, route), computed,
                        workers) + refused

    rows = [bsd.CSV_HEADER[:]]
    flagged = []
    violations = 0
    hist: dict[int, int] = {}
    for M, row, err in results:
        if err is not None:
            flagged.append(f"# M={M} flagged: {err}")
            continue
        if row is None:
            continue
        cells, slack, holds = row
        rows.append(cells)
        hist[slack] = hist.get(slack, 0) + 1
        violations += not holds
    lines = _format_rows(rows, config.fmt) if len(rows) > 1 else \
        ([",".join(rows[0])] if config.fmt == "csv" else [])
    lines.extend(flagged)
    lines.append(f"# rows={len(rows) - 1}")
    lines.append("# bound slack histogram: " +
                 (" ".join(f"{s}:{hist[s]}" for s in sorted(hist)) or "(empty)"))
    code = CHECK_FAILED if (violations or flagged) else 0
    return lines, code


# --------------------------------------------------------------- twist

def _twist_text(curve: Curve, rep: BSDReport) -> list[str]:
    spec = rep.spec
    sign = "+" if spec.epsilon >= 0 else "-"
    lines = [
        f"curve {curve.label}: q={curve.q}, conductor {curve.conductor}, "
        f"root number {curve.w:+d}",
        f"twist M={spec.M} (D = {sign}{spec.M})",
    ]
    if spec.factors:
        facs = ", ".join(
            f"{f.p} ({f.kind}{', special' if f.special else ''})"
            for f in spec.factors)
    else:
        facs = "(none)"
    lines.append(f"factors: {facs}")
    lines.append(f"r(M)={spec.r_of_M}  k(M)={spec.k_of_M}")
    res = rep.lvalue
    lines.append(f"|L(E^(D),1)| = {float(abs(res.analytic_value)):.10g}"
                 f"  ({res.n_terms} terms)")
    if curve.lattice_shift:
        lines.append(f"listed value |L|/2^{curve.lattice_shift} = "
                     f"{float(abs(res.analytic_value)) / 2**curve.lattice_shift:.10g}")
    if res.lalg is None:
        lines.append("L^alg: not recognized (indeterminate)")
    else:
        lines.append(f"L^alg = {res.lalg.numerator}/{res.lalg.denominator}"
                     + ("" if res.lalg == 0 else f"  (ord2 = {res.ord2})"))
    if res.lalg == 0:
        lines.append(f"bound: vanishing value, holds trivially "
                     f"(rhs = {rep.bound_rhs})")
    else:
        state = "holds" if rep.bound_holds else "VIOLATED"
        slack = "" if res.lalg is None else \
            f" (slack {res.ord2 - rep.bound_rhs})"
        lines.append(f"bound: ord2 >= r(M) - phi = {rep.bound_rhs} -> "
                     f"{state}{slack}")
    if rep.tamagawa.entries:
        tam = "; ".join(f"c_{e.p}: ord2={e.ord2} [{e.rule}]"
                        for e in rep.tamagawa.entries)
        lines.append(f"tamagawa: {tam}; total ord2 = "
                     f"{rep.tamagawa.product_ord2}")
    if rep.sha_ord2_predicted is not None:
        note = f"  flags: {','.join(rep.sha_flags)}" if rep.sha_flags else ""
        lines.append(f"predicted sha ord2 = {rep.sha_ord2_predicted}{note}")
    return lines


def cmd_twist(config: RunConfig, ctx: CurveContext, M: int) -> tuple[list[str], int]:
    curve = ctx.curve
    ctx.check_character()                 # before the facts read E0's character
    spec = bsd.classify_twist(curve, M)   # BSDError (e.g. square factor) -> usage
    if not spec.admissible:
        if config.fmt == "csv":
            return [",".join(bsd.CSV_HEADER),
                    f"# M={M} not admissible: {'; '.join(spec.reasons)}"], 0
        lines = [f"curve {curve.label}: twist M={M} is not admissible:"]
        lines += [f"  - {r}" for r in spec.reasons]
        return lines, 0
    rep = bsd.theorem18_report(curve, spec, algebraic_part(
        ctx, spec.epsilon * M, _table_digits(config.precision)))
    if config.fmt == "csv":
        lines = [",".join(bsd.CSV_HEADER), ",".join(bsd.csv_row(curve, rep))]
    else:
        lines = _twist_text(curve, rep)
    ok = rep.bound_holds and not rep.indeterminate
    return lines, 0 if ok else CHECK_FAILED


# -------------------------------------------------------------- verify

def cmd_verify(config: RunConfig, ctx: CurveContext, checks: list[tuple]) -> tuple[list[str], int]:
    """Run the (run, parsed argument) checks of verify.parse_scenarios, in
    order: one PASS or FAIL line each."""
    lines = []
    all_ok = True
    for run, parsed in checks:
        msg, ok = run(config, ctx, parsed)
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {msg}")
    return lines, 0 if all_ok else CHECK_FAILED


# ------------------------------------------------------ special-primes

def cmd_special_primes(config: RunConfig, q: int, limit: int) -> tuple[list[str], int]:
    primes = special_split_primes(q, limit)
    if config.fmt == "csv":
        lines = ["p"] + [str(p) for p in primes]
    else:
        lines = [", ".join(str(p) for p in primes) if primes else "(none)"]
    return lines, 0


# ----------------------------------------------------------------- main

def _ensure_base_value(ctx: CurveContext, config: RunConfig) -> None:
    """Fill in L^(alg)(E, 1) for user curves that do not record it.

    The valuation bound needs phi(E), which depends on the base algebraic
    value; builtin curves carry it, user curves get it computed once here.
    The context keeps its nonzero view: it does not depend on the base value.
    """
    curve = ctx.curve
    if curve.lalg_base is not None:
        return
    res = algebraic_part(ctx, 1, target_digits=_table_digits(config.precision))
    if res.lalg is None:
        raise RegistryError(
            f"could not recognize the base L-value of {curve.label} "
            f"(residual {res.lalg_residual:.2e}); check omega"
        )
    ctx.curve = curve._replace(lalg_base=res.lalg)


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        parser = _build_parser(argv)
        args = parser.parse_args(argv)
        config = _config_from(args, parser)
        if args.command == "special-primes":
            if args.q not in ALLOWED_Q:
                parser.error(f"q must be one of {sorted(ALLOWED_Q)}")
            if args.limit < 1:
                parser.error("limit must be positive")
            if args.limit > MAX_SPECIAL_LIMIT:
                parser.error(f"limit must be at most {MAX_SPECIAL_LIMIT}")
            lines, code = cmd_special_primes(config, args.q, args.limit)
        else:
            # one context per command: the curve and the nonzero view of its a_n
            ctx = CurveContext(resolve_curve(config.curve_label, config.curve_file))
            if args.command == "table":
                if not (1 <= args.m_min <= args.m_max <= 10 ** 6):
                    parser.error("need 1 <= m_min <= m_max <= 10^6")
                _ensure_base_value(ctx, config)
                lines, code = cmd_table(config, ctx, args.m_min, args.m_max)
            elif args.command == "twist":
                if args.M < 1:
                    parser.error("M must be a positive integer")
                _ensure_base_value(ctx, config)
                lines, code = cmd_twist(config, ctx, args.M)
            else:
                # the scenarios' code is loaded by this command alone
                from .verify import parse_scenarios
                checks = parse_scenarios(ctx.curve, args.scenarios)
                lines, code = cmd_verify(config, ctx, checks)
        _emit(config, lines)
        return code
    except SystemExit as exc:         # argparse uses 2 for usage errors
        return int(exc.code or 0)
    except ValueError as exc:         # every cmtwist error is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
