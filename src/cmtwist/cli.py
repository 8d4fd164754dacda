"""Command-line front end: twist tables, single-twist reports, identity
verification, and special-prime listings.  This module parses the command
line and prints; census computes the table's rows and verify the scenarios.

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
from typing import NamedTuple

from . import bsd, census
from .bsd import BSDReport
from .coeffs import CurveContext
from .lseries import algebraic_part
from .qfield import ALLOWED_Q, special_split_primes
from .registry import Curve, resolve_curve

ENV_PREFIX = "CMTWIST_"
USAGE_ERROR = 2
CHECK_FAILED = 1
MAX_SPECIAL_LIMIT = 10 ** 6    # largest limit of special-primes


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
                        f"{census.FORK_AT['symbols']:,} |D| on the modular symbols "
                        f"or {census.FORK_AT['series']:,} series terms, and never "
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

def cmd_table(config: RunConfig, ctx: CurveContext, m_min: int, m_max: int) -> tuple[list[str], int]:
    # the census computes the rows; M = 1, the curve itself, is never one
    results = census.table_results(ctx, max(m_min, 2), m_max, config.precision,
                                   config.threads)
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
        ctx, spec.epsilon * M, census.table_digits(config.precision)))
    if config.fmt == "csv":
        lines = [",".join(bsd.CSV_HEADER), ",".join(bsd.csv_row(curve, rep))]
    else:
        lines = _twist_text(curve, rep)
    ok = rep.bound_holds and not rep.indeterminate
    return lines, 0 if ok else CHECK_FAILED


# -------------------------------------------------------------- verify

def cmd_verify(config: RunConfig, ctx: CurveContext, checks: list[tuple]) -> tuple[list[str], int]:
    """Run the (run, parsed argument) checks of verify.parse_scenarios, in
    order, at the working precision: one PASS or FAIL line each."""
    lines = []
    all_ok = True
    for run, parsed in checks:
        msg, ok = run(config.precision, ctx, parsed)
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
                census.ensure_base_value(ctx, config.precision)
                lines, code = cmd_table(config, ctx, args.m_min, args.m_max)
            elif args.command == "twist":
                if args.M < 1:
                    parser.error("M must be a positive integer")
                census.ensure_base_value(ctx, config.precision)
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
