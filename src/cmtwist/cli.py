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
from dataclasses import dataclass, replace
from itertools import takewhile

import mpmath as mp

from . import bsd
from .bsd import BSDError, BSDReport, NotApplicable
from .coeffs import (MAX_TABLE, CoeffError, CurveContext, check_point_counts,
                     good_odd_primes)
from .lseries import (LSeriesError, algebraic_part, recognize_rational,
                      series_cutoff, series_terms)
from .qfield import (
    ALLOWED_Q,
    QFieldError,
    QuadInt,
    cornacchia_split,
    is_prime,
    is_special_split,
    normalize_mod4,
    special_split_primes,
    split_type,
    torsion_modulus,
)
from .registry import Curve, RegistryError, resolve_curve

ENV_PREFIX = "CMTWIST_"
USAGE_ERROR = 2
CHECK_FAILED = 1
CHARACTER_BOUND = 200   # verify character checks every odd good prime below
MAX_TORSION_NORM = 10 ** 5   # largest N(g) of an averaging or e1-ladder modulus
MAX_TAMAGAWA_LIMIT = 10 ** 6   # largest limit of verify tamagawa-cross
MAX_SPECIAL_LIMIT = 10 ** 6    # largest limit of special-primes
MAX_MODSYM_M = 5000            # largest m_max of verify modsym


@dataclass(frozen=True)
class RunConfig:
    curve_label: str
    curve_file: str | None
    precision: int
    threads: int
    fmt: str            # "csv" | "text"
    output: str | None  # path, or None for stdout


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(ENV_PREFIX + name, fallback)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--curve", default=_env("CURVE", "49a"),
                        help="curve label (default 49a; env CMTWIST_CURVE)")
    common.add_argument("--curve-file", default=_env("CURVE_FILE"),
                        help="file of curve records: label a1 a2 a3 a4 a6 q w [omega]")
    # string defaults from the environment go through type= like flags do
    common.add_argument("--precision", type=int, default=_env("PRECISION", "15"),
                        help="working decimal digits, >= 15 (default 15)")
    common.add_argument("--threads", type=int, default=_env("THREADS", "1"),
                        help="worker processes for table scans (default 1)")
    common.add_argument("--format", dest="fmt", choices=("csv", "text"),
                        default=_env("FORMAT", "text"),
                        help="output format (default text)")
    common.add_argument("--output", default=_env("OUTPUT"),
                        help="output path (default: standard output)")

    ap = argparse.ArgumentParser(
        prog="cmtwist",
        description="Central L-values of quadratic twists of CM curves "
                    "with 2-adic bound and Tamagawa-factor checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common],
                       help="rows for all admissible twists in a range")
    p.add_argument("m_min", nargs="?", type=int, default=1)
    p.add_argument("m_max", nargs="?", type=int, default=1000)

    p = sub.add_parser("twist", parents=[common],
                       help="full report for a single twisting integer")
    p.add_argument("M", type=int)

    p = sub.add_parser("verify", parents=[common],
                       help="identity checks: eisenstein-base, "
                            "averaging:<pi,...>, e1-ladder[:<pi,...>], "
                            "lemma-div[:<n>], character, "
                            "tamagawa-cross[:<limit>], modsym[:<m_max>]")
    p.add_argument("scenarios", nargs="+", metavar="SCENARIO")

    p = sub.add_parser("special-primes", parents=[common],
                       help="ascending special split primes p <= limit")
    p.add_argument("q", type=int)
    p.add_argument("limit", type=int)

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


def _table_job(ctx: CurveContext, digits: int, algebraic, M: int):
    """(M, row, failure message), row = (CSV cells, ord2 slack, bound
    holds) or None for no row: only what the table prints crosses back
    from a worker."""
    try:
        rep = bsd.theorem18_check(ctx, M, target_digits=digits, algebraic=algebraic)
    except NotApplicable:
        return M, None, None
    except (BSDError, LSeriesError, CoeffError, ValueError) as exc:
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


def _admissible_twists(curve: Curve, m_min: int, m_max: int) -> list[int]:
    """The admissible M with max(m_min, 2) <= M <= m_max, ascending.

    An M outside the root number's class mod 4 is never admissible, so
    only that class goes to classify_twist, which factors each M.
    """
    first, need = max(m_min, 2), bsd.admissible_class_mod4(curve)
    candidates = []
    for M in range(first + (need - first) % 4, m_max + 1, 4):
        try:
            if bsd.classify_twist(curve, M).admissible:
                candidates.append(M)
        except BSDError:
            continue            # square factor: never admissible
    return candidates


def cmd_table(config: RunConfig, ctx: CurveContext, m_min: int, m_max: int) -> tuple[list[str], int]:
    from . import modsym
    curve = ctx.curve
    digits = _table_digits(config.precision)
    candidates = _admissible_twists(curve, m_min, m_max)
    # no more workers than rows or usable CPUs
    workers = min(config.threads, len(candidates), _usable_cpus())
    algebraic = None                        # the series
    if candidates and modsym.supports(curve):
        # exact L^alg from the modular symbols, built before the row workers
        # fork.  A row whose series would need more than MAX_TABLE terms is
        # still refused as the series refuses it, since the deep workload
        # of perfbench expects those rows flagged (exit code 1)
        ctx.check_character()
        symbols = modsym.TwistSums(curve)

        def algebraic(ctx, d, target_digits):
            series_terms(curve, d, target_digits)
            return symbols.algebraic_part(ctx, d, target_digits)
    elif candidates:
        # one nonzero view of E0's a_n for the whole scan, up to the cutoff
        # of the largest twist, built before the row workers fork: they
        # share it and build none of their own.  A pooled scan whose view
        # lacks two or more windows builds them side by side first, after
        # the parent has checked the character
        n_max = min(series_cutoff(curve, candidates[-1], digits), MAX_TABLE)
        view_workers = min(workers, ctx.missing_windows(n_max))
        if view_workers < 2:
            ctx.nonzero(n_max)
        else:
            ctx.check_character()
            ctx.nonzero(n_max, map=lambda fn, *args: _fork_map(
                lambda window: fn(*window), list(zip(*args)), view_workers))
    # the longest row last: it is dealt first, so no worker is left with
    # a big twist at the end
    results = _fork_map(lambda M: _table_job(ctx, digits, algebraic, M),
                        candidates, workers)

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
    spec = bsd.classify_twist(curve, M)   # BSDError (e.g. square factor) -> usage
    if not spec.admissible:
        lines = [f"curve {curve.label}: twist M={M} is not admissible:"]
        lines += [f"  - {r}" for r in spec.reasons]
        return lines, 0
    rep = bsd.theorem18_check(ctx, M, target_digits=_table_digits(config.precision))
    if config.fmt == "csv":
        lines = [",".join(bsd.CSV_HEADER), ",".join(bsd.csv_row(curve, rep))]
    else:
        lines = _twist_text(curve, rep)
    ok = rep.bound_holds and not rep.indeterminate
    return lines, 0 if ok else CHECK_FAILED


# -------------------------------------------------------------- verify

def _parse_pi_entry(entry: str, q: int) -> QuadInt:
    """One twisting-prime entry: 'a+b*t' literally, or a rational prime
    (auto-split when split, sign-normalized to 1 mod 4)."""
    text = entry.strip().replace(" ", "")
    if text.endswith("*t"):
        body = text[:-2]
        cut = max(body.rfind("+", 1), body.rfind("-", 1))
        if cut < 1:
            raise ValueError(f"cannot parse {entry!r} as a+b*t")
        try:
            a, b = int(body[:cut]), int(body[cut:])
        except ValueError:
            raise ValueError(f"cannot parse {entry!r} as a+b*t") from None
        return QuadInt(q, a, b)
    try:
        p = int(text)
    except ValueError:
        raise ValueError(
            f"cannot parse {entry!r}: expected a rational prime or an "
            f"'a+b*t' literal (e.g. -3 or 1-4*t)"
        ) from None
    if not is_prime(abs(p)):
        raise ValueError(
            f"{p} is not a rational prime: give any other element as an "
            f"'a+b*t' literal (e.g. 9+0*t or 1-4*t)")
    kind = split_type(q, abs(p))
    if kind == "ramified":
        raise ValueError(f"{p} ramifies in Q(sqrt(-{q}))")
    if kind == "split":
        if not is_special_split(q, abs(p)):
            raise ValueError(
                f"{abs(p)} is a split prime of Q(sqrt(-{q})) that is not "
                f"special: no generator of a prime above it is congruent "
                f"to 1 mod 4")
        return normalize_mod4(cornacchia_split(q, abs(p)))
    return QuadInt(q, p if p % 4 == 1 else -p, 0)


def _int_arg(name: str, arg: str, default: int, low: int, high: int | None = None) -> int:
    try:
        n = int(arg) if arg else default
    except ValueError:
        raise ValueError(f"{name} needs an integer argument, got {arg!r}") from None
    if n < low or (high is not None and n > high):
        at_most = "" if high is None else f" and at most {high}"
        raise ValueError(f"{name} needs an integer above {low - 1}{at_most}, got {n}")
    return n


def _pi_list(curve: Curve, name: str, arg: str) -> tuple[list[str], list[QuadInt]]:
    """The entries and elements pi_i of a torsion modulus
    g = sqrt(-q) * prod(pi_i), refused when N(g) is zero or even, or above
    MAX_TORSION_NORM: the sums over g walk its whole residue ring."""
    entries = arg.split(",") if arg else []
    try:
        elements = [_parse_pi_entry(e, curve.q) for e in entries]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    norm = torsion_modulus(curve.q, elements).norm()
    if norm % 2 == 0:
        raise ValueError(f"{name}: the modulus has norm N(g) = {norm}; it "
                         f"must be odd")
    if norm > MAX_TORSION_NORM:
        raise ValueError(f"{name}: the modulus has norm N(g) = {norm}, above "
                         f"the bound {MAX_TORSION_NORM}")
    return entries, elements


def _twisting_pi_list(curve: Curve, name: str, arg: str) -> tuple[list[str], list[QuadInt]]:
    """A nonempty _pi_list of twisting elements, as averaging_check takes them."""
    from .eisenstein import _validate_pis
    if not arg:
        raise ValueError(f"{name} needs a pi list, e.g. {name}:-3")
    entries, elements = _pi_list(curve, name, arg)
    try:
        _validate_pis(curve.q, elements)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return entries, elements


def _lemma_div_n(curve: Curve, name: str, arg: str) -> int:
    from .eisenstein import LEMMA_DIV_MAX_N
    return _int_arg(name, arg, 10, 1, LEMMA_DIV_MAX_N)


def _eis_context(config: RunConfig, curve: Curve):
    from . import eisenstein as eis
    return eis.make_context(curve, precision=max(config.precision, 30))


def _eisenstein_base(config: RunConfig, ctx: CurveContext, _) -> tuple[str, bool]:
    from . import eisenstein as eis
    ctx.check_character()
    _ensure_base_value(ctx, config)
    curve = ctx.curve
    eis_ctx = _eis_context(config, curve)
    val = eis.prop2_sum(eis_ctx, torsion_modulus(curve.q, []))
    with mp.workdps(eis_ctx.dps):
        amp, _phase = eis.phase_split(val)
        target, residual = recognize_rational(amp, 64)
    ok = residual < eis_ctx.pass_tol and target == curve.lalg_base
    return (f"eisenstein-base[{curve.label}]: |sum| = {float(amp):.12g}, "
            f"recognized {target}, residual {residual:.3g}", ok)


def _averaging(config: RunConfig, ctx: CurveContext,
               pis: tuple[list[str], list[QuadInt]]) -> tuple[str, bool]:
    from . import eisenstein as eis
    entries, elements = pis
    ctx.check_character()
    eis_ctx = _eis_context(config, ctx.curve)
    rep = eis.averaging_check(eis_ctx, elements)
    ord2 = "n/a" if rep.ord2 is None else str(rep.ord2)
    msg = (f"averaging[{rep.label}: {','.join(entries)}]: "
           f"{len(rep.terms)} terms recognized to "
           f"{float(rep.recognition_residual):.3g}, "
           f"ord2 = {ord2} (need >= {rep.bound})")
    if rep.note:
        msg += f" [{rep.note}]"
    return msg, rep.ok


def _e1_ladder(config: RunConfig, ctx: CurveContext,
               pis: tuple[list[str], list[QuadInt]]) -> tuple[str, bool]:
    from . import eisenstein as eis
    curve = ctx.curve
    entries, elements = pis
    eis_ctx = _eis_context(config, curve)
    count, worst = eis.ladder_discrepancy(eis_ctx, torsion_modulus(curve.q, elements))
    ok = worst < eis_ctx.pass_tol
    where = "*".join([f"sqrt(-{curve.q})"] + [f"({e})" for e in entries])
    return (f"e1-ladder[{curve.label}: {where}]: {count} representatives, "
            f"worst |direct - ladder| = {mp.nstr(worst, 3)}", ok)


def _lemma_div(config: RunConfig, ctx: CurveContext, n: int) -> tuple[str, bool]:
    from . import eisenstein as eis
    ok = eis.lemma_div_bruteforce(n)
    return f"lemma-div[n={n}]: {2 ** n} sign vectors checked", ok


def _character(config: RunConfig, ctx: CurveContext, _) -> tuple[str, bool]:
    curve = ctx.curve
    primes = takewhile(lambda p: p < CHARACTER_BOUND, good_odd_primes(curve))
    try:
        n = check_point_counts(curve, primes)
    except CoeffError as exc:
        return f"character[{curve.label}]: {exc}", False
    return (f"character[{curve.label}]: a_p at {n} odd good primes "
            f"p < {CHARACTER_BOUND} match chi = (./{curve.q}) mod "
            f"sqrt(-{curve.q}), d0 = {curve.base_twist}", True)


def _tamagawa_cross(config: RunConfig, ctx: CurveContext, limit: int) -> tuple[str, bool]:
    curve = ctx.curve
    counts: dict[str, int] = {}
    try:
        for p in takewhile(lambda p: p < limit, good_odd_primes(curve)):
            _, rule = bsd._tamagawa_ord2_at_prime(curve, p)   # a sieved prime
            counts[rule] = counts.get(rule, 0) + 1
    except BSDError as exc:
        return f"tamagawa-cross[{curve.label}]: {exc}", False
    total = sum(counts.values())
    detail = " ".join(f"{k}:{counts[k]}" for k in sorted(counts))
    return (f"tamagawa-cross[{curve.label}]: {total} primes < {limit} "
            f"agree ({detail})", True)


def _modsym_m_max(curve: Curve, name: str, arg: str) -> int:
    from . import modsym
    if not modsym.supports(curve):
        raise ValueError(f"{name} needs one of the builtin curves "
                         f"{', '.join(modsym.TWIST_SCALE)}, not {curve.label}")
    return _int_arg(name, arg, 1000, 1, MAX_MODSYM_M)


def _modsym(config: RunConfig, ctx: CurveContext, m_max: int) -> tuple[str, bool]:
    """S(D)/c from the modular symbols against the series' L^alg, at every
    admissible M <= m_max (M = 1 included when admissible)."""
    from . import modsym
    curve = ctx.curve
    digits = _table_digits(config.precision)
    twists = [1] * bsd.classify_twist(curve, 1).admissible + \
        _admissible_twists(curve, 1, m_max)
    symbols = modsym.TwistSums(curve)
    nonzero = 0
    for M in twists:
        d = M if M % 4 == 1 else -M
        got, want = symbols.lalg(d), algebraic_part(ctx, d, digits).lalg
        if got != want:
            return (f"modsym[{curve.label}]: M={M}: S(D)/c = {got}, the series "
                    f"gives {want}"), False
        nonzero += got != 0
    return (f"modsym[{curve.label}]: S(D)/c = L^alg at all {len(twists)} "
            f"admissible M <= {m_max} ({nonzero} nonzero), "
            f"c = {symbols.scale}"), True


# name -> (parse the argument after the colon, or None; run the check)
SCENARIOS = {
    "eisenstein-base": (None, _eisenstein_base),
    "averaging": (_twisting_pi_list, _averaging),
    "e1-ladder": (_pi_list, _e1_ladder),
    "lemma-div": (_lemma_div_n, _lemma_div),
    "character": (None, _character),
    "tamagawa-cross": (lambda curve, name, arg:
                       _int_arg(name, arg, 1000, 4, MAX_TAMAGAWA_LIMIT),
                       _tamagawa_cross),
    "modsym": (_modsym_m_max, _modsym),
}
# the sums over torsion points that need E0's own period lattice
LATTICE_SCENARIOS = ("eisenstein-base", "averaging")


def parse_scenarios(curve: Curve, scenarios: list[str]) -> list[tuple]:
    """(run, parsed argument) for every scenario, or a ValueError for the
    first usage error, before any scenario runs."""
    checks = []
    for scenario in scenarios:
        name, _, arg = scenario.partition(":")
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if name in LATTICE_SCENARIOS and curve.base_twist != 1:
            raise ValueError(
                f"{name} needs the period lattice of the curve whose character "
                f"has conductor sqrt(-{curve.q}); {curve.label} is its twist by "
                f"{curve.base_twist}")
        parse, run = SCENARIOS[name]
        if parse is None and arg:
            raise ValueError(f"{name} takes no argument, got {arg!r}")
        checks.append((run, parse and parse(curve, name, arg)))
    return checks


def cmd_verify(config: RunConfig, ctx: CurveContext, checks: list[tuple]) -> tuple[list[str], int]:
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
    ctx.curve = replace(curve, lalg_base=res.lalg)


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
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
                checks = parse_scenarios(ctx.curve, args.scenarios)
                lines, code = cmd_verify(config, ctx, checks)
        _emit(config, lines)
        return code
    except SystemExit as exc:         # argparse uses 2 for usage errors
        return int(exc.code or 0)
    except (BSDError, RegistryError, QFieldError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
