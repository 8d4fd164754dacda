"""The census of twists behind `cmtwist table`: which M are admissible,
which rows fit under the 10^6-term cap, and how the rows are computed.

One pipeline turns a range of M into the table's results: the admissible
sieve, the row plan at the MAX_TABLE cap, the route (the modular symbols
for 49a and 121b, the series for user curves), the fork gate and the row
map, and each row judged by bsd.  table_results runs it; cli.cmd_table
formats what it returns.  verify reads the sieve, the digit rule and the
base value from here too: no module imports cli.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import compress
from math import isqrt

from . import bsd
from .coeffs import CurveContext
from .lseries import LSeriesError, algebraic_part, series_terms
from .qfield import factor_int, primes_below, split_type
from .registry import Curve, RegistryError

# A table forks its row workers only when its computed rows, those under
# the MAX_TABLE cap (table_rows), sum to FORK_AT units of their route:
# - symbols (49a, 121b), in summed |D|: about 3x the 67,576 |D| of
#   `table 1 1000 --curve 49a`, so tables of that size, which a fork slows
#   down, keep running in one process;
# - series (user curves), in summed terms: the 931,571-term break-even on
#   which every recorded sweep agreed, rounded down.
# The sweeps behind both, on a 2-vCPU Xeon under Python 3.11, are recorded
# in CHANGES.md.
FORK_AT = {"symbols": 205_000, "series": 900_000}


def table_digits(precision: int) -> int:
    # three guard digits over the 10 printed, more if asked for
    return max(12, precision - 3)


def admissible_specs(curve: Curve, m_min: int, m_max: int) -> list[bsd.TwistSpec]:
    """The TwistSpecs of the admissible M with m_min <= M <= m_max,
    ascending; M = 1 is among them when it is admissible.

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
    need = bsd.admissible_class_mod4(curve)
    start = m_min + (need - m_min) % 4
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
    for p in primes_below(max(m_max - m_min + 1, isqrt(m_max)) + 1)[1:]:
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


def table_rows(curve: Curve, specs: list[bsd.TwistSpec], digits: int,
               symbols: bool) -> tuple[list[bsd.TwistSpec], list[tuple], int, int]:
    """Split the rows of specs at the MAX_TABLE cap in one pass, which
    takes each row's series cutoff once: (computed, refused, work, n_max).

    computed lists the specs under the cap, in order.  refused holds
    (M, None, message) for each spec above it, in order and in the shape
    of a table_job failure; the series' cap refuses symbol rows too, and
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


def table_job(ctx: CurveContext, digits: int, route, spec: bsd.TwistSpec):
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


def table_results(ctx: CurveContext, m_min: int, m_max: int, precision: int,
                  threads: int) -> list[tuple]:
    """The table_job results (M, row, flag) of every admissible M with
    m_min <= M <= m_max, in M order.

    The rows above the MAX_TABLE cap are flagged here; only the computed
    ones reach the row map.  One process unless they sum to FORK_AT units
    of their route; at or above it, no more workers than threads, rows or
    usable CPUs."""
    from . import modsym
    curve = ctx.curve
    digits = table_digits(precision)
    # the point counts, checked before any prime's facts are derived (their
    # trace parity is read off E0's character) and before the workers fork
    ctx.check_character()
    specs = admissible_specs(curve, m_min, m_max)
    symbols = modsym.supports(curve)
    computed, refused, work, n_max = table_rows(curve, specs, digits, symbols)
    workers = 1
    if work >= FORK_AT["symbols" if symbols else "series"]:
        workers = min(threads, len(computed), usable_cpus())
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
    return fork_map(partial(table_job, ctx, digits, route), computed,
                    workers) + refused


def usable_cpus() -> int:
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


def fork_map(fn, items, workers: int) -> list:
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
    """Run a fork_map child's share and end the process: a child never
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


def ensure_base_value(ctx: CurveContext, precision: int) -> None:
    """Fill in L^(alg)(E, 1) for user curves that do not record it.

    The valuation bound needs phi(E), which depends on the base algebraic
    value; builtin curves carry it, user curves get it computed once here.
    The context keeps its nonzero view: it does not depend on the base value.
    """
    curve = ctx.curve
    if curve.lalg_base is not None:
        return
    res = algebraic_part(ctx, 1, target_digits=table_digits(precision))
    if res.lalg is None:
        raise RegistryError(
            f"could not recognize the base L-value of {curve.label} "
            f"(residual {res.lalg_residual:.2e}); check omega"
        )
    ctx.curve = curve._replace(lalg_base=res.lalg)
