"""The benchmark's workloads: seeded operation lists and output gates.

Every operation is one `cmtwist` command line, run in-process through
`cmtwist.cli.main(argv)`.  A workload is a fixed list of operations; a pass
runs each of them once with `--threads 1` and once with `--threads 2`, in an
order drawn from the seed.  The seed also places the `deep` window.  The
operation *set* of a workload does not depend on the seed, so that runs with
different seeds measure the same work and their figures can be compared.

The constants below (admissible twists, series lengths) were computed once
from the program as it stood when the benchmark was written.  They are
inputs: recomputing them from the program under test would let a change to
the program change its own benchmark.
"""

from __future__ import annotations

import importlib.util
import os
import random
from dataclasses import dataclass

CURVES = ("49a", "121b")

# Relative tolerance on the printed 10-digit |L| values, as in the acceptance
# tests that replay the pinned rows.
L_REL_TOL = 5e-9

# --------------------------------------------------------------- deep
# The largest M whose series at precision 15 (12 digits) fits under the
# program's MAX_TABLE = 10^6 terms is 22,918 for 49a.  (For 121b it is
# 14,584; a second window would halve the passes a run can make.)  Around
# the cap: the last admissible M before the window, the two admissible M
# under the cap whose rows are computed, the three above it that are flagged
# today, and the next admissible M after the window.
DEEP_CURVE = "49a"
DEEP_BEFORE, DEEP_AFTER = 22877, 22945
DEEP_UNDER_CAP = (22893, 22901)
DEEP_OVER_CAP = (22921, 22929, 22937)

# -------------------------------------------------------------- report
# Every admissible (curve, M, precision) whose series needs at most 2,300
# terms: 21 reports, from 8 ms to 0.4 s each on the reference machine.
REPORT_POOL = (
    ("49a", 15, (5, 13, 17, 29, 37, 41, 53, 57, 61)),
    ("49a", 30, (5, 13, 17, 29)),
    ("49a", 50, (5, 13, 17)),
    ("121b", 15, (7, 19)),
    ("121b", 30, (7, 19)),
    ("121b", 50, (7,)),
)

# ------------------------------------------------------------ identity
# One scenario per operation, at 50 digits.  The averaging elements have
# growing N(g): 63, 175 and 203 for 49a, 539 for 121b.  Four scenarios take
# 5-45 ms and five 0.1-3 s, so the median item falls inside one scenario
# (lemma-div) rather than on the jump between the two groups.
IDENTITY_SCENARIOS = (
    ("49a", "eisenstein-base"),
    ("49a", "averaging:-3"),
    ("49a", "averaging:5"),
    ("49a", "averaging:29"),
    ("49a", "character"),
    ("49a", "tamagawa-cross"),
    ("49a", "lemma-div"),
    ("121b", "eisenstein-base"),
    ("121b", "averaging:-7"),
)


@dataclass(frozen=True)
class Op:
    """One command line, without its --threads flag."""

    argv: tuple[str, ...]
    curve: str
    expect_code: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Outcome:
    """What one run of an operation printed and how long it took."""

    op: Op
    threads: int
    seconds: float
    code: int | None          # None when cli.main raised
    lines: list[str]
    error: str | None = None
    probe: float = 0.0        # speed-probe seconds around the operation

    @property
    def ok(self) -> bool:
        return self.error is None and self.code == self.op.expect_code

    def counts(self) -> tuple[int, int]:
        """(results produced, results attempted) for this operation.

        table: data rows, and data rows plus flagged rows; twist: one
        report, produced when it has an exact algebraic part; verify: PASS
        lines, and one per scenario.
        """
        if self.op.command == "table":
            rows = len(table_rows(self.lines))
            return rows, rows + len(flagged(self.lines))
        if self.op.command == "twist":
            rows = table_rows(self.lines)
            done = self.ok and len(rows) == 1 and rows[0].get("L_alg_num", "") != ""
            return int(done), 1
        # every verify operation here names one scenario
        return int(self.ok and any(ln.startswith("PASS") for ln in self.lines)), 1


@dataclass
class Workload:
    name: str
    ops: list[Op]
    gate: object              # callable(outcomes, run_cli) -> list[str]

    def passes(self, rng: random.Random, threads: tuple[int, ...] = (1, 2)):
        """Endless passes of (op, threads) items in seeded order.  Each op's
        worker counts run back to back, so host drift between them stays
        small."""
        while True:
            items = []
            for op in rng.sample(self.ops, len(self.ops)):
                items += [(op, t) for t in rng.sample(threads, len(threads))]
            yield items


# ------------------------------------------------------------ parsing


def table_rows(lines: list[str]) -> list[dict[str, str]]:
    """CSV data rows of a `table` or `twist --format csv` output."""
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        return []
    header = data[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in data[1:]]


def flagged(lines: list[str]) -> dict[int, str]:
    """{M: reason} for the rows a `table` run flagged."""
    out = {}
    for ln in lines:
        if ln.startswith("# M=") and " flagged: " in ln:
            head, reason = ln.split(" flagged: ", 1)
            out[int(head[len("# M="):])] = reason
    return out


def _csv(curve: str, *args: str, precision: int = 15) -> tuple[str, ...]:
    return (*args, "--curve", curve, "--precision", str(precision),
            "--format", "csv")


# --------------------------------------------------------------- scan


def load_golden(root: str) -> dict[str, list[tuple]]:
    """The pinned reference rows, read from the repository's test data."""
    path = os.path.join(root, "tests", "golden_tables.py")
    spec = importlib.util.spec_from_file_location("_bench_golden_tables", path)
    if spec is None or spec.loader is None or not os.path.isfile(path):
        raise FileNotFoundError(f"reference rows not found: {path}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {"49a": list(mod.TABLE_49A), "121b": list(mod.TABLE_121B)}


def check_golden(rows: list[dict[str, str]], golden: list[tuple]) -> list[str]:
    """Problems found comparing table rows with pinned (M, L10, lalg, ord2,
    r, {p: c_p}) rows."""
    by_m = {int(r["M"]): r for r in rows}
    problems = []
    for M, l10, lalg, ord2, r, cps in golden:
        rec = by_m.get(M)
        if rec is None:
            problems.append(f"M={M}: pinned row missing")
            continue
        got_l, want_l = float(rec["L_value"]), float(l10)
        tam = {int(p): 2 ** int(o) for p, o in
               (part.split(":") for part in rec["tamagawa"].split(";"))}
        if (abs(got_l - want_l) > L_REL_TOL * want_l
                or rec["L_alg_num"] != str(lalg) or rec["L_alg_den"] != "1"
                or rec["ord2"] != str(ord2) or rec["r_M"] != str(r)
                or tam != cps or rec["bound_ok"] != "1"):
            problems.append(f"M={M}: row {rec} differs from pinned {l10}, "
                            f"{lalg}, {ord2}, {r}, {cps}")
    return problems


def _identical_outputs(outcomes: list[Outcome]) -> list[str]:
    """Every run of one command line must print the same bytes, whatever
    its worker count."""
    seen: dict[Op, list[str]] = {}
    problems = []
    for o in outcomes:
        first = seen.setdefault(o.op, o.lines)
        if o.lines != first:
            problems.append(f"{' '.join(o.op.argv)}: output at --threads "
                            f"{o.threads} differs from an earlier run")
    return problems


def _common_checks(outcomes: list[Outcome]) -> list[str]:
    problems = []
    for o in outcomes:
        if not o.ok:
            problems.append(f"{' '.join(o.op.argv)} --threads {o.threads}: "
                            f"exit {o.code}, expected {o.op.expect_code}"
                            + (f" ({o.error})" if o.error else ""))
    return problems + _identical_outputs(outcomes)


def scan(root: str, m_max: int = 1000) -> Workload:
    """`table 1 m_max` for both curves; the pinned rows up to m_max gate it."""
    ops = [Op(_csv(c, "table", "1", str(m_max)), c) for c in CURVES]

    def gate(outcomes: list[Outcome], run_cli) -> list[str]:
        golden = load_golden(root)
        problems = _common_checks(outcomes)
        checked = set()
        for o in outcomes:
            if o.op in checked or not o.ok:
                continue
            checked.add(o.op)
            pinned = [g for g in golden[o.op.curve] if g[0] <= m_max]
            problems += [f"{o.op.curve}: {p}"
                         for p in check_golden(table_rows(o.lines), pinned)]
            if flagged(o.lines):
                problems.append(f"{o.op.curve}: rows flagged {sorted(flagged(o.lines))}")
        return problems

    return Workload("scan", ops, gate=gate)


# --------------------------------------------------------------- deep


def deep(rng: random.Random) -> Workload:
    """One `table lo hi` window of 49a that straddles the MAX_TABLE cap.

    The seed draws lo and hi among the windows holding exactly the same
    admissible M, so every seed computes two rows near 10^6 terms and meets
    three rows above the cap.
    """
    lo = rng.randint(DEEP_BEFORE + 1, DEEP_UNDER_CAP[0])
    hi = rng.randint(DEEP_OVER_CAP[-1], DEEP_AFTER - 1)
    # exit 1: the rows above the cap are flagged "precision unattainable"
    op = Op(_csv(DEEP_CURVE, "table", str(lo), str(hi)), DEEP_CURVE, expect_code=1)

    def gate(outcomes: list[Outcome], run_cli) -> list[str]:
        problems = _common_checks(outcomes)
        o = outcomes[0]
        rows = {int(r["M"]): r for r in table_rows(o.lines)}
        flags = flagged(o.lines)
        for M in DEEP_UNDER_CAP:
            if M not in rows or rows[M]["bound_ok"] != "1":
                problems.append(f"M={M} under the cap not computed")
        for M in DEEP_OVER_CAP:
            if M in rows:
                if rows[M]["bound_ok"] != "1":
                    problems.append(f"M={M} violates the bound")
            elif not flags.get(M, "").startswith("precision unattainable"):
                problems.append(f"M={M} above the cap neither computed nor "
                                f"flagged as unattainable")
        extra = (set(rows) | set(flags)) - set(DEEP_UNDER_CAP) - set(DEEP_OVER_CAP)
        if extra:
            problems.append(f"unexpected M {sorted(extra)} in window {lo}..{hi}")
        return problems

    return Workload("deep", [op], gate=gate)


# -------------------------------------------------------------- report


def report(pool=REPORT_POOL) -> Workload:
    """Single `twist M` reports; each must agree with the scan row for M."""
    ops = [Op(_csv(c, "twist", str(M), precision=prec), c)
           for c, prec, ms in pool for M in ms]

    def gate(outcomes: list[Outcome], run_cli) -> list[str]:
        problems = _common_checks(outcomes)
        reference = {}
        for c in sorted({op.curve for op in ops}):
            m_max = max(int(op.argv[1]) for op in ops if op.curve == c)
            code, lines = run_cli(list(_csv(c, "table", "1", str(m_max))))
            if code != 0:
                problems.append(f"{c}: reference scan exited {code}")
            reference[c] = {int(r["M"]): r for r in table_rows(lines)}
        checked = set()
        for o in outcomes:
            if o.op in checked or not o.ok:
                continue
            checked.add(o.op)
            rows = table_rows(o.lines)
            M = int(o.op.argv[1])
            ref = reference[o.op.curve].get(M)
            if len(rows) != 1:
                problems.append(f"{' '.join(o.op.argv)}: {len(rows)} rows")
            elif ref is None:
                # the scan skips twists whose central value vanishes
                if rows[0]["L_alg_num"] != "0":
                    problems.append(f"{' '.join(o.op.argv)}: no scan row, "
                                    f"but L_alg = {rows[0]['L_alg_num']}")
            else:
                got, want = rows[0], ref
                same = all(got[k] == want[k] for k in want if k != "L_value")
                close = abs(float(got["L_value"]) - float(want["L_value"])) \
                    <= L_REL_TOL * float(want["L_value"])
                if not (same and close):
                    problems.append(f"{' '.join(o.op.argv)}: {got} != scan {want}")
        return problems

    return Workload("report", ops, gate=gate)


# ------------------------------------------------------------ identity


def identity(scenarios=IDENTITY_SCENARIOS) -> Workload:
    """`verify` scenarios at 50 digits; every one must print PASS."""
    ops = [Op(("verify", sc, "--curve", c, "--precision", "50"), c)
           for c, sc in scenarios]

    def gate(outcomes: list[Outcome], run_cli) -> list[str]:
        problems = _common_checks(outcomes)
        for o in outcomes:
            if len(o.lines) != 1 or not o.lines[0].startswith("PASS"):
                problems.append(f"{' '.join(o.op.argv)}: {o.lines}")
        return problems

    return Workload("identity", ops, gate=gate)


NAMES = ("scan", "deep", "report", "identity")


def build(name: str, root: str, rng: random.Random) -> Workload:
    if name == "scan":
        return scan(root)
    if name == "deep":
        return deep(rng)
    if name == "report":
        return report()
    if name == "identity":
        return identity()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
