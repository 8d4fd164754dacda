"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs a scan over M <= 60 for both curves, one `twist` report and
`verify lemma-div` through the benchmark's own code, untraced and traced.
It checks that every metric named in BENCHMARK.json is emitted with its
unit, that every gate passes on the real outputs and fails on a corrupted
one, and that the benchmark refuses to run without the program's sources.
Exits 0 when every check holds; takes about half a minute.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import run
import workloads
from workloads import Outcome

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def expect_metrics(result: dict, specs: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{what}: metrics and units match BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
          f"{what}: every metric value is a number")


def corrupted(outcomes: list[Outcome], old: str, new: str) -> list[Outcome]:
    """The outcomes with the first line holding `old` changed in every run."""
    target = next(ln for o in outcomes for ln in o.lines if old in ln)
    return [Outcome(o.op, o.threads, o.seconds, o.code,
                    [ln.replace(old, new) if ln == target else ln for ln in o.lines],
                    o.error) for o in outcomes]


def gate_rejects(wl, outcomes, cli, old: str, new: str) -> bool:
    return bool(wl.gate(corrupted(outcomes, old, new),
                        lambda argv: run.run_cli(cli, argv)))


def outcomes_of(cli, wl) -> list[Outcome]:
    return [run.run_op(cli, op, t) for op, t in next(wl.passes(random.Random(0)))]


def deep_gate() -> None:
    """The deep gate on hand-written outputs (a real window takes seconds)."""
    wl = workloads.deep(random.Random(0))
    op = wl.ops[0]
    below, above = workloads.DEEP_UNDER_CAP, workloads.DEEP_OVER_CAP
    header = "M,epsilon,L_value,L_alg_num,L_alg_den,ord2,r_M,bound_rhs,bound_ok,tamagawa,sha_ord2"
    rows = [f"{M},+1,0.1,2,1,1,2,1,1,{M}:2,0" for M in below]
    flags = [f"# M={M} flagged: precision unattainable at this scale: 1000120 terms needed"
             for M in above]
    good = Outcome(op, 1, 1.0, 1, [header, *rows, *flags, "# rows=2"])
    check(not wl.gate([good], None), "deep gate passes the expected window")
    check(wl.gate([Outcome(op, 1, 1.0, 1, [header, *rows, *flags[1:], "# rows=2"])], None) != [],
          "deep gate rejects an above-cap M that is neither computed nor flagged")
    check(wl.gate([Outcome(op, 1, 1.0, 1, [header, rows[0], *flags, "# rows=1"])], None) != [],
          "deep gate rejects a missing row under the cap")
    lifted = [f"{M},+1,0.1,2,1,1,2,1,1,{M}:2,0" for M in above]
    check(not wl.gate([Outcome(op, 1, 1.0, 1, [header, *rows, *lifted])], None),
          "deep gate accepts above-cap rows once computed")


def bare_checkout() -> None:
    """Without src/ the benchmark must exit non-zero and print no result."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.HERE):
        if name.endswith(".py") or name.endswith(".md"):
            shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"bare checkout: exit {proc.returncode}, no result printed")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    cli, _, _ = run.setup("scan", 1, False)

    tiny = [workloads.scan(run.ROOT, m_max=60),
            workloads.report(pool=(("49a", 15, (29,)),)),
            workloads.identity(scenarios=(("49a", "lemma-div"),))]
    for wl in tiny:
        result, _ = run.measure(cli, wl, wl.passes(random.Random(1)), False, 0,
                                lambda: run.probe_setup("scan", 1, 0))
        check(result["correct"] and result["failed"] == 0, f"{wl.name}: gates pass")
        expect_metrics(result, spec["end_to_end"], f"{wl.name} untraced")
    result, _ = run.measure(cli, tiny[0], tiny[0].passes(random.Random(1), threads=(1,)),
                            True, 0, None)
    check(result["correct"], "scan traced: gates pass")
    expect_metrics(result, spec["per_layer"], "scan traced")

    scan, report, identity = tiny
    check(gate_rejects(scan, outcomes_of(cli, scan), cli, ",29:2,", ",29:1,"),
          "scan gate rejects a wrong Tamagawa factor")
    check(gate_rejects(report, outcomes_of(cli, report), cli, "29,+1,", "29,-1,"),
          "report gate rejects a report that disagrees with the scan")
    check(gate_rejects(identity, outcomes_of(cli, identity), cli, "PASS", "FAIL"),
          "identity gate rejects a FAIL line")
    deep_gate()
    bare_checkout()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
