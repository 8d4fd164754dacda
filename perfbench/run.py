"""Benchmark of the cmtwist command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads: scan, deep, report, identity (see perfbench/README.md).  Every
operation is a `cmtwist` command line run in-process through
`cmtwist.cli.main(argv)` by one client in a closed loop.  With `--trace 0`
the run prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced 1-worker passes and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Each run also writes its environment,
per-operation timings and (traced runs) spans under perfbench/out/.

The program is imported from src/ of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""

import os
import sys
import time
from array import array
from math import isqrt

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
PROBE = "--setup-probe"     # run.py --setup-probe WORKLOAD SEED TRACE


class SetupError(Exception):
    pass


def setup(name: str, seed: int, trace: bool):
    """Import cmtwist, resolve the curves and generate the seeded inputs.

    Returns (cli module, workload, passes).  This is the part the set-up
    probes time, so it imports nothing the program does not need first.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cmtwist", "cli.py")):
        raise SetupError(f"no cmtwist sources under {src}")
    sys.path.insert(0, src)
    import cmtwist.cli as cli
    from cmtwist.registry import resolve_curve

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SetupError(f"imported {cli.__file__}, not the checkout's sources")
    import random

    import workloads

    for label in workloads.CURVES:
        resolve_curve(label)
    rng = random.Random(seed)
    wl = workloads.build(name, ROOT, rng)
    return cli, wl, wl.passes(rng, threads=(1,) if trace else (1, 2))


def probe_setup(workload: str, seed: int, trace: int) -> float:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    import json
    import statistics
    import subprocess

    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), PROBE, workload,
             str(seed), str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


# ------------------------------------------------------------ running

# On the reference machine (2 vCPUs of a Xeon shared with other tenants)
# the speed of the interpreter drifts by up to 1.7x over seconds to
# minutes, and the VM shows no steal time and no hardware counters.  Every operation is therefore bracketed by a fixed kernel of the
# kind the program runs (a smallest-prime-factor sieve and a multiplicative
# fill over array('l')/array('i'), as in coeffs), and each time is reported
# in reference seconds: the measured time times PROBE_REF_S over the mean of
# the probes just before and after it.  The host keeps a speed for seconds
# at a time, and the probe reads the same after sleeping, after pure-Python
# work and after a 10^6-term table.  The kernel is frozen here, so a change
# to the program cannot move it.
PROBE_N = 10000
PROBE_REF_S = 0.003


def _probe_once() -> float:
    t0 = time.perf_counter()
    n = PROBE_N
    spf = array("l", range(n + 1))
    for i in range(2, isqrt(n) + 1):
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
    omega = array("i", bytes(4 * (n + 1)))
    for k in range(2, n + 1):
        omega[k] = omega[k // spf[k]] + 1
    return time.perf_counter() - t0


def speed_probe() -> float:
    """Median seconds of five runs of the probe kernel."""
    return sorted(_probe_once() for _ in range(5))[2]


def run_pass(cli, items, tracer=None, first_id: int = 0):
    """Run one pass of (op, threads) items; each outcome gets its probe."""
    outcomes = []
    before = speed_probe()
    for i, (op, threads) in enumerate(items):
        outcome = run_op(cli, op, threads, tracer, first_id + i)
        after = speed_probe()
        outcome.probe = (before + after) / 2
        before = after
        outcomes.append(outcome)
    return outcomes


def ref_seconds(outcome) -> float:
    return outcome.seconds * PROBE_REF_S / outcome.probe


def run_op(cli, op, threads: int, tracer=None, op_id: int = -1):
    """Run one command line in-process; time it; capture what it printed."""
    import gc
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from workloads import Outcome

    argv = [*op.argv, "--threads", str(threads)]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    code, error = None, None
    rec = None
    if tracer is not None:
        tracer.op = op_id
        rec = tracer.open("op")
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:       # the closed loop goes on; the gate reports it
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if rec is not None:
        tracer.close(rec)
    if error is None and code != op.expect_code and err.getvalue():
        error = err.getvalue().strip()
    return Outcome(op, threads, seconds, code, out.getvalue().splitlines(), error)


def run_cli(cli, argv: list[str]) -> tuple[int, list[str]]:
    """Run a command line for a gate; not timed."""
    import io
    from contextlib import redirect_stdout

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any worker it
    waited for (ru_maxrss is in KiB on Linux)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def end_to_end(outcomes, rss_mb: float, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced run.

    They are taken from a median pass: every (op, workers) item at its
    median time over the run's passes, so they do not depend on how many
    passes fit in the run.  parallel_eff divides raw times: an op's 1-worker
    and 2-worker runs are back to back, and the single-threaded probe does
    not see what slows two busy workers.
    """
    import statistics
    from collections import defaultdict

    by_item = defaultdict(list)
    for o in outcomes:
        by_item[o.op, o.threads].append(o)
    ref, raw = {1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}
    rows2 = 0.0
    lats = []
    for (op, threads), runs in by_item.items():
        lat = statistics.median(ref_seconds(o) for o in runs)
        lats.append(lat)
        ref[threads] += lat
        raw[threads] += statistics.median(o.seconds for o in runs)
        if threads == 2:
            rows2 += statistics.median(o.counts()[0] for o in runs)
    lats.sort()
    done = sum(o.counts()[0] for o in outcomes)
    tried = sum(o.counts()[1] for o in outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (ref[1] + ref[2], "s"),
        "rows_per_s": (rows2 / ref[2], "rows/s"),
        "parallel_eff": (raw[1] / (2 * raw[2]), "ratio"),
        "op_p50_s": (statistics.median(lats), "s"),
        # the highest percentile with at least 10 ops beyond it, or the
        # median when no percentile above the median has
        "op_tail_s": (lats[-11] if len(lats) > 20 else statistics.median(lats), "s"),
        "ok_share": (done / tried if tried else 0.0, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with open(os.path.join(git, *ref.split("/")), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import importlib.util
    import platform

    import mpmath

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "commit": git_commit(),
        "seed": seed,
    }


def parse_args(argv):
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed(passes, seconds: float, minimum: int):
    """The passes to run: at least `minimum`, then more while the next one is
    expected to end within `seconds` of the start."""
    import statistics

    start, took = time.perf_counter(), []
    for items in passes:
        t0 = time.perf_counter()
        yield items
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(took) >= minimum and elapsed + statistics.median(took) > seconds:
            return


def measure(cli, wl, passes, trace: bool, seconds: float, setup_s,
            spans_path: str | None = None):
    """Run timed passes, gate the outputs and compute the metrics.

    setup_s is called, after the passes, for the set-up time.  Returns
    (result for the final line, details for the out file).
    """
    import statistics

    outcomes_by_pass = []
    tracer = None
    if not trace:
        for items in timed(passes, seconds, minimum=2):
            outcomes_by_pass.append(run_pass(cli, items))
        rss = peak_rss_mb()
    else:
        import tracing

        tracer = tracing.Tracer()
        plain_walls, traced_walls, per_pass = [], [], []
        op_id = 0
        for items in timed(passes, seconds, minimum=1):
            plain = run_pass(cli, items)
            tracer.install()
            first, before = len(tracer.spans), dict(tracer.counts)
            try:
                traced = run_pass(cli, items, tracer, op_id)
            finally:
                tracer.uninstall()
            op_id += len(items)
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            layers = tracing.layer_metrics(tracing.aggregate(tracer.spans, first), counts)
            # per-layer times in reference seconds, like the end-to-end ones
            scale = PROBE_REF_S / statistics.median(o.probe for o in traced)
            per_pass.append({name: (value * scale if unit == "s" else
                                    value / scale if unit.endswith("/s") else value, unit)
                             for name, (value, unit) in layers.items()})
            plain_walls.append(sum(ref_seconds(o) for o in plain))
            traced_walls.append(sum(ref_seconds(o) for o in traced))
            outcomes_by_pass += [plain, traced]

    every = [o for outcomes in outcomes_by_pass for o in outcomes]
    try:
        problems = wl.gate(every, lambda argv: run_cli(cli, argv))
    except Exception as exc:     # malformed output must read as incorrect
        problems = [f"gate raised {type(exc).__name__}: {exc}"]
    failed = sum(1 for o in every if not o.ok)
    if trace:
        metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        metrics["trace_overhead"] = (statistics.median(traced_walls)
                                     / statistics.median(plain_walls), "ratio")
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = end_to_end(every, rss, setup_s())
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": wl.name, "passes": len(outcomes_by_pass) // (2 if trace else 1),
        "problems": problems, "missing_trace_targets": tracer.missing if tracer else [],
        # traced runs alternate passes: even untraced, odd traced
        "operations": [{"pass": i, "argv": list(o.op.argv), "threads": o.threads,
                        "seconds": o.seconds, "probe": o.probe, "code": o.code,
                        "error": o.error}
                       for i, outcomes in enumerate(outcomes_by_pass) for o in outcomes],
        "result": result,
    }
    return result, details


def print_result(result: dict, details: dict) -> None:
    import json

    print("env: " + json.dumps(details["environment"]))
    print(f"workload {details['workload']}: {details['passes']} "
          f"{'pass pairs' if details['trace'] else 'passes'}, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for problem in details["problems"]:
        print(f"GATE FAILED: {problem}")
    for target in details["missing_trace_targets"]:
        print(f"trace target missing: {target}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "ok_share" in result["metrics"]:
        # fail_share is 0 on most workloads, so the JSON carries ok_share
        print(f"  fail_share = {1 - result['metrics']['ok_share']['value']:.6g} ratio")
    print(json.dumps(result))


def main(argv: list[str]) -> int:
    if argv[:1] == [PROBE]:
        # parsed by hand: argparse is part of what the program imports
        name, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
        probe = speed_probe()
        t0 = time.perf_counter()
        try:
            setup(name, seed, trace)
        except (SetupError, ImportError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        elapsed = time.perf_counter() - t0
        print('{"setup_s": %r}' % (elapsed * PROBE_REF_S / probe))
        return 0

    import json

    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    try:
        cli, wl, passes = setup(args.workload, args.seed, bool(args.trace))
        result, details = measure(
            cli, wl, passes, bool(args.trace), args.seconds,
            lambda: probe_setup(args.workload, args.seed, args.trace),
            spans_path=stem + "-spans.jsonl")
    except (SetupError, ImportError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    details.update(seconds=args.seconds, trace=args.trace,
                   environment=environment(args.seed))
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print_result(result, details)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
