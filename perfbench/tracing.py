"""Span tracer for the benchmark's traced run.

The tracer wraps cmtwist's module-level functions from outside the package:
each wrapped call records a span (name, start, end, parent span, operation
id) in memory, and a few hooks derive counts from arguments and results
where the inner function is too hot to wrap (kronecker, ResidueRing.reduce,
_WpCache.wp_at).  A function imported by name into several modules is
patched in every one of them; `uninstall` restores the originals.  A target
that no longer exists is skipped and listed in `missing`, so its metrics
read 0 instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

SPAN, COUNT = "span", "count"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _terms(counts, args, kwargs, result):
    counts["lseries.terms"] += result[1]


def _unattainable(counts, exc):
    if "unattainable" in str(exc):
        counts["lseries.unattainable"] += 1


def _recognized(counts, args, kwargs, result):
    counts["lseries.algebraic_part.done"] += 1
    counts["lseries.recognized"] += result.lalg is not None


def _table_entries(counts, args, kwargs, result):
    counts["coeffs.build_table.entries"] += _arg(args, kwargs, 2, "n_max")


def _sieve_entries(counts, args, kwargs, result):
    counts["coeffs.spf_sieve.entries"] += _arg(args, kwargs, 0, "n")


def _legendre_evals(counts, args, kwargs, result):
    p = _arg(args, kwargs, 1, "p")
    if p > 3:       # one Kronecker symbol per residue x mod p
        counts["coeffs.legendre_evals"] += p


def _reps(counts, args, kwargs, result):
    counts["qfield.reps"] += len(result)


def _ladder(counts, args, kwargs, result):
    limit = _arg(args, kwargs, 2, "limit")
    counts["eisenstein.wp_lookups"] += limit - 1    # wp(z), then one per step
    counts["eisenstein.ladder_steps"] += limit - 2


# (module, attribute, span name, kind, on_result, on_error)
TARGETS = (
    ("cli", "cmd_table", "cli.cmd_table", SPAN, None, None),
    ("cli", "cmd_twist", "cli.cmd_twist", SPAN, None, None),
    ("cli", "cmd_verify", "cli.cmd_verify", SPAN, None, None),
    ("bsd", "classify_twist", "bsd.classify_twist", SPAN, None, None),
    ("bsd", "theorem18_check", "bsd.theorem18_check", SPAN, None, None),
    ("bsd", "tamagawa_report", "bsd.tamagawa_report", SPAN, None, None),
    ("lseries", "central_value", "lseries.central_value", SPAN, _terms, _unattainable),
    ("lseries", "algebraic_part", "lseries.algebraic_part", SPAN, _recognized, None),
    ("coeffs", "build_table", "coeffs.build_table", SPAN, _table_entries, None),
    ("coeffs", "spf_sieve", "coeffs.spf_sieve", SPAN, _sieve_entries, None),
    ("coeffs", "ap_range", "coeffs.ap_range", SPAN, None, None),
    ("coeffs", "ap_point_count", "coeffs.ap_point_count", SPAN, _legendre_evals, None),
    ("coeffs", "ap_cm_fast", "coeffs.ap_cm_fast", COUNT, None, None),
    ("registry", "omega_lattice", "registry.omega_lattice", SPAN, None, None),
    ("registry", "resolve_curve", "registry.resolve_curve", SPAN, None, None),
    ("qfield", "ResidueRing.coprime_residues_mod_units", "qfield.coprime_residues",
     SPAN, _reps, None),
    ("qfield", "chi_m_symbol", "qfield.chi_m_symbol", SPAN, None, None),
    ("qfield", "cornacchia_split", "qfield.cornacchia_split", COUNT, None, None),
    ("eisenstein", "calibrate_character", "eisenstein.calibrate_character", SPAN, None, None),
    ("eisenstein", "make_context", "eisenstein.make_context", SPAN, None, None),
    ("eisenstein", "_wp_from_st", "eisenstein.wp_series", SPAN, None, None),
    ("eisenstein", "_b_ladder_cached", "eisenstein.ladder", SPAN, _ladder, None),
    ("eisenstein", "averaging_check", "eisenstein.averaging_check", SPAN, None, None),
    ("eisenstein", "prop2_sum", "eisenstein.prop2_sum", SPAN, None, None),
)


class Tracer:
    """In-memory spans and counters for calls into the cmtwist package."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []         # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = [-1]
        self.op = -1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- spans

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1], self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name, fn, on_result, on_error):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer.counts, exc)
                raise
            finally:
                tracer.close(rec)
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- patching

    def install(self) -> None:
        # cli imports eisenstein lazily; load every target module first
        for module in sorted({t[0] for t in TARGETS}):
            try:
                importlib.import_module("cmtwist." + module)
            except ImportError:
                pass
        modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                   if name == "cmtwist" or name.startswith("cmtwist.")}
        self.missing = []
        for module, attr, name, kind, on_result, on_error in TARGETS:
            owner = modules.get(module)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if kind == SPAN:
                wrapped = self._span_wrapper(name, original, on_result, on_error)
            else:
                wrapped = self._count_wrapper(name, original)
            if cls_name:
                self._patch(owner, method, original, wrapped)
                continue
            # every module that imported the function by name holds its own
            # reference to it
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -------------------------------------------------------- output

    def write(self, path: str) -> None:
        """One JSON object per span, times in seconds from tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": start - self.t0, "end": end - self.t0,
                                     "parent": parent, "op": op}) + "\n")


def aggregate(spans: list[list], first: int = 0) -> dict[str, list[float]]:
    """{name: [calls, inclusive seconds, self seconds]} over spans[first:].

    Self time is a span's duration minus the durations of its child spans;
    calls run on one thread, so children never overlap.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans[first:], first):
        acc = out[name]
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict[str, list[float]], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    def calls(n):
        return agg[n][0] if n in agg else counts.get(n + ".calls", 0)

    def incl(n):
        return agg[n][1] if n in agg else 0.0

    def self_s(n):
        return agg[n][2] if n in agg else 0.0

    m: dict[str, tuple[float, str]] = {}
    for n in ("cli.cmd_table", "cli.cmd_twist", "cli.cmd_verify"):
        m[n + ".self_s"] = (self_s(n), "s")
    m["bsd.classify_twist.calls"] = (calls("bsd.classify_twist"), "count")
    m["bsd.classify_twist.s"] = (incl("bsd.classify_twist"), "s")
    m["bsd.tamagawa_report.s"] = (incl("bsd.tamagawa_report"), "s")
    m["bsd.theorem18_check.self_s"] = (self_s("bsd.theorem18_check"), "s")
    m["lseries.central_value.calls"] = (calls("lseries.central_value"), "count")
    m["lseries.central_value.self_s"] = (self_s("lseries.central_value"), "s")
    m["lseries.terms"] = (counts.get("lseries.terms", 0), "count")
    m["lseries.terms_per_s"] = (_ratio(counts.get("lseries.terms", 0),
                                       self_s("lseries.central_value")), "terms/s")
    m["lseries.algebraic_part.self_s"] = (self_s("lseries.algebraic_part"), "s")
    m["lseries.recognized_share"] = (_ratio(counts.get("lseries.recognized", 0),
                                            counts.get("lseries.algebraic_part.done", 0)), "ratio")
    m["lseries.unattainable"] = (counts.get("lseries.unattainable", 0), "count")
    m["coeffs.build_table.calls"] = (calls("coeffs.build_table"), "count")
    m["coeffs.build_table.self_s"] = (self_s("coeffs.build_table"), "s")
    m["coeffs.build_table.entries"] = (counts.get("coeffs.build_table.entries", 0), "count")
    m["coeffs.spf_sieve.calls"] = (calls("coeffs.spf_sieve"), "count")
    m["coeffs.spf_sieve.s"] = (incl("coeffs.spf_sieve"), "s")
    m["coeffs.spf_sieve.entries"] = (counts.get("coeffs.spf_sieve.entries", 0), "count")
    m["coeffs.ap_range.calls"] = (calls("coeffs.ap_range"), "count")
    m["coeffs.ap_range.s"] = (incl("coeffs.ap_range"), "s")
    m["coeffs.ap_point_count.calls"] = (calls("coeffs.ap_point_count"), "count")
    m["coeffs.ap_point_count.s"] = (incl("coeffs.ap_point_count"), "s")
    m["coeffs.legendre_evals"] = (counts.get("coeffs.legendre_evals", 0), "count")
    m["coeffs.ap_cm_fast.calls"] = (calls("coeffs.ap_cm_fast"), "count")
    m["registry.omega_lattice.calls"] = (calls("registry.omega_lattice"), "count")
    m["registry.omega_lattice.s"] = (incl("registry.omega_lattice"), "s")
    m["registry.resolve_curve.s"] = (incl("registry.resolve_curve"), "s")
    m["qfield.coprime_residues.s"] = (incl("qfield.coprime_residues"), "s")
    m["qfield.reps"] = (counts.get("qfield.reps", 0), "count")
    m["qfield.chi_m_symbol.calls"] = (calls("qfield.chi_m_symbol"), "count")
    m["qfield.chi_m_symbol.s"] = (incl("qfield.chi_m_symbol"), "s")
    m["qfield.cornacchia_split.calls"] = (calls("qfield.cornacchia_split"), "count")
    for n in ("eisenstein.calibrate_character", "eisenstein.make_context",
              "eisenstein.wp_series"):
        m[n + ".calls"] = (calls(n), "count")
        m[n + ".s"] = (incl(n), "s")
    lookups = counts.get("eisenstein.wp_lookups", 0)
    m["eisenstein.wp_lookups"] = (lookups, "count")
    m["eisenstein.wp_hit_ratio"] = (
        max(0.0, 1.0 - _ratio(calls("eisenstein.wp_series"), lookups)) if lookups else 0.0,
        "ratio")
    m["eisenstein.ladder.calls"] = (calls("eisenstein.ladder"), "count")
    m["eisenstein.ladder.self_s"] = (self_s("eisenstein.ladder"), "s")
    m["eisenstein.ladder_steps"] = (counts.get("eisenstein.ladder_steps", 0), "count")
    m["eisenstein.averaging_check.self_s"] = (self_s("eisenstein.averaging_check"), "s")
    m["eisenstein.prop2_sum.s"] = (incl("eisenstein.prop2_sum"), "s")
    return m
