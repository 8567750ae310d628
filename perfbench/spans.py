"""Span recorder for the traced run.

The recorder wraps public ffq functions and methods from outside the
package, so the program itself carries no instrumentation.  Each wrapped
call is a span: its duration goes to the span's total (outermost occurrence
only, so recursion is not counted twice), and its duration minus the time
covered by directly nested spans goes to the span's self time.  Plain counts
(no timing) are kept for calls too frequent to time, such as element
multiplication in an extension field.

``patched(recorder)`` installs every wrapper and restores the originals on
exit.  A function imported by name into several modules (``from .poly import
gcd``) is replaced in every ffq module that holds it, and methods are
replaced on their classes, so every call path is seen.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Spans opened on a poly-level kernel; they are reported as poly.<name>.
POLY_SPANS = ("mul", "divmod", "gcd", "modcomp", "powmod")


class Recorder:
    """In-memory span totals, self times, call counts and plain counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._open: Counter = Counter()  # nesting depth per span name
        self._stack: list[list[float]] = []  # child time covered, per open span

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def wrap(self, name: str, fn, after=None):
        """Time every call of ``fn`` as span ``name``.

        ``after(result, args, kwargs)`` runs once the call returns, outside
        the span's timing, to derive counts from arguments and results.
        """
        stack = self._stack
        open_depth = self._open

        def span(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            open_depth[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                open_depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dt - covered[0]
                if not open_depth[name]:
                    self.total[name] += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        span.__wrapped__ = fn
        return span

    def counting(self, name: str, fn):
        """Count calls of ``fn`` without timing them."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def largest_self(self) -> tuple[str, float]:
        """The span with the largest self time."""
        if not self.self_time:
            return "", 0.0
        name = max(self.self_time, key=self.self_time.get)
        return name, self.self_time[name]


def _ffq_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ffq" or name.startswith("ffq."))]


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Replace every ffq module global bound to ``original``."""
        for mod in _ffq_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# Module-level memo tables of ffq, by module and name.  Calls that start from
# the same tables do the same work.
MEMO_TABLES = (
    ("ffq.order", "_cdf_cache"),
    ("ffq.ddf", "_sieve_cache"),
    ("ffq.ddf", "_tree_cache"),
    ("ffq.classical", "_IRR_CACHE"),
)


def save_memo_tables() -> list:
    """Copies of ffq's memo tables, two levels deep, for ``restore_memo_tables``."""
    saved = []
    for module, name in MEMO_TABLES:
        table = getattr(importlib.import_module(module), name)
        saved.append((table, [(k, dict(v) if isinstance(v, dict) else v)
                              for k, v in table.items()]))
    return saved


def restore_memo_tables(saved: list) -> None:
    for table, items in saved:
        table.clear()
        table.update(items)


@contextmanager
def patched(rec: Recorder):
    """Install the layer wrappers for the duration of the block."""
    # The package re-exports ``ddf`` and ``factor`` as functions, so the
    # modules are resolved by import path rather than as package attributes.
    poly = importlib.import_module("ffq.poly")
    fields = importlib.import_module("ffq.fields")
    order = importlib.import_module("ffq.order")
    ddf = importlib.import_module("ffq.ddf")
    factor = importlib.import_module("ffq.factor")
    recursion_audit = ddf.recursion_audit
    patches = _Patches()
    try:
        # poly: kernels, on the class and in every importing module.
        patches.set(poly.Poly, "__mul__", rec.wrap("poly.mul", poly.Poly.__mul__))
        patches.set(poly.Poly, "__divmod__", rec.wrap("poly.divmod", poly.Poly.__divmod__))

        def count_verify(result, args, kwargs):
            if rec.is_open("order.estimate"):
                rec.counts["order.verify_modcomps"] += 1

        for name, after in (("gcd", None), ("powmod", None), ("modcomp", count_verify)):
            original = getattr(poly, name)
            patches.everywhere(original, rec.wrap(f"poly.{name}", original, after))

        # fields: element products of the generic tuple path, counted only.
        patches.set(fields.ExtensionField, "mul",
                    rec.counting("fields.ext_mul_calls", fields.ExtensionField.mul))

        # classical: the shadow, as the engine calls it.
        patches.set(ddf, "distinct_degree_parts",
                    rec.wrap("classical.shadow", ddf.distinct_degree_parts))

        # ddf: engine stages as the engine calls them.
        patches.set(ddf, "frobenius", rec.wrap("ddf.frobenius", ddf.frobenius))
        patches.set(ddf, "frobenius_power_sequence",
                    rec.wrap("ddf.power_seq", ddf.frobenius_power_sequence))
        patches.set(ddf, "extract_small_degrees",
                    rec.wrap("ddf.strip", ddf.extract_small_degrees))
        # The subproduct tree is built (or fetched) only on the tree path of
        # smooth_factor, so counting these calls counts tree factorizations.
        patches.set(ddf, "_subproduct_tree",
                    rec.counting("ddf.smooth_tree_calls", ddf._subproduct_tree))

        orig_ddf = factor.ddf

        def ddf_with_trace(f, oracle=None, rng=None, ell=None, trace=None):
            records = [] if trace is None else trace
            out = orig_ddf(f, oracle=oracle, rng=rng, ell=ell, trace=records)
            rec.counts["ddf.items"] += len(records)
            rec.counts["ddf.fallbacks"] += sum(1 for r in records if r["fallback"])
            depth = recursion_audit(records)
            rec.maxima["ddf.depth_max"] = max(rec.maxima["ddf.depth_max"], depth)
            return out

        patches.set(factor, "ddf", rec.wrap("ddf", ddf_with_trace))

        # order: estimates, samples, table builds, continued fractions.
        def count_estimate(est, args, kwargs):
            if est.found:
                rec.counts["order.found"] += 1
                if est.attempts == 1:
                    rec.counts["order.first_attempt"] += 1

        patches.set(order.OrderOracle, "estimate",
                    rec.wrap("order.estimate", order.OrderOracle.estimate, count_estimate))

        def count_mode(k, args, kwargs):
            mode = kwargs["mode"] if "mode" in kwargs else args[2]
            if mode == order.MODE_EXACT_DIST:
                rec.counts["order.exact_samples"] += 1

        patches.set(order, "sample_measurement",
                    rec.wrap("order.sample", order.sample_measurement, count_mode))
        patches.set(order, "measurement_distribution",
                    rec.wrap("order.table", order.measurement_distribution))
        patches.set(order, "rational_reconstruct",
                    rec.wrap("order.cf", order.rational_reconstruct))

        # factor: pipeline stages and the reconstruction audit.
        patches.set(factor, "sff", rec.wrap("factor.sff", factor.sff))
        patches.set(factor, "edf", rec.wrap("factor.edf", factor.edf))
        patches.set(factor.Factorization, "product",
                    rec.wrap("factor.audit", factor.Factorization.product))
        yield
    finally:
        patches.restore()


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name: times end in ``_s``,
    shares and rates are ratios, everything else is a count."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_rate", "_frac", "_over_shadow")):
        return "ratio"
    return "count"


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metric values from a finished traced pass."""
    out: dict[str, float] = {}
    for k in POLY_SPANS:
        name = f"poly.{k}"
        out[f"{name}_calls"] = rec.calls[name]
        out[f"{name}_s"] = rec.total[name]
        out[f"{name}_self_s"] = rec.self_time[name]
    out["fields.ext_mul_calls"] = rec.counts["fields.ext_mul_calls"]
    out["classical.shadow_calls"] = rec.calls["classical.shadow"]
    shadow_s = rec.total["classical.shadow"]
    out["classical.shadow_s"] = shadow_s
    ddf_s = rec.total["ddf"]
    out.update({
        "ddf.calls": rec.calls["ddf"],
        "ddf.s": ddf_s,
        "ddf.self_s": rec.self_time["ddf"],
        "ddf.items": rec.counts["ddf.items"],
        "ddf.fallbacks": rec.counts["ddf.fallbacks"],
        "ddf.depth_max": rec.maxima["ddf.depth_max"],
        "ddf.frobenius_s": rec.total["ddf.frobenius"],
        "ddf.frobenius_calls": rec.calls["ddf.frobenius"],
        "ddf.power_seq_s": rec.total["ddf.power_seq"],
        "ddf.strip_s": rec.total["ddf.strip"],
        "ddf.smooth_tree_calls": rec.counts["ddf.smooth_tree_calls"],
        # The paper's figure of merit: engine work per unit of shadow work.
        "ddf.engine_over_shadow": (ddf_s - shadow_s) / shadow_s if shadow_s else 0.0,
    })
    estimates = rec.calls["order.estimate"]
    exact = rec.counts["order.exact_samples"]
    builds = rec.calls["order.table"]
    out.update({
        "order.estimate_calls": estimates,
        "order.estimate_s": rec.total["order.estimate"],
        "order.samples": rec.calls["order.sample"],
        "order.sample_s": rec.total["order.sample"],
        "order.table_builds": builds,
        "order.table_s": rec.total["order.table"],
        # Base of the hit ratio: samples drawn in exact-distribution mode.
        "order.exact_samples": exact,
        "order.table_hit_ratio": 1.0 - builds / exact if exact else 0.0,
        "order.cf_s": rec.total["order.cf"],
        "order.verify_modcomps": rec.counts["order.verify_modcomps"],
        # Base of both rates: order.estimate_calls.
        "order.found_rate": rec.counts["order.found"] / estimates if estimates else 0.0,
        "order.first_attempt_rate": (
            rec.counts["order.first_attempt"] / estimates if estimates else 0.0),
    })
    out.update({
        "factor.calls": rec.calls["factor"],
        "factor.s": rec.total["factor"],
        "factor.sff_s": rec.total["factor.sff"],
        "factor.edf_calls": rec.calls["factor.edf"],
        "factor.edf_s": rec.total["factor.edf"],
        "factor.audit_s": rec.total["factor.audit"],
        "factor.self_s": rec.self_time["factor"],
    })
    return out
