"""Seeded factorization workloads, timed and checked.

One process runs one workload as a closed loop with a single caller: the
next ``factor()`` call starts when the previous one has returned.  Inputs
are random monic polynomials (not forced squarefree) drawn from the seed,
input ``i`` from its own stream, so any pass over the same indices repeats
the same inputs and the same oracle draws.  Only the ``factor()`` call is
timed; input generation and the output checks run outside the timed region.

An untraced run reports the end-to-end metrics.  A traced run factors each
input twice, first untraced and then under the span recorder of ``spans``,
with ffq's memo tables restored in between so both calls do the same work.
It reports the per-layer metrics of the traced calls plus the tracing
overhead, the ratio of the summed traced and untraced call times.
Alternating per input keeps a drift in machine speed out of that ratio.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ffq
from ffq import OracleConfig, OrderOracle, field_new
from ffq.classical import is_irreducible
from ffq.factor import factor
from ffq.poly import random_monic
from ffq.rng import trial_rng

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 21
WARMUP_DEGREE = 8
WARMUP_INDEX = 1 << 40  # input stream index outside the timed range
INF = float("inf")


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    m: int = 1
    h: tuple[int, ...] | None = None
    degrees: tuple[int, int] = (1, 1)  # inclusive range, drawn per input

    def field(self):
        return field_new(self.p, self.m, list(self.h) if self.h else None)


# Why each workload exists and which layer it isolates is recorded in
# BENCHMARK.json.  Degrees are sized so that one run holds enough calls for
# stable medians within the benchmark's time budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("f3-n128", p=3, degrees=(128, 128)),
        Workload("fwide-n20", p=(1 << 61) - 1, degrees=(20, 20)),
        Workload("f9-n17", p=3, m=2, h=(1, 0, 1), degrees=(17, 17)),
        Workload("f101-batch", p=101, degrees=(5, 7)),
    )
}


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------


def make_input(w: Workload, ctx, seed: int, i: int):
    """Input ``i`` of the seeded stream and the generator factor() continues."""
    rng = trial_rng(seed, i)
    lo, hi = w.degrees
    n = lo if lo == hi else lo + int(rng.integers(0, hi - lo + 1))
    return random_monic(ctx, n, rng), rng


# ----------------------------------------------------------------------
# Independent output checks.
# ----------------------------------------------------------------------


def _ext_mul(a: list, b: list, ctx) -> list:
    """Schoolbook product in F_p[y]/(h)[x] on coefficient tuples."""
    p, m, h = ctx.p, ctx.m, ctx.h
    out = [[0] * (2 * m - 1) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            acc = out[i + j]
            for u, au in enumerate(ai):
                if au:
                    for v, bv in enumerate(bj):
                        acc[u + v] += au * bv
    res = []
    for acc in out:
        for k in range(2 * m - 2, m - 1, -1):  # y^k -> y^k - c * h * y^(k-m)
            c = acc[k] % p
            if c:
                for t in range(m + 1):
                    acc[k - m + t] -= c * h[t]
        res.append(tuple(v % p for v in acc[:m]))
    return res


def check_factorization(f, result) -> bool:
    """True iff ``result`` is the factorization of ``f`` into irreducibles.

    The certificate: the unit is f's leading coefficient, every factor is
    monic, non-constant, irreducible and listed once, and unit times the
    product of the factor powers equals f.  By unique factorization this
    fixes the answer, so it is at least as strict as comparing against a
    reference factorization.  Prime fields use sympy's dense F_p arithmetic
    and irreducibility test; extension fields use a schoolbook product here
    and ffq's Rabin test on each factor.
    """
    ctx = f.ctx
    if result.unit != f.lead():
        return False
    seen = set()
    for g, mult in result.factors:
        if mult < 1 or g.degree < 1 or not g.is_monic() or g in seen:
            return False
        seen.add(g)
    if ctx.m == 1:
        from sympy.polys.domains import ZZ
        from sympy.polys import galoistools as gt

        p = ctx.p
        prod = [int(result.unit)]
        for g, mult in result.factors:
            dense = [int(c) for c in reversed(g.coeffs)]
            if not gt.gf_irreducible_p(dense, p, ZZ):
                return False
            prod = gt.gf_mul(prod, gt.gf_pow(dense, mult, p, ZZ), p, ZZ)
        return prod == [int(c) for c in reversed(f.coeffs)]
    prod = [result.unit]
    for g, mult in result.factors:
        if not is_irreducible(g):
            return False
        for _ in range(mult):
            prod = _ext_mul(prod, list(g.coeffs), ctx)
    return prod == list(f.coeffs)


# ----------------------------------------------------------------------
# Timed passes.
# ----------------------------------------------------------------------


def timed_pass(w, ctx, seed, indices, budget_s, factor_fn, oracle):
    """Factor inputs in order until ``budget_s`` of call time is spent.

    Returns [(index, seconds, result or None)]; a call that raises is
    recorded with result None and counts as failed, never skipped.
    """
    out = []
    spent = 0.0
    for i in indices:
        if spent >= budget_s:
            break
        f, rng = make_input(w, ctx, seed, i)
        t0 = time.perf_counter()
        try:
            res = factor_fn(f, oracle, rng)
        except Exception:  # every failure is counted against the run
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            res = None
        else:
            dt = time.perf_counter() - t0
        spent += dt
        out.append((i, dt, res))
    return out


def failed_calls(w, ctx, seed, calls) -> list[int]:
    """Input indices of the calls that raised or gave a wrong output.

    Every output is checked; identical (input, output) pairs are checked once.
    """
    verdicts: dict[int, list] = {}
    failed = []
    for i, _, res in calls:
        if res is None:
            failed.append(i)
            continue
        done = verdicts.setdefault(i, [])
        for prev, ok in done:
            if prev.unit == res.unit and prev.factors == res.factors:
                break
        else:
            f, _ = make_input(w, ctx, seed, i)
            ok = check_factorization(f, res)
            done.append((res, ok))
        if not ok:
            failed.append(i)
    return failed


def measure_setup(w: Workload, reps: int = SETUP_REPS) -> list[float]:
    """Seconds for ``import ffq`` plus ``field_new``, each in a fresh process."""
    code = (
        "import json, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "import ffq\n"
        "ffq.field_new(int(sys.argv[2]), int(sys.argv[3]), json.loads(sys.argv[4]))\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    h = json.dumps(list(w.h) if w.h else None)
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(w.p), str(w.m), h],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run(w: Workload, seed: int, seconds: float, trace: bool,
        factor_fn=factor, setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload; returns the result record (see ``emit``)."""
    setup = measure_setup(w, setup_reps) if not trace else []
    ctx = w.field()
    oracle = OrderOracle(OracleConfig())
    rng = trial_rng(seed, WARMUP_INDEX)
    factor(random_monic(ctx, WARMUP_DEGREE, rng), oracle, rng)

    indices = range(1 << 30)
    info: dict = {}
    if not trace:
        calls = timed_pass(w, ctx, seed, indices, seconds, factor_fn, oracle)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = len(failed_calls(w, ctx, seed, calls))
        lat = [dt for _, dt, _ in calls]
        metrics = {
            "factor_per_s": ((len(calls) - failed) / sum(lat), "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }
        info["peak_rss_mb"] = peak_rss_mb
        info["samples"] = len(lat)
        p90 = float(np.percentile(lat, 90))
        info["latency_p90_ms"] = 1000.0 * p90
        info["above_p90"] = sum(1 for t in lat if t > p90)
        info["setup_samples"] = setup
        attempted = len(calls)
    else:
        rec = spans.Recorder()
        traced_fn = rec.wrap("factor", factor_fn)
        plain, traced = [], []
        counts = {"mul": 0, "modcomp": 0}
        spent = 0.0
        for i in indices:
            if spent >= seconds:
                break
            memo = spans.save_memo_tables()
            plain += timed_pass(w, ctx, seed, [i], INF, factor_fn, oracle)
            spans.restore_memo_tables(memo)
            before = ffq.counters()
            with spans.patched(rec):
                traced += timed_pass(w, ctx, seed, [i], INF, traced_fn, oracle)
            after = ffq.counters()
            for k in counts:
                counts[k] += after[k] - before[k]
            spent += plain[-1][1] + traced[-1][1]
        failed = len(failed_calls(w, ctx, seed, plain + traced))
        attempted = len(plain) + len(traced)
        plain_s = sum(dt for _, dt, _ in plain)
        traced_s = sum(dt for _, dt, _ in traced)
        layer = spans.layer_metrics(rec)
        layer["poly.mul_count"] = counts["mul"]
        layer["poly.modcomp_count"] = counts["modcomp"]
        layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
        metrics = {k: (v, spans.unit(k)) for k, v in layer.items()}
        info["samples"] = len(traced)
        info["untraced_s"] = plain_s
        info["traced_s"] = traced_s
        info["largest_self"] = rec.largest_self()
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "env": environment(seed),
    }


# ----------------------------------------------------------------------
# Environment and output.
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over src/ffq, identifying the code when git is unavailable."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ffq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ffq": ffq.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "ffq_src_sha256": _src_digest(),
    }


def emit(result: dict, out=sys.stdout) -> None:
    """Print the report, then the one-line JSON result.

    A metric line reads ``name value unit``; every other line starts with
    ``# ``.
    """
    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]

    def note(text):
        print("# " + text, file=out)

    note(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}")
    note("env " + json.dumps(result["env"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}", file=out)
    print(f"failed_frac {failed / attempted:.6g} ratio", file=out)
    note(f"attempted {attempted} failed {failed} samples {info['samples']}")
    if result["trace"]:
        name, secs = info["largest_self"]
        note(f"largest_self_time {name} {secs:.6g} s")
        note(f"untraced_s {info['untraced_s']:.6g} traced_s {info['traced_s']:.6g}")
    else:
        # A percentile is printed only with at least ten samples above it.
        above = f"{info['above_p90']} of {info['samples']} samples above p90"
        if info["above_p90"] >= 10:
            print(f"latency_p90_ms {info['latency_p90_ms']:.6g} ms", file=out)
            note(f"latency_p90_ms from {above}")
        else:
            note(f"latency_p90_ms not printed: only {above}")
        print(f"peak_rss_mb {info['peak_rss_mb']:.6g} MB", file=out)
        note("setup_samples_s " + " ".join(f"{t:.6g}" for t in info["setup_samples"]))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line), file=out)
