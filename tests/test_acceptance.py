"""End-to-end acceptance runs for the whole package.

Each test prints one PASS/FAIL line with the measured numbers so a plain
pytest run shows the scorecard.  The thresholds are fixed contract values;
every run below draws from seeded generators only.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ffq import errors, field_new
from ffq.classical import distinct_degree_parts
from ffq.ddf import ddf, recursion_audit
from ffq.factor import factor, sff
from ffq.fields import factor_int
from ffq.order import (
    MODE_EXACT_DIST,
    OracleConfig,
    OrderEstimate,
    OrderOracle,
    PhaseParams,
    estimate_order,
    measurement_distribution,
    rational_reconstruct,
    sample_measurement,
)
from ffq.poly import Poly, counters, frobenius, random_monic, random_squarefree, reset_counters
from ffq.rng import make_rng, trial_rng

from helpers import all_monic, distinct_irreducibles, product, rand_irreducible
from reference_factor import reference_factor


def report(capfd, ok, label, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_01_full_factor_agrees_with_brute_force(capfd):
    fields = [field_new(2), field_new(3), field_new(5), field_new(7),
              field_new(3, 2, [1, 0, 1]), field_new(13)]
    trials = 500
    start = time.time()
    agree = 0
    total = 0
    for fi, ctx in enumerate(fields):
        oracle = OrderOracle(OracleConfig())
        for i in range(trials):
            rng = trial_rng(8191 + fi, i)
            n = 1 + int(rng.integers(24))
            f = random_monic(ctx, n, rng)
            res = factor(f, oracle, rng)
            unit, pairs = reference_factor(f)
            total += 1
            if res.unit == unit and res.factors == pairs:
                agree += 1
    elapsed = time.time() - start
    ok = agree == total and elapsed <= 300.0
    report(capfd, ok, "engine vs reference factorization",
           f"{agree}/{total} factorizations agree across 6 fields in {elapsed:.1f}s (cap 300s)")


def test_02_single_attempt_order_recovery_rate(capfd):
    F2 = field_new(2)
    trials = 500
    hits = 0
    for i in range(trials):
        rng = trial_rng(60221023, i)
        d1 = 1 + int(rng.integers(6))
        d2 = 1 + int(rng.integers(6))
        while d2 == d1:
            d2 = 1 + int(rng.integers(6))
        polys = distinct_irreducibles(F2, [d1, d2], rng)
        f = product(F2, polys)
        r = math.lcm(d1, d2)
        cfg = OracleConfig(mode=MODE_EXACT_DIST, max_attempts=1)
        est = estimate_order(frobenius(f), 6, cfg, rng, true_order=r)
        if est.order == r:
            hits += 1
    rate = hits / trials
    report(capfd, rate >= 0.55, "single-attempt order recovery",
           f"rate {rate:.3f} over {trials} trials (needs >= 0.55, ideal ~0.608)")


def test_03_measurement_distribution_statistics(capfd):
    worst_sum = 0.0
    worst_conc = 1.0
    for r in range(1, 65):
        ell = 1
        while (1 << (2 * ell + 1)) < 2 * r * r:
            ell += 1
        pp = PhaseParams(ell)
        probs = np.asarray(measurement_distribution(r, pp))
        worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
        theta = (np.arange(pp.N) * r) % pp.N
        near = (theta * 2 <= r) | ((pp.N - theta) * 2 <= r)
        worst_conc = min(worst_conc, float(probs[near].sum()))
    pp = PhaseParams(4)
    dist = np.asarray(measurement_distribution(3, pp))
    rng = make_rng(24601)
    samples = 100000
    hist = np.zeros(pp.N)
    for _ in range(samples):
        hist[sample_measurement(3, pp, MODE_EXACT_DIST, rng)] += 1
    tv = 0.5 * float(np.abs(hist / samples - dist).sum())
    floor = 4 / math.pi**2 - 0.01
    ok = worst_sum <= 1e-9 and worst_conc >= floor and tv <= 0.02
    report(capfd, ok, "measurement statistics",
           f"max |sum-1| {worst_sum:.1e} (cap 1e-9), min near-multiple mass "
           f"{worst_conc:.4f} (floor {floor:.4f}), sampler TV {tv:.4f} (cap 0.02)")


def test_04_rational_reconstruction_exhaustive(capfd):
    checked = 0
    bad = 0
    for ell in range(1, 9):
        N = 1 << (2 * ell + 1)
        bound = 1 << ell
        for r in range(1, bound + 1):
            for j in range(r):
                k = round(Fraction(j * N, r)) % N
                g = math.gcd(j, r) if j else r
                if rational_reconstruct(k, N, bound) != (j // g, r // g):
                    bad += 1
                checked += 1
    report(capfd, bad == 0, "rational reconstruction",
           f"{checked - bad}/{checked} reduced fractions recovered, ell 1..8 exhaustive")


def test_05_recursion_depth_bound(capfd):
    F3 = field_new(3)
    runs = 0
    within = 0
    worst = 0.0
    for n in (64, 128):
        cap = 2 * math.log2(n) + 4
        for i in range(200):
            rng = trial_rng(777000 + n, i)
            f = random_squarefree(F3, n, rng)
            trace = []
            res = ddf(f, OrderOracle(OracleConfig()), rng, trace=trace)
            assert res.parts == distinct_degree_parts(f)
            depth = recursion_audit(trace)
            runs += 1
            if depth <= cap:
                within += 1
            worst = max(worst, depth / cap)
    report(capfd, within == runs, "recursion depth",
           f"{within}/{runs} runs within 2*log2(n)+4 at n=64,128 "
           f"(worst depth {worst:.2f} of the cap)")


def test_06_fallback_strips_then_succeeds(capfd):
    degree_sets = [[1, 5], [1, 6], [1, 7], [2, 5], [2, 7],
                   [3, 5], [3, 7], [1, 2, 7], [1, 3, 7], [2, 3, 7]]
    cases = 0
    good = 0
    for pi, p in enumerate((2, 3)):
        ctx = field_new(p)
        for si, degrees in enumerate(degree_sets):
            rng = trial_rng(424200 + pi, si)
            polys = distinct_irreducibles(ctx, degrees, rng)
            f = product(ctx, polys)
            trace = []
            # ell = 1 bounds candidate orders by 2; every set has lcm > 2,
            # so the first estimate must fail and the fallback must finish
            res = ddf(f, OrderOracle(OracleConfig()), rng, ell=1, trace=trace)
            cases += 1
            if res.parts == distinct_degree_parts(f) and any(r["fallback"] for r in trace):
                good += 1
    ok = good == cases and cases >= 20
    report(capfd, ok, "order fallback",
           f"{good}/{cases} constructed low-precision runs stripped small degrees "
           f"and recovered the rest (needs 20+)")


def test_07_smooth_factorization_methods_agree(capfd):
    # The engine factors each order d with factor_int; every order is
    # deg-smooth.  Check factor_int against trial division by the sieve primes.
    sieve = np.ones(1001, dtype=bool)
    sieve[:2] = False
    for i in range(2, 32):
        if sieve[i]:
            sieve[i * i:: i] = False
    primes = [int(i) for i in np.flatnonzero(sieve)]

    def trial_division(d):
        pairs = []
        for p in primes:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                pairs.append((p, e))
        assert d == 1
        return pairs

    rng = make_rng(1729)
    checked = 0
    bad = 0
    for _ in range(10000):
        d = 1
        while True:
            step = primes[int(rng.integers(len(primes)))]
            if d * step > 10**9:
                break
            d *= step
        if sorted(factor_int(d).items()) != trial_division(d):
            bad += 1
        checked += 1
    report(capfd, bad == 0, "smooth factorization",
           f"{checked - bad}/{checked} random 1000-smooth values: "
           f"factor_int == trial division")


def test_08_factor_count_statistics(capfd):
    start = time.time()
    F2 = field_new(2)
    exhaustive = [len(reference_factor(f)[1]) for f in all_monic(F2, 8)]
    exh_mean = sum(exhaustive) / len(exhaustive)
    rng = make_rng(5882353)
    trials = 2000
    sampled = 0
    for _ in range(trials):
        sampled += len(reference_factor(random_monic(F2, 8, rng))[1])
    samp_mean = sampled / trials
    gap = abs(samp_mean - exh_mean)

    F101 = field_new(101)
    oracle = OrderOracle(OracleConfig(backend="exact"))
    total = 0
    for i in range(trials):
        rng_i = trial_rng(9990001, i)
        f = random_monic(F101, 64, rng_i)
        for part, _ in sff(f):
            total += sum(g.degree // d for g, d in ddf(part, oracle, rng_i).parts)
    big_mean = total / trials
    lo, hi = math.log(64) - 1, math.log(64) + 2
    elapsed = time.time() - start
    ok = gap <= 0.2 and lo <= big_mean <= hi and elapsed <= 300.0
    report(capfd, ok, "factor-count statistics",
           f"n=8/F_2 exhaustive {exh_mean:.3f} vs sampled {samp_mean:.3f} (gap {gap:.3f}, "
           f"cap 0.2); n=64/F_101 mean {big_mean:.3f} in [{lo:.3f}, {hi:.3f}] "
           f"in {elapsed:.1f}s (cap 300s)")


def test_09_composition_count_scaling(capfd):
    F3 = field_new(3)
    meds = {}
    for n in (32, 64, 128):
        counts = []
        for i in range(3):
            rng = trial_rng(31337 + n, i)
            f = random_squarefree(F3, n, rng)
            reset_counters()
            ddf(f, OrderOracle(OracleConfig()), rng)
            counts.append(counters()["modcomp"])
        meds[n] = sorted(counts)[1]
    cap = 16 * (math.log2(128) / math.log2(32)) ** 4
    ratio = meds[128] / meds[32]
    report(capfd, ratio <= cap, "composition scaling",
           f"median compositions {meds[32]}/{meds[64]}/{meds[128]} at n=32/64/128, "
           f"ratio {ratio:.2f} (cap {cap:.2f})")


def test_10_reconstruction_audit_is_live(capfd):
    class LyingOracle(OrderOracle):
        def __init__(self):
            super().__init__(OracleConfig())
            self.calls = 0

        def estimate(self, s, ell, rng, true_order=None):
            self.calls += 1
            if self.calls == 1:
                return OrderEstimate(2, 1)  # wrong on purpose; true order is 3
            from ffq.order import exact_order

            return OrderEstimate(exact_order(s), 1)

    F2 = field_new(2)
    f = Poly(F2, [0, 1, 1, 0, 1])  # x (x^3 + x + 1)
    caught = False
    try:
        ddf(f, LyingOracle(), make_rng(31))
    except errors.InvariantViolation:
        caught = True
    rng = make_rng(37)
    clean = 0
    for _ in range(10):
        g = random_squarefree(F2, 12, rng)
        res = factor(g, OrderOracle(OracleConfig()), rng)
        if res.product(F2) == g:
            clean += 1
    report(capfd, caught and clean == 10, "reconstruction audit",
           f"corrupted order estimate rejected: {caught}; "
           f"{clean}/10 clean runs reconstruct their input")
