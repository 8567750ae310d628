"""Order estimation: measurement model, reconstruction, the oracle contract."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from ffq import errors, field_new
from ffq import order as order_mod
from ffq.order import (
    BACKEND_EXACT,
    BACKEND_SIM,
    MODE_EXACT_DIST,
    MODE_IDEALIZED,
    OracleConfig,
    OrderOracle,
    PhaseParams,
    cofactor_powers,
    estimate_order,
    exact_order,
    factor_int,
    measurement_distribution,
    rational_reconstruct,
    sample_measurement,
)
from ffq.poly import Endo, Poly, frobenius, x_poly
from ffq.rng import make_rng, trial_rng

from helpers import distinct_irreducibles, product, rand_irreducible

F2 = field_new(2)
F3 = field_new(3)


def ref_distribution(r, N):
    """Reference distribution by direct complex summation over branches.

    Collapse the second register onto residue class b (weight m_b / N with
    m_b the class size), transform the first register, read off |amp|^2.
    """
    probs = []
    for k in range(N):
        tot = 0.0
        for b in range(min(r, N)):
            zs = range(b, N, r)
            amp = sum(cmath.exp(-2j * cmath.pi * k * z / N) for z in zs)
            tot += abs(amp) ** 2
        probs.append(tot / (N * N))
    return probs


def ref_convergent(k, N, bound):
    """Reference reconstruction: full quotient list, then the p/q recurrence."""
    if k == 0:
        return (0, 1)
    quotients = []
    num, den = k, N
    while den:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    p_prev, q_prev = 1, 0
    p, q = quotients[0], 1
    best = (p, q) if q <= bound else (0, 1)
    for a in quotients[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > bound:
            break
        best = (p, q)
    return best


def test_phase_params_shape():
    pp = PhaseParams(4)
    assert (pp.ell, pp.m, pp.N) == (4, 9, 512)
    with pytest.raises(errors.BadInput):
        PhaseParams(0)


def test_distribution_fixed_examples():
    pp1 = PhaseParams(1)  # N = 8
    d2 = measurement_distribution(2, pp1)
    assert abs(d2[0] - 0.5) < 1e-12 and abs(d2[4] - 0.5) < 1e-12
    assert abs(sum(d2) - 1.0) < 1e-12 and max(d2[1:4]) < 1e-12
    d1 = measurement_distribution(1, pp1)
    assert abs(d1[0] - 1.0) < 1e-12
    # r = 3, N = 8: residue classes have sizes 3, 3, 2
    sizes = [len(range(b, 8, 3)) for b in range(3)]
    assert sizes == [3, 3, 2]


def test_distribution_matches_reference():
    for r, ell in [(1, 2), (2, 2), (3, 2), (3, 3), (5, 3), (12, 4), (7, 4), (100, 2)]:
        pp = PhaseParams(ell)
        got = measurement_distribution(r, pp)
        want = ref_distribution(r, pp.N)
        assert len(got) == pp.N
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9, (r, ell)


def test_distribution_size_guard():
    with pytest.raises(errors.TooLarge):
        measurement_distribution(3, PhaseParams(10))  # N = 2^21
    # largest allowed size still works
    d = measurement_distribution(3, PhaseParams(9))
    assert abs(float(np.sum(d)) - 1.0) < 1e-9


def test_idealized_sampler_rounds_to_even():
    pp = PhaseParams(4)  # N = 512
    rng = make_rng(99)
    for r in [1, 2, 3, 5, 12, 31]:
        allowed = {round(Fraction(j * pp.N, r)) % pp.N for j in range(r)}
        seen = set()
        for _ in range(400):
            k = sample_measurement(r, pp, MODE_IDEALIZED, rng)
            assert k in allowed, (r, k)
            seen.add(k)
        assert len(seen) == len(allowed)  # every class appears
    # the spec's worked value: j = 1, r = 3 lands on round(512/3) = 171
    assert round(Fraction(512, 3)) == 171


def test_exact_dist_sampler_tracks_distribution():
    pp = PhaseParams(3)  # N = 128
    rng = make_rng(4242)
    r = 3
    dist = measurement_distribution(r, pp)
    hits = np.zeros(pp.N)
    samples = 20000
    for _ in range(samples):
        hits[sample_measurement(r, pp, MODE_EXACT_DIST, rng)] += 1
    tv = 0.5 * float(np.abs(hits / samples - dist).sum())
    assert tv < 0.05


def test_exact_dist_samples_past_the_table_limit():
    # N = 2^21 is above what measurement_distribution tabulates; the
    # rejection sampler needs no table.
    pp = PhaseParams(10)
    with pytest.raises(errors.TooLarge):
        measurement_distribution(3, pp)
    rng = make_rng(1)
    ks = [sample_measurement(3, pp, MODE_EXACT_DIST, rng) for _ in range(200)]
    assert all(0 <= k < pp.N for k in ks)
    assert {rational_reconstruct(k, pp.N, 1 << pp.ell)[1] for k in ks} <= {1, 3}
    with pytest.raises(errors.BadInput):
        sample_measurement(3, pp, "auto", rng)


# The sampler gate: for every r <= 64, at the smallest ell with N >= 2r^2
# (ell <= 6), 10^5 draws against the tabulated distribution.
GATE_DRAWS = 100_000


def _gate_ell(r):
    ell = 1
    while (1 << (2 * ell + 1)) < 2 * r * r:
        ell += 1
    return ell


@pytest.fixture(scope="module")
def gate_histograms():
    out = {}
    for r in range(1, 65):
        pp = PhaseParams(_gate_ell(r))
        rng = trial_rng(8675309, r)
        ks = [sample_measurement(r, pp, MODE_EXACT_DIST, rng) for _ in range(GATE_DRAWS)]
        out[r] = (pp, np.bincount(ks, minlength=pp.N), measurement_distribution(r, pp))
    return out


def _peak_offset(r, N):
    """delta(k) = k - round(j*N/r) for the peak j whose cell holds k."""
    k = np.arange(N, dtype=np.int64)
    j = (2 * k * r + N) // (2 * N)
    q, rem = np.divmod(j * N, r)
    q += (2 * rem > r) | ((2 * rem == r) & (q % 2 == 1))
    return k - q


def test_exact_dist_sampler_total_variation(gate_histograms):
    # Total variation over the offset of k from its peak, which is what the
    # continued fractions read, stays within test_03's cap of 0.02 for every
    # r.  Over the raw k bins, 10^5 exact draws leave a TV of 0.02-0.03 for
    # r > 32 (N = 8192 bins) from sampling noise alone, so the bins
    # themselves are gated by the chi-square test below.
    for r, (pp, hist, dist) in gate_histograms.items():
        off = _peak_offset(r, pp.N)
        off -= off.min()
        got = np.bincount(off, weights=hist) / GATE_DRAWS
        want = np.bincount(off, weights=dist)
        tv = 0.5 * float(np.abs(got - want).sum())
        assert tv <= 0.02, (r, tv)


def _chi_square_z(hist, dist):
    """Pearson's statistic over the bins of ``hist`` as a standard normal z.

    Bins with under 5 expected draws are pooled into one, and the statistic
    is mapped by the Wilson-Hilferty approximation; None when one bin holds
    all the mass.
    """
    expected = hist.sum() * dist
    big = expected >= 5
    obs = np.append(hist[big], hist[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    if exp[-1] < 5:
        obs, exp = obs[:-1], exp[:-1]
    df = len(obs) - 1
    if df == 0:
        return None
    x2 = float(((obs - exp) ** 2 / exp).sum())
    c = 2.0 / (9 * df)
    return ((x2 / df) ** (1 / 3) - (1 - c)) / math.sqrt(c)


def test_exact_dist_sampler_chi_square(gate_histograms):
    for r, (pp, hist, dist) in gate_histograms.items():
        z = _chi_square_z(hist, dist)
        if z is None:
            assert r == 1 and hist[0] == GATE_DRAWS
            continue
        assert z < 4.0, (r, z)


def test_exact_dist_sampler_chi_square_for_orders_near_n():
    # Orders at and above N/2 leave blocks of one or two points (M <= 2),
    # where peaks share outcomes; r >= N makes the distribution uniform.
    for ell, orders in [(1, [3, 5, 6, 7, 8, 9, 30]), (2, [11, 17, 31, 32, 33, 100]),
                        (3, [40, 65, 127])]:
        pp = PhaseParams(ell)
        for r in orders:
            rng = trial_rng(11, r)
            ks = [sample_measurement(r, pp, MODE_EXACT_DIST, rng) for _ in range(20_000)]
            z = _chi_square_z(np.bincount(ks, minlength=pp.N), measurement_distribution(r, pp))
            assert z < 4.0, (ell, r, z)


@pytest.mark.parametrize("ell", [12, 16])
def test_exact_dist_near_multiple_mass_without_a_table(ell):
    # Outcomes k with k*r within r/2 of a multiple of N carry at least 4/pi^2
    # of the mass (test_03 checks the table up to ell = 9).
    pp = PhaseParams(ell)
    rng = make_rng(31337 + ell)
    draws = 2000
    for r in [3, 7, 31, 64, 100, 1000]:
        near = 0
        for _ in range(draws):
            theta = sample_measurement(r, pp, MODE_EXACT_DIST, rng) * r % pp.N
            near += min(theta, pp.N - theta) * 2 <= r
        assert near / draws >= 4 / math.pi**2, (ell, r, near / draws)


def test_exact_dist_reconstructs_divisors_at_101_bits():
    pp = PhaseParams(50)  # N = 2^101
    r = 10**6
    rng = make_rng(2718)
    got = []
    for _ in range(40):
        k = sample_measurement(r, pp, MODE_EXACT_DIST, rng)
        _, rc = rational_reconstruct(k, pp.N, 1 << pp.ell)
        assert r % rc == 0, (k, rc)
        got.append(rc)
    assert math.lcm(*got) == r


def test_reconstruct_fixed_examples():
    assert rational_reconstruct(171, 512, 16) == (1, 3)
    assert rational_reconstruct(0, 512, 16) == (0, 1)
    assert rational_reconstruct(256, 512, 16) == (1, 2)


def test_reconstruct_matches_reference():
    rng = make_rng(271828)
    for _ in range(4000):
        N = 1 << int(rng.integers(3, 24))
        k = int(rng.integers(0, N))
        bound = int(rng.integers(1, 300))
        assert rational_reconstruct(k, N, bound) == ref_convergent(k, N, bound), (k, N, bound)


def test_reconstruct_recovers_reduced_fractions():
    # every j/r with r inside the bound comes back in lowest terms
    for ell in range(1, 6):
        N = 1 << (2 * ell + 1)
        for r in range(1, (1 << ell) + 1):
            for j in range(r):
                k = round(Fraction(j * N, r)) % N
                g = math.gcd(j, r) if j else r
                assert rational_reconstruct(k, N, 1 << ell) == (j // g, r // g)


def test_exact_order_on_known_blocks():
    # sigma with image 2x over F_3[x]/(x^2+1) squares to the identity
    f = Poly(F3, [1, 0, 1])
    s = Endo(f, Poly(F3, [0, 2]))
    assert exact_order(s) == 2
    ident = Endo(f, x_poly(F3) % f)
    assert exact_order(ident) == 1
    g = Poly(F2, [1, 1, 0, 1])  # x^3 + x + 1
    assert exact_order(frobenius(g)) == 3


def test_exact_order_respects_cap():
    rng = make_rng(5)
    g = rand_irreducible(F2, 9, rng)
    assert exact_order(frobenius(g), cap=9) == 9
    with pytest.raises(errors.CapExceeded):
        exact_order(frobenius(g), cap=8)


def test_exact_order_is_lcm_of_factor_degrees():
    rng = make_rng(6)
    for degrees in [[2, 3], [3, 4], [1, 2, 5], [4, 6]]:
        polys = distinct_irreducibles(F2, degrees, rng)
        f = product(F2, polys)
        assert exact_order(frobenius(f)) == math.lcm(*degrees)


def test_estimate_finds_small_frobenius_order():
    g = Poly(F2, [1, 1, 0, 1])
    est = estimate_order(frobenius(g), 3, OracleConfig(), make_rng(12), true_order=3)
    assert est.found and est.order == 3
    assert est.attempts >= 1
    assert len(est.transcript) == 2 * est.attempts
    # the answer must come out of the reconstruction pipeline
    last = est.transcript[-2:]
    cands = {t.r for t in last} | {math.lcm(last[0].r, last[1].r)}
    assert any(est.order == c or c % est.order == 0 for c in cands)


def test_estimate_identity_and_oversized_order():
    f = Poly(F2, [1, 1, 0, 1])
    ident = Endo(f, x_poly(F2) % f)
    est = estimate_order(ident, 3, OracleConfig(), make_rng(1))
    assert est.found and est.order == 1
    # order 12 cannot be represented with ell = 2 (bound 4)
    rng = make_rng(7)
    polys = distinct_irreducibles(F3, [3, 4], rng)
    f12 = product(F3, polys)
    est = estimate_order(frobenius(f12), 2, OracleConfig(), make_rng(3), true_order=12)
    assert not est.found and est.order is None
    assert est.attempts == 4  # exhausted the default budget


def test_estimate_never_reports_wrong_or_unminimized_order():
    rng = make_rng(8)
    cases = []
    for degrees in [[2, 3], [4, 5], [2, 3, 5], [6, 4], [1, 7]]:
        polys = distinct_irreducibles(F2, degrees, rng)
        cases.append((product(F2, polys), math.lcm(*degrees)))
    for f, r_true in cases:
        s = frobenius(f)
        for i in range(12):
            est = estimate_order(s, 6, OracleConfig(), trial_rng(991, i), true_order=r_true)
            if est.found:
                assert est.order == r_true, (r_true, est.order)


def test_estimate_minimality_witnessed_by_prime_strips():
    rng = make_rng(9)
    polys = distinct_irreducibles(F2, [4, 6], rng)
    f = product(F2, polys)  # order 12
    s = frobenius(f)
    est = estimate_order(s, 5, OracleConfig(), make_rng(21), true_order=12)
    assert est.found and est.order == 12
    for rho in factor_int(est.order):
        assert not s.pow(est.order // rho).is_identity()


def check_cofactor_powers(s, c, powers):
    """powers == (s^(c/rad c), {p: s^(c/p)}), checked by direct powering."""
    u, imgs = powers
    primes = factor_int(c)
    assert u == s.pow(c // math.prod(primes))
    assert sorted(imgs) == sorted(primes)
    for p, img in imgs.items():
        assert img == s.pow(c // p), (c, p)


@pytest.mark.parametrize("backend", [BACKEND_SIM, BACKEND_EXACT])
def test_estimate_carries_the_cofactor_powers_of_its_order(backend):
    rng = make_rng(10)
    # orders 1, 8 and 9 (prime powers) and 12
    for degrees in [[1], [8, 4], [9, 3], [4, 6]]:
        f = product(F2, distinct_irreducibles(F2, degrees, rng))
        r = math.lcm(*degrees)
        s = frobenius(f)
        est = estimate_order(s, 6, OracleConfig(backend=backend), make_rng(31), true_order=r)
        assert est.found and est.order == r
        check_cofactor_powers(s, r, est.powers)


def test_cofactor_powers_match_direct_powers():
    rng = make_rng(11)
    f = product(F3, distinct_irreducibles(F3, [2, 3, 4], rng))
    s = frobenius(f)
    for c in [1, 2, 8, 9, 12, 30, 72]:
        check_cofactor_powers(s, c, cofactor_powers(s, c))


def test_exact_backend_minimizes_a_verified_multiple():
    rng = make_rng(12)
    f = product(F2, distinct_irreducibles(F2, [8, 4], rng))  # order 8
    s = frobenius(f)
    est = estimate_order(s, 6, OracleConfig(backend=BACKEND_EXACT), true_order=48)
    assert est.found and est.order == 8
    assert est.powers == cofactor_powers(s, 8)


def test_transcript_flags_match_explicit_powers():
    # A run is verified exactly when its reconstruction fits under 2^ell and
    # s to that power is the identity, whichever candidates were composed.
    rng = make_rng(13)
    seen = set()
    for degrees in [[2, 3], [4, 5], [2, 3, 5], [8, 3], [1, 7]]:
        f = product(F2, distinct_irreducibles(F2, degrees, rng))
        r = math.lcm(*degrees)
        s = frobenius(f)
        # A hint that is a proper multiple of the order yields reconstructions
        # that are proper multiples too.
        for ell, hint in ((4, r), (6, r), (6, 2 * r)):
            for i in range(8):
                est = estimate_order(s, ell, OracleConfig(), trial_rng(77, i),
                                     true_order=hint)
                for t in est.transcript:
                    fits = 1 <= t.r <= 1 << ell
                    assert t.verified == (fits and s.pow(t.r).is_identity()), (r, ell, t)
                    seen.add(t.verified)
                assert est.order == (r if est.found else None)
    assert seen == {True, False}


def test_candidates_dividing_a_rejected_one_are_not_composed(monkeypatch):
    rng = make_rng(14)
    s = frobenius(product(F2, distinct_irreducibles(F2, [3, 5], rng)))  # order 15
    calls = []
    real = order_mod.cofactor_powers
    monkeypatch.setattr(order_mod, "cofactor_powers", lambda s, c: calls.append(c) or real(s, c))
    rejected = []
    assert order_mod._order_from(s, {4, 6, 12}, rejected) is None  # 4 and 6 divide 12
    assert calls == [12] and rejected == [12]
    # A later attempt skips what an earlier one rejected.
    assert order_mod._order_from(s, {3, 6}, rejected) is None
    assert calls == [12] and rejected == [12]
    order, powers = order_mod._order_from(s, {5, 6, 30}, rejected)
    assert calls == [12, 30, 15] and order == 15  # 30 verified, then minimized
    assert powers == cofactor_powers(s, 15)


def test_exact_backend_is_deterministic():
    g = Poly(F2, [1, 1, 0, 1])
    s = frobenius(g)
    cfg = OracleConfig(backend=BACKEND_EXACT)
    est = estimate_order(s, 3, cfg, make_rng(0))
    assert (est.found, est.order, est.attempts) == (True, 3, 1)
    assert est.transcript == []
    est2 = estimate_order(s, 1, cfg, make_rng(0))  # bound 2 < 3
    assert not est2.found


def test_oracle_front_end_passes_config_through():
    g = Poly(F2, [1, 1, 0, 1])
    oracle = OrderOracle(OracleConfig())
    est = oracle.estimate(frobenius(g), 3, make_rng(123), true_order=3)
    assert est.found and est.order == 3
    bad = OracleConfig(backend="warp-drive")
    with pytest.raises(errors.BadInput):
        estimate_order(frobenius(g), 3, bad, make_rng(1))
    for attempts in (0, -2):
        with pytest.raises(errors.BadInput):
            estimate_order(frobenius(g), 3, OracleConfig(max_attempts=attempts), make_rng(1))


def ref_factor_int(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factor_int_matches_trial_division():
    rng = make_rng(314159)
    specials = [1, 2, 4, 97, 2**10, 3**7, 99989 * 99991, 10007 * 10009,
                2**4 * 3**5 * 97**3, 65537, 2 * 3 * 5 * 7 * 11 * 13]
    for n in specials:
        assert factor_int(n) == ref_factor_int(n), n
    for _ in range(300):
        n = int(rng.integers(1, 10**7))
        assert factor_int(n) == ref_factor_int(n), n
