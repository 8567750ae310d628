"""The order-driven distinct-degree engine and its subroutines."""

import math

import pytest

from ffq import counters, errors, field_new
from ffq.classical import BLOCK_MIN, distinct_degree_parts
from ffq.ddf import (
    DdfResult,
    ddf,
    default_ell,
    extract_small_degrees,
    fallback_degree_bound,
    fallback_ell,
    frobenius_power_sequence,
    order_with_fallback,
    recursion_audit,
)
from ffq.order import OracleConfig, OrderEstimate, OrderOracle, cofactor_powers
from ffq.poly import Poly, frobenius, random_monic, random_squarefree
from ffq.rng import make_rng, trial_rng

from helpers import distinct_irreducibles, product

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)
F9 = field_new(3, 2, [1, 0, 1])


def test_frobenius_power_sequence_matches_direct_powers():
    """s^(R/p) for each prime p of the list, R their product.  Each split of
    the halving raises s to the product of either half, and Endo.pow costs
    bit_length(e) + popcount(e) - 2 compositions: [2, 3] costs 2 + 1, and
    [2, 3, 5, 7, 11] costs (10 + 3) + (2 + 1) + (9 + 3) + (5 + 4)."""
    modcomps = {(2,): 0, (2, 3): 3, (3, 7): 6, (2, 3, 5): 12, (2, 3, 5, 7, 11): 37}
    rng = make_rng(103)
    for ctx, n in [(F2, 10), (F3, 8), (F9, 6)]:
        f = random_squarefree(ctx, n, rng)
        s = frobenius(f)
        for primes, cost in modcomps.items():
            r = math.prod(primes)
            before = counters()["modcomp"]
            seq = frobenius_power_sequence(s, list(primes))
            assert counters()["modcomp"] - before == cost, (ctx.p, n, primes)
            assert len(seq) == len(primes)
            for tau, p in zip(seq, primes):
                assert tau == s.pow(r // p), (ctx.p, n, primes, p)


def test_extract_small_degrees_fixed_example():
    # f = (x - 1)(x - 2)(x^2 + x + 1) = x^4 + 3x^3 + 4x + 2 over F_5
    f = Poly(F5, [2, 4, 0, 3, 1])
    parts, rem = extract_small_degrees(f, 1, 1)
    assert parts == [(Poly(F5, [2, 2, 1]), 1)]
    assert rem == Poly(F5, [1, 1, 1])


def test_extract_small_degrees_against_construction():
    rng = make_rng(107)
    for ctx in [F2, F3]:
        for shape, bound in [([1, 2, 5], 2), ([2, 4, 6], 4), ([3, 5], 1), ([1, 3, 4, 7], 3)]:
            polys = distinct_irreducibles(ctx, shape, rng)
            f = product(ctx, polys)
            parts, rem = extract_small_degrees(f, 1, bound)
            got = {}
            for g, d in parts:
                assert g.degree % d == 0
                got[d] = g
            want_small = {}
            want_rem = Poly.one(ctx)
            for g, d in zip(polys, shape):
                if d <= bound:
                    want_small[d] = want_small.get(d, Poly.one(ctx)) * g
                else:
                    want_rem = want_rem * g
            assert got == want_small
            assert rem == want_rem


def test_extract_small_degrees_respects_stride():
    rng = make_rng(109)
    polys = distinct_irreducibles(F3, [2, 4, 5], rng)
    f = product(F3, polys)
    # stride 2 visits degrees 2 and 4 only; the degree-5 factor must survive
    parts, rem = extract_small_degrees(f, 2, 4)
    assert sorted(d for _, d in parts) == [2, 4]
    assert rem == polys[2]


def test_extract_early_exit_when_one_factor_remains():
    rng = make_rng(113)
    polys = distinct_irreducibles(F2, [1, 9], rng)
    f = product(F2, polys)
    # after degree 1 is peeled, the degree-9 remainder is provably irreducible
    parts, rem = extract_small_degrees(f, 1, 9)
    assert [(g.degree, d) for g, d in parts] == [(1, 1), (9, 9)]
    assert rem == Poly.one(F2)


# Stride s, factor degrees (multiples of s, total >= BLOCK_MIN) and a bound
# that cuts the first block: uncut it would run isqrt(deg f) = 8 steps, to
# degree 8s, and catch factors above the bound.
STRIDE_SHAPES = {
    1: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 5),
    2: ([2, 4, 6, 8, 10, 12, 14, 16], 9),
    3: ([3, 3, 6, 9, 12, 15, 18], 10),
}
WIDE = (1 << 61) - 1


@pytest.mark.parametrize("s", sorted(STRIDE_SHAPES))
@pytest.mark.parametrize("p", [3, 101, WIDE])
def test_extract_small_degrees_bound_inside_a_block(p, s):
    # A stride step w -> w^(q^s) powers when q^s costs fewer products than a
    # composition at degree 64-72 (bit_length + popcount - 2 <= 16); that
    # holds for 3^s and 101, not for 101^2, 101^3 or any power of 2^61 - 1.
    composes = p == WIDE or (p == 101 and s > 1)
    ctx = field_new(p)
    degrees, bound = STRIDE_SHAPES[s]
    polys = distinct_irreducibles(ctx, degrees, make_rng(p % 1000 + s))
    f = product(ctx, polys)
    assert f.degree >= BLOCK_MIN
    s_endo = frobenius(f, check=False).pow(s)
    before = counters()["modcomp"]
    parts, rem = extract_small_degrees(f, s, bound, s_endo)
    assert (counters()["modcomp"] > before) == composes
    want = {}
    for g, d in zip(polys, degrees):
        if d <= bound:
            want[d] = want.get(d, Poly.one(ctx)) * g
    assert parts == [(g, d) for d, g in sorted(want.items())]
    assert rem == product(ctx, [g for g, d in zip(polys, degrees) if d > bound])


def test_default_and_fallback_precision_formulas():
    assert default_ell(1) == 1
    assert default_ell(8) == 10  # ceil(9) + 1
    assert default_ell(64) == 37
    assert fallback_ell(8) == 6
    assert fallback_degree_bound(8) == 4  # 4^3 = 64 >= 64
    assert fallback_degree_bound(64) == 16
    for n in range(1, 300):
        b = fallback_degree_bound(n)
        assert b**3 >= n * n and (b == 1 or (b - 1) ** 3 < n * n)


def test_order_with_fallback_success_path():
    rng = make_rng(127)
    polys = distinct_irreducibles(F2, [2, 3], rng)
    f = product(F2, polys)
    oracle = OrderOracle(OracleConfig())
    parts, rem, endo, d, powers, used_fb = order_with_fallback(
        f, frobenius(f), 1, 4, oracle, rng, hint_fn=lambda g, s: 6
    )
    assert not used_fb and parts == [] and rem == f and d == 6
    assert powers == cofactor_powers(frobenius(f), 6)


def test_order_with_fallback_strips_and_retries():
    rng = make_rng(131)
    polys = distinct_irreducibles(F2, [1, 7], rng)
    f = product(F2, polys)
    oracle = OrderOracle(OracleConfig())

    def hint(g, s):
        degs = [dd for (_, dd) in distinct_degree_parts(g)]
        return math.lcm(*[dd // math.gcd(s, dd) for dd in degs])

    # ell = 1 bounds the candidate orders by 2, so the first call must fail
    parts, rem, endo, d, powers, used_fb = order_with_fallback(
        f, frobenius(f), 1, 1, oracle, rng, hint_fn=hint
    )
    assert used_fb
    assert [(g.degree, dd) for g, dd in parts] == [(1, 1)]
    assert rem == polys[1] and d == 7
    assert endo.modulus == polys[1]
    assert powers == cofactor_powers(endo, 7)


def test_order_with_fallback_raises_when_oracle_cannot_answer():
    class DeafOracle(OrderOracle):
        def estimate(self, s, ell, rng, true_order=None):
            return OrderEstimate(None, 1)

    rng = make_rng(137)
    polys = distinct_irreducibles(F2, [1, 7], rng)
    f = product(F2, polys)
    with pytest.raises(errors.OracleExhausted):
        order_with_fallback(f, frobenius(f), 1, 1, DeafOracle(), rng)


def test_fallback_estimates_again_until_one_succeeds():
    # The first estimate fails, and so do the first two after the strip; the
    # third after the strip is a real one.  Factor degrees 2, 8 and 30.
    class ScriptedOracle(OrderOracle):
        def __init__(self):
            super().__init__(OracleConfig())
            self.calls = 0

        def estimate(self, s, ell, rng, true_order=None):
            self.calls += 1
            if self.calls <= 3:
                return OrderEstimate(None, 4)
            return super().estimate(s, ell, rng, true_order)

    rng = make_rng(4038)
    f = random_squarefree(F3, 40, rng)
    oracle = ScriptedOracle()
    trace = []
    res = ddf(f, oracle, rng, trace=trace)
    assert res.parts == distinct_degree_parts(f)
    assert [d for _, d in res.parts] == [2, 8, 30]
    assert trace[0]["fallback"] and oracle.calls >= 4


def test_ddf_matches_classical_on_random_inputs():
    for ctx, count, max_n in [(F2, 25, 24), (F3, 25, 20), (F5, 15, 16), (F9, 10, 12)]:
        for i in range(count):
            rng = trial_rng(140 + ctx.q, i)
            n = 2 + int(rng.integers(max_n - 1))
            f = random_squarefree(ctx, n, rng)
            oracle = OrderOracle(OracleConfig())
            got = ddf(f, oracle, rng).parts
            assert got == distinct_degree_parts(f), (ctx.q, i, n)


def test_ddf_on_constructed_degree_patterns():
    rng = make_rng(149)
    patterns = [[1, 2, 3], [4, 4], [2, 3, 5], [6], [1, 1, 2, 5], [2, 4, 8]]
    for shape in patterns:
        polys = distinct_irreducibles(F3, shape, rng)
        f = product(F3, polys)
        res = ddf(f, OrderOracle(OracleConfig()), rng)
        assert res.degrees() == sorted(set(shape))
        assert res.parts == distinct_degree_parts(f)


def test_ddf_single_degree_input_hits_the_identity_case():
    rng = make_rng(151)
    polys = distinct_irreducibles(F2, [3, 3], rng)
    f = product(F2, polys)
    trace = []
    res = ddf(f, OrderOracle(OracleConfig()), rng, trace=trace)
    assert res.parts == [(f, 3)]
    # order 3 is prime: one stride bump, then the identity check emits
    assert any(rec["d"] == 1 or rec["emitted"] for rec in trace)


def test_ddf_input_validation():
    rng = make_rng(157)
    with pytest.raises(errors.NotSquarefree):
        ddf(Poly(F2, [0, 0, 1]), OrderOracle(), rng)
    with pytest.raises(errors.BadInput):
        ddf(Poly(F5, [1, 1]).scaled(2), OrderOracle(), rng)
    with pytest.raises(errors.BadInput):
        ddf(Poly.one(F5), OrderOracle(), rng)


def test_ddf_trace_structure_and_audit():
    rng = make_rng(163)
    f = random_squarefree(F3, 30, rng)
    trace = []
    res = ddf(f, OrderOracle(OracleConfig()), rng, trace=trace)
    assert res.parts == distinct_degree_parts(f)
    ids = [rec["id"] for rec in trace]
    assert len(ids) == len(set(ids))
    seen = set()
    for rec in trace:
        assert rec["parent"] is None or rec["parent"] in seen
        seen.add(rec["id"])
        assert rec["input_degree"] >= 1
        assert rec["s"] >= 1
        for child in rec["children"]:
            assert child not in seen  # children processed after their parent
    depth = recursion_audit(trace)
    assert 1 <= depth <= 2 * math.log2(30) + 4


def test_ddf_exercises_fallback_end_to_end():
    rng = make_rng(167)
    polys = distinct_irreducibles(F2, [1, 7], rng)
    f = product(F2, polys)
    trace = []
    res = ddf(f, OrderOracle(OracleConfig()), rng, ell=1, trace=trace)
    assert res.parts == distinct_degree_parts(f)
    assert any(rec["fallback"] for rec in trace)


def test_ddf_detects_a_lying_oracle():
    class LyingOracle(OrderOracle):
        def __init__(self):
            super().__init__(OracleConfig())
            self.calls = 0

        def estimate(self, s, ell, rng, true_order=None):
            self.calls += 1
            if self.calls == 1:
                return OrderEstimate(2, 1)  # wrong: the true order is 3
            from ffq.order import exact_order

            return OrderEstimate(exact_order(s), 1)

    f = Poly(F2, [0, 1, 1, 0, 1])  # x(x^3 + x + 1)
    with pytest.raises(errors.InvariantViolation):
        ddf(f, LyingOracle(), make_rng(173))


class MislabellingOracle(OrderOracle):
    """Answers 2, then 1: on a degree-4 irreducible, the orders of sigma and
    sigma^2 are 4 and 2, so the engine emits the input as a part of degree 2."""

    def __init__(self):
        super().__init__(OracleConfig())
        self.answers = [2, 1]

    def estimate(self, s, ell, rng, true_order=None):
        return OrderEstimate(self.answers.pop(0), 1)


def test_ddf_audits_its_parts_against_the_shadow(capsys, monkeypatch):
    import ffq.cli as cli

    f = Poly(F2, [1, 1, 0, 0, 1])  # x^4 + x + 1, irreducible
    trace = []
    with pytest.raises(errors.InvariantViolation, match="shadow"):
        ddf(f, MislabellingOracle(), make_rng(5), trace=trace)
    # The part (f, 2) passes the other audits: it multiplies back to f, and
    # its label 2 divides its degree 4.
    assert [rec["emitted"] for rec in trace] == [[], [[2, 4]]]
    monkeypatch.setattr(cli, "_oracle_from", lambda args: MislabellingOracle())
    assert cli.main(["ddf", "--p", "2", "--poly", "x^4+x+1", "--seed", "1"]) == 2
    assert "shadow" in capsys.readouterr().err


def test_ddf_computes_the_powers_a_bare_estimate_lacks():
    class BareOracle(OrderOracle):
        # Answers like a foreign oracle: the order, without cofactor powers.
        def estimate(self, s, ell, rng, true_order=None):
            est = super().estimate(s, ell, rng, true_order)
            return OrderEstimate(est.order, est.attempts)

    for ctx, n in [(F2, 30), (F3, 24), (F9, 12)]:
        for i in range(3):
            rng = trial_rng(181 + ctx.q, i)
            f = random_squarefree(ctx, n, rng)
            res = ddf(f, BareOracle(OracleConfig()), rng)
            assert res.parts == distinct_degree_parts(f), (ctx.q, n, i)


def test_ddf_many_prime_degrees_need_no_fallback():
    # degrees 2, 3, 5, 7 give order 210; ell = 8 bounds candidates by 256
    rng = make_rng(179)
    polys = distinct_irreducibles(F2, [2, 3, 5, 7], rng)
    f = product(F2, polys)
    trace = []
    res = ddf(f, OrderOracle(OracleConfig()), rng, ell=8, trace=trace)
    assert res.degrees() == [2, 3, 5, 7]
    assert res.parts == distinct_degree_parts(f)
    assert not any(rec["fallback"] for rec in trace)


def _is_prime(p):
    return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


def test_ddf_trace_primes_factor_each_order():
    # Each item splits along the primes of its order d, which divides the lcm
    # of factor degrees, so every prime is at most the item's degree.
    rng = make_rng(191)
    F101 = field_new(101)
    cases = [(ctx, random_squarefree(ctx, n, rng), None)
             for ctx, n in [(F3, 64), (F101, 30), (F9, 17)]]
    polys = distinct_irreducibles(F2, [1, 7], rng)
    cases.append((F2, product(F2, polys), 1))
    for ctx, f, ell in cases:
        trace = []
        res = ddf(f, OrderOracle(OracleConfig()), rng, ell=ell, trace=trace)
        assert res.parts == distinct_degree_parts(f)
        split = [rec for rec in trace if rec["d"] > 1]
        assert split, (ctx, f.degree)
        for rec in split:
            ps = [p for p, _ in rec["primes"]]
            assert ps == sorted(set(ps))
            assert all(_is_prime(p) and p <= rec["input_degree"] for p in ps)
            assert math.prod(p**e for p, e in rec["primes"]) == rec["d"]
        if ell == 1:
            assert any(rec["fallback"] for rec in trace)


def test_ddf_result_carries_xq_outside_equality_and_repr():
    rng = make_rng(47)
    for ctx in [F3, F9, field_new((1 << 61) - 1)]:
        f = random_squarefree(ctx, 12, rng)
        res = ddf(f, rng=rng)
        assert res.xq == frobenius(f).image
        bare = DdfResult(res.parts)
        assert bare.xq is None and bare == res and repr(bare) == repr(res)
        assert DdfResult(res.parts, Poly.one(ctx)) == res
