"""Squarefree split, equal-degree split, and the full factor pipeline."""

import pytest

from ffq import errors, field_new
from ffq.classical import brute_factor, is_irreducible
from ffq.factor import Factorization, edf, factor, sff
from ffq.order import OracleConfig, OrderOracle
from ffq.poly import Poly, gcd, random_monic
from ffq.rng import make_rng, trial_rng

from helpers import count_irreducibles, distinct_irreducibles, product, rand_irreducible

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2, rng=make_rng(16))
F5 = field_new(5)
F7 = field_new(7)
F9 = field_new(3, 2, [1, 0, 1])


def test_sff_fixed_example():
    # (x + 1)^2 (x + 2) = x^3 + 4x^2 + 5x + 2 over F_7
    f = Poly(F7, [2, 5, 4, 1])
    assert sff(f) == [(Poly(F7, [2, 1]), 1), (Poly(F7, [1, 1]), 2)]


def test_sff_handles_pth_power_multiplicities():
    # (x + 1)^3 over F_3 has a vanishing derivative
    f = product(F3, [Poly(F3, [1, 1])] * 3)
    assert sff(f) == [(Poly(F3, [1, 1]), 3)]
    # (x^2 + x + 1)^2 (x + 1) over F_2
    g2 = Poly(F2, [1, 1, 1])
    f = g2 * g2 * Poly(F2, [1, 1])
    assert sff(f) == [(Poly(F2, [1, 1]), 1), (g2, 2)]


def test_sff_output_is_squarefree_and_coprime():
    rng = make_rng(211)
    for ctx in [F2, F3, F5, F9]:
        for _ in range(15):
            f = random_monic(ctx, int(rng.integers(2, 14)), rng)
            parts = sff(f)
            acc = Poly.one(ctx)
            for i, (g, mult) in enumerate(parts):
                assert mult >= 1 and g.is_monic() and g.degree >= 1
                der = g.deriv()
                assert not der.is_zero() and gcd(g, der).degree == 0
                for h, _ in parts[i + 1:]:
                    assert gcd(g, h).degree == 0
                for _ in range(mult):
                    acc = acc * g
            assert acc == f.monic()
            mults = [m for _, m in parts]
            assert mults == sorted(mults)


def test_edf_splits_constructed_products():
    rng = make_rng(223)
    for ctx in [F2, F3, F4, F5, F9]:
        for d, count in [(1, 2), (2, 2), (3, 2), (2, 4)]:
            if count_irreducibles(ctx.q, d) < count:
                continue
            polys = distinct_irreducibles(ctx, [d] * count, rng)
            f = product(ctx, polys)
            got = edf(f, d, rng)
            assert got == sorted(polys, key=Poly.sort_key), (ctx.q, d, count)


def test_edf_single_factor_short_circuit():
    rng = make_rng(227)
    g = rand_irreducible(F5, 4, rng)
    assert edf(g, 4, rng) == [g]


def test_edf_rejects_degree_mismatch():
    rng = make_rng(229)
    with pytest.raises(errors.BadInput):
        edf(Poly(F5, [1, 1, 1]), 3, rng)


def test_factor_fixed_example():
    # 3(x + 1)^2 (x + 2) over F_7, with the unit pulled out front
    f = Poly(F7, [2, 5, 4, 1]).scaled(3)
    res = factor(f, OrderOracle(OracleConfig()), make_rng(2))
    assert res.unit == 3
    assert res.factors == [(Poly(F7, [1, 1]), 2), (Poly(F7, [2, 1]), 1)]
    assert res.product(F7) == f


def test_factor_sorts_by_degree_then_text():
    rng = make_rng(233)
    polys = distinct_irreducibles(F3, [2, 1, 3, 1], rng)
    f = product(F3, polys)
    res = factor(f, OrderOracle(OracleConfig()), make_rng(3))
    keys = [(g.degree, g.sort_key()) for g, _ in res.factors]
    assert keys == sorted(keys)


def test_factor_agrees_with_brute_force():
    for ctx in [F2, F3, F5, F7, F4, F9]:
        for i in range(30):
            rng = trial_rng(239 + ctx.q, i)
            n = 1 + int(rng.integers(14))
            f = random_monic(ctx, n, rng)
            if int(rng.integers(0, 2)):
                f = f.scaled(ctx.from_index(1 + int(rng.integers(0, ctx.q - 1))))
            oracle = OrderOracle(OracleConfig())
            res = factor(f, oracle, rng)
            unit, pairs = brute_factor(f)
            assert res.unit == unit and res.factors == pairs, (ctx.q, i)


def test_factor_output_invariants():
    rng = make_rng(241)
    for ctx in [F3, F9]:
        for _ in range(8):
            f = random_monic(ctx, int(rng.integers(3, 18)), rng)
            res = factor(f, OrderOracle(OracleConfig()), rng)
            assert isinstance(res, Factorization)
            for g, mult in res.factors:
                assert g.is_monic() and mult >= 1 and is_irreducible(g)
            assert res.product(ctx) == f


def test_factor_of_an_irreducible_is_itself():
    rng = make_rng(251)
    g = rand_irreducible(F2, 11, rng)
    res = factor(g, OrderOracle(OracleConfig()), rng)
    assert res.unit == 1 and res.factors == [(g, 1)]


def test_factor_constants_and_zero():
    rng = make_rng(257)
    with pytest.raises(errors.BadInput):
        factor(Poly.zero(F5), OrderOracle(), rng)
    res = factor(Poly.const(F5, 3), OrderOracle(), rng)
    assert res.unit == 3 and res.factors == []


def test_factor_xq_minus_x_splits_into_all_linears():
    for ctx in [F2, F3, F5]:
        q = ctx.q
        f = Poly(ctx, [ctx.zero] * q + [ctx.one]) - Poly(ctx, [ctx.zero, ctx.one])
        res = factor(f, OrderOracle(OracleConfig()), make_rng(53))
        assert len(res.factors) == q
        assert all(g.degree == 1 and m == 1 for g, m in res.factors)
