"""Squarefree split, equal-degree split, and the full factor pipeline."""

import ast
import gc
from pathlib import Path

import pytest

import ffq
from ffq import errors, field_new
from ffq.classical import _composes, brute_factor, is_irreducible
from ffq.factor import Factorization, edf, factor, sff
from ffq.order import OracleConfig, OrderOracle
from ffq.poly import Poly, counters, frobenius, gcd, random_monic
from ffq.rng import make_rng, trial_rng

from helpers import (
    count_classical_frobenius,
    count_irreducibles,
    distinct_irreducibles,
    product,
    rand_irreducible,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2, rng=make_rng(16))
F5 = field_new(5)
F7 = field_new(7)
F9 = field_new(3, 2, [1, 0, 1])
F101 = field_new(101)
FP61 = field_new((1 << 61) - 1)
F256 = field_new(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1])


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
    # Multiplicities p^2, p*k and k coprime to p.  The F_2 input is a square,
    # so the loop takes the p-th root of f itself and later of a tail; the
    # others take the roots of tails.
    rng = make_rng(24)
    a4, b4, c4 = distinct_irreducibles(F4, [1, 1, 2], rng)
    a9, b9, c9 = distinct_irreducibles(F9, [1, 1, 2], rng)
    cases = [
        (F3, [(Poly(F3, [1, 1]), 9), (Poly(F3, [2, 1]), 6), (Poly(F3, [1, 0, 1]), 2)]),
        (F2, [(Poly(F2, [1, 1]), 4), (g2, 6)]),
        (F4, [(a4, 4), (b4, 6), (c4, 3)]),
        (F9, [(a9, 9), (b9, 3), (c9, 2)]),
    ]
    for ctx, powers in cases:
        f = product(ctx, [g for g, m in powers for _ in range(m)])
        _, irreducibles = brute_factor(f)
        groups: dict[int, Poly] = {}
        for g, m in irreducibles:
            groups[m] = groups.get(m, Poly.one(ctx)) * g
        assert sff(f) == [(groups[m], m) for m in sorted(groups)], (ctx.q, powers)


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


@pytest.mark.parametrize("ctx", [F101, FP61, F256], ids=["F101", "F2^61-1", "F256"])
def test_edf_frobenius_form_with_and_without_xq(ctx, monkeypatch):
    # Three degree-d factors, so the probes also run on the degree-2d blocks
    # a first split leaves.  xq is x^q mod a multiple of f, as factor passes
    # x^q mod the squarefree part.  Every block composes; given xq, no probe
    # computes x^q itself.  With or without xq the draws, and so the factors
    # and the generator state, agree.
    calls = count_classical_frobenius(monkeypatch)
    rng = make_rng(233)
    for d in [2, 3, 5]:
        polys = distinct_irreducibles(ctx, [d, d, d], rng)
        f = product(ctx, polys)
        assert _composes(ctx.q, f.degree)
        xq = frobenius(f * rand_irreducible(ctx, d + 1, rng)).image
        seed = int(rng.integers(1 << 30))
        r_xq, r_none = make_rng(seed), make_rng(seed)
        before = counters()["modcomp"]
        calls.clear()
        got = edf(f, d, r_xq, xq)
        assert counters()["modcomp"] > before and calls == []
        assert got == edf(f, d, r_none) == sorted(polys, key=Poly.sort_key), (ctx.q, d)
        assert calls  # without xq, each probe computes x^q mod its block
        assert r_xq.bytes(32) == r_none.bytes(32)  # the generators left in step


def test_factor_hands_the_engine_xq_to_edf(monkeypatch):
    # Over F_{2^61-1} every probe here composes, on the x^q mod the
    # squarefree part that ddf computed: the probes compute none of their own.
    calls = count_classical_frobenius(monkeypatch)
    rng = make_rng(239)
    polys = distinct_irreducibles(FP61, [3, 3, 3, 2, 2], rng)
    twice = polys[0]
    res = factor(product(FP61, polys) * twice, OrderOracle(OracleConfig()), rng)
    want = sorted(polys, key=lambda g: (g.degree, g.sort_key()))
    assert res.factors == [(g, 2 if g == twice else 1) for g in want]
    assert calls == []


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


def test_factor_leaves_no_reference_cycle():
    """A factor() call is freed by reference counting alone: no closure of
    sff or of the cofactor halving keeps its polynomials alive."""
    rng = make_rng(21)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        f101 = random_monic(field_new(101), 6, rng)
        f9 = random_monic(F9, 17, rng)
        # (x + 1)^9 sends sff through the p-th-root branch twice.
        f3 = random_monic(F3, 40, rng) * product(F3, [Poly(F3, [1, 1])] * 9)
        for f in (f101, f9, f3):
            res = factor(f, OrderOracle(OracleConfig()), rng)
            assert res.product(f.ctx) == f
        del f, res
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _self_recursive_closures(path: Path) -> list[str]:
    """'file:line name' for each function defined inside another function
    whose own body uses its name."""
    found = []
    for outer in ast.walk(ast.parse(path.read_text())):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name
                   for stmt in inner.body for n in ast.walk(stmt)):
                found.append(f"{path.name}:{inner.lineno} {inner.name}")
    return sorted(set(found))


def test_no_nested_function_calls_itself():
    """A self-recursive closure forms a function <-> cell reference cycle
    that only the cycle collector frees; ffq keeps none."""
    src = Path(ffq.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in _self_recursive_closures(path)]
    assert found == []


def _callers(path: Path, name: str) -> list[str]:
    """'Class.method' or 'function' for each call of ``name`` in path, and
    '<module>' for a call outside every top-level definition."""
    tree = ast.parse(path.read_text())
    calls = {id(n) for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "id", getattr(n.func, "attr", None)) == name}
    found = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{d.name}", d) for d in top.body
                    if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = [(top.name, top)]
        else:
            continue
        for scope, d in defs:
            hits = [n for n in ast.walk(d) if id(n) in calls]
            found += [f"{path.name} {scope}"] * len(hits)
            calls -= {id(n) for n in hits}
    return sorted(found + [f"{path.name} <module>"] * len(calls))


def test_newton_inverse_has_one_owner():
    """Reduction by a Newton inverse lives in the packed context alone: the
    series inverse is built in ``_ModCtx.__init__`` and nowhere else."""
    src = Path(ffq.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in _callers(path, "_series_inv")]
    assert found == ["poly.py _ModCtx.__init__"]
