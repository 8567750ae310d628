"""The reference factorization the engine is checked against.

``reference_factor`` is checked here against sympy's ``gf_factor``, Gauss's
count of irreducibles and constructions, and for independence: it may take
nothing from ffq but ``Poly``, and it must still answer with every ffq
arithmetic routine disabled.
"""

import ast
import inspect
from pathlib import Path

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

import ffq.classical
import ffq.factor
import ffq.poly
from ffq import field_new, is_irreducible
from ffq.fields import ExtensionField, PrimeField
from ffq.poly import Poly, random_monic
from ffq.rng import make_rng

from helpers import all_monic, count_irreducibles, product
from reference_factor import berlekamp_factor, field_tables, reference_factor

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2, rng=make_rng(30))
F5 = field_new(5)
F8 = field_new(2, 3, [1, 1, 0, 1])
F9 = field_new(3, 2, [1, 0, 1])

# Field-context arithmetic the reference must not call.
CTX_ARITHMETIC = {"mul", "inv", "add", "sub", "neg", "pow", "pth_root"}


def with_powers(ctx, rng, n):
    """A random monic of degree about n, with a repeated factor half the time."""
    f = random_monic(ctx, n, rng)
    if int(rng.integers(0, 2)):
        f = f * product(ctx, [random_monic(ctx, 1 + int(rng.integers(0, 3)), rng)] * ctx.p)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_berlekamp_agrees_with_gf_factor_on_prime_fields(p):
    # On prime fields reference_factor is gf_factor; its Berlekamp path runs
    # on the same inputs with the tables of F_p.
    ctx = field_new(p)
    tables = field_tables(ctx)
    rng = make_rng(400 + p)
    for _ in range(40):
        f = with_powers(ctx, rng, 1 + int(rng.integers(0, 16)))
        coeffs = list(f.coeffs)
        _, fac = gf_factor([ZZ(c) for c in reversed(coeffs)], p, ZZ)
        want = [([int(c) for c in reversed(g)], k) for g, k in fac]
        assert sorted(berlekamp_factor(tables, coeffs)) == sorted(want), (p, f)


@pytest.mark.parametrize("ctx", [F4, F9], ids=["F4", "F9"])
def test_reference_irreducibles_match_gauss_count(ctx):
    for d in range(1, 5):
        hits = sum(reference_factor(f) == (ctx.one, [(f, 1)]) for f in all_monic(ctx, d))
        assert hits == count_irreducibles(ctx.q, d), (ctx.q, d)


def test_reference_factor_reconstructs_random_inputs():
    rng = make_rng(999)
    for ctx in [F2, F3, F4, F5, F8, F9]:
        for _ in range(30):
            f = with_powers(ctx, rng, int(rng.integers(1, 14)))
            if int(rng.integers(0, 2)):
                f = f.scaled(ctx.from_index(1 + int(rng.integers(0, ctx.q - 1))))
            unit, pairs = reference_factor(f)
            acc = Poly.const(ctx, unit)
            for g, mult in pairs:
                assert g.is_monic() and is_irreducible(g)
                for _ in range(mult):
                    acc = acc * g
            assert acc == f
            keys = [g.sort_key() for g, _ in pairs]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_reference_factor_handles_pth_powers():
    # x^2 over F_2, (x + 1)^9 over F_3, (x + y)^6 (x^2 + x + y)^3 over F_9, and
    # x^q - x, which splits into the q linears.
    assert reference_factor(Poly(F2, [0, 0, 1])) == (1, [(Poly(F2, [0, 1]), 2)])
    xp1 = Poly(F3, [1, 1])
    assert reference_factor(product(F3, [xp1] * 9)) == (1, [(xp1, 9)])
    y = F9.from_index(3)
    a, b = Poly(F9, [y, F9.one]), Poly(F9, [y, F9.one, F9.one])
    assert is_irreducible(b)
    assert reference_factor(product(F9, [a] * 6 + [b] * 3)) == (F9.one, [(a, 6), (b, 3)])
    for ctx in [F2, F3, F5, F4, F9]:
        x = Poly(ctx, [ctx.zero, ctx.one])
        unit, pairs = reference_factor(product(ctx, [x] * ctx.q) - x)
        assert unit == ctx.one and len(pairs) == ctx.q
        assert all(g.degree == 1 and m == 1 for g, m in pairs)
    assert reference_factor(Poly(F5, [3])) == (3, [])
    with pytest.raises(ValueError):
        reference_factor(Poly.zero(F9))


def test_reference_factor_imports_and_calls_nothing_of_ffq():
    # The module takes from ffq only Poly and field construction, and calls
    # no field-context arithmetic and no method of Poly.
    poly_methods = {n for n, v in vars(Poly).items() if callable(v) or isinstance(v, staticmethod)}
    banned = CTX_ARITHMETIC | poly_methods - {"__init__"}
    tree = ast.parse(Path(inspect.getfile(reference_factor)).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "ffq" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ffq":
            assert {a.name for a in node.names} <= {"Poly", "field_new"}, node.names
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr not in banned, (node.func.attr, node.lineno)


@pytest.mark.parametrize("ctx", [F5, F8, F9], ids=["F5", "F8", "F9"])
def test_reference_factor_runs_with_ffq_arithmetic_disabled(ctx, monkeypatch):
    rng = make_rng(77 + ctx.q)
    inputs = [with_powers(ctx, rng, 12) for _ in range(4)]
    want = [reference_factor(f) for f in inputs]

    def boom(*args, **kwargs):
        raise AssertionError("the reference called ffq arithmetic")

    with monkeypatch.context() as mp:
        for cls in (PrimeField, ExtensionField):
            for name in CTX_ARITHMETIC:
                mp.setattr(cls, name, boom)
        for name, v in list(vars(Poly).items()):
            if callable(v) and name not in ("__init__", "__repr__"):
                mp.setattr(Poly, name, boom)
        for module in (ffq.poly, ffq.classical, ffq.factor):
            for name, v in list(vars(module).items()):
                if inspect.isfunction(v) and v.__module__ == module.__name__:
                    mp.setattr(module, name, boom)
        got = [reference_factor(f) for f in inputs]
    assert got == want
