"""The order-driven ddf, the classical ladder and factor against independent
oracles above the brute-force guard.

Prime fields are checked against sympy's ``gf_ddf_zassenhaus`` and
``gf_factor``, which share no code with ffq; galoistools stores
coefficients in descending order, so every comparison reverses the list.
sympy has no F_{p^m}.  There the ladder is checked against the repeated
powering reference ``helpers.ladder_by_powering``, ddf against the ladder,
and factor by a certificate: the factors are distinct, monic and pass
``classical.is_irreducible``, and they multiply back to the input.  Random
inputs have degree >= 25, beyond the degree-24 guard of the brute-force
cross-checks, so the engine recurses through several strides, gcd splits
and inherited stride maps.  The ladder also runs on constructed shapes down
to degree 2, for every branch of its loop, and as the fallback's strip
(``extract_small_degrees``) against sympy's parts up to the strip's bound.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_factor

from ffq import counters, field_new
from ffq.classical import BLOCK_MIN, distinct_degree_parts, is_irreducible
from ffq.ddf import ddf, extract_small_degrees
from ffq.factor import factor
from ffq.order import OracleConfig, OrderOracle
from ffq.poly import Poly, random_monic, random_squarefree, x_poly
from ffq.rng import make_rng, trial_rng

from helpers import distinct_irreducibles, ladder_by_powering, product

WIDE = (1 << 61) - 1
WIDER = (1 << 127) - 1
P31 = (1 << 31) - 1


def sympy_parts(f):
    """gf_ddf_zassenhaus's parts as (ascending coefficients, degree class)."""
    dense = [int(c) for c in reversed(f.coeffs)]
    return [(list(reversed(g)), d) for g, d in gf_ddf_zassenhaus(dense, f.ctx.p, ZZ)]


def ffq_parts(parts):
    return [([int(c) for c in g.coeffs], d) for g, d in parts]


@pytest.mark.parametrize(
    "p, n",
    [(2, 25), (2, 64), (2, 256), (3, 25), (3, 100), (3, 256),
     (101, 25), (101, 60), (101, 128), (WIDE, 25), (WIDE, 48)],
)
def test_ddf_matches_sympy_over_prime_fields(p, n):
    ctx = field_new(p)
    for i in range(2):
        rng = trial_rng(p + n, i)
        f = random_squarefree(ctx, n, rng)
        res = ddf(f, OrderOracle(OracleConfig()), rng)
        assert ffq_parts(res.parts) == sympy_parts(f), (p, n, i)


@pytest.mark.parametrize(
    "p, m, h, n",
    [(2, 2, [1, 1, 1], 25), (2, 2, [1, 1, 1], 32), (3, 2, [1, 0, 1], 25), (3, 2, [1, 0, 1], 40)],
)
def test_ddf_matches_the_classical_ladder_over_extension_fields(p, m, h, n):
    ctx = field_new(p, m, h)
    rng = trial_rng(p**m + n, 0)
    f = random_squarefree(ctx, n, rng)
    res = ddf(f, OrderOracle(OracleConfig()), rng)
    assert res.parts == distinct_degree_parts(f)


def test_forced_fallback_matches_sympy():
    # ell = 1 bounds every candidate order by 2, so the first estimate on
    # the input fails and the small-degree ladder has to run.  What it leaves
    # has order 380 and splits into children of strides 4 and 19, and the
    # stride-4 child falls back again before it emits its stride-20 part.
    ctx = field_new(3)
    rng = make_rng(4007)
    f = random_squarefree(ctx, 40, rng)
    trace = []
    res = ddf(f, OrderOracle(OracleConfig()), rng, ell=1, trace=trace)
    assert [rec["fallback"] for rec in trace] == [True, True, False, False]
    assert ffq_parts(res.parts) == sympy_parts(f)


def test_forced_fallback_at_degree_128_strips_on_the_classical_ladder(monkeypatch):
    # The first estimate at ell = 1 fails, so the input is stripped up to
    # degree 26 (26^3 >= 128^2).  The strip runs on classical.ladder; the one
    # call to ddf.distinct_degree_parts is the simulation's shadow.
    ctx = field_new(3)
    rng = trial_rng(3 + 128, 1)
    f = random_squarefree(ctx, 128, rng)
    calls = []

    def counted(*args):
        calls.append(args)
        return distinct_degree_parts(*args)

    # The package re-exports ddf as a function, so the module comes from
    # sys.modules.
    monkeypatch.setattr(sys.modules["ffq.ddf"], "distinct_degree_parts", counted)
    trace = []
    res = ddf(f, OrderOracle(OracleConfig()), rng, ell=1, trace=trace)
    assert trace[0]["fallback"]
    assert len(calls) == 1
    assert ffq_parts(res.parts) == sympy_parts(f)


@pytest.mark.parametrize("p", [3, 101])
def test_extract_small_degrees_matches_sympy(p):
    # 26 is the fallback's bound at degree 128; the F_3 input i = 2 has a
    # part of degree 26.
    ctx = field_new(p)
    for i in range(6):
        f = random_squarefree(ctx, 128, trial_rng(p + 128, i))
        want = sympy_parts(f)
        for bound in (5, 26, 64):
            parts, rem = extract_small_degrees(f, 1, bound)
            assert ffq_parts(parts) == [(g, d) for g, d in want if d <= bound], (i, bound)
            big = [Poly(ctx, g) for g, d in want if d > bound]
            assert rem == product(ctx, big), (i, bound)


# Factor degrees of distinct irreducibles, one shape for each branch of the
# ladder's loop.  "shrink": the degree-8 part is found at the step where
# 2d = deg cur, which holds only after the parts of degree 1, 3 and 4 have
# left.  "rule": the degree-11 part is never found by a gcd; it is emitted
# when 2d > deg cur.  "linear": every part has degree 1 (as many distinct
# linear factors as the field has, at most 24).  "irreducible": the input is
# irreducible, so it too is emitted by the rule.  Irreducible degrees are
# smaller for large p, where drawing one by rejection costs more.
def _shape(name, p):
    if name == "linear":
        return [1] * min(p, 24)
    if name == "irreducible":
        return [31 if p < 100 else 17 if p < 1000 else 9]
    return {"shrink": [1, 3, 4, 4, 8, 8], "rule": [2, 3, 11]}[name]


@pytest.mark.parametrize("shape", ["linear", "irreducible", "shrink", "rule"])
@pytest.mark.parametrize("p", [2, 3, 101, WIDE, WIDER])
def test_ladder_matches_sympy_on_constructed_shapes(p, shape):
    ctx = field_new(p)
    degrees = _shape(shape, p)
    if shape == "linear":
        x = x_poly(ctx)
        polys = [x - Poly.const(ctx, a) for a in range(len(degrees))]
    else:
        polys = distinct_irreducibles(ctx, degrees, make_rng(p % 1000 + len(degrees)))
    f = product(ctx, polys)
    assert ffq_parts(distinct_degree_parts(f)) == sympy_parts(f)


# Shapes at the edges of the ladder's blocks, all of degree >= BLOCK_MIN.
# A block at degree n covers isqrt(n) steps but ends by n / 2.
# "edges" (degree 75): the first block is steps 1-8 and catches degrees 1 and
# 8 at its first and last step.  It leaves degree 66, so the second block is
# steps 9-16 and catches 9 and 16 at its ends.  That leaves degree 41, below
# BLOCK_MIN, so single steps catch 19 and the degree-22 factor leaves by the
# 2d > deg cur rule.  "doubling" (degree 81): the first block, steps 1-9,
# holds degrees e and 2e (2, 4 and 8; 3 and 6) and 3 and 9, with two factors
# of degree 3, which the refinement must tell apart.  "exit" (degree 68): the first block,
# steps 1-8, removes everything but one factor of degree 17, and the rule
# emits it right after the block.  "truncated" (degree 70): blocks of 8 steps
# reach d = 32, so the next block is cut to steps 33-35 at deg cur / 2 and
# catches both factors of degree 35.
BLOCK_SHAPES = {
    "edges": [1, 8, 9, 16, 19, 22],
    "doubling": [2, 3, 3, 4, 6, 8, 9, 23, 23],
    "exit": [1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 17],
    "truncated": [35, 35],
}


@pytest.mark.parametrize("shape", sorted(BLOCK_SHAPES))
@pytest.mark.parametrize("p", [2, 3, 101])
def test_blocked_ladder_matches_sympy_at_block_edges(p, shape):
    ctx = field_new(p)
    degrees = BLOCK_SHAPES[shape]
    f = product(ctx, distinct_irreducibles(ctx, degrees, make_rng(p + len(degrees))))
    assert f.degree >= BLOCK_MIN
    assert ffq_parts(distinct_degree_parts(f)) == sympy_parts(f)


@pytest.mark.parametrize(
    "p, n",
    [(2, 64), (2, 128), (3, 64), (3, 128), (101, 64), (101, 128), (WIDE, 40), (WIDE, 64),
     (WIDER, 25), (WIDER, 48)],
)
def test_ladder_matches_sympy_on_random_inputs(p, n):
    ctx = field_new(p)
    f = random_squarefree(ctx, n, trial_rng(p + n, 7))
    assert ffq_parts(distinct_degree_parts(f)) == sympy_parts(f)


@pytest.mark.parametrize(
    "p, m, h, n, composes",
    [(2, 2, [1, 1, 1], 40, False), (3, 2, [1, 0, 1], 30, False), (P31, 2, [1, 0, 1], 14, True)],
    ids=["F4", "F9", "Fp31^2"],
)
def test_ladder_matches_the_powering_reference_over_extension_fields(p, m, h, n, composes):
    # q = (2^31 - 1)^2 has 62 bits, 31 of them set: a power step costs 91
    # products, so that ladder composes.  F_4 and F_9 power.
    ctx = field_new(p, m, h)
    f = random_squarefree(ctx, n, trial_rng(ctx.q + n, 0))
    before = counters()["modcomp"]
    parts = distinct_degree_parts(f)
    assert (counters()["modcomp"] > before) == composes
    assert parts == ladder_by_powering(f)


def _squareful(ctx, a, b, rng):
    """c * g^2 * h for random monic g, h of degrees a, b and a unit c."""
    g = random_monic(ctx, a, rng)
    h = random_monic(ctx, b, rng)
    c = ctx.rand(rng) or ctx.one
    return (g * g * h).scaled(c)


@pytest.mark.parametrize("p", [2, 3, 101, WIDE])
def test_factor_matches_sympy_on_non_squarefree_inputs(p):
    ctx = field_new(p)
    for i, (a, b) in enumerate([(8, 9), (12, 40)]):
        rng = trial_rng(p, i)
        f = _squareful(ctx, a, b, rng)
        res = factor(f, OrderOracle(OracleConfig()), rng)
        lc, want = gf_factor([int(c) for c in reversed(f.coeffs)], p, ZZ)
        got = [([int(c) for c in g.coeffs], k) for g, k in res.factors]
        assert int(res.unit) == lc
        assert sorted(got) == sorted((list(reversed(g)), k) for g, k in want), (p, i)


@pytest.mark.parametrize(
    "p, m, h, a, b",
    [(2, 2, [1, 1, 1], 8, 20), (3, 2, [1, 0, 1], 8, 20), (P31, 2, [1, 0, 1], 3, 4)],
    ids=["F4", "F9", "Fp31^2"],
)
def test_factor_certificate_over_extension_fields(p, m, h, a, b):
    ctx = field_new(p, m, h)
    rng = trial_rng(ctx.q, a + b)
    f = _squareful(ctx, a, b, rng)
    res = factor(f, OrderOracle(OracleConfig()), rng)
    assert res.unit == f.lead()
    assert len({g for g, _ in res.factors}) == len(res.factors)
    for g, k in res.factors:
        assert k >= 1 and g.is_monic() and is_irreducible(g)
    assert res.product(ctx) == f
    # g^2 divides f, so some factor has multiplicity at least 2
    assert max(k for _, k in res.factors) >= 2


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 5, 101, WIDE]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_ddf_parts_equal_the_classical_parts(p, n, seed):
    ctx = field_new(p)
    rng = make_rng(seed)
    f = random_squarefree(ctx, n, rng)
    assert ddf(f, OrderOracle(OracleConfig()), rng).parts == distinct_degree_parts(f)
