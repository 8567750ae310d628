"""The order-driven ddf against independent oracles above the brute-force guard.

Prime fields are checked against sympy's ``gf_ddf_zassenhaus``, which
shares no code with ffq; galoistools stores coefficients in descending
order, so every comparison reverses the list.  sympy has no F_{p^m}, so
extension fields are checked against the classical repeated-powering
ladder ``classical.distinct_degree_parts``.  Every input has degree >= 25,
beyond the degree-24 guard of the brute-force cross-checks, so the engine
recurses through several strides, gcd splits and inherited stride maps.
"""

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus

from ffq import field_new
from ffq.classical import distinct_degree_parts
from ffq.ddf import ddf
from ffq.order import OracleConfig, OrderOracle
from ffq.poly import random_squarefree
from ffq.rng import make_rng, trial_rng

WIDE = (1 << 61) - 1


def sympy_parts(f):
    """gf_ddf_zassenhaus's parts as (ascending coefficients, degree class)."""
    dense = [int(c) for c in reversed(f.coeffs)]
    return [(list(reversed(g)), d) for g, d in gf_ddf_zassenhaus(dense, f.ctx.p, ZZ)]


def ffq_parts(result):
    return [([int(c) for c in g.coeffs], d) for g, d in result.parts]


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
        assert ffq_parts(res) == sympy_parts(f), (p, n, i)


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
    assert ffq_parts(res) == sympy_parts(f)
