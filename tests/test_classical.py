"""The classical routines: irreducibility, the ladder and the EDF probe.

The ladder is the shadow that ``ddf`` audits its parts against, so these
routines are checked against constructions, counting formulas and sympy's
galoistools rather than other ffq code.
"""

import math

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

import ffq.classical as classical
from ffq import errors, field_new
from ffq.classical import (
    BLOCK_MIN,
    _composes,
    distinct_degree_parts,
    is_irreducible,
    split_probe,
    splitting_degree,
)
from ffq.poly import (
    Poly,
    counters,
    frobenius,
    gcd,
    mulmod,
    powmod,
    random_monic,
    random_poly,
    random_squarefree,
    reset_counters,
    x_poly,
)
from ffq.rng import make_rng

from helpers import (
    all_monic,
    count_irreducibles,
    distinct_irreducibles,
    ladder_by_powering,
    product,
    rand_irreducible,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2, rng=make_rng(30))
F5 = field_new(5)


def test_irreducible_counts_match_the_counting_formula():
    for ctx, dmax in [(F2, 8), (F3, 5), (F4, 4), (F5, 3)]:
        for d in range(1, dmax + 1):
            hits = sum(1 for g in all_monic(ctx, d) if is_irreducible(g))
            assert hits == count_irreducibles(ctx.q, d), (ctx.q, d)


def test_is_irreducible_fixed_cases():
    assert is_irreducible(Poly(F2, [1, 1, 0, 1]))  # x^3 + x + 1
    assert not is_irreducible(Poly(F2, [1, 0, 0, 1]))  # (x + 1)(x^2 + x + 1)
    assert is_irreducible(Poly(F3, [1, 0, 1]))  # x^2 + 1
    assert is_irreducible(Poly(F5, [3, 1]))  # linear
    assert not is_irreducible(Poly(F5, [0, 0, 1]))  # x^2
    with pytest.raises(errors.BadInput):
        is_irreducible(Poly(F3, [2]))  # constants are units, not factors


@pytest.mark.parametrize("p", [2, 3])
def test_is_irreducible_matches_sympy_at_degree_six(p):
    # 6 has two prime divisors, so Rabin's test runs a gcd check at 6/2 and
    # at 6/3 as well as the final x^(q^6) == x test.
    ctx = field_new(p)
    verdicts = [is_irreducible(f) for f in all_monic(ctx, 6)]
    oracle = [gf_irreducible_p(f.coeffs[::-1], p, ZZ) for f in all_monic(ctx, 6)]
    assert verdicts == oracle
    assert sum(verdicts) == count_irreducibles(p, 6)


def test_is_irreducible_matches_sympy_at_large_p():
    """Over F_{2^61-1} Rabin's ladder composes with x^q instead of powering.

    Random monics stop at a gcd check; constructed irreducibles run every
    step; the 7 * 13 product at degree 20 passes both gcd checks (at 10 and
    4) and fails only the final x^(q^20) == x test.
    """
    p = (1 << 61) - 1
    ctx = field_new(p)
    rng = make_rng(61)
    cases = [random_monic(ctx, n, rng) for n in (20, 21, 24, 30) for _ in range(3)]
    cases += [rand_irreducible(ctx, n, rng) for n in (20, 24)]
    cases.append(rand_irreducible(ctx, 7, rng) * rand_irreducible(ctx, 13, rng))
    cases.append(rand_irreducible(ctx, 10, rng) * rand_irreducible(ctx, 10, rng))
    reset_counters()
    verdicts = [is_irreducible(f) for f in cases]
    assert counters()["modcomp"] > 0
    assert verdicts == [gf_irreducible_p(f.coeffs[::-1], p, ZZ) for f in cases]
    assert verdicts[-4:] == [True, True, False, False]


def test_is_irreducible_powers_for_small_q():
    reset_counters()
    f = Poly(F2, [1, 1] + [0] * 18 + [1])  # x^20 + x + 1
    assert is_irreducible(f) == gf_irreducible_p(f.coeffs[::-1], 2, ZZ)
    assert counters()["modcomp"] == 0


def test_products_are_never_irreducible():
    rng = make_rng(333)
    for ctx in [F2, F3, F4]:
        for _ in range(10):
            a = random_monic(ctx, int(rng.integers(1, 5)), rng)
            b = random_monic(ctx, int(rng.integers(1, 5)), rng)
            assert not is_irreducible(a * b)


def test_distinct_degree_parts_on_constructions():
    rng = make_rng(555)
    # F_2 has only two linear and one quadratic irreducible, so repeated
    # degrees below 3 are reserved for the larger fields
    by_field = {
        2: [[1, 2, 3], [3, 5, 1], [5], [1, 1, 4], [3, 3, 6, 1]],
        3: [[1, 2, 3], [2, 2, 4], [5], [1, 1, 1], [3, 3, 6, 1]],
        5: [[1, 2, 3], [2, 2, 4], [5], [1, 1, 1], [3, 3, 6, 1]],
    }
    for ctx in [F2, F3, F5]:
        for shape in by_field[ctx.p]:
            polys = distinct_irreducibles(ctx, shape, rng)
            f = product(ctx, polys)
            parts = distinct_degree_parts(f)
            by_degree = {}
            for g, d in zip(polys, shape):
                by_degree[d] = by_degree.get(d, Poly.one(ctx)) * g
            assert parts == [(by_degree[d], d) for d in sorted(by_degree)]


WIDE = (1 << 61) - 1


@pytest.mark.parametrize(
    "p, m, h, n",
    [(2, 1, None, 40), (3, 1, None, 40), (3, 2, [1, 0, 1], 17), (101, 1, None, 40), (WIDE, 1, None, 20)],
    ids=["F2", "F3", "F9", "F101", "Fp61"],
)
def test_distinct_degree_parts_takes_the_callers_x_to_the_q(p, m, h, n):
    ctx = field_new(p, m, h)
    rng = make_rng(p % 1000 + n)
    for _ in range(3):
        f = random_squarefree(ctx, n, rng)
        xq = frobenius(f, check=False).image
        assert distinct_degree_parts(f, xq) == distinct_degree_parts(f)


@pytest.mark.parametrize(
    "p, m, h, n, composes",
    [(2, 1, None, 128, False), (3, 1, None, 128, False), (3, 2, [1, 0, 1], 17, False),
     (WIDE, 1, None, 20, True)],
    ids=["F2-n128", "F3-n128", "F9-n17", "Fp61-n20"],
)
def test_ladder_steps_by_composition_only_for_large_q(p, m, h, n, composes):
    # A power step costs bit_length(q) + popcount(q) - 2 products: 1 for
    # q = 2, 2 for q = 3 and 4 for q = 9, never more than a composition's
    # 2 * isqrt(deg cur) >= 2.  For q = 2^61 - 1 it costs 120.
    ctx = field_new(p, m, h)
    rng = make_rng(n)
    for _ in range(2):
        f = random_squarefree(ctx, n, rng)
        before = counters()["modcomp"]
        parts = distinct_degree_parts(f)
        assert (counters()["modcomp"] > before) == composes
        assert parts == ladder_by_powering(f)


def test_ladder_switches_to_composition_once_cur_shrinks():
    # Over F_101 a power step costs 9 products.  The input has degree 128,
    # at least BLOCK_MIN, so the first block is the isqrt(128) = 11 steps to
    # degrees 1, ..., 11, all by powering (2 * isqrt(128) = 22).  It removes
    # the parts of degree 1-4 and leaves the two factors of degree 12, a cur
    # of degree 24 below BLOCK_MIN.  So the step to degree 12 is a block of
    # its own, and it composes (2 * isqrt(24) = 8): one composition.
    ctx = field_new(101)
    rng = make_rng(101)
    x = x_poly(ctx)
    linears = [x - Poly.const(ctx, a) for a in range(20)]
    degrees = [2] * 15 + [3] * 10 + [4] * 6 + [12, 12]
    polys = linears + distinct_irreducibles(ctx, degrees, rng)
    f = product(ctx, polys)
    assert f.degree == 128 >= BLOCK_MIN > 24
    before = counters()["modcomp"]
    parts = distinct_degree_parts(f)
    assert counters()["modcomp"] - before == 1
    by_degree = {}
    for g, d in zip(polys, [1] * 20 + degrees):
        by_degree[d] = by_degree.get(d, Poly.one(ctx)) * g
    assert parts == [(by_degree[d], d) for d in sorted(by_degree)]
    assert parts == ladder_by_powering(f)


def test_distinct_degree_parts_requires_squarefree():
    with pytest.raises(errors.NotSquarefree):
        distinct_degree_parts(Poly(F2, [0, 0, 1]))


def test_splitting_degree_is_lcm_of_factor_degrees():
    rng = make_rng(777)
    for shape in [[2, 3], [4, 6], [1, 5], [2, 2, 3]]:
        polys = distinct_irreducibles(F3, shape, rng)
        assert splitting_degree(product(F3, polys)) == math.lcm(*shape)


PROBE_FIELDS = {
    "F2": F2,
    "F3": F3,
    "F101": field_new(101),
    "F2^61-1": field_new((1 << 61) - 1),
    "F4": F4,
    "F9": field_new(3, 2, [1, 0, 1]),
    "F256": field_new(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]),
}


def direct_probe(h, d, u):
    """The probe by its definition: gcd of h with u^((q^d-1)/2) - 1 for odd
    q, or with the absolute trace, dm - 1 squarings, in characteristic 2."""
    ctx = h.ctx
    if ctx.p != 2:
        t = powmod(u, (ctx.q**d - 1) // 2, h) - Poly.one(ctx)
    else:
        t = cur = u % h
        for _ in range(d * ctx.m - 1):
            cur = mulmod(cur, cur, h)
            t = t + cur
    return h if t.is_zero() else gcd(t, h)


def fold_modcomps(d):
    """Compositions of the Frobenius form's doubling for d conjugates: one
    per doubling and per step by one, and one per update of sigma^k that a
    later doubling reads."""
    bits = bin(d)[3:]
    return len(bits) + bits.count("1") + sum(1 + (b == "1") for b in bits[:-1])


@pytest.mark.parametrize("name", list(PROBE_FIELDS))
def test_split_probe_forms_agree_with_the_direct_probe(name, monkeypatch):
    # h is a product of two distinct degree-d irreducibles (F_2 has only one
    # quadratic).  The probe must equal its definition under the real rule,
    # and with either form forced, with x^q mod h, mod a multiple of h, or
    # none given.  u runs reduced and unreduced mod h.
    ctx = PROBE_FIELDS[name]
    rng = make_rng(31 + ctx.q % 1000)
    degrees = list(range(3 if ctx.q == 2 else 2, 21))
    if ctx.q > 100:
        degrees = degrees[:7] + [11, 20]
    cases = []
    for d in degrees:
        a, b, c = distinct_irreducibles(ctx, [d, d, d + 1], rng)
        h = a * b
        xqs = [None, frobenius(h).image, frobenius(h * c).image]
        us = [random_poly(ctx, int(rng.integers(1, 2 * d)), rng),
              random_poly(ctx, 3 * d, rng)]
        cases.append((h, d, xqs, us, [direct_probe(h, d, u) for u in us]))
    splits = 0
    forms = {"rule": _composes, "frobenius": lambda q, n: True, "direct": lambda q, n: False}
    for form, rule in forms.items():
        monkeypatch.setattr(classical, "_composes", rule)
        for h, d, xqs, us, want in cases:
            for u, w in zip(us, want):
                splits += 0 < w.degree < h.degree
                for xq in xqs if form == "frobenius" else xqs[:2]:
                    assert split_probe(h, d, u, xq) == w, (form, d, xq is None)
    assert splits > len(cases)  # the probes split, so the values are not trivial


# F_101 composes up to deg h = 24 and F_256 up to 15; each has a case on
# both sides of that edge.
ROUTE_CASES = [
    ("F2", 3, 2), ("F3", 4, 2), ("F4", 3, 2), ("F9", 2, 2), ("F101", 2, 2),
    ("F101", 2, 12), ("F101", 5, 5), ("F2^61-1", 2, 2), ("F2^61-1", 3, 2),
    ("F2^61-1", 10, 2), ("F256", 3, 5), ("F256", 8, 2),
]


@pytest.mark.parametrize("name, d, k", ROUTE_CASES)
def test_split_probe_route_and_product_counts(name, d, k):
    # The probe composes exactly when d > 1 and _composes(q, deg h), h a
    # product of k degree-d irreducibles.  The direct form takes the
    # square-and-multiply count of its exponent (dm - 1 squarings in
    # characteristic 2) and no composition; the Frobenius form takes the
    # doubling's compositions and fewer products, plus bit_length(q) - 1
    # squarings for x^q mod h when none is given.
    ctx = PROBE_FIELDS[name]
    rng = make_rng(37 * d + k)
    h = product(ctx, distinct_irreducibles(ctx, [d] * k, rng))
    xq = frobenius(h).image
    u = random_poly(ctx, h.degree - 1, rng)
    if ctx.p != 2:
        e = (ctx.q**d - 1) // 2
        direct = e.bit_length() + bin(e).count("1") - 2
    else:
        direct = d * ctx.m - 1
    used = []
    for given in [xq, None]:
        before = counters()
        split_probe(h, d, u, given)
        after = counters()
        used.append((after["mul"] - before["mul"], after["modcomp"] - before["modcomp"]))
    (mul, comps), (mul_none, comps_none) = used
    if d > 1 and _composes(ctx.q, h.degree):
        assert comps == comps_none == fold_modcomps(d)
        assert mul < direct
        assert mul_none - mul == ctx.q.bit_length() - 1
    else:
        assert used == [(direct, 0), (direct, 0)]
    if (name, d, k) == ("F2^61-1", 10, 2):
        assert fold_modcomps(d) == 7 and 3 * mul < direct == 903
