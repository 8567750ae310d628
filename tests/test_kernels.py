"""Prime-field kernels against sympy's galoistools, an independent oracle.

galoistools stores coefficients in descending order; ffq stores them
ascending, so every comparison reverses the list.  Sizes straddle the
schoolbook and fast-division thresholds, and the primes reach every lane
width the Kronecker multiply can pick: 16, 32 and 64-bit numpy lanes and
byte lanes above 64 bits.
"""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import nextprime, prevprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_add,
    gf_compose_mod,
    gf_div,
    gf_gcd,
    gf_mul,
    gf_mul_ground,
    gf_sub,
)

from ffq import field_new
from ffq.poly import (
    _FAST_DIV_MIN_DIVISOR,
    _FAST_DIV_MIN_QUOTIENT,
    SCHOOLBOOK_MAX,
    Poly,
    _pack_width,
    gcd,
    modcomp,
    random_monic,
    random_poly,
)
from ffq.rng import make_rng

PRIMES = [2, 3, 65537, (1 << 31) - 1, (1 << 61) - 1, (1 << 127) - 1]
FIELDS = {p: field_new(p) for p in PRIMES}


def gf(f: Poly) -> list[int]:
    return f.coeffs[::-1]


def from_gf(ctx, c: list[int]) -> Poly:
    return Poly(ctx, [int(v) for v in reversed(c)])


def check_mul(a: Poly, b: Poly) -> None:
    want = from_gf(a.ctx, gf_mul(gf(a), gf(b), a.ctx.p, ZZ))
    assert a * b == want, (a.ctx.p, len(a.coeffs), len(b.coeffs))


def check_divmod(a: Poly, b: Poly) -> None:
    gq, gr = gf_div(gf(a), gf(b), a.ctx.p, ZZ)
    want = from_gf(a.ctx, gq), from_gf(a.ctx, gr)
    assert divmod(a, b) == want, (a.ctx.p, len(a.coeffs), len(b.coeffs))


def check_gcd(a: Poly, b: Poly) -> None:
    want = from_gf(a.ctx, gf_gcd(gf(a), gf(b), a.ctx.p, ZZ))
    assert gcd(a, b) == want, (a.ctx.p, a.degree, b.degree)


def lane_edge_primes(nmin: int, bits: int) -> tuple[int, int]:
    """The largest prime whose nmin-term products fit a ``bits`` lane, and the next."""
    def fits(p):  # the lane rule of _pack_width
        return (nmin * (p - 1) ** 2).bit_length() + 1 <= bits

    p = nextprime(isqrt((1 << (bits - 1)) // nmin) + 1)
    while not fits(p):
        p = prevprime(p)
    return p, nextprime(p)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_straddles_schoolbook_threshold(p):
    ctx = FIELDS[p]
    rng = make_rng(p % 1000 + 1)
    s = SCHOOLBOOK_MAX
    for la, lb in [(1, 1), (s - 1, s), (s, s), (s, s + 1), (s + 1, s + 1),
                   (s + 1, 3 * s), (2 * s, 2 * s), (70, 129)]:
        check_mul(random_poly(ctx, la - 1, rng), random_poly(ctx, lb - 1, rng))


@pytest.mark.parametrize("bits", [16, 32, 64])
def test_mul_at_each_lane_width_edge(bits):
    """The worst-case product (all coefficients p - 1) at both sides of each lane limit."""
    nmin = SCHOOLBOOK_MAX + 1
    inside, outside = lane_edge_primes(nmin, bits)
    assert _pack_width(nmin, inside)[0] == bits // 8
    assert _pack_width(nmin, outside)[0] > bits // 8
    for p in (inside, outside):
        ctx = field_new(p)
        worst = Poly(ctx, [p - 1] * nmin)
        check_mul(worst, worst)
        check_mul(worst, Poly(ctx, [p - 1] * (3 * nmin)))


def test_fixed_primes_reach_numpy_and_byte_lanes():
    """32-bit lanes are reached by the lane-edge primes above."""
    nmin = SCHOOLBOOK_MAX + 1
    widths = {p: _pack_width(nmin, p) for p in PRIMES}
    assert widths[3] == (2, "<u2")
    assert widths[65537] == (8, "<u8")
    for p in [(1 << 31) - 1, (1 << 61) - 1, (1 << 127) - 1]:
        wb, dt = widths[p]
        assert dt is None and wb * 8 >= (nmin * (p - 1) ** 2).bit_length() + 1


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_straddles_fast_division_thresholds(p):
    ctx = FIELDS[p]
    rng = make_rng(p % 997 + 2)
    d, k = _FAST_DIV_MIN_DIVISOR, _FAST_DIV_MIN_QUOTIENT
    for lb in (d - 1, d, d + 1):
        for quot in (k - 1, k, k + 1):
            la = lb + quot
            a = random_poly(ctx, la - 1, rng)
            check_divmod(a, random_monic(ctx, lb - 1, rng))
            check_divmod(a, random_poly(ctx, lb - 1, rng))  # non-monic
    for da, db in [(0, 0), (5, 0), (3, 7), (20, 20), (40, 5)]:
        check_divmod(random_poly(ctx, da, rng), random_poly(ctx, db, rng))


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_against_galoistools(p):
    ctx = FIELDS[p]
    rng = make_rng(p % 991 + 3)
    for da, db, dc in [(3, 5, 0), (10, 7, 4), (30, 33, 12), (1, 40, 20)]:
        c = random_poly(ctx, dc, rng)
        check_gcd(random_poly(ctx, da, rng) * c, random_poly(ctx, db, rng) * c)
    f = random_poly(ctx, 9, rng)
    check_gcd(f, Poly.zero(ctx))
    check_gcd(Poly.zero(ctx), f)


@pytest.mark.parametrize("p", PRIMES)
def test_add_sub_scale_against_galoistools(p):
    ctx = FIELDS[p]
    rng = make_rng(p % 983 + 4)
    for da, db in [(0, 3), (7, 7), (9, 2)]:
        a, b = random_poly(ctx, da, rng), random_poly(ctx, db, rng)
        assert a + b == from_gf(ctx, gf_add(gf(a), gf(b), p, ZZ))
        assert a - b == from_gf(ctx, gf_sub(gf(a), gf(b), p, ZZ))
        assert b - a == from_gf(ctx, gf_sub(gf(b), gf(a), p, ZZ))
        assert a - a == Poly.zero(ctx)
        c = ctx.rand(rng) or 1
        assert a.scaled(c) == from_gf(ctx, gf_mul_ground(gf(a), c, p, ZZ))


@pytest.mark.parametrize("p", PRIMES)
def test_modcomp_packed_blocks_against_galoistools(p):
    """Baby-step/giant-step blocks use the same lanes as the multiply."""
    ctx = FIELDS[p]
    rng = make_rng(p % 977 + 5)
    for df, da in [(20, 19), (33, 40)]:
        f = random_monic(ctx, df, rng)
        a = random_poly(ctx, da, rng)
        g = random_poly(ctx, df - 1, rng)
        want = gf_compose_mod(gf(a), gf(g), gf(f), p, ZZ)
        assert modcomp(a, g, f) == from_gf(ctx, want)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    la=st.integers(0, 80),
    lb=st.integers(1, 60),
    lc=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_agree_with_galoistools(p, la, lb, lc, seed):
    ctx = FIELDS[p]
    rng = make_rng(seed)
    a = random_poly(ctx, la - 1, rng)
    b = random_poly(ctx, lb - 1, rng)
    check_mul(a, b)
    check_divmod(a, b)
    check_divmod(a, b.monic())
    c = random_poly(ctx, lc - 1, rng)
    check_gcd(a * c, b * c)
