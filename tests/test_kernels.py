"""Kernels against sympy, an independent oracle.

Prime fields are checked against galoistools.  galoistools stores
coefficients in descending order; ffq stores them ascending, so every
comparison reverses the list.  Extension fields F_{p^m} are checked against
the ``ref_*`` arithmetic of ``helpers``: products in sympy's F_p[x, y], each
x-coefficient reduced by h with galoistools.  Sizes straddle the schoolbook
multiply threshold, and the fields reach every lane width the Kronecker
multiply can pick: 16, 32 and 64-bit numpy lanes and byte lanes above 64
bits.  Division is schoolbook at every size; reduction by a Newton inverse
lives only in the reduction contexts (products, powers, x^q and
compositions modulo a fixed f).  One table fixes which context serves each
field and degree: the list context below the Newton threshold, and from it
the packed context over every field.  The packed context is checked at the
same lane edges, on both sides of the threshold and of p = 2^62, where its
residues turn from int64 to Python ints, for primes up to 2^127 - 1, for
non-monic moduli, and with compositions by outer polynomials from the
constants up past n^2 coefficients.  Over extension fields it is checked on
both sides of the threshold, at zero residues and x^q, and with every
y-coefficient p - 1 on both sides of its int64 residue bound.
"""

import gc
from math import isqrt

import numpy as np
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
    gf_pow_mod,
    gf_rem,
    gf_sub,
)

from ffq import field_new
from ffq.poly import (
    _NEWTON_MIN,
    SCHOOLBOOK_MAX,
    Poly,
    _ModCtx,
    _modctx,
    _PolyCtx,
    _pack_width,
    counters,
    frobenius,
    gcd,
    modcomp,
    mulmod,
    powmod,
    random_monic,
    random_poly,
    reset_counters,
    x_poly,
)
from ffq.rng import make_rng

from helpers import ref_divmod, ref_gcd, ref_modcomp, ref_monic, ref_mul

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
    """Divisor lengths 31-33 with quotient lengths 15-17, monic and not."""
    ctx = FIELDS[p]
    rng = make_rng(p % 997 + 2)
    d, k = 32, 16
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


# ----------------------------------------------------------------------
# The packed reduction context: products, powers and compositions mod f.
# ----------------------------------------------------------------------


def check_modular(a: Poly, g: Poly, f: Poly) -> None:
    """mulmod, powmod, modcomp and x^q mod f against galoistools."""
    ctx, p = f.ctx, f.ctx.p
    F = gf(f)
    tag = (p, f.degree, len(a.coeffs), len(g.coeffs))
    assert mulmod(a, g, f) == from_gf(ctx, gf_rem(gf_mul(gf(a), gf(g), p, ZZ), F, p, ZZ)), tag
    for e in (0, 1, 2, 5, p, 3 * p + 1):
        assert powmod(g, e, f) == from_gf(ctx, gf_pow_mod(gf(g), e, F, p, ZZ)), (tag, e)
    if len(g.coeffs) < len(f.coeffs):
        want = gf_compose_mod(gf(a), gf(g), F, p, ZZ)
        assert modcomp(a, g, f) == from_gf(ctx, want), tag
    xq = from_gf(ctx, gf_pow_mod([1, 0], p, F, p, ZZ))
    assert frobenius(f, check=False).image == xq, tag


@pytest.mark.parametrize("bits", [16, 32, 64])
def test_modular_kernels_at_lane_edges_and_the_context_threshold(bits):
    """Worst-case and random operands at both sides of each lane limit, for
    moduli of degree _NEWTON_MIN - 1, _NEWTON_MIN and _NEWTON_MIN + 1."""
    for n in (_NEWTON_MIN - 1, _NEWTON_MIN, _NEWTON_MIN + 1):
        inside, outside = lane_edge_primes(n, bits)
        for p in (inside, outside):
            ctx = field_new(p)
            wb = _pack_width(n, p)[0]
            assert (wb == bits // 8) == (p == inside)
            worst = Poly(ctx, [p - 1] * n)
            f = Poly(ctx, [p - 1] * n + [1])
            check_modular(worst, worst, f)
            # isqrt(n * n - 1) = n - 1: Brent-Kung blocks of n worst-case
            # terms, the most the context's lanes take.  One coefficient
            # more and modcomp caps the block length at n.
            check_modular(Poly(ctx, [p - 1] * (n * n)), worst, f)
            check_modular(Poly(ctx, [p - 1] * (n * n + 1)), worst, f)
            rng = make_rng(p % 1000 + n)
            g = random_monic(ctx, n, rng)
            check_modular(random_poly(ctx, n - 1, rng), random_poly(ctx, n - 1, rng), g)
            # Operands that are not reduced mod f.
            check_modular(random_poly(ctx, 2 * n, rng), random_poly(ctx, n + 3, rng), g)


@pytest.mark.parametrize(
    "p",
    [prevprime(1 << 62), nextprime(1 << 62), prevprime(1 << 63), (1 << 127) - 1]
    + list(lane_edge_primes(_NEWTON_MIN, 64)) + [nextprime(1 << 64)],
    ids=["below-2^62", "above-2^62", "below-2^63", "2^127-1", "u8-lanes", "byte-lanes",
         "above-2^64"],
)
def test_modular_kernels_at_the_int64_residue_bound(p):
    """All-(p - 1) operands on both sides of p = 2^62, where the packed
    context's residues turn from int64 to Python ints, below 2^63, where
    sums of two residues would overflow int64, above 2^64, and on both sides
    of the 64-bit lane edge, where the context's lanes turn from numpy to
    bytes.  Outer polynomials of n^2 and n^2 + 1 coefficients fill the lanes
    with Brent-Kung blocks of n terms."""
    ctx = field_new(p)
    for n in (_NEWTON_MIN - 1, _NEWTON_MIN, _NEWTON_MIN + 1, 20):
        worst = Poly(ctx, [p - 1] * n)
        f = Poly(ctx, [p - 1] * n + [1])
        assert isinstance(_modctx(f), _ModCtx) == (n >= _NEWTON_MIN)
        check_modular(worst, worst, f)
        check_modular(Poly(ctx, [p - 1] * (n * n)), worst, f)
        check_modular(Poly(ctx, [p - 1] * (n * n + 1)), worst, f)


@pytest.mark.parametrize("p", [3, 101, 65537])
def test_modcomp_in_the_context_at_short_and_long_outer_lengths(p):
    ctx = field_new(p)
    rng = make_rng(p % 1000 + 12)
    for n in (_NEWTON_MIN, 40):
        f = random_monic(ctx, n, rng)
        assert isinstance(_modctx(f), _ModCtx)
        g = random_poly(ctx, n - 1, rng)
        for la in (15, 16, 17, 26, n):
            check_modular(random_poly(ctx, la - 1, rng), g, f)
        for a in (Poly.zero(ctx), Poly.const(ctx, 5), random_poly(ctx, 1, rng),
                  random_poly(ctx, 3, rng)):
            for inner in (Poly.zero(ctx), Poly.const(ctx, 7), x_poly(ctx), g):
                check_modular(a, inner, f)
                check_modular(random_poly(ctx, 30, rng), inner, f)
        # More than n^2 coefficients: modcomp caps the block length at n, the
        # most terms the context's lanes are sized for.
        check_modular(random_poly(ctx, n * n, rng), g, f)


@pytest.mark.parametrize(
    "ctx",
    [field_new(3), field_new((1 << 61) - 1), field_new(3, 2, [1, 0, 1]),
     field_new(nextprime(1 << 62))],
    ids=["F3-packed", "F2^61-1-bytes", "F9-ext", "F2^62+-object"],
)
def test_context_counts_one_product_per_modular_product(ctx):
    """Moduli of degree 32 and on both sides of the Newton threshold."""
    rng = make_rng(13)
    t = _NEWTON_MIN
    for n in (32, t - 1, t):
        f = random_monic(ctx, n, rng)
        a, g = random_poly(ctx, 31, rng), random_poly(ctx, n - 1, rng)
        reset_counters()
        mulmod(a, g, f)
        assert counters() == {"mul": 1, "modcomp": 0}, n
        reset_counters()
        powmod(g, 0b1011, f)  # three squarings and two more products
        assert counters() == {"mul": 5, "modcomp": 0}, n
        reset_counters()
        modcomp(a, g, f)  # 32 coefficients, t = 6: 5 baby steps, 5 giant steps
        assert counters() == {"mul": 10, "modcomp": 1}, n
    reset_counters()


@pytest.mark.parametrize("p", [3, (1 << 61) - 1])
def test_non_monic_moduli_get_the_packed_context(p):
    """The context is built for f.monic(), which leaves the same remainders."""
    ctx = field_new(p)
    rng = make_rng(p % 1000 + 17)
    for n in (9, 14):
        f = random_poly(ctx, n, rng)
        if f.is_monic():
            f = f.scaled(2)
        assert isinstance(_modctx(f), _ModCtx) and _modctx(f) is _modctx(f)
        F = gf(f)
        a, g = random_poly(ctx, n - 1, rng), random_poly(ctx, 2 * n, rng)
        want = gf_rem(gf_mul(gf(a), gf(g), p, ZZ), F, p, ZZ)
        assert mulmod(a, g, f) == from_gf(ctx, want), n
        for e in (0, 1, 2, 5, p, 3 * p + 1):
            assert powmod(g, e, f) == from_gf(ctx, gf_pow_mod(gf(g), e, F, p, ZZ)), (n, e)


@pytest.mark.parametrize(
    "ctx",
    [field_new(3), field_new((1 << 61) - 1), field_new(3, 2, [1, 0, 1])],
    ids=["F3-packed", "F2^61-1-bytes", "F9-ext"],
)
def test_modcomp_counts_brent_kung_products_at_every_outer_length(ctx):
    """An outer polynomial of L coefficients costs k - 2 baby steps, with
    k = max(t, 2) and t = isqrt(L - 1) + 1, and, when its b = ceil(L / k)
    blocks are more than one, b products more: the giant step g^k and one per
    block past the first.  A constant or linear outer polynomial costs none."""
    rng = make_rng(14)
    f = random_monic(ctx, 40, rng)
    g = random_poly(ctx, 39, rng)
    for L in range(1, 41):
        k = max(isqrt(L - 1) + 1, 2)
        b = -(-L // k)
        a = random_poly(ctx, L - 1, rng)
        reset_counters()
        modcomp(a, g, f)
        assert counters() == {"mul": k - 2 + (b if b > 1 else 0), "modcomp": 1}, L
    reset_counters()


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


# ----------------------------------------------------------------------
# Extension fields F_{p^m}: packed through F_p[x, y].
# ----------------------------------------------------------------------

P31 = (1 << 31) - 1
EXT_FIELDS = {
    "F4": field_new(2, 2, [1, 1, 1]),
    "F9": field_new(3, 2, [1, 0, 1]),
    "F25": field_new(5, 2, [2, 0, 1]),
    "F256": field_new(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]),
    "Fp31^2": field_new(P31, 2, [1, 0, 1]),
}
EXT = sorted(EXT_FIELDS)


def flat_len(n: int, m: int) -> int:
    """F_p lanes of an n-coefficient operand: 2m - 1 per coefficient, less the
    trailing padding."""
    return n * (2 * m - 1) - (m - 1)


def school_edge(m: int) -> int:
    """The fewest coefficients whose lanes leave the schoolbook multiply."""
    n = 1
    while flat_len(n, m) <= SCHOOLBOOK_MAX:
        n += 1
    return n


def check_ext_mul(a: Poly, b: Poly) -> None:
    assert a * b == ref_mul(a, b), (a.ctx, len(a.coeffs), len(b.coeffs))


def check_ext_divmod(a: Poly, b: Poly) -> None:
    assert divmod(a, b) == ref_divmod(a, b), (a.ctx, len(a.coeffs), len(b.coeffs))


@pytest.mark.parametrize("name", EXT)
def test_ext_mul_straddles_schoolbook_threshold(name):
    ctx = EXT_FIELDS[name]
    rng = make_rng(ctx.q % 1000 + 6)
    e = school_edge(ctx.m)
    for la, lb in [(1, 1), (1, e + 2), (e - 1, e - 1), (e - 1, e), (e, e),
                   (e, e + 1), (e + 1, 3 * e), (33, 33), (70, 17)]:
        check_ext_mul(random_poly(ctx, la - 1, rng), random_poly(ctx, lb - 1, rng))


def test_ext_fields_reach_numpy_and_byte_lanes():
    """Small characteristics pack into 16-bit lanes, p = 2^31 - 1 into byte
    lanes; the lane-edge fields below reach 32 and 64 bits."""
    for name, ctx in EXT_FIELDS.items():
        wb, dt = _pack_width(flat_len(school_edge(ctx.m), ctx.m), ctx.p)
        if ctx.p < 8:
            assert (wb, dt) == (2, "<u2"), name
        else:
            assert dt is None and wb > 8, name


@pytest.mark.parametrize("bits", [16, 32, 64])
def test_ext_mul_at_each_lane_width_edge(bits):
    """Quadratic extensions over the primes at both sides of each lane limit."""
    nx = school_edge(2)
    nmin = flat_len(nx, 2)
    inside, outside = lane_edge_primes(nmin, bits)
    assert _pack_width(nmin, inside)[0] == bits // 8
    assert _pack_width(nmin, outside)[0] > bits // 8
    for p in (inside, outside):
        ctx = field_new(p, 2, rng=make_rng(p % 1000 + 7))
        worst = Poly(ctx, [(p - 1, p - 1)] * nx)
        check_ext_mul(worst, worst)
        check_ext_mul(worst, Poly(ctx, [(p - 1, p - 1)] * (3 * nx)))
        rng = make_rng(bits)
        check_ext_mul(random_poly(ctx, nx, rng), random_poly(ctx, 2 * nx, rng))


@pytest.mark.parametrize("name", EXT)
def test_ext_divmod_straddles_fast_division_thresholds(name):
    """Divisor and quotient lengths 7-9, monic and not, and one monic divisor
    of degree 16 with quotients of degree 8, 24, 12 and 40."""
    ctx = EXT_FIELDS[name]
    rng = make_rng(ctx.q % 997 + 8)
    d = k = 8
    for lb in (d - 1, d, d + 1):
        for quot in (k - 1, k, k + 1):
            a = random_poly(ctx, lb + quot - 1, rng)
            check_ext_divmod(a, random_monic(ctx, lb - 1, rng))
            check_ext_divmod(a, random_poly(ctx, lb - 1, rng))  # non-monic
    for da, db in [(0, 0), (5, 0), (3, 7), (20, 20), (40, 5)]:
        check_ext_divmod(random_poly(ctx, da, rng), random_poly(ctx, db, rng))
    rng = make_rng(ctx.q % 991 + 9)
    b = random_monic(ctx, 16, rng)
    for quot in (8, 24, 12, 40):
        check_ext_divmod(random_poly(ctx, b.degree + quot, rng), b)


@pytest.mark.parametrize("name", EXT)
def test_ext_gcd_and_scaling_against_reference(name):
    ctx = EXT_FIELDS[name]
    rng = make_rng(ctx.q % 983 + 10)
    for da, db, dc in [(3, 5, 0), (10, 7, 4), (20, 23, 9), (1, 30, 12)]:
        c = random_poly(ctx, dc, rng)
        a, b = random_poly(ctx, da, rng) * c, random_poly(ctx, db, rng) * c
        assert gcd(a, b) == ref_gcd(a, b), (da, db, dc)
    f = random_poly(ctx, 9, rng)
    assert gcd(f, Poly.zero(ctx)) == gcd(Poly.zero(ctx), f) == ref_monic(f)
    for n in (1, 9, 40):
        f = random_poly(ctx, n, rng)
        c = ctx.rand(rng)
        assert f.scaled(c) == ref_mul(f, Poly.const(ctx, c))
        assert f.monic() == ref_monic(f)


@pytest.mark.parametrize("name", EXT)
def test_ext_modcomp_at_short_and_long_outer_lengths_against_reference(name):
    ctx = EXT_FIELDS[name]
    rng = make_rng(ctx.q % 977 + 11)
    for df, da in [(6, 5), (19, 15), (19, 16), (24, 30)]:
        f = random_monic(ctx, df, rng)
        a = random_poly(ctx, da, rng)
        g = random_poly(ctx, df - 1, rng)
        assert modcomp(a, g, f) == ref_modcomp(a, g, f), (df, da)


def ref_powmod(g: Poly, e: int, f: Poly) -> Poly:
    """g^e mod f by square-and-multiply on reference products."""
    out = ref_divmod(Poly.one(f.ctx), f)[1]
    for bit in bin(e)[2:]:
        out = ref_divmod(ref_mul(out, out), f)[1]
        if bit == "1":
            out = ref_divmod(ref_mul(out, g), f)[1]
    return out


@pytest.mark.parametrize(
    "ctx",
    [field_new((1 << 127) - 1), field_new(nextprime(1 << 62)), EXT_FIELDS["F9"],
     EXT_FIELDS["F256"]],
    ids=["F2^127-1", "F2^62+", "F9", "F256"],
)
def test_list_context_at_its_newton_thresholds(ctx):
    """mulmod, powmod and modcomp for moduli of degree t - 1, t and t + 1,
    t = _NEWTON_MIN: below t the list context divides schoolbook, and from
    t on the packed context reduces by the inverse of reversed f, over a
    prime field and over F_{p^m} alike."""
    t = _NEWTON_MIN
    rng = make_rng(ctx.q % 1000 + 16)
    for n in (t - 1, t, t + 1):
        f = random_monic(ctx, n, rng)
        mc = _modctx(f)
        assert isinstance(mc, _ModCtx if n >= t else _PolyCtx), n
        assert _modctx(f) is mc
        a, g = random_poly(ctx, 2 * n, rng), random_poly(ctx, n - 1, rng)
        if ctx.m == 1:
            check_modular(a, g, f)
            check_modular(random_poly(ctx, n - 1, rng), g, f)
            continue
        assert mulmod(a, g, f) == ref_divmod(ref_mul(a, g), f)[1], n
        for e in (0, 1, 2, 5, 13):
            assert powmod(g, e, f) == ref_powmod(g, e, f), (n, e)
        assert modcomp(a, g, f) == ref_modcomp(a, g, f), n


def quadratic_field(p: int):
    """F_{p^2} with a modulus found by ``field_new``'s seeded search."""
    return field_new(p, 2, rng=make_rng(p % 1000 + 22))


# F_{p^2} on both sides of the int64 residue bound 2p + (m - 1)(p - 1)^2 < 2^63.
P_INT64_EDGE = (3037000493, 3037000507)

# Which context serves a modulus of each degree in ROUTING_DEGREES, one
# letter a degree: the list context dividing schoolbook (L), and the packed
# context reducing by a Newton inverse, with int64 (I) or Python-int (O)
# residues.  The degree alone picks the context; the field picks the dtype.
ROUTES = {
    "L": (_PolyCtx, None),
    "I": (_ModCtx, np.dtype(np.int64)),
    "O": (_ModCtx, np.dtype(object)),
}
ROUTING_DEGREES = (1, 7, 8, 9, 40)
ROUTING = {
    "F2": (field_new(2), "LLIII"),
    "F3": (field_new(3), "LLIII"),
    "F101": (field_new(101), "LLIII"),
    "F2^61-1": (field_new((1 << 61) - 1), "LLIII"),
    "below-2^62": (field_new(prevprime(1 << 62)), "LLIII"),
    "above-2^62": (field_new(nextprime(1 << 62)), "LLOOO"),
    "below-2^63": (field_new(prevprime(1 << 63)), "LLOOO"),
    "above-2^64": (field_new(nextprime(1 << 64)), "LLOOO"),
    "2^127-1": (field_new((1 << 127) - 1), "LLOOO"),
    "F4": (EXT_FIELDS["F4"], "LLIII"),
    "F9": (EXT_FIELDS["F9"], "LLIII"),
    "F256": (EXT_FIELDS["F256"], "LLIII"),
    "Fp31^2": (EXT_FIELDS["Fp31^2"], "LLIII"),  # int64 residues in byte lanes
    "F(2^61-1)^2": (field_new((1 << 61) - 1, 2, [1, 0, 1]), "LLOOO"),
    "Fp^2-below-int64": (quadratic_field(P_INT64_EDGE[0]), "LLIII"),
    "Fp^2-above-int64": (quadratic_field(P_INT64_EDGE[1]), "LLOOO"),
}


@pytest.mark.parametrize("name", ROUTING)
def test_routing_table_of_the_reduction_contexts(name):
    """``_modctx`` picks the context class from the degree of f alone, and
    the packed context's residue dtype from the field."""
    ctx, row = ROUTING[name]
    rng = make_rng(ctx.q % 1000 + 18)
    for n, code in zip(ROUTING_DEGREES, row):
        f = random_monic(ctx, n, rng)
        mc = _modctx(f)
        r = mc.residue(random_poly(ctx, 2 * n, rng))
        prod = mc.mul(mc.pack(r), mc.pack(r))
        dtypes = {x.dtype if isinstance(x, np.ndarray) else None for x in (r, prod)}
        assert len(dtypes) == 1, (n, dtypes)
        got = (type(mc), dtypes.pop())
        assert got == ROUTES[code], (n, got)


EDGE_FIELDS = {
    "F9": EXT_FIELDS["F9"],
    "F27": field_new(3, 3, rng=make_rng(23)),
    "F256": EXT_FIELDS["F256"],
}


@pytest.mark.parametrize("name", EDGE_FIELDS)
def test_packed_context_edge_cases_over_extension_fields(name):
    """The packed context over F_{p^m}, m = 2, 3 and 8, against reference
    arithmetic at deg f = 8, its threshold, and 9: zero residues, a constant
    composed, x * a mod f with a zero and a nonzero top coefficient, x^q mod
    f, and a Brent-Kung block at the cap t = deg f."""
    ctx = EDGE_FIELDS[name]
    rng = make_rng(ctx.q % 1000 + 24)
    zero, one = Poly.zero(ctx), Poly.one(ctx)
    for n in (_NEWTON_MIN, _NEWTON_MIN + 1):
        f = random_monic(ctx, n, rng)
        mc = _modctx(f)
        assert isinstance(mc, _ModCtx), n
        g = random_poly(ctx, n - 1, rng)
        assert mulmod(zero, g, f) == mulmod(g, zero, f) == zero
        assert powmod(g, 0, f) == powmod(zero, 0, f) == one
        assert powmod(zero, 3, f) == zero
        c = Poly.const(ctx, ctx.rand(rng))
        assert modcomp(c, g, f) == c and modcomp(c, zero, f) == c
        assert modcomp(g, zero, f) == Poly.const(ctx, g.coeff(0))
        for top in (ctx.zero, ctx.one, ctx.rand(rng)):
            a = Poly(ctx, random_poly(ctx, n - 2, rng).coeffs + [top])
            want = ref_divmod(a.shift(1), f)[1]
            assert mc.poly(mc.shift(mc.residue(a))) == want, (n, top)
        x = x_poly(ctx)
        assert frobenius(f, check=False).image == ref_powmod(x, ctx.q, f), n
        # n^2 + 1 outer coefficients: the block length is capped at t = n.
        a = random_poly(ctx, n * n, rng)
        reset_counters()
        got = modcomp(a, g, f)
        b = -(-(n * n + 1) // n)
        assert counters() == {"mul": n - 2 + b, "modcomp": 1}, n
        assert got == ref_modcomp(a, g, f), n
    reset_counters()


@pytest.mark.parametrize(
    "ctx",
    [field_new(16381, 3, rng=make_rng(25))] + [quadratic_field(p) for p in P_INT64_EDGE],
    ids=["F16381^3", "Fp^2-below-int64", "Fp^2-above-int64"],
)
def test_packed_context_worst_case_over_extension_fields(ctx):
    """Every y-coefficient p - 1 at n = 8: a lane of the product sums n*m
    products of two coefficients, which sizes the lanes, and the folded
    groups reach the int64 residue bound on either side of it."""
    p, m, n = ctx.p, ctx.m, _NEWTON_MIN
    big = tuple([p - 1] * m)
    worst = Poly(ctx, [big] * n)
    f = Poly(ctx, [big] * n + [ctx.one])
    assert isinstance(_modctx(f), _ModCtx)
    assert mulmod(worst, worst, f) == ref_divmod(ref_mul(worst, worst), f)[1]
    assert powmod(worst, 5, f) == ref_powmod(worst, 5, f)
    long = Poly(ctx, [big] * (n * n + 1))
    assert modcomp(long, worst, f) == ref_modcomp(long, worst, f)


def test_reduction_context_leaves_no_reference_cycle():
    """A modulus and its cached context are freed by reference counting: the
    context holds a copy of f.monic(), not f."""
    rng = make_rng(19)
    F101 = field_new(101)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for ctx, n in ((EXT_FIELDS["F9"], 17), (F101, 6)):
            f = random_monic(ctx, n, rng)
            _modctx(f)
            del f
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "ctx", [field_new(3), EXT_FIELDS["F9"]], ids=["F3-packed", "F9-list"],
)
def test_modcomp_caps_its_block_length_at_deg_f(ctx):
    """Past (deg f)^2 outer coefficients the Brent-Kung block length stays at
    deg f = 8: k = min(max(isqrt(L - 1) + 1, 2), 8) costs k - 2 baby steps,
    the giant step and one product per block past the first."""
    rng = make_rng(20)
    f = random_monic(ctx, 8, rng)
    g = random_poly(ctx, 7, rng)
    for L in (64, 65, 66, 100):
        k = min(max(isqrt(L - 1) + 1, 2), 8)
        b = -(-L // k)
        a = random_poly(ctx, L - 1, rng)
        reset_counters()
        got = modcomp(a, g, f)
        assert counters() == {"mul": k - 2 + b, "modcomp": 1}, L
        if ctx.m == 1:
            assert got == from_gf(ctx, gf_compose_mod(gf(a), gf(g), gf(f), 3, ZZ)), L
        else:
            assert got == ref_modcomp(a, g, f), L
    reset_counters()


def test_const_maps_ints_into_the_field():
    F3, F9 = field_new(3), EXT_FIELDS["F9"]
    assert Poly.const(F3, 5) == Poly.const(F3, 2)
    assert Poly.const(F9, 5) == Poly.const(F9, F9.from_int(2))
    assert Poly.const(F9, F9.from_int(2)).coeffs == [F9.from_int(2)]
    rng = make_rng(15)
    for n in (5, _NEWTON_MIN + 8):  # the list and the packed context
        f = random_monic(F3, n, rng)
        g = random_poly(F3, n - 1, rng)
        assert modcomp(Poly.const(F3, 5), g, f) == from_gf(
            F3, gf_compose_mod([2], gf(g), gf(f), 3, ZZ))
        assert powmod(Poly.const(F3, 7), 5, f) == from_gf(
            F3, gf_pow_mod([1], 5, gf(f), 3, ZZ))
        f9 = random_monic(F9, n, rng)
        g9 = random_poly(F9, n - 1, rng)
        two = Poly.const(F9, F9.from_int(2))
        assert modcomp(Poly.const(F9, 5), g9, f9) == ref_modcomp(two, g9, f9)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(EXT),
    la=st.integers(0, 40),
    lb=st.integers(1, 30),
    lc=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_ext_kernels_agree_with_reference(name, la, lb, lc, seed):
    ctx = EXT_FIELDS[name]
    rng = make_rng(seed)
    a = random_poly(ctx, la - 1, rng)
    b = random_poly(ctx, lb - 1, rng)
    check_ext_mul(a, b)
    check_ext_divmod(a, b)
    check_ext_divmod(a, b.monic())
    c = random_poly(ctx, lc - 1, rng)
    assert gcd(a * c, b * c) == ref_gcd(a * c, b * c)
