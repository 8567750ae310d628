"""Polynomial arithmetic: kernels, division, composition, Frobenius maps."""

import pytest
from sympy import nextprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div

from ffq import errors, field_new
from ffq.poly import (
    _NEWTON_MIN,
    Endo,
    Poly,
    _divmod_ext,
    _divmod_int,
    _ModCtx,
    _modctx,
    _PolyCtx,
    counters,
    frobenius,
    gcd,
    modcomp,
    mulmod,
    poly_pth_root,
    powmod,
    random_monic,
    random_poly,
    random_squarefree,
    reset_counters,
    x_poly,
)
from ffq.rng import make_rng

from helpers import rand_irreducible, ref_divmod

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)
F9 = field_new(3, 2, [1, 0, 1])
F_ABOVE_2_62 = field_new(nextprime(1 << 62))
F_2_127 = field_new((1 << 127) - 1)


def ref_mul(a, b):
    """Reference product by direct convolution, no shortcuts."""
    ctx = a.ctx
    if a.is_zero() or b.is_zero():
        return Poly.zero(ctx)
    out = [ctx.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return Poly(ctx, out)


def ref_compose_mod(a, g, f):
    """Reference a(g) mod f by substitution, one power at a time."""
    ctx = f.ctx
    acc = Poly.zero(ctx)
    power = Poly.one(ctx)
    for c in a.coeffs:
        acc = (acc + power.scaled(c)) % f
        power = (power * g) % f
    return acc % f


def test_construction_drops_trailing_zeros():
    f = Poly(F5, [1, 2, 0, 0])
    assert f.coeffs == [1, 2]
    assert f.degree == 1
    z = Poly(F5, [0, 0])
    assert z.is_zero() and z.degree == float("-inf")


def test_multiplication_matches_reference_all_kernels():
    rng = make_rng(2024)
    # small prime (packed 16/32-bit lanes), large prime (big-int fallback),
    # and extension fields (the same kernels through F_p[x, y])
    big = (1 << 61) - 1
    fields = [F2, F3, F5, field_new(65537), field_new(big), F9, field_new(2, 3, rng=make_rng(69))]
    for ctx in fields:
        for da, db in [(0, 5), (3, 3), (7, 12), (15, 16), (31, 33), (64, 64), (100, 17)]:
            a = random_poly(ctx, da, rng)
            b = random_poly(ctx, db, rng)
            assert a * b == ref_mul(a, b), (ctx.p, ctx.m, da, db)


def test_multiplication_degree_and_commutativity():
    rng = make_rng(7)
    for ctx in [F3, F9]:
        for _ in range(30):
            a = random_monic(ctx, int(rng.integers(1, 40)), rng)
            b = random_monic(ctx, int(rng.integers(1, 40)), rng)
            c = a * b
            assert c.degree == a.degree + b.degree
            assert c == b * a


def test_divmod_matches_reference():
    rng = make_rng(11)
    big = (1 << 61) - 1
    for ctx in [F2, F5, field_new(big), F9]:
        for da, db in [(5, 2), (12, 7), (40, 8), (80, 33), (100, 40), (64, 63)]:
            a = random_poly(ctx, da, rng)
            b = random_monic(ctx, db, rng)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_list_context_reduces_every_product_length():
    """Both contexts' products against the lazy schoolbook kernels, and both
    against an independent reference: galoistools over the prime fields
    just above 2^62 and at 2^127 - 1, which take the packed context, and the
    galoistools-based schoolbook of ``helpers`` over F_9, whose moduli
    straddle the Newton threshold.  The products of two residues take every
    length from n + 1 to 2n - 1."""
    rng = make_rng(13)
    for ctx, degrees in ((F_ABOVE_2_62, (16, 40)), (F_2_127, (16, 40)), (F9, (4, 20))):
        for _ in range(10):
            f = random_monic(ctx, int(rng.integers(*degrees)), rng)
            n = f.degree
            mc = _modctx(f)
            assert isinstance(mc, _ModCtx if n >= _NEWTON_MIN else _PolyCtx)
            for length in range(n + 1, 2 * n):
                a = random_poly(ctx, n - 1, rng)
                b = random_poly(ctx, length - n, rng)
                c = a * b
                r = mc.poly(mc.mul(mc.pack(mc.residue(a)), mc.pack(mc.residue(b))))
                if ctx.m == 1:
                    want = _divmod_int(c.coeffs, f.coeffs, ctx.p)[1]
                    gr = gf_div(c.coeffs[::-1], f.coeffs[::-1], ctx.p, ZZ)[1]
                    assert want == [int(v) for v in gr[::-1]]
                else:
                    want = _divmod_ext(c.coeffs, f.coeffs, F9)[1]
                    assert Poly(F9, want) == ref_divmod(c, f)[1]
                assert r.coeffs == want, (ctx, n, length)


def test_division_by_non_monic_and_units():
    rng = make_rng(17)
    a = random_poly(F5, 10, rng)
    b = random_poly(F5, 4, rng).scaled(3)
    if b.lead() == 1:
        b = b.scaled(2)
    q, r = divmod(a, b)
    assert q * b + r == a and (r.is_zero() or r.degree < b.degree)
    c = Poly.const(F5, 2)
    q, r = divmod(a, c)
    assert r.is_zero() and q.scaled(2) == a
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.zero(F5))
    with pytest.raises(ZeroDivisionError):
        mulmod(a, a, Poly.zero(F5))


def test_gcd_properties():
    rng = make_rng(23)
    for ctx in [F2, F5, F9]:
        for _ in range(25):
            a = random_monic(ctx, int(rng.integers(1, 15)), rng)
            b = random_monic(ctx, int(rng.integers(1, 15)), rng)
            c = random_monic(ctx, int(rng.integers(1, 6)), rng)
            g = gcd(a * c, b * c)
            assert g.is_monic()
            assert (a * c) % g == Poly.zero(ctx)
            assert (b * c) % g == Poly.zero(ctx)
            assert g % c == Poly.zero(ctx)  # c divides both, so it divides the gcd
    f = random_monic(F5, 5, rng)
    assert gcd(f, Poly.zero(F5)) == f.monic()
    with pytest.raises(errors.BothZero):
        gcd(Poly.zero(F5), Poly.zero(F5))


@pytest.mark.parametrize("ctx", [F5, F9], ids=["F5", "F9"])
def test_gcd_edge_cases(ctx):
    rng = make_rng(67)
    zero = Poly.zero(ctx)
    two = ctx.from_int(2)
    c = random_monic(ctx, 3, rng)
    f = (random_monic(ctx, 4, rng) * c).scaled(two)  # not monic
    assert not f.is_monic()
    assert gcd(f, zero) == f.monic()
    assert gcd(zero, f) == f.monic()
    g = (random_monic(ctx, 5, rng) * c).scaled(two)
    h = gcd(f, g)
    assert h.is_monic() and h % c == zero and f % h == zero and g % h == zero
    # coprime inputs: a nonzero constant gcd comes back as 1
    x = x_poly(ctx)
    assert gcd(x.shift(2) + Poly.one(ctx), x.scaled(two)) == Poly.one(ctx)
    assert gcd(Poly.const(ctx, two), f) == Poly.one(ctx)
    with pytest.raises(errors.BothZero):
        gcd(zero, zero)
    other = F3 if ctx is F5 else F5
    with pytest.raises(errors.FieldMismatch):
        gcd(f, x_poly(other))
    with pytest.raises(errors.FieldMismatch):
        gcd(zero, Poly.zero(other))


def test_powmod_matches_repeated_multiplication():
    rng = make_rng(29)
    for ctx in [F3, F9]:
        f = random_monic(ctx, 9, rng)
        a = random_poly(ctx, 8, rng)
        # Non-monic moduli take the list context at every degree, also at
        # degree 14, where a monic F_3 modulus would take the packed one.
        two = ctx.from_int(2)
        for mod in (f, f.scaled(two), random_monic(ctx, 14, rng).scaled(two)):
            cur = Poly.one(ctx)
            for e in range(40):
                assert powmod(a, e, mod) == cur
                cur = (cur * a) % mod
            assert mulmod(a, a, mod) == (a * a) % mod
            assert mulmod(a * a, a, mod) == (a * a * a) % mod


def test_modcomp_matches_reference_both_paths():
    rng = make_rng(31)
    for ctx in [F2, F5, F9]:
        for df, da in [(6, 3), (9, 8), (20, 19), (40, 39), (33, 12)]:
            f = random_monic(ctx, df, rng)
            a = random_poly(ctx, da, rng)
            g = random_poly(ctx, df - 1, rng)
            assert modcomp(a, g, f) == ref_compose_mod(a, g, f), (ctx.p, df, da)


def test_modcomp_rejects_mismatched_inputs():
    rng = make_rng(37)
    f = random_monic(F5, 6, rng)
    a = random_poly(F5, 8, rng)
    with pytest.raises(errors.DegreeError):
        modcomp(a, random_poly(F5, 7, rng), f)  # g too large
    with pytest.raises(errors.FieldMismatch):
        modcomp(a, random_poly(F3, 4, rng), f)


def test_operation_counters_track_work():
    rng = make_rng(41)
    f = random_monic(F5, 30, rng)
    a = random_poly(F5, 29, rng)
    g = random_poly(F5, 29, rng)
    reset_counters()
    modcomp(a, g, f)
    stats = counters()
    assert stats["modcomp"] == 1
    assert stats["mul"] > 0
    reset_counters()
    assert counters() == {"mul": 0, "modcomp": 0}


def test_evaluation_and_derivative():
    # f = x^3 + 2x + 1 over F_5: f(2) = 8 + 4 + 1 = 13 = 3, f' = 3x^2 + 2
    f = Poly(F5, [1, 2, 0, 1])
    assert f(2) == 3
    assert f.deriv() == Poly(F5, [2, 0, 3])
    g = Poly(F9, [(1, 1), (0, 1)])  # (y+1) + y*x
    assert g((1, 0)) == (1, 2)


def test_frobenius_is_the_qth_power_map():
    rng = make_rng(43)
    for ctx in [F2, F3, F9]:
        f = random_squarefree(ctx, 7, rng)
        sig = frobenius(f)
        a = random_poly(ctx, 6, rng)
        assert sig.apply(a) == powmod(a, ctx.q, f)
        # linearity over the base field plus multiplicativity
        b = random_poly(ctx, 6, rng)
        assert sig.apply((a + b) % f) == (sig.apply(a) + sig.apply(b)) % f
        assert sig.apply((a * b) % f) == (sig.apply(a) * sig.apply(b)) % f


def test_frobenius_fixed_small_examples():
    # x^3 mod (x^2 + 1) = -x = 2x over F_3
    f = Poly(F3, [1, 0, 1])
    assert frobenius(f).image == Poly(F3, [0, 2])
    # modulus of degree 1: the image space is constants only
    f1 = x_poly(F2)
    assert frobenius(f1).image == Poly.zero(F2)
    assert frobenius(f1).is_identity()


P31 = (1 << 31) - 1


@pytest.mark.parametrize(
    "p, m, h, q",
    [(2, 1, None, 2), (3, 1, None, 3), (2, 2, [1, 1, 1], 4), (3, 2, [1, 0, 1], 9),
     (2, 8, None, 1 << 8), (101, 1, None, 101), (P31, 1, None, P31),
     ((1 << 61) - 1, 1, None, (1 << 61) - 1), (P31, 2, [1, 0, 1], P31**2)],
    ids=["F2", "F3", "F4", "F9", "F256", "F101", "Fp31", "Fp61", "Fp31^2"],
)
def test_frobenius_square_and_shift_matches_powmod(p, m, h, q):
    # Square-and-shift must give powmod's image: q = 2 has no set bit after
    # the leading one, 2^8 none at all, and 2^61 - 1 sets every bit.
    ctx = field_new(p, m, h, rng=make_rng(88))
    assert ctx.q == q
    rng = make_rng(q % 1009)
    degrees = [1, 2, 7, 12] if m > 1 else [1, 2, 7, 20, 40]
    for n in degrees:
        f = random_monic(ctx, n, rng)
        assert frobenius(f, check=False).image == powmod(x_poly(ctx), q, f), n


def test_frobenius_rejects_non_squarefree():
    with pytest.raises(errors.NotSquarefree):
        frobenius(Poly(F2, [0, 0, 1]))  # x^2
    with pytest.raises(errors.NotSquarefree):
        frobenius(Poly(F3, [1, 0, 0, 1]))  # x^3 + 1 = (x + 1)^3
    with pytest.raises(errors.BadInput):
        frobenius(Poly(F3, [2, 0, 2]))  # not monic


def test_endo_composition_is_power_addition():
    rng = make_rng(47)
    f = random_squarefree(F3, 8, rng)
    sig = frobenius(f)
    for i in range(4):
        for j in range(4):
            assert sig.pow(i).compose(sig.pow(j)) == sig.pow(i + j)
    assert sig.pow(0).is_identity()
    ident = Endo(f, x_poly(F3) % f)
    assert ident.is_identity()


def test_endo_order_on_an_irreducible_block():
    rng = make_rng(53)
    for ctx, d in [(F2, 6), (F3, 4), (F9, 3)]:
        f = rand_irreducible(ctx, d, rng)
        sig = frobenius(f)
        assert not sig.pow(d - 1).is_identity() or d == 1
        assert sig.pow(d).is_identity()


def test_endo_restrict_to_divisor():
    rng = make_rng(59)
    g1 = rand_irreducible(F5, 3, rng)
    g2 = rand_irreducible(F5, 4, rng)
    f = g1 * g2
    sig = frobenius(f)
    r1 = sig.restrict(g1)
    assert r1.modulus == g1
    assert r1.image == sig.image % g1
    assert r1.pow(3).is_identity()


def test_pth_root_of_polynomial():
    rng = make_rng(61)
    for ctx in [F3, F9, F2]:
        for _ in range(10):
            a = random_monic(ctx, int(rng.integers(1, 8)), rng)
            ap = a
            for _ in range(ctx.p - 1):
                ap = ap * a
            assert poly_pth_root(ap) == a


def test_random_squarefree_draws_squarefree_monics():
    rng = make_rng(62)
    for ctx in [F2, F3, F9]:
        for n in [1, 2, 5, 9]:
            f = random_squarefree(ctx, n, rng)
            assert f.degree == n and f.is_monic()
            assert gcd(f, f.deriv()).degree == 0
    with pytest.raises(errors.BadInput):
        random_squarefree(F3, 0, rng)  # a constant has derivative 0: no draw passes
