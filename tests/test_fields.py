"""Field construction and element arithmetic."""

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from ffq import errors, field_new, is_probable_prime
from ffq.rng import make_rng, rand_below

from helpers import all_monic


def test_primality_known_values():
    for n in [2, 3, 5, 7, 13, 101, 257, 65537, (1 << 61) - 1]:
        assert is_probable_prime(n), n
    # 561, 1105 and 6601 are Carmichael numbers
    for n in [0, 1, 4, 9, 21, 561, 1105, 6601, (1 << 61) - 3, 10**12 + 1]:
        assert not is_probable_prime(n), n


def test_field_new_rejects_bad_parameters():
    with pytest.raises(errors.NotPrime):
        field_new(4)
    with pytest.raises(errors.NotPrime):
        field_new(1)
    # y^2 + 2 = (y + 1)(y + 2) over F_3
    with pytest.raises(errors.Reducible):
        field_new(3, 2, [2, 0, 1])
    with pytest.raises(errors.DegreeMismatch):
        field_new(3, 2, [1, 1, 0, 1])


@pytest.mark.parametrize("p, degrees", [(2, [2, 3, 4, 5]), (3, [2, 3, 4]), (5, [2, 3])])
def test_modulus_check_matches_sympy(p, degrees):
    """field_new rejects exactly the monic moduli that sympy finds reducible."""
    for m in degrees:
        for h in all_monic(field_new(p), m):
            h = list(h.coeffs)
            try:
                field_new(p, m, h)
                accepted = True
            except errors.Reducible:
                accepted = False
            assert accepted == gf_irreducible_p(h[::-1], p, ZZ), (p, h)


def test_prime_field_inverse_example():
    F7 = field_new(7)
    assert F7.inv(3) == 5
    assert F7.mul(3, 5) == 1
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_extension_field_example_products():
    # F_9 = F_3[y]/(y^2 + 1); (y + 1)(y + 2) = y^2 + 3y + 2 = 1 + 2 = ... = 1
    F9 = field_new(3, 2, [1, 0, 1])
    assert F9.mul((1, 1), (2, 1)) == (1, 0)
    assert F9.mul((0, 1), (0, 1)) == (2, 0)  # y * y = -1 = 2
    assert F9.inv((0, 1)) == (0, 2)  # y * 2y = 2*2 = 4 = 1


def test_field_axioms_sampled():
    fields = [
        field_new(2),
        field_new(13),
        field_new(3, 2, [1, 0, 1]),
        field_new(2, 3, rng=make_rng(68)),
        field_new(5, 2, rng=make_rng(69)),
    ]
    rng = make_rng(401)
    for ctx in fields:
        zero, one = ctx.zero, ctx.one
        for _ in range(40):
            a = ctx.rand(rng)
            b = ctx.rand(rng)
            c = ctx.rand(rng)
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, zero) == a
            assert ctx.mul(a, one) == a
            assert ctx.add(a, ctx.neg(a)) == zero
            if a != zero:
                assert ctx.mul(a, ctx.inv(a)) == one
                assert ctx.div(b, a) == ctx.mul(b, ctx.inv(a))


def test_fermat_identity_all_elements():
    fields = [
        field_new(7),
        field_new(3, 2, rng=make_rng(94)),
        field_new(2, 4, rng=make_rng(95)),
        field_new(2, 3, [1, 1, 0, 1]),  # F_8 = F_2[y]/(y^3 + y + 1)
        field_new(5, 2, [2, 0, 1]),  # F_25 = F_5[y]/(y^2 + 2)
    ]
    for ctx in fields:
        for a in ctx.iter_elements():
            assert ctx.pow(a, ctx.q) == a
            if a != ctx.zero:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one
        with pytest.raises(ZeroDivisionError):
            ctx.inv(ctx.zero)


def test_euclid_inverse_equals_the_fermat_power():
    """inv (extended Euclid mod h) against a^(q - 2): every nonzero element of
    F_4, F_9, F_25 and F_{2^8}, and random elements of F_{(2^31 - 1)^2}."""
    for ctx in [
        field_new(2, 2, [1, 1, 1]),
        field_new(3, 2, [1, 0, 1]),
        field_new(5, 2, [2, 0, 1]),
        field_new(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]),
    ]:
        for a in ctx.iter_elements():
            if a != ctx.zero:
                assert ctx.inv(a) == ctx.pow(a, ctx.q - 2), (ctx.q, a)
    ctx = field_new((1 << 31) - 1, 2, [1, 0, 1])
    rng = make_rng(131)
    elements = [ctx.rand(rng) for _ in range(200)] + [ctx.one, ctx.from_int(5), (0, 1)]
    for a in elements:
        if a != ctx.zero:
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2), a


def test_pth_root_inverts_frobenius():
    for ctx in [field_new(5), field_new(3, 2, [1, 0, 1]), field_new(2, 3, rng=make_rng(109))]:
        for a in ctx.iter_elements():
            assert ctx.pth_root(ctx.pow(a, ctx.p)) == a
            assert ctx.pow(ctx.pth_root(a), ctx.p) == a


def test_pth_root_values_in_nine_elements():
    F9 = field_new(3, 2, [1, 0, 1])
    # (y)^3 = y * y^2 = 2y and (y+1)^3 = 2y + 1, so the cube roots invert that
    assert F9.pow((0, 1), 3) == (0, 2)
    assert F9.pth_root((0, 2)) == (0, 1)
    assert F9.pth_root((1, 2)) == (1, 1)


def test_element_index_round_trip():
    for ctx in [field_new(11), field_new(3, 3, rng=make_rng(124)), field_new(2, 5, rng=make_rng(125))]:
        seen = set()
        for i in range(ctx.q):
            a = ctx.from_index(i)
            assert ctx.element_index(a) == i
            seen.add(a)
        assert len(seen) == ctx.q


def test_random_extension_modulus_is_a_field():
    rng = make_rng(77)
    for p, m in [(2, 6), (3, 4), (7, 3), (13, 2)]:
        ctx = field_new(p, m, rng=rng)
        assert ctx.q == p**m
        # spot-check inverses against multiplication
        for _ in range(25):
            a = ctx.rand(rng)
            if a == ctx.zero:
                continue
            assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_contexts_compare_by_parameters():
    a = field_new(3, 2, [1, 0, 1])
    b = field_new(3, 2, [1, 0, 1])
    c = field_new(3, 2, [2, 2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert field_new(5) == field_new(5)


def test_rand_below_is_uniform_and_exact():
    rng = make_rng(12345)
    hits = [0] * 7
    for _ in range(7000):
        v = rand_below(rng, 7)
        hits[v] += 1
    assert min(hits) > 800  # roughly uniform, all classes hit
    big = 1 << 80
    for _ in range(50):
        assert 0 <= rand_below(rng, big) < big
