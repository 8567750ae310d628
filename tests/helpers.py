"""Shared construction helpers for the test suite.

Everything here builds inputs with known structure (irreducibles of a
prescribed degree, products of distinct irreducibles) so tests can check
results against the construction instead of against the code under test.

The ``ref_*`` functions are reference F_{p^m}[x] arithmetic that shares no
code with ffq's kernels: products go through sympy in F_p[x, y], and field
elements are reduced, multiplied and inverted with sympy's galoistools.
They check single kernel calls; at about 10 ms per product of degree 24
over F_9 they are too slow to factor with.  The reference factorization
that the engine's outputs are checked against is ``reference_factor.py``,
on element tables of its own.
"""

from sympy import Poly as SymPoly
from sympy import symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_mul, gf_rem, gf_sub

from ffq import is_irreducible
from ffq.poly import Poly, gcd, powmod, random_monic, x_poly

_X, _Y = symbols("x y")


def rand_irreducible(ctx, d, rng):
    """Random monic irreducible of degree d by rejection sampling."""
    while True:
        f = random_monic(ctx, d, rng)
        if is_irreducible(f):
            return f


def distinct_irreducibles(ctx, degrees, rng):
    """One random irreducible per requested degree, all distinct."""
    seen = set()
    out = []
    for d in degrees:
        while True:
            g = rand_irreducible(ctx, d, rng)
            if g not in seen:
                seen.add(g)
                out.append(g)
                break
    return out


def product(ctx, polys):
    acc = Poly.one(ctx)
    for g in polys:
        acc = acc * g
    return acc


def ladder_by_powering(f):
    """Distinct-degree parts of monic squarefree f by the textbook ladder.

    Every step raises w = x^(q^d) mod cur to the q-th power with ``powmod``;
    no composition and no precomputed x^q, so it shares no step with the
    composing ladder of ``classical.distinct_degree_parts``.
    """
    x = x_poly(f.ctx)
    parts = []
    cur = f
    w = x % cur
    d = 0
    while cur.degree > 0:
        d += 1
        if 2 * d > cur.degree:
            parts.append((cur, cur.degree))
            break
        w = powmod(w, f.ctx.q, cur)
        g = gcd(w - (x % cur), cur)
        if g.degree > 0:
            parts.append((g, d))
            cur = cur // g
            if cur.degree == 0:
                break
            w = w % cur
    return parts


def count_classical_frobenius(monkeypatch):
    """Record the modulus degree of every ``frobenius`` call made inside
    ``ffq.classical``; returns the list the calls append to."""
    import ffq.classical as classical

    calls = []
    real = classical.frobenius

    def counted(f, check=True):
        calls.append(f.degree)
        return real(f, check)

    monkeypatch.setattr(classical, "frobenius", counted)
    return calls


def all_monic(ctx, d):
    """Every monic polynomial of degree d, in index order."""
    q = ctx.q
    for idx in range(q**d):
        coeffs = []
        v = idx
        for _ in range(d):
            coeffs.append(ctx.from_index(v % q))
            v //= q
        coeffs.append(ctx.one)
        yield Poly(ctx, coeffs)


def mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def count_irreducibles(q, d):
    """Gauss's count of monic irreducibles of degree d over F_q."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(d // e) * q**e
    return total // d


# ----------------------------------------------------------------------
# Reference arithmetic in F_{p^m}[x] (elements are ascending m-tuples).
# ----------------------------------------------------------------------


def _to_gf(c):
    """Ascending element tuple as a galoistools (descending) list."""
    out = list(c)[::-1]
    while out and not out[0]:
        out.pop(0)
    return out


def _from_gf(g, m):
    asc = [int(v) for v in reversed(g)]
    return tuple(asc + [0] * (m - len(asc)))


def _elem_reduce(ctx, g):
    return _from_gf(gf_rem(g, _to_gf(ctx.h), ctx.p, ZZ), ctx.m)


def _elem_mul(ctx, a, b):
    return _elem_reduce(ctx, gf_mul(_to_gf(a), _to_gf(b), ctx.p, ZZ))


def _elem_sub(ctx, a, b):
    return _from_gf(gf_sub(_to_gf(a), _to_gf(b), ctx.p, ZZ), ctx.m)


def _elem_inv(ctx, a):
    s, _, g = gf_gcdex(_to_gf(a), _to_gf(ctx.h), ctx.p, ZZ)
    assert g == [1], "not invertible"
    return _from_gf(s, ctx.m)


def ref_mul(a, b):
    """a * b: sympy multiplies in F_p[x, y], then galoistools reduces each
    x-coefficient's y-polynomial by h."""
    ctx = a.ctx
    if a.is_zero() or b.is_zero():
        return Poly.zero(ctx)
    p, m = ctx.p, ctx.m

    def sym(f):
        terms = {(i, j): v for i, c in enumerate(f.coeffs) for j, v in enumerate(c) if v}
        return SymPoly.from_dict(terms, _X, _Y, modulus=p)

    by_x = {}
    for (i, j), v in (sym(a) * sym(b)).terms():
        by_x.setdefault(i, [0] * (2 * m - 1))[j] = int(v) % p
    out = [ctx.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ys in by_x.items():
        out[i] = _elem_reduce(ctx, _to_gf(ys))
    return Poly(ctx, out)


def ref_divmod(a, b):
    """Schoolbook quotient and remainder with galoistools element arithmetic."""
    ctx = a.ctx
    r = list(a.coeffs)
    db = len(b.coeffs) - 1
    inv = _elem_inv(ctx, b.coeffs[-1])
    q = [ctx.zero] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = _elem_mul(ctx, r[i], inv)
        q[i - db] = c
        for j, bj in enumerate(b.coeffs):
            r[i - db + j] = _elem_sub(ctx, r[i - db + j], _elem_mul(ctx, c, bj))
    return Poly(ctx, q), Poly(ctx, r[:db])


def ref_monic(f):
    inv = _elem_inv(f.ctx, f.coeffs[-1])
    return Poly(f.ctx, [_elem_mul(f.ctx, c, inv) for c in f.coeffs])


def ref_gcd(a, b):
    """Monic gcd by Euclid on ``ref_divmod``."""
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_modcomp(a, g, f):
    """a(g) mod f by Horner on ``ref_mul`` and ``ref_divmod``."""
    ctx = f.ctx
    acc = Poly.zero(ctx)
    for c in reversed(a.coeffs):
        acc = ref_divmod(ref_mul(acc, g), f)[1]
        coeffs = list(acc.coeffs) or [ctx.zero]
        coeffs[0] = _from_gf(gf_add(_to_gf(coeffs[0]), _to_gf(c), ctx.p, ZZ), ctx.m)
        acc = Poly(ctx, coeffs)
    return acc
