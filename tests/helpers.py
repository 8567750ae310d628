"""Shared construction helpers for the test suite.

Everything here builds inputs with known structure (irreducibles of a
prescribed degree, products of distinct irreducibles) so tests can check
results against the construction instead of against the code under test.
"""

from ffq import is_irreducible
from ffq.poly import Poly, gcd, powmod, random_monic, x_poly


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
