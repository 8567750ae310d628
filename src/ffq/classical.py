"""Classical routines: the shadow, the strip's ladder, Rabin's test, the EDF probe.

Everything here avoids the order oracle on purpose.  ``ddf`` runs the
shadow to give the measurement simulation its true orders, and audits its
parts against the shadow's.  The module's uses of modular composition,
the large-q steps of ``ladder`` and ``is_irreducible``, are checked against
sympy in ``tests/test_kernels.py``, ``tests/test_differential.py`` and
``tests/test_classical.py``; the Frobenius form of ``split_probe`` is
checked against the probe's definition in ``tests/test_classical.py``.
The pieces are

* ``ladder``: distinct-degree splitting with a stride and a degree bound,
  blocked by interval partition; ``distinct_degree_parts`` (the shadow)
  runs it with stride 1 and no bound, the engine's fallback strip with its
  own;
* ``is_irreducible``: Rabin's criterion, on a loop of its own;
* ``split_probe``: one equal-degree splitting attempt, on the random draws
  of ``factor.edf``; it powers u directly, or first folds u's d conjugates
  by composing with x^q mod h, by the same ``_composes`` rule as the ladder.
"""

from __future__ import annotations

import math
from functools import partial

from . import errors
from .fields import factor_int
from .poly import Endo, Poly, frobenius, gcd, modcomp, mulmod, powmod, x_poly

__all__ = [
    "ladder",
    "distinct_degree_parts",
    "splitting_degree",
    "order_from_degrees",
    "is_irreducible",
    "split_probe",
]

# The ladder steps in blocks of isqrt(deg cur) from this degree of cur on,
# and one step at a time below it.  Timed over F_2, F_3, F_9, F_101
# and F_{2^61-1}, blocking wins in every field from degree 64 on and loses
# over F_{2^61-1} at degrees 20-40.
BLOCK_MIN = 64


def _composes(Q: int, n: int) -> bool:
    """Whether w(x^Q) mod a degree-n modulus, about 2*sqrt(n) products
    (every composition is Brent-Kung), beats w^Q, bit_length(Q) +
    popcount(Q) - 2 products."""
    return Q.bit_length() + bin(Q).count("1") - 2 > 2 * math.isqrt(n)


def ladder(f: Poly, step: Poly, s: int, bound: int) -> tuple[list[tuple[Poly, int]], Poly]:
    """Split off the parts of degree <= bound of monic squarefree f.

    Every factor of f has degree a multiple of s, and ``step`` is x^(q^s)
    mod f.  Steps d = s, 2s, ... keep w = x^(q^d) mod cur, cur being f less
    the parts of degree below d, and gcd(w - x, cur) is the degree-d part.
    A step w -> w^(q^s) powers or composes w(step), as ``_composes`` prices
    it.  Once 2(d + s) > deg cur, cur is irreducible; it is a part if its
    degree is <= bound.

    Interval partition (von zur Gathen-Shoup): from deg cur ``BLOCK_MIN``
    on, a block of up to isqrt(deg cur) steps, never past the bound, takes
    one gcd G of cur with the product of its (w_d - x) mod cur.  Only a
    nontrivial G is refined, by gcd(w_d - x, G) per step in ascending d, so
    a factor of degree e is caught at d = e and not at a multiple of e.

    Returns (parts ascending in d, remainder with every factor degree above
    the bound).
    """
    Q = f.ctx.q**s
    x = x_poly(f.ctx)
    parts: list[tuple[Poly, int]] = []
    cur = f
    w = step
    d = 0  # every factor of degree <= d has left cur
    while cur.degree > 0:
        n = cur.degree
        if 2 * (d + s) > n:
            if n <= bound:
                parts.append((cur, n))
                cur = Poly.one(f.ctx)
            break
        if d + s > bound:
            break
        # A block ends by the bound and by deg cur / 2: once every factor of
        # degree <= n / 2 has left, the rest is irreducible (the exit above).
        size = min(math.isqrt(n), (min(n // 2, bound) - d) // s) if n >= BLOCK_MIN else 1
        compose = _composes(Q, n)
        xc = x % cur
        steps = []
        prod = None
        for i in range(d + s, d + size * s + 1, s):
            if i > s:
                if compose:
                    # step reduced mod a multiple of cur is already reduced
                    # mod cur once its degree is below deg cur.
                    if step.degree >= n:
                        step = step % cur
                    w = modcomp(w, step, cur)
                else:
                    w = powmod(w, Q, cur)
            t = w - xc
            steps.append((t, i))
            prod = t if prod is None else mulmod(prod, t, cur)
        g = gcd(prod, cur)
        if g.degree > 0:
            if size == 1:
                parts.append((g, d + s))
            else:
                rest = g
                for t, i in steps:
                    h = gcd(t, rest)
                    if h.degree > 0:
                        parts.append((h, i))
                        rest = rest // h
                        if rest.degree == 0:
                            break
            cur = cur // g
            if cur.degree == 0:
                break
            w = w % cur
        d += size * s
    return parts, cur


def distinct_degree_parts(f: Poly, xq: Poly | None = None) -> list[tuple[Poly, int]]:
    """Split monic squarefree f into (product of degree-d irreducibles, d).

    The ``ladder`` with stride 1 and no bound.  ``xq`` is x^q mod f when the
    caller already has it; otherwise ``frobenius`` computes it.
    """
    if not f.is_monic():
        raise errors.BadInput("input must be monic")
    der = f.deriv()
    if der.is_zero() or gcd(f, der).degree > 0:
        raise errors.NotSquarefree("input must be squarefree")
    if xq is None:
        xq = frobenius(f, check=False).image
    return ladder(f, xq, 1, f.degree)[0]


def splitting_degree(f: Poly) -> int:
    """lcm of the distinct irreducible factor degrees of monic squarefree f."""
    return math.lcm(*[d for (_, d) in distinct_degree_parts(f)])


def order_from_degrees(degrees, s: int) -> int:
    """Order of sigma^s mod squarefree f, from its factor degrees D."""
    return math.lcm(*[d // math.gcd(s, d) for d in degrees])


def is_irreducible(f: Poly) -> bool:
    """Rabin's irreducibility criterion for monic f of degree >= 1.

    w runs through x^(q^i) mod f.  x^q mod f comes from ``powmod``, not from
    ``frobenius``, and the loop is not the ``ladder``, so the test shares no
    step with either.  Each later step powers or composes, by ``_composes``.
    """
    if not f.is_monic() or len(f.coeffs) < 2:
        raise errors.BadInput("input must be monic of degree >= 1")
    n = f.degree
    if n == 1:
        return True
    q = f.ctx.q
    x = x_poly(f.ctx)
    checks = {n // t for t in factor_int(n)}
    compose = _composes(q, n)
    xq = powmod(x, q, f)
    w = xq
    for i in range(1, n + 1):
        if i > 1:
            w = modcomp(w, xq, f) if compose else powmod(w, q, f)
        if i in checks and gcd(w - x, f).degree != 0:
            return False
    return w == x % f


_IRR_CACHE: dict = {}  # inert: perfbench/spans.py MEMO_TABLES resolves it by name


def _fold(u: Poly, d: int, sigma: Endo, join) -> Poly:
    """join(u, sigma(u), ..., sigma^(d-1)(u)) for u reduced mod sigma's
    modulus, by doubling (von zur Gathen-Shoup).  With N_k the join of the
    first k terms and S = sigma^k, N_2k = join(N_k, S(N_k)) and
    N_(k+1) = join(u, sigma(N_k)); S is updated only while a later doubling
    reads it."""
    acc, s_k = u, sigma
    bits = bin(d)[3:]
    for i, bit in enumerate(bits, 1):
        more = i < len(bits)
        acc = join(acc, s_k.apply(acc))
        if more:
            s_k = s_k.compose(s_k)
        if bit == "1":
            acc = join(u, sigma.apply(acc))
            if more:
                s_k = s_k.compose(sigma)
    return acc


def split_probe(h: Poly, d: int, u: Poly, xq: Poly | None = None) -> Poly:
    """One splitting attempt on h (product of distinct degree-d irreducibles).

    Odd q: gcd(u^((q^d-1)/2) - 1, h).  Characteristic 2: gcd of h with the
    absolute trace u + u^2 + ... + u^(2^(dm-1)).  Returns h itself when the
    probe polynomial vanishes mod h, so a result of degree 0 or deg h means
    "no split, draw another u".

    Two forms give the same value.  The direct form powers u by (q^d-1)/2,
    or squares it dm - 1 times.  The Frobenius form (von zur Gathen-Shoup)
    first folds the d conjugates u^(q^i), i < d, by composing with
    sigma: x -> x^q mod h: their product N(u) for odd q, since
    u^((q^d-1)/2) = N(u)^((q-1)/2), and their sum T(u) in characteristic 2,
    whose m - 1 squarings finish the trace.  The probe takes the Frobenius
    form when d > 1 and ``_composes(q, deg h)``, the rule by which the
    ladder composes rather than powers.  ``xq`` is x^q mod h, or mod a
    multiple of h; when that form needs it and none is given, it is
    computed here.
    """
    ctx = h.ctx
    u = u % h
    k = d  # the probe left to take: power (q^k - 1)/2, or km - 1 squarings
    if d > 1 and _composes(ctx.q, h.degree):
        sigma = frobenius(h, check=False) if xq is None else Endo(h, xq % h)
        join = Poly.__add__ if ctx.p == 2 else partial(mulmod, f=h)
        u, k = _fold(u, d, sigma, join), 1
    if ctx.p != 2:
        t = powmod(u, (ctx.q**k - 1) // 2, h) - Poly.one(ctx)
    else:
        # Absolute trace to F_2: u + u^2 + ... + u^(2^(km-1)).
        t = cur = u
        for _ in range(k * ctx.m - 1):
            cur = mulmod(cur, cur, h)
            t = t + cur
    if t.is_zero():
        return h
    return gcd(t, h)
