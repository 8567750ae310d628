"""Classical reference routines.

Everything here avoids the order oracle on purpose: it is the independent
route used to cross-check the engine (and, internally, to seed the
measurement simulation with true orders).  Its uses of modular
composition, the large-q steps of ``ladder`` and ``is_irreducible``, are
checked against sympy in ``tests/test_kernels.py``,
``tests/test_differential.py`` and ``tests/test_classical.py``; the
Frobenius form of ``split_probe`` is checked against the probe's
definition in ``tests/test_classical.py``.  The pieces are

* ``ladder``: distinct-degree splitting with a stride and a degree bound,
  blocked by interval partition; ``distinct_degree_parts`` runs it with
  stride 1 and no bound, the engine's fallback strip with its own;
* ``is_irreducible``: Rabin's criterion, on a loop of its own;
* ``irreducibles``: exhaustive sieve enumeration of monic irreducibles for
  tiny q^d, cached per field;
* ``split_probe``: one equal-degree splitting attempt, shared by
  ``equal_degree_split_det`` and the randomized ``factor.edf``; it powers
  u directly, or first folds u's d conjugates by composing with x^q mod h,
  by the same ``_composes`` rule as the ladder;
* ``equal_degree_split_det``: deterministic equal-degree splitting (fixed
  test-element sequence instead of random draws);
* ``brute_factor``: trial-division factorization over the enumerated
  irreducibles with a powering-based fallback, guarded to desk scales.
"""

from __future__ import annotations

import math
from functools import partial

from . import errors
from .fields import FieldCtx, factor_int
from .poly import Endo, Poly, frobenius, gcd, modcomp, mulmod, poly_pth_root, powmod, x_poly

__all__ = [
    "ladder",
    "distinct_degree_parts",
    "splitting_degree",
    "order_from_degrees",
    "is_irreducible",
    "irreducibles",
    "equal_degree_split_det",
    "split_probe",
    "brute_factor",
    "BRUTE_MAX_DEGREE",
    "BRUTE_MAX_Q",
    "ENUM_LIMIT",
]

BRUTE_MAX_DEGREE = 24
BRUTE_MAX_Q = 1 << 20
ENUM_LIMIT = 4096  # enumerate monic irreducibles of degree d only if q^d <= this
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


# ----------------------------------------------------------------------
# Exhaustive enumeration of monic irreducibles (tiny fields only).
# ----------------------------------------------------------------------

_IRR_CACHE: dict[FieldCtx, dict[int, list[Poly]]] = {}


def _all_monic(ctx: FieldCtx, k: int):
    q = ctx.q
    for idx in range(q**k):
        coeffs = []
        v = idx
        for _ in range(k):
            coeffs.append(ctx.from_index(v % q))
            v //= q
        coeffs.append(ctx.one)
        yield Poly(ctx, coeffs, normalize=False)


def _poly_key(f: Poly) -> tuple[int, ...]:
    idx = f.ctx.element_index
    return tuple(idx(c) for c in f.coeffs)


def irreducibles(ctx: FieldCtx, d: int) -> list[Poly]:
    """All monic irreducibles of degree d over ctx, by sieve; cached."""
    if d < 1:
        raise errors.BadInput("degree must be >= 1")
    if ctx.q**d > ENUM_LIMIT:
        raise errors.TooLarge(f"q^d = {ctx.q**d} exceeds enumeration limit")
    cache = _IRR_CACHE.setdefault(ctx, {})
    for k in range(1, d + 1):
        if k in cache:
            continue
        composite: set[tuple[int, ...]] = set()
        for a in range(1, k // 2 + 1):
            for ip in cache[a]:
                for cof in _all_monic(ctx, k - a):
                    composite.add(_poly_key(ip * cof))
        cache[k] = [g for g in _all_monic(ctx, k) if _poly_key(g) not in composite]
    return cache[d]


# ----------------------------------------------------------------------
# Deterministic equal-degree splitting.
# ----------------------------------------------------------------------


def _test_elements(ctx: FieldCtx, max_degree: int):
    """Nonconstant polynomials of degree < max_degree, in a fixed order."""
    q = ctx.q
    idx = q  # skip constants
    while True:
        coeffs = []
        v = idx
        while v:
            coeffs.append(ctx.from_index(v % q))
            v //= q
        if len(coeffs) > max_degree:
            return
        yield Poly(ctx, coeffs)
        idx += 1


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


def equal_degree_split_det(f: Poly, d: int) -> list[Poly]:
    """Split a monic product of distinct degree-d irreducibles, no randomness.

    Probes a fixed enumeration of test polynomials; for desk-scale inputs the
    sequence always separates the factors long before it is exhausted.
    x^q mod f is computed once and serves every probe.
    """
    if f.degree % d != 0:
        raise errors.BadInput("degree of f must be a multiple of d")
    xq = frobenius(f, check=False).image if d > 1 else None
    work = [f]
    done: list[Poly] = []
    for u in _test_elements(f.ctx, max(f.degree, 1)):
        still = []
        for h in work:
            if h.degree == d:
                done.append(h)
                continue
            g = split_probe(h, d, u, xq)
            if 0 < g.degree < h.degree:
                still.append(g)
                still.append(h // g)
            else:
                still.append(h)
        work = still
        if not work:
            break
        if all(h.degree == d for h in work):
            done.extend(work)
            work = []
            break
    if work:
        raise errors.InvariantViolation("test-element sequence exhausted")
    done.sort(key=Poly.sort_key)
    return done


# ----------------------------------------------------------------------
# Brute-force factorization (test oracle).
# ----------------------------------------------------------------------


def brute_factor(f: Poly) -> tuple[object, list[tuple[Poly, int]]]:
    """Factor f by trial division; returns (unit, [(monic irreducible, mult)]).

    Guard rails keep this within desk scale: deg f <= 24 and q <= 2^20.
    Distinct factors are found by dividing by enumerated irreducibles of
    increasing degree while q^degree stays within the enumeration budget, and
    by powering-based distinct/equal-degree splitting beyond it.  The result
    is verified to multiply back to the input.
    """
    if f.is_zero():
        raise errors.BadInput("cannot factor the zero polynomial")
    if f.degree > BRUTE_MAX_DEGREE:
        raise errors.TooLarge(f"degree {f.degree} exceeds {BRUTE_MAX_DEGREE}")
    ctx = f.ctx
    if ctx.q > BRUTE_MAX_Q:
        raise errors.TooLarge(f"field size {ctx.q} exceeds {BRUTE_MAX_Q}")
    unit = f.lead()
    out = _brute_monic(f.monic())
    out.sort(key=lambda t: (t[0].degree, t[0].sort_key()))
    check = Poly.const(ctx, unit)
    for g, mult in out:
        for _ in range(mult):
            check = check * g
    if check != f:
        raise errors.InvariantViolation("brute factorization failed to reconstruct")
    return unit, out


def _brute_monic(g: Poly) -> list[tuple[Poly, int]]:
    if g.degree == 0:
        return []
    der = g.deriv()
    if der.is_zero():
        return [(h, m * g.ctx.p) for (h, m) in _brute_monic(poly_pth_root(g))]
    rad = g // gcd(g, der)
    out: dict[tuple[int, ...], tuple[Poly, int]] = {}
    cur = g
    for h in _split_distinct(rad):
        mult = 0
        while True:
            qt, rem = divmod(cur, h)
            if not rem.is_zero():
                break
            cur = qt
            mult += 1
        out[_poly_key(h)] = (h, mult)
    if cur.degree > 0:
        # Whatever remains has every multiplicity divisible by p.
        for h, m in _brute_monic(poly_pth_root(cur)):
            key = _poly_key(h)
            if key in out:
                prev, pm = out[key]
                out[key] = (prev, pm + m * g.ctx.p)
            else:
                out[key] = (h, m * g.ctx.p)
    return list(out.values())


def _split_distinct(g: Poly) -> list[Poly]:
    """Distinct irreducible factors of monic squarefree g."""
    ctx = g.ctx
    out: list[Poly] = []
    cur = g
    d = 1
    while cur.degree > 0:
        if 2 * d > cur.degree:
            out.append(cur)
            break
        if ctx.q**d <= ENUM_LIMIT:
            for h in irreducibles(ctx, d):
                if cur.degree < h.degree:
                    break
                qt, rem = divmod(cur, h)
                if rem.is_zero():
                    out.append(h)
                    cur = qt
            d += 1
        else:
            # Enumeration budget exceeded: fall back to powering-based
            # distinct-degree + deterministic equal-degree splitting.
            for part, dd in distinct_degree_parts(cur):
                out.extend(equal_degree_split_det(part, dd))
            cur = Poly.one(ctx)
            break
    return out
