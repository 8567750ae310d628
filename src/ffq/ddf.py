"""Order-driven distinct-degree factorization.

The engine maintains a queue of work items (g, s) with the invariant that
every irreducible factor of g has degree divisible by s.  For each item it
asks the order oracle for the order d of the restricted power-of-Frobenius
endomorphism sigma^s on F_q[x]/(g); d is the lcm of the values deg(P)/s over
the irreducible factors P, so gcds against fixed powers of sigma^s split g
along the prime-power structure of d.  Items whose endomorphism is the
identity are exactly the distinct-degree parts (all factors have degree s)
and are emitted.

The Frobenius map is computed once, for the input; a child of stride s*k
inherits its parent's sigma^s restricted to its modulus, to the k-th power.
The gcds use the cofactor powers the oracle computed when it verified d.

When an order estimate fails (order above 2^ell), the fallback strips all
factors of small degree by a classical ladder, which provably shrinks the
remaining order enough for estimates with a larger ell; those repeat with
fresh draws until one succeeds, up to a fixed cap.

Every run is audited: the emitted parts must multiply back to the input.
An optional trace (one dict per processed item) records the shape of the
recursion for diagnostics and benchmarks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from . import errors
from .classical import distinct_degree_parts
from .order import OracleConfig, OrderOracle, cofactor_powers
from .poly import Endo, Poly, frobenius, frobenius_power_sequence, gcd, modcomp, x_poly
from .rng import make_rng

__all__ = [
    "SmoothFactorization",
    "smooth_factor",
    "frobenius_power_sequence",
    "extract_small_degrees",
    "order_with_fallback",
    "ddf",
    "DdfResult",
    "recursion_audit",
    "default_ell",
    "fallback_ell",
    "fallback_degree_bound",
    "FALLBACK_ESTIMATES",
]

# ----------------------------------------------------------------------
# Smooth integer factorization.
# ----------------------------------------------------------------------


@dataclass
class SmoothFactorization:
    """Prime factorization of an n-smooth integer: ascending (prime, exp)."""

    pairs: list[tuple[int, int]]

    @property
    def value(self) -> int:
        v = 1
        for p, e in self.pairs:
            v *= p**e
        return v

    def __iter__(self):
        return iter(self.pairs)


_sieve_cache: dict[int, list[int]] = {}
_tree_cache: dict[int, list[list[int]]] = {}


def _primes_upto(n: int) -> list[int]:
    hit = _sieve_cache.get(n)
    if hit is not None:
        return hit
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    primes = [i for i in range(n + 1) if sieve[i]]
    _sieve_cache[n] = primes
    return primes


def _subproduct_tree(n: int) -> list[list[int]]:
    hit = _tree_cache.get(n)
    if hit is not None:
        return hit
    level = list(_primes_upto(n))
    levels = [level]
    while len(level) > 1:
        nxt = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        levels.append(nxt)
        level = nxt
    _tree_cache[n] = levels
    return levels


def smooth_factor(d: int, n: int, method: str = "auto") -> SmoothFactorization:
    """Factor an n-smooth positive integer d; NotSmooth if a factor exceeds n.

    ``method``: "trial" divides by every prime up to n; "tree" pushes d down
    a subproduct tree of the primes, touching d only O(log) times, which wins
    when d is a huge integer; "auto" picks by the size of d.
    """
    if d < 1:
        raise errors.BadInput("need d >= 1")
    if d == 1:
        return SmoothFactorization([])
    if n < 2:
        raise errors.NotSmooth(f"{d} has a prime factor above {n}")
    if method == "auto":
        method = "trial" if d < (1 << 64) else "tree"
    if method == "trial":
        hits = []
        rem = d
        for p in _primes_upto(n):
            if p * p > rem:
                break
            if rem % p == 0:
                e = 0
                while rem % p == 0:
                    rem //= p
                    e += 1
                hits.append((p, e))
        if rem > 1:
            if rem <= n:
                hits.append((rem, 1))
                hits.sort()
            else:
                raise errors.NotSmooth(f"{d} has the factor {rem} above {n}")
        return SmoothFactorization(hits)
    if method != "tree":
        raise errors.BadInput(f"unknown method {method!r}")
    levels = _subproduct_tree(n)
    if not levels[0]:
        raise errors.NotSmooth(f"{d} has a prime factor above {n}")
    rems = [d % levels[-1][0]]
    for lvl in range(len(levels) - 2, -1, -1):
        cur = levels[lvl]
        nxt_rems = []
        for i, val in enumerate(cur):
            parent = rems[i // 2]
            nxt_rems.append(parent % val)
        rems = nxt_rems
    hits = []
    rem = d
    for p, r in zip(levels[0], rems):
        if r == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            hits.append((p, e))
    if rem != 1:
        raise errors.NotSmooth(f"{d} has a prime factor above {n}")
    return SmoothFactorization(hits)


# ----------------------------------------------------------------------
# Small-degree stripping (the fallback's classical ladder).
# ----------------------------------------------------------------------


def extract_small_degrees(
    f: Poly, s: int, bound: int, s_endo: Endo | None = None
) -> tuple[list[tuple[Poly, int]], Poly]:
    """Remove all irreducible factors of degree <= bound from f.

    Factor degrees are multiples of s (queue invariant), so the ladder steps
    through i = s, 2s, ... <= bound, peeling gcd(x^(q^i) - x, f) at each
    step.  Returns ([(part, degree)], remainder); parts are products of
    same-degree irreducibles, and the remainder has all factor degrees above
    the bound.
    """
    if s < 1 or bound < 0:
        raise errors.BadInput("need s >= 1 and bound >= 0")
    ctx = f.ctx
    x = x_poly(ctx)
    if s_endo is None:
        s_endo = frobenius(f, check=False).pow(s)
    cur = f
    sig = s_endo.image
    w = sig
    parts: list[tuple[Poly, int]] = []
    i = s
    while i <= bound and cur.degree > 0:
        g = gcd(w - x, cur)
        if g.degree > 0:
            parts.append((g, i))
            cur = cur // g
            if cur.degree == 0:
                break
            w = w % cur
            sig = sig % cur
        if 0 < cur.degree < 2 * (i + s):
            # At most one factor can remain: degrees are multiples of s
            # strictly above i, so two of them would need 2(i+s) together.
            if cur.degree <= bound:
                parts.append((cur, cur.degree))
                cur = Poly.one(ctx)
            break
        i += s
        if i > bound:
            break
        w = modcomp(w, sig, cur)
    return parts, cur


# ----------------------------------------------------------------------
# Order estimation with the stripping fallback.
# ----------------------------------------------------------------------


def fallback_degree_bound(n: int) -> int:
    """Smallest integer B with B^3 >= n^2."""
    b = max(1, round(n ** (2 / 3)) - 2)
    while b**3 < n * n:
        b += 1
    return b


def fallback_ell(n: int) -> int:
    """Precision for the retried estimate: ceil(n^(1/3) * log2(n))."""
    return max(1, math.ceil(n ** (1 / 3) * math.log2(n)))


def default_ell(n: int) -> int:
    """First-call precision: ceil(log2(n)^2) + 1, at least ceil(log2 n) + 1."""
    if n < 2:
        return 1
    lg = math.log2(n)
    return max(math.ceil(lg * lg) + 1, math.ceil(lg) + 1)


# Estimates with fresh draws after the strip before the fallback gives up.
FALLBACK_ESTIMATES = 8


def order_with_fallback(
    f: Poly,
    s_endo: Endo,
    s: int,
    ell: int,
    oracle: OrderOracle,
    rng,
    hint_fn=None,
) -> tuple[list[tuple[Poly, int]], Poly, Endo | None, int, tuple | None, bool]:
    """Order of s_endo on F_q[x]/(f), stripping small degrees on failure.

    Returns (emitted_parts, remainder, rebased_endo, order, powers,
    used_fallback), where powers are the estimate's cofactor powers of the
    order on the remainder, or None when the oracle supplied none.
    A first estimate at precision ``ell`` usually succeeds.  If not, every
    factor of degree <= B (smallest B with B^3 >= (deg f)^2) is peeled off
    classically; the surviving order divides lcm(B+1..n) which fits in the
    enlarged precision of the later estimates.  Each of those succeeds with
    probability bounded away from 0, so they repeat with fresh draws until
    one does; after FALLBACK_ESTIMATES failures, which only an oracle that
    cannot answer reaches, it raises OracleExhausted.
    """
    est = oracle.estimate(
        s_endo, ell, rng, true_order=hint_fn(f, s) if hint_fn else None
    )
    if est.found:
        return [], f, s_endo, est.order, est.powers, False
    n0 = f.degree
    parts, f2 = extract_small_degrees(f, s, fallback_degree_bound(n0), s_endo=s_endo)
    if f2.degree == 0:
        return parts, f2, None, 1, None, True
    s2 = s_endo.restrict(f2)
    if s2.is_identity():
        return parts, f2, s2, 1, None, True
    hint2 = hint_fn(f2, s) if hint_fn else None
    for _ in range(FALLBACK_ESTIMATES):
        est2 = oracle.estimate(s2, fallback_ell(n0), rng, true_order=hint2)
        if est2.found:
            return parts, f2, s2, est2.order, est2.powers, True
    raise errors.OracleExhausted(
        f"order estimation failed {FALLBACK_ESTIMATES} times after the strip"
        f" (degree {n0}, stride {s})"
    )


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


@dataclass
class DdfResult:
    """Distinct-degree parts, ascending by degree: [(product, degree)]."""

    parts: list[tuple[Poly, int]] = field(default_factory=list)

    def degrees(self) -> list[int]:
        return [d for (_, d) in self.parts]


def _shadow_hint_fn(f_top: Poly, xq: Poly):
    """True order provider for the measurement simulation.

    One classical distinct-degree shadow of the top-level input is computed
    lazily, from the engine's x^q mod the input ``xq``; the order of sigma^s
    on any divisor g of the input is then lcm(D / gcd(s, D)) over the
    distinct factor degrees D present in g, found by gcds against the shadow
    parts.
    """
    shadow: list[tuple[Poly, int]] | None = None

    def hint(modulus: Poly, stride: int) -> int:
        nonlocal shadow
        if shadow is None:
            shadow = distinct_degree_parts(f_top, xq)
        present = []
        for part, dd in shadow:
            if gcd(modulus, part).degree > 0:
                present.append(dd)
        return math.lcm(*[dd // math.gcd(stride, dd) for dd in present])

    return hint


def ddf(
    f: Poly,
    oracle: OrderOracle | None = None,
    rng=None,
    ell: int | None = None,
    trace: list | None = None,
) -> DdfResult:
    """Distinct-degree factorization of monic squarefree f.

    ``ell`` overrides the first-call precision (the fallback keeps its own
    formula).  ``trace``, if a list is supplied, receives one record per
    processed work item.
    """
    if not f.is_monic() or len(f.coeffs) < 2:
        raise errors.BadInput("input must be monic of degree >= 1")
    der = f.deriv()
    if der.is_zero() or gcd(f, der).degree > 0:
        raise errors.NotSquarefree("input must be squarefree")
    if oracle is None:
        oracle = OrderOracle(OracleConfig())
    if rng is None:
        rng = make_rng()
    n = f.degree
    ell_used = ell if ell is not None else default_ell(n)
    sigma = frobenius(f, check=False)
    hint_fn = _shadow_hint_fn(f, sigma.image)
    x = x_poly(f.ctx)

    merged: dict[int, Poly] = {}
    queue = deque([(f, 1, sigma, 0, None)])
    next_id = 1

    # emit and enqueue act on the item being processed: its trace record
    # rec, its node_id, and its stride s with map s_endo2 = sigma^s.
    def emit(part: Poly, degree: int) -> None:
        prev = merged.get(degree)
        merged[degree] = part if prev is None else prev * part
        rec["emitted"].append([degree, part.degree])

    def enqueue(g_c: Poly, k: int) -> None:
        # The child's stride is s*k, and its map sigma^(s*k) is the item's
        # sigma^s restricted to g_c, to the k-th power.
        nonlocal next_id
        queue.append((g_c, s * k, s_endo2.restrict(g_c).pow(k), next_id, node_id))
        rec["children"].append(next_id)
        next_id += 1

    while queue:
        g, s, s_endo, node_id, parent = queue.popleft()
        rec = {
            "id": node_id,
            "parent": parent,
            "input_degree": g.degree,
            "s": s,
            "ell_used": None,
            "fallback": False,
            "d": None,
            "primes": [],
            "children": [],
            "emitted": [],
        }
        if trace is not None:
            trace.append(rec)
        if s_endo.is_identity():
            emit(g, s)
            rec["d"] = 1
            continue
        rec["ell_used"] = ell_used
        stripped, g2, s_endo2, d, powers, used_fb = order_with_fallback(
            g, s_endo, s, ell_used, oracle, rng, hint_fn=hint_fn
        )
        rec["fallback"] = used_fb
        rec["d"] = d
        for part, deg_val in stripped:
            emit(part, deg_val)
        if g2.degree == 0:
            continue
        if d == 1:
            emit(g2, s)
            continue
        fac = smooth_factor(d, n)
        rec["primes"] = [[p, e] for (p, e) in fac.pairs]
        tau0, taus = powers if powers is not None else cofactor_powers(s_endo2, d)
        g0 = gcd(tau0.image - x, g2)
        if g0.degree > 0:
            enqueue(g0, 1)
        h = g2 // g0 if g0.degree > 0 else g2
        if h.degree > 0:
            g_prev = h
            k_run = 1
            for p_i, e_i in fac.pairs:
                if g_prev.degree == 0:
                    break
                g_i = gcd(taus[p_i].image - x, g_prev)
                if g_i.degree == 0:
                    # Every remaining factor has the full p_i-power in its
                    # reduced degree; keep the whole block and grow the stride.
                    k_run *= p_i**e_i
                elif g_i.degree < g_prev.degree:
                    enqueue(g_prev // g_i, k_run * p_i**e_i)
                    g_prev = g_i
                # g_i == g_prev: no remaining factor attains the full
                # p_i-power; nothing to do for this prime.
            if g_prev.degree > 0:
                enqueue(g_prev, k_run)

    parts = sorted(merged.items())
    result = DdfResult([(poly, d) for d, poly in parts])

    check = Poly.one(f.ctx)
    for poly, _ in result.parts:
        check = check * poly
    if check != f:
        raise errors.InvariantViolation("distinct-degree parts do not reconstruct input")
    for poly, d in result.parts:
        if poly.degree % d != 0:
            raise errors.InvariantViolation("part degree is not a multiple of its class")
    return result


def recursion_audit(trace: list) -> int:
    """Longest root-to-leaf chain (in nodes) of a ddf trace."""
    depth: dict[int, int] = {}
    best = 0
    for rec in trace:
        d = depth.get(rec["parent"], 0) + 1
        depth[rec["id"]] = d
        if d > best:
            best = d
    return best
