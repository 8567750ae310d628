"""Order-driven distinct-degree factorization.

The engine maintains a queue of work items (g, s) with the invariant that
every irreducible factor of g has degree divisible by s.  For each item it
asks the order oracle for the order d of the restricted power-of-Frobenius
endomorphism sigma^s on F_q[x]/(g); d is the lcm of the values deg(P)/s over
the irreducible factors P, so gcds against fixed powers of sigma^s split g
along the prime-power structure of d, which ``fields.factor_int`` (the
package's one integer factorizer) supplies.  Items whose endomorphism is the
identity are exactly the distinct-degree parts (all factors have degree s)
and are emitted.

The Frobenius map is computed once, for the input; a child of stride s*k
inherits its parent's sigma^s restricted to its modulus, to the k-th power.
The gcds use the cofactor powers the oracle computed when it verified d.
The same x^q mod the input seeds the classical shadow, computed once per
call, which also checks that the input is squarefree, and is returned as
``DdfResult.xq``, for the equal-degree splitting that follows.

When an order estimate fails (order above 2^ell), the fallback strips all
factors of small degree on the classical ladder (``classical.ladder`` with
the item's stride and the bound), which provably shrinks the remaining order
enough for estimates with a larger ell; those repeat with fresh draws until
one succeeds, up to a fixed cap.

Every run is audited: the emitted parts must multiply back to the input.
An optional trace (one dict per processed item) records the shape of the
recursion for diagnostics and benchmarks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from . import errors
from .classical import distinct_degree_parts, ladder, order_from_degrees
from .fields import factor_int
from .order import OracleConfig, OrderOracle, cofactor_powers
from .poly import Endo, Poly, frobenius, frobenius_power_sequence, gcd, x_poly
from .rng import make_rng

__all__ = [
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

# Inert: the engine factors orders with ``fields.factor_int`` and keeps no
# tables.  Kept only because the benchmark's span recorder (perfbench/spans.py
# MEMO_TABLES and its ddf.smooth_tree_calls counter) resolves them by name.
_sieve_cache: dict = {}
_tree_cache: dict = {}
_subproduct_tree = None


# ----------------------------------------------------------------------
# Small-degree stripping (the fallback's strip, on the classical ladder).
# ----------------------------------------------------------------------


def extract_small_degrees(
    f: Poly, s: int, bound: int, s_endo: Endo | None = None
) -> tuple[list[tuple[Poly, int]], Poly]:
    """Remove all irreducible factors of degree <= bound from f.

    Factor degrees are multiples of s (queue invariant), so the classical
    ``ladder`` runs with stride s, stepping by sigma^s (``s_endo``, computed
    when not given).  Returns ([(part, degree)], remainder); parts are
    products of same-degree irreducibles, and the remainder has all factor
    degrees above the bound.
    """
    if s < 1 or bound < 0:
        raise errors.BadInput("need s >= 1 and bound >= 0")
    if s_endo is None:
        s_endo = frobenius(f, check=False).pow(s)
    return ladder(f, s_endo.image, s, bound)


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
    """Distinct-degree parts, ascending by degree: [(product, degree)].

    ``xq`` is x^q mod the input, which the engine computed once; it is not
    part of the result's equality or repr.
    """

    parts: list[tuple[Poly, int]] = field(default_factory=list)
    xq: Poly | None = field(default=None, compare=False, repr=False)

    def degrees(self) -> list[int]:
        return [d for (_, d) in self.parts]


def _shadow_hint_fn(shadow: list[tuple[Poly, int]]):
    """True order provider for the measurement simulation.

    ``shadow`` is the classical distinct-degree split of the top-level
    input; the order of sigma^s on any divisor g of the input is then
    lcm(D / gcd(s, D)) over the distinct factor degrees D present in g,
    found by gcds against the shadow parts.
    """

    def hint(modulus: Poly, stride: int) -> int:
        present = [dd for part, dd in shadow if gcd(modulus, part).degree > 0]
        return order_from_degrees(present, stride)

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
    sigma = frobenius(f, check=False)
    # The shadow checks that f is squarefree, raising NotSquarefree.
    hint_fn = _shadow_hint_fn(distinct_degree_parts(f, sigma.image))
    if oracle is None:
        oracle = OrderOracle(OracleConfig())
    if rng is None:
        rng = make_rng()
    n = f.degree
    ell_used = ell if ell is not None else default_ell(n)
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
        fac = sorted(factor_int(d).items())
        rec["primes"] = [[p, e] for (p, e) in fac]
        tau0, taus = powers if powers is not None else cofactor_powers(s_endo2, d)
        g0 = gcd(tau0.image - x, g2)
        if g0.degree > 0:
            enqueue(g0, 1)
        h = g2 // g0 if g0.degree > 0 else g2
        if h.degree > 0:
            g_prev = h
            k_run = 1
            for p_i, e_i in fac:
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
    result = DdfResult([(poly, d) for d, poly in parts], sigma.image)

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
