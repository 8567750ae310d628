"""Full factorization pipeline: squarefree -> distinct-degree -> equal-degree.

``factor`` normalizes the unit, splits by multiplicity (Yun's algorithm, repeated
on p-th roots in characteristic p), runs the order-driven
distinct-degree engine on each squarefree part, and splits each same-degree
block into irreducibles (Cantor-Zassenhaus for odd q, trace maps for
characteristic 2), with the x^q mod the part that the engine computed.
Every output is audited to multiply back to the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import errors
from .classical import brute_factor, is_irreducible, split_probe
from .ddf import ddf
from .order import OracleConfig, OrderOracle
from .poly import Poly, gcd, poly_pth_root
from .rng import make_rng

__all__ = [
    "Factorization",
    "sff",
    "edf",
    "factor",
    "is_irreducible",
    "brute_factor",
]


@dataclass
class Factorization:
    """unit * prod(poly^multiplicity) over ascending (degree, coefficients)."""

    unit: object
    factors: list[tuple[Poly, int]] = field(default_factory=list)

    def product(self, ctx) -> Poly:
        out = Poly.const(ctx, self.unit)
        for g, mult in self.factors:
            for _ in range(mult):
                out = out * g
        return out


def sff(f: Poly) -> list[tuple[Poly, int]]:
    """Squarefree factorization of nonzero f: [(monic squarefree part, mult)].

    Yun's gcd chain, run in a loop.  A polynomial with a vanishing derivative
    is a p-th power, and every multiplicity in the tail Yun's chain leaves is
    divisible by p; either way the loop goes on with the p-th root and
    multiplicities scaled by p, until that root is constant.
    The returned parts are pairwise coprime, listed by ascending multiplicity.
    """
    if f.is_zero():
        raise errors.BadInput("cannot factor the zero polynomial")
    p = f.ctx.p
    out: list[tuple[Poly, int]] = []
    g, scale = f.monic(), 1
    while g.degree > 0:
        der = g.deriv()
        if der.is_zero():
            g, scale = poly_pth_root(g), scale * p
            continue
        tail = gcd(g, der)
        w = g // tail
        j = 1
        while w.degree > 0:
            y = gcd(w, tail)
            part = w // y
            if part.degree > 0:
                out.append((part, j * scale))
            w = y
            tail = tail // y
            j += 1
        # Every multiplicity left in the tail is divisible by p.
        g, scale = poly_pth_root(tail), scale * p
    out.sort(key=lambda t: (t[1], t[0].sort_key()))
    return out


def edf(f: Poly, d: int, rng=None, xq: Poly | None = None) -> list[Poly]:
    """Split monic f, a product of distinct degree-d irreducibles.

    Each round takes an unsplit block h, draws a random nonconstant u of
    degree < deg h and runs ``classical.split_probe``: for odd q, gcd with
    u^((q^d-1)/2) - 1 separates the factors with probability >= 1/2; in
    characteristic 2 the absolute trace sum u + u^2 + ... + u^(2^(dm-1))
    plays the same role.  ``xq`` is x^q mod f, or mod a multiple of f, when
    the caller has it; it goes to every probe, which reduces it mod its
    block when it takes the Frobenius form.
    """
    if d < 1 or f.degree < 1 or f.degree % d != 0:
        raise errors.BadInput("degree of f must be a positive multiple of d")
    if not f.is_monic():
        raise errors.BadInput("input must be monic")
    if f.degree == d:
        return [f]
    if rng is None:
        rng = make_rng()
    ctx = f.ctx
    work = [f]
    done: list[Poly] = []
    while work:
        h = work.pop()
        if h.degree == d:
            done.append(h)
            continue
        u = Poly(ctx, [ctx.rand(rng) for _ in range(h.degree)])
        if u.degree < 1:
            work.append(h)  # constants never split; redraw
            continue
        g = split_probe(h, d, u, xq)
        if 0 < g.degree < h.degree:
            work.append(g)
            work.append(h // g)
        else:
            work.append(h)  # no split; redraw
    done.sort(key=Poly.sort_key)
    return done


def factor(f: Poly, oracle: OrderOracle | None = None, rng=None) -> Factorization:
    """Complete factorization of nonzero f into monic irreducibles.

    The reconstruction identity unit * prod(g^mult) == f is checked on every
    call and raises InvariantViolation if it fails.
    """
    if f.is_zero():
        raise errors.BadInput("cannot factor the zero polynomial")
    if oracle is None:
        oracle = OrderOracle(OracleConfig())
    if rng is None:
        rng = make_rng()
    ctx = f.ctx
    unit = f.lead()
    out: list[tuple[Poly, int]] = []
    for sq_part, mult in sff(f):
        res = ddf(sq_part, oracle=oracle, rng=rng)
        for block, d in res.parts:
            if block.degree == d:
                out.append((block, mult))
            else:
                for irr in edf(block, d, rng, res.xq):
                    out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].sort_key()))
    result = Factorization(unit, out)
    if result.product(ctx) != f:
        raise errors.InvariantViolation("factorization does not reconstruct input")
    return result
