"""Finite field contexts F_q with q = p^m.

A context object owns the parameters (p, m, h) and exposes element
arithmetic.  Elements are plain values, not wrapper objects: an ``int`` in
``[0, p)`` for prime fields, and a tuple of ``m`` such ints (coefficients of
1, y, ..., y^(m-1)) for extension fields F_p[y]/(h).  All operations return
fully reduced values, so representations are canonical and comparable with
``==``.

Because elements are bare values they carry no back-reference to their field;
mixing elements of different fields is the caller's responsibility at this
layer.  The polynomial layer, whose objects do carry a context, raises
``FieldMismatch`` on any cross-field operation.

Extension moduli are tested with the classical Rabin criterion on ``Poly``
over the prime field, so F_p[y] arithmetic has one implementation, in
poly.py.  Integer arithmetic also lives here, in one place for the package:
Miller-Rabin primality and ``factor_int`` (trial division plus Pollard rho),
the package's one integer factorizer: Rabin's test, the order oracle and the
distinct-degree engine, which splits along the primes of each order, use it.
"""

from __future__ import annotations

import math
import random as _random
from itertools import zip_longest

import numpy as np

from . import errors
from .rng import make_rng, rand_below

__all__ = [
    "FieldCtx",
    "PrimeField",
    "ExtensionField",
    "field_new",
    "is_probable_prime",
    "factor_int",
]

_MR_ROUNDS = 64


def is_probable_prime(n: int, rounds: int = _MR_ROUNDS) -> bool:
    """Miller-Rabin with ``rounds`` pseudo-random bases (error < 4^-rounds).

    Bases are drawn from a generator seeded by ``n`` itself, so the answer is
    deterministic for a given input.
    """
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    picker = _random.Random(n)
    for _ in range(rounds):
        a = picker.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = 2 + seed, 1 + seed, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise errors.BadInput("factor_int needs n >= 1")
    fac: dict[int, int] = {}
    for d in (2, 3, 5):
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
    d = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 10_000:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += inc[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_probable_prime(v):
            fac[v] = fac.get(v, 0) + 1
            continue
        g = _pollard_rho(v)
        stack.append(g)
        stack.append(v // g)
    return fac


# ----------------------------------------------------------------------
# Field contexts.
# ----------------------------------------------------------------------


class FieldCtx:
    """Common interface for F_p and F_{p^m}; construct via :func:`field_new`."""

    p: int
    m: int
    q: int
    h: tuple[int, ...]  # monic modulus of F_p[y], length m + 1

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.h == other.h
        )

    def __hash__(self):
        return hash((self.p, self.m, self.h))

    def __repr__(self):
        if self.m == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.m}"

    # Subclasses provide: zero, one, add, sub, neg, mul, inv, pow, pth_root,
    # from_int, from_index, element_index, rand.

    def iter_elements(self):
        """All field elements in a fixed deterministic order."""
        for i in range(self.q):
            yield self.from_index(i)

    def rand(self, rng: np.random.Generator):
        return self.from_index(rand_below(rng, self.q))

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class PrimeField(FieldCtx):
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p", "m", "q", "h")

    def __init__(self, p: int):
        self.p = p
        self.m = 1
        self.q = p
        self.h = (0, 1)  # y

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a: int, b: int) -> int:
        c = a - b
        return c + self.p if c < 0 else c

    def neg(self, a: int) -> int:
        return self.p - a if a else 0

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def pth_root(self, a: int) -> int:
        # Frobenius is the identity on the prime field.
        return a

    def from_int(self, i: int) -> int:
        return i % self.p

    def from_index(self, i: int) -> int:
        return i

    def element_index(self, a: int) -> int:
        return a


class ExtensionField(FieldCtx):
    """F_{p^m} = F_p[y]/(h) with elements as tuples of m ints."""

    __slots__ = ("p", "m", "q", "h", "_ytab", "_zero", "_one")

    def __init__(self, p: int, h: list[int]):
        self.p = p
        self.m = len(h) - 1
        self.q = p**self.m
        self.h = tuple(h)
        # _ytab[i] = y^(m+i) mod h as a length-m row; lets mul reduce without
        # division.
        m = self.m
        self._ytab = []
        red = [(-c) % p for c in h[:m]]  # y^m mod h
        self._ytab.append(red)
        for _ in range(m - 2):
            prev = self._ytab[-1]
            nxt = [0] + prev[: m - 1]
            top = prev[m - 1]
            if top:
                for j in range(m):
                    nxt[j] = (nxt[j] + top * red[j]) % p
            self._ytab.append(nxt)
        self._zero = (0,) * m
        self._one = (1,) + (0,) * (m - 1)

    @property
    def zero(self) -> tuple[int, ...]:
        return self._zero

    @property
    def one(self) -> tuple[int, ...]:
        return self._one

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p = self.p
        m = self.m
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i] % p
            if c:
                row = self._ytab[i - m]
                for j in range(m):
                    conv[j] += c * row[j]
        return tuple(v % p for v in conv[:m])

    def inv(self, a):
        """Inverse by extended Euclid on the y-coefficient lists, mod h."""
        if a == self._zero:
            raise ZeroDivisionError("inverse of zero")
        # poly imports this module; its int-list kernels are F_p[y] here.
        from .poly import _divmod_int, _mul_int

        p = self.p
        # Invariant: s_i * a = r_i mod h.  h is irreducible, so the remainder
        # chain ends at a nonzero constant.
        r0, r1 = list(self.h), list(a)
        while not r1[-1]:
            r1.pop()
        s0, s1 = [], [1]
        while len(r1) > 1:
            quo, rem = _divmod_int(r0, r1, p)
            qs = _mul_int(quo, s1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, [(u - v) % p for u, v in zip_longest(s0, qs, fillvalue=0)]
        c = pow(r1[0], -1, p)
        out = [v * c % p for v in s1[: self.m]]
        return tuple(out + [0] * (self.m - len(out)))

    def pow(self, a, e: int):
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self._one
        cur = a
        while e:
            if e & 1:
                result = self.mul(result, cur)
            e >>= 1
            if e:
                cur = self.mul(cur, cur)
        return result

    def pth_root(self, a):
        # The Frobenius x -> x^p has order m, so its inverse is x -> x^(p^(m-1)).
        return self.pow(a, self.p ** (self.m - 1))

    def from_int(self, i: int):
        return (i % self.p,) + (0,) * (self.m - 1)

    def from_index(self, i: int):
        p = self.p
        digits = []
        for _ in range(self.m):
            digits.append(i % p)
            i //= p
        return tuple(digits)

    def element_index(self, a) -> int:
        idx = 0
        for d in reversed(a):
            idx = idx * self.p + d
        return idx


def field_new(
    p: int,
    m: int = 1,
    h: list[int] | tuple[int, ...] | None = None,
    rng: np.random.Generator | None = None,
) -> FieldCtx:
    """Create a field context.

    ``p`` must be prime (checked, 64-round Miller-Rabin) and ``m >= 1``.  For
    ``m > 1`` a monic irreducible modulus ``h`` (coefficient list, ascending,
    length m + 1) may be supplied; otherwise one is found by random search
    using ``rng``.  Prime fields always use h = y.
    """
    # classical imports poly, which imports this module.
    from .classical import is_irreducible
    from .poly import Poly

    if not isinstance(p, int) or p < 2 or not is_probable_prime(p):
        raise errors.NotPrime(f"{p} is not prime")
    if m < 1:
        raise errors.BadInput("extension degree must be >= 1")
    if m == 1:
        if h is not None:
            hh = list(h)
            if len(hh) != 2 or hh[1] % p != 1:
                raise errors.DegreeMismatch("modulus for m=1 must be monic of degree 1")
        return PrimeField(p)
    if h is not None:
        hh = [c % p for c in h]
        if len(hh) != m + 1 or hh[m] != 1:
            raise errors.DegreeMismatch(
                f"modulus must be monic of degree {m}, got {list(h)}"
            )
        if not is_irreducible(Poly(PrimeField(p), hh)):
            raise errors.Reducible(f"modulus {list(h)} is reducible over F_{p}")
        return ExtensionField(p, hh)
    if rng is None:
        rng = make_rng()
    # A random monic polynomial of degree m is irreducible with probability
    # about 1/m, so this loop is short.
    while True:
        cand = [rand_below(rng, p) for _ in range(m)] + [1]
        if is_irreducible(Poly(PrimeField(p), cand)):
            return ExtensionField(p, cand)
