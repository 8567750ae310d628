"""Dense univariate polynomial arithmetic over a finite field context.

Coefficient lists are ascending and never carry trailing zeros, so equal
polynomials have equal lists.  The zero polynomial has an empty list and
degree ``float("-inf")``.

Every kernel works on raw coefficient lists with inline integer arithmetic;
a field's element methods are called at most once per quotient coefficient
of a division.  Over a prime field the lists hold ints.  Over
F_{p^m} = F_p[y]/(h) they hold m-tuples, and each kernel runs F_{p^m}[x] as
F_p[x, y]: a coefficient is spread over 2m - 1 F_p lanes, its m
y-coefficients followed by m - 1 zero lanes, so a product of two such lane
lists keeps every y-convolution inside its own group of lanes.  Each group
is then reduced mod h with the rows y^(m+t) mod h of
``ExtensionField._ytab``.

Multiplication is schoolbook for short lane lists and otherwise one
Kronecker substitution: the lanes are packed into two big Python integers
whose product (subquadratic via CPython's Karatsuba) is unpacked and
reduced lane by lane.  Lanes of at most 64 bits are packed and reduced with
numpy; wider lanes, for large p, are sliced byte-wise with
``int.to_bytes``/``int.from_bytes``.  An extension-field product is one such
F_p product of the flattened lists.

Division is schoolbook with lazy reduction: each step subtracts c*b from
the running remainder without reducing it, and only the step's leading
coefficient and the final remainder are reduced (over F_{p^m} the
subtraction is a y-convolution on the lanes).  Euclid runs its whole
remainder chain on raw lists.  Every modular composition is Brent-Kung
baby-step/giant-step, whose block sums are packed big-integer dot products;
over F_{p^m} each scalar is packed as an m-lane integer.

Arithmetic modulo f runs in a reduction context from ``_modctx``, built
once per modulus for f.monic() and cached on f.  ``mulmod``, ``powmod``,
``frobenius`` and ``modcomp`` are written once over its primitives:
residue in and out, packing, product, shift by x, add and block sums.  The
degree of f alone picks the context, over every field.  Below
``_NEWTON_MIN`` it is the list context ``_PolyCtx``, whose residues are
reduced ``Poly`` values and whose products take schoolbook division.  From
that degree on it is the packed ``_ModCtx``, the only code that reduces by
a Newton inverse (of reversed f, built once).  Its residues stay numpy
arrays between products, (n,) over F_p and (n, m) over F_{p^m}, int64 while
that cannot overflow and Python ints above, and become lists only when they
leave as a ``Poly``; a modular product is three big-integer products,
against f's low part and the Newton inverse, both packed once, in numpy
lanes where products fit 64 bits and in byte lanes otherwise.

The Frobenius image x^q mod f is computed by square-and-shift: a set bit
of q costs a shift and one reduction step, not a product.  Endomorphism
powers are square-and-multiply (``Endo.pow``) or, for s^(R/p) over every
prime p of a list with product R at once, recursive halving
(``frobenius_power_sequence(s, primes)``).

Module-level counters track multiplications (one per product, and one per
modular product in either context) and modular compositions so benchmarks
can report work alongside wall time.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors
from .fields import FieldCtx

__all__ = [
    "Poly",
    "Endo",
    "frobenius_power_sequence",
    "x_poly",
    "gcd",
    "mulmod",
    "powmod",
    "modcomp",
    "frobenius",
    "poly_pth_root",
    "random_poly",
    "random_monic",
    "random_squarefree",
    "reset_counters",
    "counters",
]

SCHOOLBOOK_MAX = 8  # up to this length, schoolbook multiplication wins
# Arithmetic mod f reduces by the Newton inverse of reversed f, in the
# packed ``_ModCtx``, from this degree of f on, over every field.  Below it
# the list context ``_PolyCtx`` takes schoolbook division.  Timed per
# product with both contexts built, packed loses to (a * b) % f at degree 7
# over F_{2^31-1} and F_{2^61-1} and wins from degree 8 on over those, F_3
# and F_101.  Over F_9 and F_{2^8} the packed context already wins at
# degree 7 (timeit: 22 against 45 us, 33 against 234 us on a Xeon vCPU);
# one threshold serves every field.
_NEWTON_MIN = 8

_counters = {"mul": 0, "modcomp": 0}


def reset_counters() -> None:
    _counters["mul"] = 0
    _counters["modcomp"] = 0


def counters() -> dict[str, int]:
    return dict(_counters)


# ----------------------------------------------------------------------
# Multiplication kernels (internal, raw coefficient lists).
# ----------------------------------------------------------------------


def _school_int(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [v % p for v in out]


_PACK_WIDTHS = ((16, "<u2"), (32, "<u4"), (64, "<u8"))


def _pack_width(nmin: int, p: int):
    """Lane width in bytes and numpy dtype for packing coefficients below p.

    A lane must hold nmin products of two coefficients plus carries.  Lanes
    of at most 64 bits are packed with numpy; a wider lane takes the fewest
    whole bytes that suffice and has dtype None.
    """
    need = (nmin * (p - 1) * (p - 1)).bit_length() + 1
    for w, dt in _PACK_WIDTHS:
        if need <= w:
            return w // 8, dt
    return (need + 7) // 8, None


def _pack(a: list[int], wb: int, dt) -> int:
    """Kronecker substitution: the ascending lanes ``a`` as one integer."""
    if dt is not None:
        return int.from_bytes(np.array(a, dtype=dt).tobytes(), "little")
    return int.from_bytes(b"".join([c.to_bytes(wb, "little") for c in a]), "little")


def _unpack(v: int, n: int, wb: int, dt, p: int) -> list[int]:
    """The lowest ``n`` lanes of ``v``, each reduced mod p."""
    buf = v.to_bytes(n * wb + wb, "little")
    if dt is not None:
        lanes = np.frombuffer(buf, dtype=dt, count=n)
        return (lanes.astype(np.int64) % p).tolist()
    return _byte_lanes(buf, n, wb, p)


def _byte_lanes(buf: bytes, n: int, wb: int, p: int) -> list[int]:
    """The lowest ``n`` lanes of ``wb`` bytes in ``buf``, each reduced mod p.

    numpy splits the lanes as ``S`` items, which drop trailing zero bytes:
    the high bytes of a little-endian lane, so no value changes.
    """
    from_bytes = int.from_bytes
    lanes = np.frombuffer(buf, dtype=f"S{wb}", count=n).tolist()
    return [from_bytes(c, "little") % p for c in lanes]


def _mul_int(a: list[int], b: list[int], p: int) -> list[int]:
    nmin = min(len(a), len(b))
    if nmin <= SCHOOLBOOK_MAX:
        return _school_int(a, b, p)
    wb, dt = _pack_width(nmin, p)
    prod = _pack(a, wb, dt) * _pack(b, wb, dt)
    return _unpack(prod, len(a) + len(b) - 1, wb, dt, p)


def _divmod_int(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Schoolbook quotient and remainder of raw int lists; b[-1] != 0.

    Reduction is lazy: each step subtracts c*b from the running remainder
    without reducing it mod p, and only the step's leading coefficient and
    the final remainder are reduced.  The remainder has no trailing zeros.
    """
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            r[i - db : i] = [x - c * y for x, y in zip(r[i - db : i], b)]
    r = [v % p for v in r[:db]]
    while r and not r[-1]:
        r.pop()
    return q, r


# ----------------------------------------------------------------------
# Extension fields: F_{p^m}[x] as F_p[x, y] on the prime-field kernels.
# ----------------------------------------------------------------------


def _flat(a: list, m: int) -> list[int]:
    """The m-tuple coefficients of ``a`` as F_p lanes, 2m - 1 per coefficient.

    The m - 1 zero lanes after each coefficient leave room for the y-degrees
    of a product, so a product of flat lists never mixes x-coefficients.
    The padding of the last coefficient is dropped.
    """
    step = 2 * m - 1
    out = [0] * (len(a) * step)
    for s, col in enumerate(zip(*a)):
        out[s::step] = col
    del out[len(a) * step - m + 1 :]
    return out


def _fold(lanes: list[int], ctx: FieldCtx) -> list[tuple]:
    """Groups of 2m - 1 lanes (y-polynomials of degree <= 2m - 2) as elements.

    ``len(lanes)`` is a multiple of 2m - 1; lanes may be unreduced.  Lane
    m + t of a group adds its value times y^(m+t) mod h, the row
    ``ctx._ytab[t]``, to the low m lanes.
    """
    m, p = ctx.m, ctx.p
    step = 2 * m - 1
    cols = [lanes[j::step] for j in range(step)]
    for t, row in enumerate(ctx._ytab):
        hi = cols[m + t]
        for j, r in enumerate(row):
            if r:
                cols[j] = [x + r * z for x, z in zip(cols[j], hi)]
    return list(zip(*[[v % p for v in cols[j]] for j in range(m)]))


def _mul_ext(a: list, b: list, ctx: FieldCtx) -> list[tuple]:
    """Product over F_{p^m}: one F_p product of the flat lanes, then a fold."""
    m = ctx.m
    return _fold(_mul_int(_flat(a, m), _flat(b, m), ctx.p), ctx)


def _divmod_ext(a: list, b: list, ctx: FieldCtx) -> tuple[list, list]:
    """Schoolbook quotient and remainder over F_{p^m}; b[-1] != 0.

    The running remainder is kept as flat lanes, and each step subtracts the
    y-convolution c * b lane by lane without reducing.  Only the step's
    leading coefficient is reduced mod h and p, and the final remainder.
    """
    m, p = ctx.m, ctx.p
    step = 2 * m - 1
    ytab = ctx._ytab
    db = len(b) - 1
    inv = None if b[-1] == ctx.one else ctx.inv(b[-1])
    bl = _flat(b[:db], m)
    nb = len(bl)
    r = _flat(a, m) + [0] * (m - 1)
    zero = ctx.zero
    q = [zero] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        k = i * step
        lo = r[k : k + m]
        for t, z in enumerate(r[k + m : k + step]):
            if z:
                lo = [x + z * y for x, y in zip(lo, ytab[t])]
        c = tuple([v % p for v in lo])
        if c == zero:
            continue
        if inv is not None:
            c = ctx.mul(c, inv)
        q[i - db] = c
        base = (i - db) * step
        for s, cs in enumerate(c):
            if cs:
                j = base + s
                r[j : j + nb] = [x - cs * y for x, y in zip(r[j : j + nb], bl)]
    rem = _fold(r[: db * step], ctx)
    while rem and rem[-1] == zero:
        rem.pop()
    return q, rem


# ----------------------------------------------------------------------
# Newton series inversion, for reduction by a fixed modulus.
# ----------------------------------------------------------------------


def _mul(a: list, b: list, ctx: FieldCtx) -> list:
    """The product of two raw coefficient lists over the field ``ctx``."""
    if ctx.m == 1:
        return _mul_int(a, b, ctx.p)
    return _mul_ext(a, b, ctx)


def _series_inv(c: list, prec: int, ctx: FieldCtx) -> list:
    """Inverse of the power series ``c`` (c[0] == 1) modulo x^prec."""
    two = ctx.from_int(2)
    g = [ctx.one]
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        # g <- g * (2 - c * g) mod x^k
        t = [ctx.neg(v) for v in _mul(c[:k], g, ctx)[:k]]
        t[0] = ctx.add(t[0], two)
        g = _mul(g, t, ctx)[:k]
    return g[:prec]


class Poly:
    """Immutable-by-convention dense polynomial over a field context."""

    __slots__ = ("ctx", "coeffs", "_mod")

    def __init__(self, ctx: FieldCtx, coeffs: list, normalize: bool = True):
        self.ctx = ctx
        if normalize:
            zero = ctx.zero
            coeffs = list(coeffs)
            while coeffs and coeffs[-1] == zero:
                coeffs.pop()
        self.coeffs = coeffs
        self._mod = None  # cached reduction context as a modulus (``_modctx``)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ctx: FieldCtx) -> "Poly":
        return Poly(ctx, [], normalize=False)

    @staticmethod
    def one(ctx: FieldCtx) -> "Poly":
        return Poly(ctx, [ctx.one], normalize=False)

    @staticmethod
    def const(ctx: FieldCtx, c) -> "Poly":
        """The constant c: an ``int`` is mapped into the field by ``ctx.from_int``."""
        return Poly(ctx, [ctx.from_int(c) if isinstance(c, int) else c])

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def lead(self):
        if not self.coeffs:
            raise errors.BadInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, tuple(self.coeffs)))

    def __bool__(self):
        return bool(self.coeffs)

    def sort_key(self):
        """Deterministic ordering key: degree, then coefficient indices."""
        idx = self.ctx.element_index
        return (len(self.coeffs), tuple(idx(c) for c in self.coeffs))

    def __repr__(self):
        from .textio import format_poly

        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        from .textio import format_poly

        return format_poly(self)

    # -- ring operations --------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise errors.FieldMismatch("operands from different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if ctx.m == 1:
            p = ctx.p
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            add = ctx.add
            out = [add(x, y) for x, y in zip(a, b)]
        out.extend(a[len(b) :])
        return Poly(ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if ctx.m == 1:
            p = ctx.p
            out = [(x - y) % p for x, y in zip(a, b)]
            out.extend([(-y) % p for y in b[len(a) :]])
        else:
            sub, neg = ctx.sub, ctx.neg
            out = [sub(x, y) for x, y in zip(a, b)]
            out.extend([neg(y) for y in b[len(a) :]])
        out.extend(a[len(b) :])
        return Poly(ctx, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, [ctx.neg(c) for c in self.coeffs], normalize=False)

    def scaled(self, c) -> "Poly":
        ctx = self.ctx
        if c == ctx.zero or not self.coeffs:
            return Poly.zero(ctx)
        if ctx.m == 1:
            p = ctx.p
            return Poly(ctx, [v * c % p for v in self.coeffs])
        return Poly(ctx, _mul_ext([c], self.coeffs, ctx))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        if not self.coeffs or not other.coeffs:
            return Poly.zero(ctx)
        _counters["mul"] += 1
        return Poly(ctx, _mul(self.coeffs, other.coeffs, ctx))

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Poly(self.ctx, [self.ctx.zero] * k + self.coeffs, normalize=False)

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise errors.BadInput("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == self.ctx.one:
            return self
        return self.scaled(self.ctx.inv(lead))

    def deriv(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            k = ctx.from_int(i)
            out.append(ctx.mul(k, self.coeffs[i]))
        return Poly(ctx, out)

    def __call__(self, a):
        """Evaluate at a field element (Horner)."""
        ctx = self.ctx
        acc = ctx.zero
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, a), c)
        return acc

    # -- division ---------------------------------------------------------

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        ctx = self.ctx
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Poly.zero(ctx), self
        if ctx.m == 1:
            q, r = _divmod_int(self.coeffs, other.coeffs, ctx.p)
        else:
            q, r = _divmod_ext(self.coeffs, other.coeffs, ctx)
        return Poly(ctx, q, normalize=False), Poly(ctx, r, normalize=False)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]


def x_poly(ctx: FieldCtx) -> Poly:
    return Poly(ctx, [ctx.zero, ctx.one], normalize=False)


def random_poly(ctx: FieldCtx, degree: int, rng) -> Poly:
    """Uniform polynomial of degree exactly ``degree``."""
    if degree < 0:
        return Poly.zero(ctx)
    coeffs = [ctx.rand(rng) for _ in range(degree)]
    while True:
        lead = ctx.rand(rng)
        if lead != ctx.zero:
            break
    coeffs.append(lead)
    return Poly(ctx, coeffs, normalize=False)


def random_monic(ctx: FieldCtx, degree: int, rng) -> Poly:
    coeffs = [ctx.rand(rng) for _ in range(degree)] + [ctx.one]
    return Poly(ctx, coeffs, normalize=False)


def random_squarefree(ctx: FieldCtx, degree: int, rng) -> Poly:
    """Random monic squarefree polynomial, by redrawing ``random_monic``."""
    if degree < 1:
        raise errors.BadInput("a squarefree polynomial needs degree >= 1")
    while True:
        f = random_monic(ctx, degree, rng)
        der = f.deriv()
        if not der.is_zero() and gcd(f, der).degree == 0:
            return f


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if a.ctx != b.ctx:
        raise errors.FieldMismatch("operands from different fields")
    if a.is_zero() and b.is_zero():
        raise errors.BothZero("gcd(0, 0) is undefined")
    ctx = a.ctx
    u, v = a.coeffs, b.coeffs
    if ctx.m != 1:
        while v:
            u, v = v, _divmod_ext(u, v, ctx)[1]
        return Poly(ctx, u, normalize=False).monic()
    # Prime field: the whole remainder chain on raw int lists.
    p = ctx.p
    while v:
        u, v = v, _divmod_int(u, v, p)[1]
    inv = pow(u[-1], -1, p)
    return Poly(ctx, [c * inv % p for c in u], normalize=False)


def mulmod(a: Poly, b: Poly, f: Poly) -> Poly:
    mc = _modctx(f)
    return mc.poly(mc.mul(mc.pack(mc.residue(a)), mc.pack(mc.residue(b))))


def powmod(a: Poly, e: int, f: Poly) -> Poly:
    """a^e mod f by square-and-multiply; e >= 0, f nonzero."""
    if e < 0:
        raise errors.BadInput("negative exponent")
    mc = _modctx(f)
    cur = mc.residue(a)
    sq = mc.pack(cur)
    out = None
    while e:
        if e & 1:
            out = cur if out is None else mc.mul(mc.pack(out), sq)
        e >>= 1
        if e:
            cur = mc.mul(sq, sq)
            sq = mc.pack(cur)
    return mc.poly(mc.const(f.ctx.one) if out is None else out)


# ----------------------------------------------------------------------
# Reduction contexts: arithmetic modulo a fixed polynomial.
# ----------------------------------------------------------------------


def _modctx(f: Poly):
    """The reduction context for arithmetic modulo the nonzero ``f``.

    It is built once per modulus, for f.monic(), which leaves the same
    remainders as f, and cached on f.  It holds a copy of f.monic(), never f
    itself, so that f and its context form no reference cycle.  The degree
    of f alone picks it, over every field: below ``_NEWTON_MIN`` the list
    context ``_PolyCtx``, which divides schoolbook, and from it on the packed
    ``_ModCtx``, which reduces by a Newton inverse.
    """
    mc = f._mod
    if mc is None:
        # A zero f gets a context whose residue() raises ZeroDivisionError.
        g = Poly(f.ctx, f.monic().coeffs if f.coeffs else [], normalize=False)
        mc = _ModCtx(g) if len(g.coeffs) - 1 >= _NEWTON_MIN else _PolyCtx(g)
        f._mod = mc
    return mc


class _ModCtx:
    """Residues modulo a monic f of degree n over F_q, q = p^m, as packed lanes.

    A residue is a numpy array of n reduced coefficients, of shape (n,) over
    F_p and (n, m) over F_{p^m}: int64 while 2p + (m - 1)(p - 1)^2 < 2^63,
    which keeps the sum of two residues and a folded lane group inside int64
    (p < 2^62 at m = 1), and Python ints (dtype ``object``) above.  Packing
    spreads an F_{p^m} coefficient over 2m - 1 lanes, its m y-coefficients
    and m - 1 zeros, so a product keeps each y-convolution in its own group;
    reading a group back folds it mod h with the rows of ``ytab``.
    f's low n coefficients and the Newton inverse of reversed f modulo
    x^(n-1) are packed once, so a modular product is three big-integer
    products: a*b, its reversed top half times the inverse (the quotient),
    and the quotient times f's low part.  A lane holds n*m products of two
    F_p coefficients, enough for every one of them and for Brent-Kung block
    sums of at most n terms.  Lanes of at most 64 bits (``dt`` set) are
    numpy lanes; wider ones are byte lanes of ``wb`` bytes (``dt`` None),
    unpacked and reduced through Python ints.
    """

    __slots__ = ("ctx", "p", "m", "n", "wb", "dt", "rdt", "f", "low", "ytab", "flow", "finv")

    def __init__(self, f: Poly):
        ctx = f.ctx
        p, m = ctx.p, ctx.m
        n = len(f.coeffs) - 1
        self.ctx, self.p, self.m, self.n, self.f = ctx, p, m, n, f
        self.wb, self.dt = _pack_width(n * m, p)
        fits = 2 * p + (m - 1) * (p - 1) ** 2 < 1 << 63
        self.rdt = np.int64 if fits else object  # residue dtype
        self.low = np.array(f.coeffs[:n], dtype=self.rdt)
        self.ytab = np.array(ctx._ytab, dtype=self.rdt) if m > 1 else None
        self.flow = self.pack(self.low)
        inv = _series_inv(f.coeffs[::-1], n - 1, ctx)
        self.finv = self.pack(np.array(inv, dtype=self.rdt))

    def pack(self, a: np.ndarray) -> int:
        m = self.m
        if m > 1:
            wide = np.zeros((len(a), 2 * m - 1), dtype=a.dtype)
            wide[:, :m] = a
            a = wide.ravel()
        if self.dt is not None:
            return int.from_bytes(a.astype(self.dt).tobytes(), "little")
        if self.rdt is object:
            return _pack(a.tolist(), self.wb, None)
        # Each residue's 8 little-endian bytes, zero-padded to a byte lane.
        buf = np.zeros((len(a), self.wb), dtype=np.uint8)
        buf[:, :8].view("<i8")[:, 0] = a
        return int.from_bytes(buf.tobytes(), "little")

    def lanes(self, v: int, k: int) -> np.ndarray:
        """The lowest ``k`` coefficients of ``v``, not reduced mod p.  Over
        F_p they are numpy lanes, or byte lanes reduced mod p, since those
        need not fit int64; over F_{p^m} each group of 2m - 1 lanes is
        reduced mod p and folded mod h, to values below
        p + (m - 1)(p - 1)^2."""
        m, wb = self.m, self.wb
        k *= 2 * m - 1
        buf = v.to_bytes(max(k * wb, (v.bit_length() + 7) // 8), "little")
        if self.dt is None:
            out = np.array(_byte_lanes(buf, k, wb, self.p), dtype=self.rdt)
        else:
            out = np.frombuffer(buf, dtype=self.dt, count=k).astype(np.int64)
        if m == 1:
            return out
        out = out.reshape(-1, 2 * m - 1) % self.p
        return out[:, :m] + out[:, m:] @ self.ytab

    def residue(self, a: Poly) -> np.ndarray:
        if a.ctx != self.ctx:
            raise errors.FieldMismatch("operands from different fields")
        if len(a.coeffs) > self.n:
            a = a % self.f
        out = np.zeros_like(self.low)
        if a.coeffs:  # [] does not broadcast into shape (0, m)
            out[: len(a.coeffs)] = a.coeffs
        return out

    def poly(self, a: np.ndarray) -> Poly:
        if self.m == 1:
            return Poly(self.ctx, a.tolist())
        return Poly(self.ctx, [tuple(c) for c in a.tolist()])

    def const(self, c) -> np.ndarray:
        out = np.zeros_like(self.low)
        out[0] = c
        return out

    def mul(self, a: int, b: int) -> np.ndarray:
        """(a * b) mod f from packed residues a and b."""
        _counters["mul"] += 1
        n, p = self.n, self.p
        c = self.lanes(a * b, 2 * n - 1)
        qrev = self.lanes(self.pack(c[: n - 1 : -1] % p) * self.finv, n - 1) % p
        return (c[:n] - self.lanes(self.pack(qrev[::-1]) * self.flow, n)) % p

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def shift(self, a: np.ndarray) -> np.ndarray:
        """x * a mod f: a shift, then x^n = -(f's low part) for the top
        coefficient, over F_{p^m} as one packed product."""
        out = np.empty_like(a)
        out[0] = 0
        out[1:] = a[:-1]
        if self.m > 1:
            return (out - self.lanes(self.pack(a[-1:]) * self.flow, self.n)) % self.p
        top = a[-1]
        if not top:
            return out
        if self.dt is None:  # top * low may pass int64: form it in Python ints
            t, p = int(top), self.p
            out = [(x - t * y) % p for x, y in zip(out.tolist(), self.f.coeffs)]
            return np.array(out, dtype=self.rdt)
        return (out - top * self.low) % self.p

    def blocks(self, coeffs: list, powers: list[int]) -> list[np.ndarray]:
        """``_dots`` of coeffs and the packed powers g^j, j < t <= n, as residues."""
        scalars = _scalars(coeffs, self.m, self.wb)
        return [self.lanes(v, self.n) % self.p for v in _dots(scalars, powers)]


class _PolyCtx:
    """Residues modulo a monic f of degree n below ``_NEWTON_MIN`` as reduced
    ``Poly`` values: the list context, over every field.

    The packed form of a residue is the residue itself, and a product is
    a * b on the general kernels, then divided schoolbook by f.
    """

    __slots__ = ("f", "n")

    def __init__(self, f: Poly):
        self.f = f
        self.n = len(f.coeffs) - 1

    def residue(self, a: Poly) -> Poly:
        return a % self.f

    def poly(self, a: Poly) -> Poly:
        return a

    def pack(self, a: Poly) -> Poly:
        return a

    def const(self, c) -> Poly:
        f = self.f
        return Poly.const(f.ctx, c) if self.n else Poly.zero(f.ctx)

    def mul(self, a: Poly, b: Poly) -> Poly:
        """(a * b) mod f for residues a and b."""
        return a * b % self.f

    def add(self, a: Poly, b: Poly) -> Poly:
        return a + b

    def shift(self, a: Poly) -> Poly:
        """x * a mod f: a shift, then one subtraction of a multiple of f."""
        f = self.f
        a = a.shift(1)
        if len(a.coeffs) == len(f.coeffs):
            a = a - f.scaled(a.coeffs[-1])
        return a

    def blocks(self, coeffs: list, powers: list[Poly]) -> list[Poly]:
        """``_dots`` of coeffs and the powers g^j, packed here from their
        flat lanes."""
        ctx = self.f.ctx
        p, m = ctx.p, ctx.m
        wb, dt = _pack_width(len(powers) * m, p)
        packed = [_pack(g.coeffs if m == 1 else _flat(g.coeffs, m), wb, dt) for g in powers]
        k = self.n * (2 * m - 1)
        out = [_unpack(v, k, wb, dt, p) for v in _dots(_scalars(coeffs, m, wb), packed)]
        return [Poly(ctx, c if m == 1 else _fold(c, ctx)) for c in out]


def _scalars(coeffs: list, m: int, wb: int) -> list[int]:
    """Field elements as multipliers of packed polynomials: over F_{p^m} an
    element's m y-coefficients in m lanes of ``wb`` bytes, so that one
    big-integer product forms its y-convolution with every coefficient."""
    if m == 1:
        return coeffs
    shifts = [8 * wb * s for s in range(m)]
    return [sum([v << sh for v, sh in zip(c, shifts)]) for c in coeffs]


def _dots(scalars: list[int], packed: list[int]) -> list[int]:
    """Brent-Kung block sums: for each run of t = len(packed) scalars c[it+j],
    the big-integer dot product sum_j c[it+j] * packed[j]."""
    t = len(packed)
    return [
        sum([c * gj for c, gj in zip(scalars[i : i + t], packed) if c])
        for i in range(0, len(scalars), t)
    ]


# ----------------------------------------------------------------------
# Modular composition.
# ----------------------------------------------------------------------


def modcomp(a: Poly, g: Poly, f: Poly) -> Poly:
    """a(g) mod f.

    ``f`` must be monic of degree >= 1 and ``deg g < deg f``.  Every
    composition is Brent-Kung: about 2*sqrt(deg a) modular multiplications,
    with the block sums done as packed big-integer dot products.  The giant
    step is formed only when there is more than one block, so a constant or
    linear ``a`` costs no product.
    """
    if not f.is_monic() or len(f.coeffs) < 2:
        raise errors.BadInput("composition modulus must be monic of degree >= 1")
    if a.ctx != g.ctx or a.ctx != f.ctx:
        raise errors.FieldMismatch("operands from different fields")
    if not g.is_zero() and len(g.coeffs) >= len(f.coeffs):
        raise errors.DegreeError("inner polynomial must be reduced mod f")
    _counters["modcomp"] += 1
    coeffs = a.coeffs
    if not coeffs:
        return Poly.zero(a.ctx)
    # Brent-Kung block length, at most deg f: then no block sums more terms
    # than the packed context's lanes hold.
    t = min(max(math.isqrt(len(coeffs) - 1) + 1, 2), max(len(f.coeffs) - 1, 2))
    mc = _modctx(f)
    gp = mc.pack(mc.residue(g))
    # Baby steps g^0, ..., g^(t-1), packed.
    powers = [mc.pack(mc.const(a.ctx.one)), gp]
    for _ in range(t - 2):
        powers.append(mc.pack(mc.mul(powers[-1], gp)))
    blocks = mc.blocks(coeffs, powers)
    acc = blocks.pop()
    if blocks:
        giant = mc.pack(mc.mul(powers[-1], gp))  # g^t
        while blocks:
            acc = mc.add(mc.mul(mc.pack(acc), giant), blocks.pop())
    return mc.poly(acc)


# ----------------------------------------------------------------------
# Ring endomorphisms of F_q[x]/(f) given by x -> image.
# ----------------------------------------------------------------------


class Endo:
    """Endomorphism of F_q[x]/(f) determined by the image of x."""

    __slots__ = ("modulus", "image")

    def __init__(self, modulus: Poly, image: Poly):
        if not modulus.is_monic() or len(modulus.coeffs) < 2:
            raise errors.BadInput("modulus must be monic of degree >= 1")
        if not image.is_zero() and len(image.coeffs) >= len(modulus.coeffs):
            raise errors.DegreeError("image must be reduced mod the modulus")
        self.modulus = modulus
        self.image = image

    def __eq__(self, other):
        return (
            isinstance(other, Endo)
            and self.modulus == other.modulus
            and self.image == other.image
        )

    def __repr__(self):
        return f"Endo(x -> {self.image} mod {self.modulus})"

    def identity_image(self) -> Poly:
        return x_poly(self.modulus.ctx) % self.modulus

    def is_identity(self) -> bool:
        return self.image == self.identity_image()

    def apply(self, a: Poly) -> Poly:
        """Image of the residue class ``a`` (requires deg a < deg modulus)."""
        if not a.is_zero() and len(a.coeffs) >= len(self.modulus.coeffs):
            raise errors.DegreeError("argument must be reduced mod the modulus")
        return modcomp(a, self.image, self.modulus)

    def compose(self, other: "Endo") -> "Endo":
        """self after other: x -> self(other(x))."""
        if self.modulus != other.modulus:
            raise errors.FieldMismatch("endomorphisms of different rings")
        img = modcomp(other.image, self.image, self.modulus)
        return Endo(self.modulus, img)

    def pow(self, e: int) -> "Endo":
        """e-fold self-composition, e >= 0; e = 0 gives the identity."""
        if e < 0:
            raise errors.BadInput("negative composition power")
        if e == 0:
            return Endo(self.modulus, self.identity_image())
        result = self
        for bit in bin(e)[3:]:
            result = result.compose(result)
            if bit == "1":
                result = result.compose(self)
        return result

    def restrict(self, new_modulus: Poly) -> "Endo":
        """The same map on F_q[x]/(g) for a divisor g of the modulus."""
        return Endo(new_modulus, self.image % new_modulus)


def frobenius_power_sequence(s: Endo, primes: list[int]) -> list[Endo]:
    """[s^(R/p) for p in primes], where R = prod(primes).

    Computed by recursive halving: each half inherits s raised to the other
    half's product, so the total composition count is O(log(R) * log(#primes))
    instead of #primes independent powerings.
    """
    if len(primes) <= 1:
        return [s] * len(primes)
    mid = len(primes) // 2
    left, right = primes[:mid], primes[mid:]
    return (frobenius_power_sequence(s.pow(math.prod(right)), left)
            + frobenius_power_sequence(s.pow(math.prod(left)), right))


def frobenius(f: Poly, check: bool = True) -> Endo:
    """The q-power Frobenius x -> x^q on F_q[x]/(f).

    With ``check`` the modulus is verified monic and squarefree (the engine
    requires both); pass ``check=False`` to skip the squarefree gcd.

    x^q mod f is computed left to right by square-and-shift: every bit of q
    squares, and a set bit multiplies by x, which is a shift plus one
    reduction step by the monic f instead of a full product.
    """
    if not f.is_monic() or len(f.coeffs) < 2:
        raise errors.BadInput("modulus must be monic of degree >= 1")
    if check:
        d = f.deriv()
        if d.is_zero() or gcd(f, d).degree > 0:
            raise errors.NotSquarefree("modulus must be squarefree")
    mc = _modctx(f)
    img = mc.residue(x_poly(f.ctx))
    for bit in bin(f.ctx.q)[3:]:
        sq = mc.pack(img)
        img = mc.mul(sq, sq)
        if bit == "1":
            img = mc.shift(img)
    return Endo(f, mc.poly(img))


def poly_pth_root(f: Poly) -> Poly:
    """Inverse of the coefficientwise/exponent p-power map.

    Requires every exponent with a nonzero coefficient to be a multiple of p,
    which is exactly the shape of a polynomial with zero derivative in
    characteristic p.
    """
    ctx = f.ctx
    p = ctx.p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(ctx.pth_root(c))
        elif c != ctx.zero:
            raise errors.BadInput("polynomial is not a p-th power")
    return Poly(ctx, out)
