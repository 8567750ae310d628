"""Reference factorization for the test suite, sharing no code with ffq.

``reference_factor(f)`` returns ``(unit, [(monic irreducible, mult)])``,
sorted as ``ffq.factor`` sorts: by degree, then by coefficient indices.

* Prime fields go to sympy's galoistools ``gf_factor``.
* Extension fields F_{p^m} run ``berlekamp_factor``: squarefree parts by
  gcd(g, g') and p-th roots, the distinct factors of each part by
  Berlekamp's algorithm (the nullspace of Q - I over F_q, then
  gcd(v - c, g) over c in F_q), and multiplicities by repeated division.

Element arithmetic here is table lookup on element indices, the tables
built from the field's p and modulus h alone (``field_tables``); an index is
sum c_i p^i over the element's coefficients c_i of y^i.  Polynomials are
ascending lists of indices with no trailing zeros.  ffq supplies only
``Poly``, to carry inputs and outputs: no ffq polynomial kernel, field
context arithmetic or classical routine runs here, which
``test_reference_factor.py`` checks on this module's syntax tree and at run
time.  The tables have q^2 entries, so ``berlekamp_factor`` is meant for
small q.
"""

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from ffq.poly import Poly


class FieldTables:
    """Addition, product, negation, inverse and p-th root tables of F_q."""

    def __init__(self, p, h):
        m = len(h) - 1
        q = p**m
        digits = [tuple(i // p**j % p for j in range(m)) for i in range(q)]
        weights = [p**j for j in range(m)]

        def index(ds):
            return sum(d * w for d, w in zip(ds, weights))

        def times(a, b):
            conv = [0] * (2 * m - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
            # h is monic: y^m = -(h_0 + ... + h_(m-1) y^(m-1)).
            for i in range(2 * m - 2, m - 1, -1):
                c = conv[i] % p
                for j in range(m):
                    conv[i - m + j] -= c * h[j]
            return index([v % p for v in conv[:m]])

        self.p, self.q = p, q
        self.digits = digits
        self.plus = [[index([(x + y) % p for x, y in zip(a, b)]) for b in digits] for a in digits]
        self.times = [[times(a, b) for b in digits] for a in digits]
        self.negate = [index([-x % p for x in a]) for a in digits]
        self.recip = [None] + [self.times[a].index(1) for a in range(1, q)]
        # p-th powers, inverted: the p-th root table.
        self.root = [0] * q
        for a in range(q):
            power = 1
            for _ in range(p):
                power = self.times[power][a]
            self.root[power] = a


_TABLES = {}


def field_tables(ctx):
    """Tables for ctx, built from ctx.p and ctx.h only, once per field."""
    key = (ctx.p, tuple(ctx.h))
    if key not in _TABLES:
        _TABLES[key] = FieldTables(*key)
    return _TABLES[key]


# ----------------------------------------------------------------------
# Polynomials over the tables.
# ----------------------------------------------------------------------


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _sub(T, a, b):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([T.plus[x][T.negate[y]] for x, y in zip(a, b)])


def _mul(T, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = T.times[x]
            for j, y in enumerate(b):
                out[i + j] = T.plus[out[i + j]][row[y]]
    return out


def _divmod(T, a, b):
    r = list(a)
    db = len(b) - 1
    inv = T.recip[b[-1]]
    quo = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = T.times[r[i]][inv]
        quo[i - db] = c
        if c:
            neg = T.times[T.negate[c]]
            for j, bj in enumerate(b):
                r[i - db + j] = T.plus[r[i - db + j]][neg[bj]]
    return quo, _trim(r[:db])


def _monic(T, a):
    inv = T.recip[a[-1]]
    return [T.times[c][inv] for c in a]


def _gcd(T, a, b):
    while b:
        a, b = b, _divmod(T, a, b)[1]
    return _monic(T, a)


def _deriv(T, a):
    # i * c_i, where i mod p is the prime-field element of index i mod p.
    return _trim([T.times[i % T.p][c] for i, c in enumerate(a)][1:])


def _pth_root(T, a):
    return [T.root[c] for c in a[:: T.p]]


def _berlekamp(T, g):
    """The monic irreducible factors of monic squarefree g."""
    n = len(g) - 1
    if n == 1:
        return [g]
    # x^q mod g by square and multiply, then the rows x^(iq) mod g of Q.
    xq, base, e = [1], [0, 1], T.q
    while e:
        if e & 1:
            xq = _divmod(T, _mul(T, xq, base), g)[1]
        base = _divmod(T, _mul(T, base, base), g)[1]
        e >>= 1
    rows, r = [], [1]
    for _ in range(n):
        rows.append(r + [0] * (n - len(r)))
        r = _divmod(T, _mul(T, r, xq), g)[1]
    # v(x)^q = v(x) mod g iff sum_i v_i (Q - I)[i][j] = 0 for every j: row
    # reduce the equations, column j of Q - I each.
    eqs = [[T.plus[rows[i][j]][T.negate[int(i == j)]] for i in range(n)] for j in range(n)]
    pivots = []
    for col in range(n):
        k = next((k for k in range(len(pivots), n) if eqs[k][col]), None)
        if k is None:
            continue
        top = len(pivots)
        eqs[top], eqs[k] = eqs[k], eqs[top]
        inv = T.times[T.recip[eqs[top][col]]]
        eqs[top] = [inv[v] for v in eqs[top]]
        for i, eq in enumerate(eqs):
            if i != top and eq[col]:
                neg = T.times[T.negate[eq[col]]]
                eqs[i] = [T.plus[v][neg[w]] for v, w in zip(eq, eqs[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for row, col in enumerate(pivots):
            v[col] = T.negate[eqs[row][free]]
        basis.append(_trim(v))
    # g has one irreducible factor per basis vector.  x^q - x is the product
    # of x - c over F_q, so each factor h is the product of its gcds with
    # v - c, and some v separates any two factors.
    factors = [g]
    for v in basis:
        if len(factors) == len(basis):
            break
        if len(v) < 2:
            continue
        split = []
        for h in factors:
            vh, left = _divmod(T, v, h)[1], len(h) - 1
            for c in range(T.q):
                if not left:
                    break
                w = _gcd(T, h, _sub(T, vh, [c]))
                if len(w) > 1:
                    split.append(w)
                    left -= len(w) - 1
        factors = split
    assert len(factors) == len(basis), "Berlekamp left a factor unsplit"
    return factors


def berlekamp_factor(T, f):
    """[(monic irreducible, multiplicity)] of monic f, in index lists."""
    found = []
    work = [f]
    while work:
        g = work.pop()
        if len(g) < 2:
            continue
        der = _deriv(T, g)
        if not der:
            work.append(_pth_root(T, g))
            continue
        # g / gcd(g, g') is the product of the factors whose multiplicity is
        # prime to p; every other factor divides gcd(g, g') to its full power.
        tail = _gcd(T, g, der)
        for h in _berlekamp(T, _divmod(T, g, tail)[0]):
            if h not in found:
                found.append(h)
        work.append(tail)
    out = []
    for h in found:
        cur, mult = f, 0
        while True:
            quo, rem = _divmod(T, cur, h)
            if rem:
                break
            cur, mult = quo, mult + 1
        out.append((h, mult))
    return out


def reference_factor(f):
    """Factor nonzero f: (unit, [(monic irreducible, mult)]), as ``factor``."""
    ctx = f.ctx
    if not f.coeffs:
        raise ValueError("cannot factor the zero polynomial")
    p, m = ctx.p, ctx.m
    if m == 1:
        _, fac = gf_factor([ZZ(c) for c in reversed(f.coeffs)], p, ZZ)
        pairs = [([int(c) for c in reversed(g)], k) for g, k in fac]
        element = int
    else:
        T = field_tables(ctx)
        index = [sum(c * p**j for j, c in enumerate(a)) for a in f.coeffs]
        pairs = berlekamp_factor(T, _monic(T, index))
        check = [index[-1]]
        for g, k in pairs:
            for _ in range(k):
                check = _mul(T, check, g)
        assert check == index, "reference factorization does not reconstruct"
        element = T.digits.__getitem__
    pairs.sort(key=lambda t: (len(t[0]), t[0]))
    return f.coeffs[-1], [(Poly(ctx, [element(c) for c in g]), k) for g, k in pairs]
