"""Parsing and formatting of polynomials and field elements.

Grammar (whitespace is ignored):

    poly    := term ('+' term)*
    term    := coeff '*' xpart | xpart | coeff
    xpart   := 'x' | 'x^' uint
    coeff   := uint | '[' element ']'
    element := eterm ('+' eterm)*
    eterm   := uint '*' ypart | ypart | uint
    ypart   := 'y' | 'y^' uint

Integer literals are reduced mod p; element texts are reduced mod the field
modulus, so any well-formed input parses to a canonical value.  Formatting
always emits the canonical form: descending exponents, zero terms skipped,
unit coefficients omitted on non-constant terms, extension-field
coefficients bracketed except for a scalar constant term.
"""

from __future__ import annotations

from . import errors
from .fields import FieldCtx, PrimeField
from .poly import Poly

__all__ = [
    "parse_poly",
    "format_poly",
    "parse_element",
    "format_element",
    "parse_base_modulus",
    "format_base_modulus",
]


def _format_int_poly(coeffs: list[int], var: str) -> str:
    """Ints ascending in ``var``; assumes already reduced, no trailing zeros."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xp = var if i == 1 else f"{var}^{i}"
            parts.append(xp if c == 1 else f"{c}*{xp}")
    return "+".join(parts) if parts else "0"


def _strip_zeros(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def format_base_modulus(h, p: int) -> str:
    return _format_int_poly(_strip_zeros([c % p for c in h]), "y")


def format_element(a, ctx: FieldCtx) -> str:
    if ctx.m == 1:
        return str(a)
    return _format_int_poly(_strip_zeros(list(a)), "y")


def format_poly(f: Poly) -> str:
    ctx = f.ctx
    if not f.coeffs:
        return "0"
    parts = []
    one = ctx.one
    zero = ctx.zero
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c == zero:
            continue
        if i == 0:
            if ctx.m == 1:
                parts.append(str(c))
            else:
                tail = _strip_zeros(list(c))
                if len(tail) <= 1:
                    parts.append(str(tail[0] if tail else 0))
                else:
                    parts.append(f"[{_format_int_poly(tail, 'y')}]")
            continue
        xp = "x" if i == 1 else f"x^{i}"
        if c == one:
            parts.append(xp)
        elif ctx.m == 1:
            parts.append(f"{c}*{xp}")
        else:
            parts.append(f"[{_format_int_poly(_strip_zeros(list(c)), 'y')}]*{xp}")
    return "+".join(parts)


def _split_terms(text: str, what: str) -> list[str]:
    """Split on '+' outside brackets; empty pieces are parse errors."""
    terms = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
            cur.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise errors.ParseError(f"unbalanced ']' in {what}: {text!r}")
            cur.append(ch)
        elif ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise errors.ParseError(f"unbalanced '[' in {what}: {text!r}")
    terms.append("".join(cur))
    for t in terms:
        if not t:
            raise errors.ParseError(f"empty term in {what}: {text!r}")
    return terms


def _parse_uint(tok: str, what: str) -> int:
    if not tok or not tok.isdigit():
        raise errors.ParseError(f"expected an unsigned integer in {what}: {tok!r}")
    return int(tok)


def _parse_var_power(tok: str, var: str, what: str) -> int:
    """'x' -> 1, 'x^k' -> k."""
    if tok == var:
        return 1
    if tok.startswith(var + "^"):
        return _parse_uint(tok[len(var) + 1 :], what)
    raise errors.ParseError(f"malformed term in {what}: {tok!r}")


def _parse_int_terms(text: str, var: str, p: int, what: str) -> list[int]:
    """Sum of integer-coefficient terms in ``var``; ascending list mod p."""
    coeffs: dict[int, int] = {}
    for term in _split_terms(text, what):
        if "*" in term:
            cs, _, xs = term.partition("*")
            c = _parse_uint(cs, what)
            k = _parse_var_power(xs, var, what)
        elif term.startswith(var):
            c = 1
            k = _parse_var_power(term, var, what)
        else:
            c = _parse_uint(term, what)
            k = 0
        coeffs[k] = (coeffs.get(k, 0) + c) % p
    if not coeffs:
        return []
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return _strip_zeros(out)


def parse_base_modulus(text: str, p: int) -> list[int]:
    """Parse an F_p[y] modulus like 'y^2+1' (an optional 'h=' prefix is ok)."""
    t = "".join(text.split())
    if t.startswith("h="):
        t = t[2:]
    return _parse_int_terms(t, "y", p, "modulus")


def parse_element(text: str, ctx: FieldCtx):
    """Parse a field element; reduced into canonical form."""
    t = "".join(text.split())
    if ctx.m == 1:
        if "y" in t:
            raise errors.ParseError(f"'y' is not valid in a prime field: {text!r}")
        vals = _parse_int_terms(t, "y", ctx.p, "element")
        return vals[0] if vals else 0
    vals = _parse_int_terms(t, "y", ctx.p, "element")
    if len(vals) > ctx.m:
        base = PrimeField(ctx.p)
        vals = (Poly(base, vals) % Poly(base, ctx.h)).coeffs
    return tuple(vals + [0] * (ctx.m - len(vals)))


def _parse_coeff(tok: str, ctx: FieldCtx, what: str):
    if tok.startswith("["):
        if not tok.endswith("]"):
            raise errors.ParseError(f"malformed coefficient in {what}: {tok!r}")
        return parse_element(tok[1:-1], ctx)
    return ctx.from_int(_parse_uint(tok, what))


def parse_poly(text: str, ctx: FieldCtx) -> Poly:
    """Parse a polynomial in x over the given field."""
    t = "".join(text.split())
    if not t:
        raise errors.ParseError("empty polynomial text")
    coeffs: dict[int, object] = {}
    for term in _split_terms(t, "polynomial"):
        # Split off an explicit coefficient, honoring brackets.
        if term.startswith("["):
            close = term.find("]")
            if close < 0:
                raise errors.ParseError(f"unterminated '[' in {term!r}")
            cof = _parse_coeff(term[: close + 1], ctx, "polynomial")
            rest = term[close + 1 :]
            if rest == "":
                k = 0
            elif rest.startswith("*"):
                k = _parse_var_power(rest[1:], "x", "polynomial")
            else:
                raise errors.ParseError(f"malformed term {term!r}")
        elif "*" in term:
            cs, _, xs = term.partition("*")
            cof = _parse_coeff(cs, ctx, "polynomial")
            k = _parse_var_power(xs, "x", "polynomial")
        elif term.startswith("x"):
            cof = ctx.one
            k = _parse_var_power(term, "x", "polynomial")
        else:
            cof = _parse_coeff(term, ctx, "polynomial")
            k = 0
        prev = coeffs.get(k)
        coeffs[k] = ctx.add(prev, cof) if prev is not None else cof
    deg = max(coeffs)
    out = [ctx.zero] * (deg + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(ctx, out)
