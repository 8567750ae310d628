"""Polynomial text format: parsing, formatting, round trips."""

import pytest

from ffq import errors, field_new
from ffq.poly import Poly, random_poly
from ffq.rng import make_rng
from ffq.textio import (
    format_base_modulus,
    format_element,
    format_poly,
    parse_base_modulus,
    parse_element,
    parse_poly,
)

F2 = field_new(2)
F5 = field_new(5)
F8 = field_new(2, 3, [1, 1, 0, 1])
F9 = field_new(3, 2, [1, 0, 1])


def test_parse_prime_field_examples():
    assert parse_poly("x^3+2*x+1", F5) == Poly(F5, [1, 2, 0, 1])
    assert parse_poly("x", F5) == Poly(F5, [0, 1])
    assert parse_poly("7", F5) == Poly(F5, [2])
    assert parse_poly("0", F5) == Poly.zero(F5)
    assert parse_poly("x^2 + x + 1", F2) == Poly(F2, [1, 1, 1])
    # coefficients and exponents reduce / combine
    assert parse_poly("6*x+4*x", F5) == Poly(F5, [0, 0])
    assert parse_poly("3*x^2+x^2", F5) == Poly(F5, [0, 0, 4])


def test_format_prime_field_examples():
    assert format_poly(Poly(F5, [1, 2, 0, 1])) == "x^3+2*x+1"
    assert format_poly(Poly.zero(F5)) == "0"
    assert format_poly(Poly(F5, [3])) == "3"
    assert format_poly(Poly(F5, [0, 1])) == "x"
    assert format_poly(Poly(F5, [0, 4])) == "4*x"


def test_extension_field_brackets():
    f = parse_poly("[y+1]*x^2+[2]*x+1", F9)
    assert f == Poly(F9, [(1, 0), (2, 0), (1, 1)])
    assert format_poly(f) == "[y+1]*x^2+[2]*x+1"
    assert parse_element("y+2", F9) == (2, 1)
    assert format_element((2, 1), F9) == "y+2"
    assert format_element((0, 0), F9) == "0"


def test_parse_element_reduces_mod_h():
    # F_9 = F_3[y]/(y^2 + 1): y^2 = -1 = 2 and y^3 = -y = 2y
    assert parse_element("y^2", F9) == (2, 0)
    assert parse_element("y^3+1", F9) == (1, 2)
    # F_8 = F_2[y]/(y^3 + y + 1): y^3 = y + 1, y^4 = y^2 + y, so y^4 + y = y^2
    assert parse_element("y^3", F8) == (1, 1, 0)
    assert parse_element("y^4+y", F8) == (0, 0, 1)
    assert parse_poly("[y^4+y]*x+[y^3]", F8) == Poly(F8, [(1, 1, 0), (0, 0, 1)])


def test_base_modulus_round_trip():
    assert parse_base_modulus("y^2+1", 3) == [1, 0, 1]
    assert parse_base_modulus("h=y^2+1", 3) == [1, 0, 1]
    assert format_base_modulus((1, 0, 1), 3) == "y^2+1"
    assert format_base_modulus((0, 1), 5) == "y"


def test_round_trip_random_polys():
    rng = make_rng(404)
    for ctx in [F2, F5, F9, field_new(13, 3, rng=make_rng(70))]:
        for _ in range(40):
            f = random_poly(ctx, int(rng.integers(0, 12)), rng)
            assert parse_poly(format_poly(f), ctx) == f


def test_parse_rejects_malformed_input():
    bad = ["x+", "", "  ", "+", "x^", "x^-2", "3**x", "x+*2", "[y+1", "y]*x",
           "2x", "x^2++1", "z^2", "x^1.5"]
    for text in bad:
        with pytest.raises(errors.ParseError):
            parse_poly(text, F5)
    with pytest.raises(errors.ParseError):
        parse_element("x+1", F9)  # wrong variable
    with pytest.raises(errors.ParseError):
        parse_base_modulus("y^2+x", 3)
