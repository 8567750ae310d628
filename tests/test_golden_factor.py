"""Seeded factorizations at the benchmark's shapes stay the same.

``golden_factor.json`` holds, for each input, the factor list ``factor``
returned and the state of the generator after the call.  The inputs follow
the benchmark recipe: input ``i`` of seed ``s`` draws its degree (when the
shape has a range) and then its coefficients with ``random_monic`` from
``trial_rng(s, i)``, and ``factor`` continues on that generator.  The shapes
are F_3 at degree 128, F_{2^61-1} at degrees 20 and 40, F_9 at degree 17,
F_101 at degrees 5-7, and three more extension fields whose packed products
take different lanes: F_4 at degree 40, F_{2^8} at degree 20 and
F_{(2^31-1)^2} at degree 20 (byte lanes).  F_3 at degree 256 and F_101 at
degree 128 (32-bit lanes) run the packed reduction context and the blocked
classical ladder at sizes the benchmark does not reach.  A change that alters any factor,
or any random draw the oracle or the splitting makes, fails here.

Rewrite the file with ``python tests/test_golden_factor.py`` only when such a
change is intended, and say which outputs changed and why.
"""

import json
from pathlib import Path

import pytest

from ffq import OracleConfig, OrderOracle, field_new
from ffq.factor import factor
from ffq.poly import random_monic
from ffq.rng import trial_rng

GOLDEN = Path(__file__).parent / "golden_factor.json"

# (label, p, m, h, lowest degree, highest degree, seed, input count)
SHAPES = [
    ("f3-n128", 3, 1, None, 128, 128, 1, 2),
    ("fwide-n20", (1 << 61) - 1, 1, None, 20, 20, 1, 2),
    ("fwide-n40", (1 << 61) - 1, 1, None, 40, 40, 1, 2),
    ("f9-n17", 3, 2, [1, 0, 1], 17, 17, 1, 2),
    ("f101-n5-7", 101, 1, None, 5, 7, 1, 20),
    ("f4-n40", 2, 2, [1, 1, 1], 40, 40, 1, 2),
    ("f256-n20", 2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1], 20, 20, 1, 2),
    ("fp31sq-n20", (1 << 31) - 1, 2, [1, 0, 1], 20, 20, 1, 2),
    ("f3-n256", 3, 1, None, 256, 256, 1, 2),
    ("f101-n128", 101, 1, None, 128, 128, 1, 2),
]


def _jsonable(v):
    """Plain JSON value: tuples and numpy arrays become lists, numbers ints."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if hasattr(v, "tolist"):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def run_case(label, p, m, h, lo, hi, seed, i):
    ctx = field_new(p, m, h)
    rng = trial_rng(seed, i)
    n = lo if lo == hi else lo + int(rng.integers(0, hi - lo + 1))
    f = random_monic(ctx, n, rng)
    res = factor(f, OrderOracle(OracleConfig()), rng)
    return {
        "id": f"{label}-{i}",
        "unit": _jsonable(res.unit),
        "factors": [[_jsonable(g.coeffs), mult] for g, mult in res.factors],
        "rng_state": _jsonable(rng.bit_generator.state),
    }


CASES = [(shape, i) for shape in SHAPES for i in range(shape[-1])]


def _load():
    return {c["id"]: c for c in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("shape, i", CASES, ids=[f"{s[0]}-{i}" for s, i in CASES])
def test_seeded_factorization_is_unchanged(shape, i):
    got = run_case(*shape[:-1], i)
    assert got == _load()[got["id"]]


if __name__ == "__main__":
    cases = [run_case(*shape[:-1], i) for shape, i in CASES]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
