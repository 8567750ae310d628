"""Seeded CLI JSON stays byte-identical.

``golden_cli.json`` holds argv lists and the exact stdout each produced when
the file was recorded.  The cases cover ``factor`` and ``ddf`` over F_3, F_9
with a given modulus, F_16 with a seeded random modulus search, and
F_{2^61-1}, plus ``order`` and ``stats splitting-degree``.  Three later cases
pin the power path: ``ddf --ell 1`` takes the stripping fallback,
``order --oracle exact`` verifies the prime-power order 9 without sampling,
and ``order --power 2`` finds the order 8.  Two more run the classical
ladder at p = 2^61 - 1, where it steps by composition: ``ddf`` at degree 40,
whose shadow takes the engine's x^q, and ``stats splitting-degree``, which
calls the ladder without it.  The last case is that ``order --power 2`` run
with another seed, whose first attempt rejects the candidate 4 before the
second finds 8.  The extension
field inputs carry coefficients of y-degree >= m, so element parsing reduces
them mod h, and non-monic inputs, so factoring inverts a leading
coefficient.  A refactor that changes any of these outputs, or any random
draw behind them, fails here.
"""

import json
from pathlib import Path

import pytest

from ffq.cli import main

CASES = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_seeded_cli_output_is_unchanged(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
