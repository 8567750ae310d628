"""Tests of the benchmark harness itself: output format and failure counting."""

import io
import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
from ffq import errors, field_new, parse_poly  # noqa: E402
from ffq.factor import Factorization, factor  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY_F5 = harness.Workload("tiny-f5", p=5, degrees=(6, 9))
TINY_F9 = harness.Workload("tiny-f9", p=3, m=2, h=(1, 0, 1), degrees=(4, 6))


def _run(workload, trace, factor_fn=factor):
    return harness.run(workload, seed=3, seconds=0.2, trace=trace,
                       factor_fn=factor_fn, setup_reps=1)


def _emitted(result):
    buf = io.StringIO()
    harness.emit(result, buf)
    lines = buf.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_smoke_prints_every_metric_with_its_unit():
    for workload in (TINY_F5, TINY_F9):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            report, line = _emitted(_run(workload, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert line["attempted"] >= 1
            # The harness assigns units itself; BENCHMARK.json declares them.
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
            for name, unit in declared.items():
                pat = re.compile(rf"^{re.escape(name)} \S+ {re.escape(unit)}$")
                assert any(pat.match(ln) for ln in report), name
            assert "failed_frac 0 ratio" in report
            assert any(ln.startswith("# env {") for ln in report)
            metric_line = re.compile(r"^[a-z][\w.]* \S+ [\w/%.-]+$")
            for ln in report:
                assert ln.startswith("# ") or metric_line.match(ln), ln


def _drop_last_factor(f, oracle, rng):
    res = factor(f, oracle, rng)
    return Factorization(res.unit, res.factors[:-1])


def test_corrupted_factor_list_is_counted_as_failed():
    for workload in (TINY_F5, TINY_F9):
        result = _run(workload, False, factor_fn=_drop_last_factor)
        assert result["attempted"] >= 1
        assert result["failed"] == result["attempted"]
        _, line = _emitted(result)
        assert line["correct"] is False


def test_raising_call_is_counted_as_failed():
    calls = []

    def flaky(f, oracle, rng):
        calls.append(f)
        if len(calls) % 2:
            raise errors.OracleExhausted("injected")
        return factor(f, oracle, rng)

    result = _run(TINY_F5, False, factor_fn=flaky)
    assert result["attempted"] == len(calls) >= 2
    assert result["failed"] == (len(calls) + 1) // 2


def test_check_rejects_a_reducible_factor_with_the_right_product():
    for ctx, a, b in (
        (field_new(5), "x+1", "x^2+2"),
        (field_new(3, 2, [1, 0, 1]), "x+[y]", "x^2+[y+1]"),
    ):
        g, h = parse_poly(a, ctx), parse_poly(b, ctx)
        f = g * g * h
        good = Factorization(ctx.one, sorted([(g, 2), (h, 1)], key=lambda t: t[0].degree))
        assert harness.check_factorization(f, good)
        merged = Factorization(ctx.one, [(g * h, 1), (g, 1)])
        assert not harness.check_factorization(f, merged)
        assert not harness.check_factorization(f, Factorization(ctx.one, [(g, 1), (g, 1), (h, 1)]))
