"""Batch command-line interface.

Subcommands: factor, ddf, order, stats factor-count, stats splitting-degree,
bench.  Results go to stdout (JSON with --json, plain text otherwise); the
--verbose flag streams per-step trace records to stderr as JSON lines.

Exit codes: 0 success, 1 parse/input error, 2 invariant violation (a bug),
3 order oracle exhausted.

Reproducibility: every stochastic command takes --seed (falling back to the
FFQ_SEED environment variable); identical inputs and seed produce
byte-identical JSON.  JSON mode refuses to run without a seed.  Experiment
commands derive one independent substream per trial index, so results are
prefix-stable when --trials grows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import secrets
import sys
import time

from . import errors
from .classical import (
    distinct_degree_parts,
    order_from_degrees,
    splitting_degree,
)
from .ddf import ddf, default_ell, recursion_audit
from .factor import factor, sff
from .fields import field_new
from .order import (
    BACKEND_EXACT,
    BACKEND_SIM,
    MODE_EXACT_DIST,
    MODE_IDEALIZED,
    OracleConfig,
    OrderOracle,
)
from .poly import counters, frobenius, random_monic, random_squarefree, reset_counters
from .rng import make_rng, trial_rng
from .textio import (
    format_base_modulus,
    format_element,
    format_poly,
    parse_base_modulus,
    parse_poly,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_ORACLE = 3

_INPUT_ERRORS = (
    errors.ParseError,
    errors.NotPrime,
    errors.Reducible,
    errors.DegreeMismatch,
    errors.NotSquarefree,
    errors.BadInput,
    errors.TooLarge,
    errors.BothZero,
    errors.DegreeError,
    errors.FieldMismatch,
)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main controls exit codes."""

    def error(self, message):
        raise errors.ParseError(message)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FFQ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise errors.ParseError(f"FFQ_SEED is not an integer: {env!r}")
    if getattr(args, "json", False):
        raise errors.ParseError("--json requires a seed (--seed or FFQ_SEED)")
    return secrets.randbits(63)


def _build_field(args, rng):
    h = parse_base_modulus(args.h, args.p) if args.h else None
    return field_new(args.p, args.m, h, rng=rng)


def _field_payload(ctx) -> dict:
    return {"p": ctx.p, "m": ctx.m, "h": format_base_modulus(ctx.h, ctx.p)}


def _read_input_poly(args, ctx):
    if args.poly is not None and args.poly_file is not None:
        raise errors.ParseError("give either --poly or --poly-file, not both")
    if args.poly is not None:
        text = args.poly
    elif args.poly_file is not None:
        try:
            with open(args.poly_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise errors.ParseError(f"cannot read {args.poly_file}: {e}")
    else:
        raise errors.ParseError("an input polynomial is required (--poly/--poly-file)")
    return parse_poly(text, ctx)


def _oracle_from(args) -> OrderOracle:
    return OrderOracle(
        OracleConfig(
            backend=args.oracle,
            mode=args.mode,
            max_attempts=args.max_attempts,
        )
    )


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _dump_trace(trace) -> None:
    for rec in trace:
        sys.stderr.write(json.dumps(rec, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------


def cmd_factor(args) -> int:
    seed = _resolve_seed(args)
    rng = make_rng(seed)
    ctx = _build_field(args, rng)
    f = _read_input_poly(args, ctx)
    res = factor(f, oracle=_oracle_from(args), rng=rng)
    if args.json:
        _emit_json(
            {
                "field": _field_payload(ctx),
                "input": format_poly(f),
                "unit": format_element(res.unit, ctx),
                "factors": [
                    {
                        "poly": format_poly(g),
                        "multiplicity": mult,
                        "degree": g.degree,
                    }
                    for g, mult in res.factors
                ],
                "seed": seed,
            }
        )
    else:
        print(f"field: {ctx!r}  seed: {seed}")
        print(f"input: {format_poly(f)}")
        print(f"unit: {format_element(res.unit, ctx)}")
        for g, mult in res.factors:
            print(f"factor (multiplicity {mult}): {format_poly(g)}")
    return EXIT_OK


def cmd_ddf(args) -> int:
    seed = _resolve_seed(args)
    rng = make_rng(seed)
    ctx = _build_field(args, rng)
    f = _read_input_poly(args, ctx)
    trace = [] if args.verbose else None
    res = ddf(f, oracle=_oracle_from(args), rng=rng, ell=args.ell, trace=trace)
    if trace is not None:
        _dump_trace(trace)
    if args.json:
        _emit_json(
            {
                "field": _field_payload(ctx),
                "input": format_poly(f),
                "parts": [
                    {"poly": format_poly(g), "degree": d} for g, d in res.parts
                ],
                "seed": seed,
            }
        )
    else:
        print(f"field: {ctx!r}  seed: {seed}")
        print(f"input: {format_poly(f)}")
        for g, d in res.parts:
            print(f"degree {d} part: {format_poly(g)}")
    return EXIT_OK


def cmd_order(args) -> int:
    seed = _resolve_seed(args)
    rng = make_rng(seed)
    ctx = _build_field(args, rng)
    f = parse_poly(args.modulus, ctx)
    sigma = frobenius(f)
    endo = sigma.pow(args.power)
    ell = args.ell if args.ell is not None else default_ell(max(f.degree, 2))
    # The simulation needs the true order; derive it classically from the
    # factor degrees of the modulus.
    parts = distinct_degree_parts(f, sigma.image)
    true_order = order_from_degrees([d for (_, d) in parts], args.power)
    est = _oracle_from(args).estimate(endo, ell, rng, true_order=true_order)
    if args.json:
        _emit_json(
            {
                "field": _field_payload(ctx),
                "modulus": format_poly(f),
                "power": args.power,
                "ell": ell,
                "found": est.found,
                "order": est.order,
                "attempts": est.attempts,
                "transcript": [
                    {"k": t.k, "N": t.N, "j": t.j, "r": t.r, "verified": t.verified}
                    for t in est.transcript
                ],
                "seed": seed,
            }
        )
    else:
        print(f"field: {ctx!r}  seed: {seed}")
        print(f"modulus: {format_poly(f)}  power: {args.power}  ell: {ell}")
        if est.found:
            print(f"order: {est.order} (attempts: {est.attempts})")
        else:
            print(f"order: not found (attempts: {est.attempts})")
        for t in est.transcript:
            print(
                f"  run: k={t.k} N={t.N} j={t.j} r={t.r} "
                f"verified={'yes' if t.verified else 'no'}"
            )
    return EXIT_OK


def _count_factors(f, with_multiplicity: bool, oracle, rng) -> int:
    total = 0
    for part, mult in sff(f):
        blocks = ddf(part, oracle=oracle, rng=rng).parts
        npart = sum(g.degree // d for (g, d) in blocks)
        total += npart * (mult if with_multiplicity else 1)
    return total


def cmd_stats_factor_count(args) -> int:
    seed = _resolve_seed(args)
    ctx = _build_field(args, make_rng(seed))
    oracle = _oracle_from(args)
    counts: dict[int, int] = {}
    total = 0
    total_sq = 0
    for i in range(args.trials):
        rng = trial_rng(seed, i)
        f = random_monic(ctx, args.n, rng)
        c = _count_factors(f, args.with_multiplicity, oracle, rng)
        counts[c] = counts.get(c, 0) + 1
        total += c
        total_sq += c * c
    mean = total / args.trials
    variance = total_sq / args.trials - mean * mean
    payload = {
        "p": ctx.p,
        "m": ctx.m,
        "n": args.n,
        "trials": args.trials,
        "with_multiplicity": args.with_multiplicity,
        "mean": mean,
        "variance": variance,
        "histogram": {str(k): v for k, v in sorted(counts.items())},
        "seed": seed,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"field: {ctx!r}  n: {args.n}  trials: {args.trials}  seed: {seed}")
        which = "with multiplicity" if args.with_multiplicity else "distinct"
        print(f"irreducible factor count ({which}): mean {mean:.4f}  variance {variance:.4f}")
        print(f"reference: ln n = {math.log(args.n):.4f}")
        for k, v in sorted(counts.items()):
            print(f"  {k} factors: {v}")
    return EXIT_OK


def cmd_stats_splitting_degree(args) -> int:
    seed = _resolve_seed(args)
    ctx = _build_field(args, make_rng(seed))
    if args.n > 64:
        raise errors.ParseError("splitting-degree statistics are limited to n <= 64")
    center = 0.5 * math.log(args.n) ** 2
    threshold = 0.75 * math.log(args.n) ** 2
    exceed = 0
    ln_sum = 0.0
    hist: dict[int, int] = {}
    for i in range(args.trials):
        rng = trial_rng(seed, i)
        f = random_squarefree(ctx, args.n, rng)
        d = splitting_degree(f)
        hist[d] = hist.get(d, 0) + 1
        ln_d = math.log(d)
        ln_sum += ln_d
        if ln_d > threshold:
            exceed += 1
    frac = exceed / args.trials
    payload = {
        "p": ctx.p,
        "m": ctx.m,
        "n": args.n,
        "trials": args.trials,
        "mean_ln_d": ln_sum / args.trials,
        "center_ln": center,
        "threshold_ln": threshold,
        "fraction_exceeding": frac,
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "seed": seed,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"field: {ctx!r}  n: {args.n}  trials: {args.trials}  seed: {seed}")
        print(f"mean ln d: {ln_sum / args.trials:.4f}  (0.5*ln^2 n = {center:.4f})")
        print(f"fraction with ln d > 0.75*ln^2 n: {frac:.4f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise errors.ParseError(f"bad --sizes list: {args.sizes!r}")
    if not sizes or any(n < 1 for n in sizes):
        raise errors.ParseError("--sizes needs positive integers")
    ctx = _build_field(args, make_rng(seed))
    oracle = _oracle_from(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "compositions", "multiplications", "wall_ms", "depth", "fallbacks"])
    for idx, n in enumerate(sizes):
        rng = trial_rng(seed, idx)
        f = random_squarefree(ctx, n, rng)
        trace = []
        reset_counters()
        t0 = time.perf_counter()
        ddf(f, oracle=oracle, rng=rng, ell=args.ell, trace=trace)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        stats = counters()
        writer.writerow(
            [
                n,
                stats["modcomp"],
                stats["mul"],
                f"{wall_ms:.2f}",
                recursion_audit(trace),
                sum(1 for rec in trace if rec["fallback"]),
            ]
        )
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser construction and dispatch.
# ----------------------------------------------------------------------


def _add_field_args(p: _Parser) -> None:
    p.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    p.add_argument("--m", type=int, default=1, help="extension degree (default 1)")
    p.add_argument("--h", type=str, default=None, help="extension modulus, e.g. 'y^2+1'")


def _add_oracle_args(p: _Parser) -> None:
    p.add_argument(
        "--oracle",
        choices=[BACKEND_SIM, BACKEND_EXACT],
        default=BACKEND_SIM,
        help="order oracle backend",
    )
    p.add_argument(
        "--mode",
        choices=[MODE_EXACT_DIST, MODE_IDEALIZED],
        default=MODE_EXACT_DIST,
        help="measurement sampling: the exact outcome distribution at every "
        "precision (default), or idealized rounding to the nearest peak",
    )
    p.add_argument("--max-attempts", type=positive_int, default=4, help="estimation attempts")


def _add_common_args(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=None, help="RNG seed (or FFQ_SEED)")
    p.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p.add_argument("--verbose", action="store_true", help="trace records on stderr")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ffq",
        description="Polynomial factorization over finite fields with an "
        "order-driven distinct-degree engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a polynomial")
    _add_field_args(p_factor)
    p_factor.add_argument("--poly", type=str, default=None, help="polynomial text")
    p_factor.add_argument("--poly-file", type=str, default=None, help="read polynomial from file")
    _add_oracle_args(p_factor)
    _add_common_args(p_factor)
    p_factor.set_defaults(func=cmd_factor)

    p_ddf = sub.add_parser("ddf", help="distinct-degree factorization")
    _add_field_args(p_ddf)
    p_ddf.add_argument("--poly", type=str, default=None)
    p_ddf.add_argument("--poly-file", type=str, default=None)
    p_ddf.add_argument("--ell", type=int, default=None, help="override first-call precision")
    _add_oracle_args(p_ddf)
    _add_common_args(p_ddf)
    p_ddf.set_defaults(func=cmd_ddf)

    p_order = sub.add_parser("order", help="estimate a Frobenius-power order")
    _add_field_args(p_order)
    p_order.add_argument("--modulus", type=str, required=True, help="monic squarefree polynomial")
    p_order.add_argument("--power", type=int, default=1, help="Frobenius power s (default 1)")
    p_order.add_argument("--ell", type=int, default=None, help="phase precision bits")
    _add_oracle_args(p_order)
    _add_common_args(p_order)
    p_order.set_defaults(func=cmd_order)

    p_stats = sub.add_parser("stats", help="statistical experiments")
    stats_sub = p_stats.add_subparsers(dest="stats_command", required=True)

    p_fc = stats_sub.add_parser("factor-count", help="irreducible factor count statistics")
    _add_field_args(p_fc)
    p_fc.add_argument("--n", type=positive_int, required=True, help="polynomial degree")
    p_fc.add_argument("--trials", type=positive_int, default=1000)
    p_fc.add_argument(
        "--with-multiplicity",
        action="store_true",
        help="count factors with multiplicity instead of distinct",
    )
    _add_oracle_args(p_fc)
    _add_common_args(p_fc)
    p_fc.set_defaults(func=cmd_stats_factor_count)

    p_sd = stats_sub.add_parser("splitting-degree", help="splitting field degree statistics")
    _add_field_args(p_sd)
    p_sd.add_argument("--n", type=positive_int, required=True, help="polynomial degree (<= 64)")
    p_sd.add_argument("--trials", type=positive_int, default=1000)
    _add_common_args(p_sd)
    p_sd.set_defaults(func=cmd_stats_splitting_degree)

    p_bench = sub.add_parser("bench", help="instrumented ddf scaling sweep")
    _add_field_args(p_bench)
    p_bench.add_argument("--sizes", type=str, default="32,64,128", help="comma-separated degrees")
    p_bench.add_argument("--ell", type=int, default=None)
    _add_oracle_args(p_bench)
    _add_common_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except errors.InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except errors.OracleExhausted as e:
        print(f"oracle exhausted: {e}", file=sys.stderr)
        return EXIT_ORACLE
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
