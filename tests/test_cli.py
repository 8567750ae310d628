"""Command-line interface: outputs, exit codes, schemas, reproducibility."""

import json
from importlib.resources import files

import jsonschema
import pytest

from ffq import errors, field_new
from ffq.cli import main
from ffq.poly import random_monic
from ffq.rng import trial_rng

from reference_factor import reference_factor


def load_schema(name):
    return json.loads(files("ffq").joinpath(f"schemas/{name}.json").read_text())


def test_factor_text_output(capsys):
    rc = main(["factor", "--p", "7", "--poly", "x^3+4*x^2+5*x+2", "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "factor (multiplicity 2): x+1" in out
    assert "factor (multiplicity 1): x+2" in out
    assert "unit: 1" in out
    assert "seed: 9" in out


def test_factor_json_is_reproducible_and_valid(capsys):
    args = ["factor", "--p", "5", "--poly", "x^4+3*x^3+4*x+2", "--seed", "77", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    jsonschema.validate(payload, load_schema("factor"))
    assert payload["seed"] == 77
    got = {(f["poly"], f["multiplicity"]) for f in payload["factors"]}
    assert got == {("x+4", 1), ("x+3", 1), ("x^2+x+1", 1)}


def test_factor_extension_field_round_trip(capsys):
    args = ["factor", "--p", "3", "--m", "2", "--h", "y^2+1",
            "--poly", "[y+1]*x^2+[2]*x+1", "--seed", "5", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("factor"))
    assert payload["field"] == {"p": 3, "m": 2, "h": "y^2+1"}
    assert payload["unit"] == "y+1"
    assert sum(f["degree"] * f["multiplicity"] for f in payload["factors"]) == 2


def test_ddf_json_and_verbose_trace(capsys):
    args = ["ddf", "--p", "2", "--poly", "x^6+x^4+x+1", "--seed", "3", "--json", "--verbose"]
    assert main(args) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    jsonschema.validate(payload, load_schema("ddf"))
    assert [(part["poly"], part["degree"]) for part in payload["parts"]] == [
        ("x+1", 1), ("x^2+x+1", 2), ("x^3+x+1", 3)
    ]
    lines = [ln for ln in captured.err.splitlines() if ln.strip()]
    assert lines, "verbose mode must stream trace records"
    for ln in lines:
        rec = json.loads(ln)
        for key in ["id", "parent", "input_degree", "s", "d", "fallback", "children"]:
            assert key in rec


def test_order_command_reports_the_frobenius_order(capsys):
    args = ["order", "--p", "2", "--modulus", "x^3+x+1", "--seed", "11", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("order"))
    assert payload["found"] is True and payload["order"] == 3
    assert payload["transcript"], "transcript must record the sampled runs"
    for t in payload["transcript"]:
        assert t["N"] == 1 << (2 * payload["ell"] + 1)


def test_order_command_with_power(capsys):
    # sigma^3 is the identity on the degree-3 block, so its order is 1
    args = ["order", "--p", "2", "--modulus", "x^3+x+1", "--power", "3",
            "--seed", "11", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 1


def test_order_text_mode_prints_runs(capsys):
    rc = main(["order", "--p", "2", "--modulus", "x^3+x+1", "--seed", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "order: 3" in out
    assert "run: k=" in out


def test_parse_errors_exit_one(capsys):
    assert main(["factor", "--p", "5", "--poly", "x+", "--seed", "1"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["factor", "--p", "4", "--poly", "x", "--seed", "1"]) == 1
    assert main(["factor", "--p", "5", "--seed", "1"]) == 1  # no input
    assert main(["order", "--p", "2", "--modulus", "x^2", "--seed", "1"]) == 1
    assert main(["stats", "splitting-degree", "--p", "2", "--n", "65", "--seed", "1"]) == 1
    assert main(["bench", "--p", "3", "--sizes", "8", "--seed", "1"]) == 1
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["factor-count", "splitting-degree"])
@pytest.mark.parametrize("flag", ["--n", "--trials"])
def test_stats_rejects_empty_samples(command, flag, capsys):
    sizes = {"--n": "4", "--trials": "5", flag: "0"}
    argv = ["stats", command, "--p", "2", "--seed", "1"]
    assert main(argv + [token for pair in sizes.items() for token in pair]) == 1
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--p", "3", "--poly", "x^2+1", "--max-attempts", "0"],
        ["ddf", "--p", "3", "--poly", "x^2+1", "--max-attempts", "0"],
        ["order", "--p", "3", "--modulus", "x^4+x+2", "--max-attempts", "-2"],
        ["stats", "factor-count", "--p", "2", "--n", "4", "--trials", "5", "--max-attempts", "0"],
    ],
    ids=lambda argv: " ".join(argv[: argv.index("--p")]),
)
def test_max_attempts_must_be_positive(argv, capsys):
    assert main(argv + ["--seed", "1", "--json"]) == 1
    assert "argument --max-attempts: must be >= 1" in capsys.readouterr().err


def test_json_requires_a_seed(capsys, monkeypatch):
    monkeypatch.delenv("FFQ_SEED", raising=False)
    assert main(["factor", "--p", "5", "--poly", "x", "--json"]) == 1
    assert "seed" in capsys.readouterr().err


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FFQ_SEED", "314")
    assert main(["factor", "--p", "5", "--poly", "x^2+1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 314
    monkeypatch.setenv("FFQ_SEED", "not-a-number")
    assert main(["factor", "--p", "5", "--poly", "x^2+1", "--json"]) == 1


def test_poly_file_input(tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text("x^2+x+1\n")
    assert main(["factor", "--p", "2", "--poly-file", str(path), "--seed", "6"]) == 0
    assert "x^2+x+1" in capsys.readouterr().out
    assert main(["factor", "--p", "2", "--poly", "x", "--poly-file", str(path),
                 "--seed", "6"]) == 1
    assert main(["factor", "--p", "2", "--poly-file", str(tmp_path / "nope"),
                 "--seed", "6"]) == 1


def test_oracle_flags_accepted(capsys):
    for backend in ["quantum-sim", "exact"]:
        for mode in ["exact-dist", "idealized"]:
            rc = main(["ddf", "--p", "3", "--poly", "x^4+x+2", "--seed", "8",
                       "--oracle", backend, "--mode", mode])
            assert rc == 0
            capsys.readouterr()
    # The precision-dependent auto mode is gone.
    assert main(["ddf", "--p", "3", "--poly", "x^4+x+2", "--seed", "8",
                 "--mode", "auto"]) == 1


def test_stats_factor_count_degree_one(capsys):
    args = ["stats", "factor-count", "--p", "5", "--n", "1", "--trials", "40",
            "--seed", "2", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == 1.0 and payload["variance"] == 0.0
    assert payload["histogram"] == {"1": 40}


def test_stats_factor_count_multiplicity_flag(capsys):
    base = ["stats", "factor-count", "--p", "2", "--n", "6", "--trials", "60", "--seed", "3", "--json"]
    assert main(base) == 0
    distinct = json.loads(capsys.readouterr().out)
    assert main(base + ["--with-multiplicity"]) == 0
    withmult = json.loads(capsys.readouterr().out)
    assert withmult["mean"] >= distinct["mean"]
    assert sum(distinct["histogram"].values()) == 60


def test_stats_factor_count_is_prefix_stable(capsys):
    base = ["stats", "factor-count", "--p", "3", "--n", "5", "--seed", "21", "--json"]
    assert main(base + ["--trials", "30"]) == 0
    small = json.loads(capsys.readouterr().out)
    assert main(base + ["--trials", "60"]) == 0
    large = json.loads(capsys.readouterr().out)
    # growing the trial count must not change the early trials' contribution
    assert small["trials"] == 30 and large["trials"] == 60
    total_small = sum(int(k) * v for k, v in small["histogram"].items())
    assert total_small == round(small["mean"] * 30)


@pytest.mark.parametrize("field_args, ctx_args, n", [
    (["--p", "2"], (2,), 8),
    (["--p", "3"], (3,), 7),
    (["--p", "3", "--m", "2", "--h", "y^2+1"], (3, 2, [1, 0, 1]), 5),
])
@pytest.mark.parametrize("with_multiplicity", [False, True])
def test_stats_factor_count_matches_brute_force(capsys, field_args, ctx_args, n,
                                                with_multiplicity):
    seed, trials = 4, 40
    args = ["stats", "factor-count", *field_args, "--n", str(n),
            "--trials", str(trials), "--seed", str(seed), "--json"]
    if with_multiplicity:
        args.append("--with-multiplicity")
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    ctx = field_new(*ctx_args)
    expected = {}
    for i in range(trials):
        _, fac = reference_factor(random_monic(ctx, n, trial_rng(seed, i)))
        c = sum(m for _, m in fac) if with_multiplicity else len(fac)
        expected[str(c)] = expected.get(str(c), 0) + 1
    assert payload["histogram"] == expected


def test_stats_splitting_degree_tiny_case(capsys):
    args = ["stats", "splitting-degree", "--p", "2", "--n", "2", "--trials", "50",
            "--seed", "4", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["histogram"]) <= {"1", "2"}
    assert payload["fraction_exceeding"] <= 1.0
    assert payload["mean_ln_d"] >= 0.0


def test_invariant_violation_exits_two(capsys, monkeypatch):
    import ffq.cli as cli

    def boom(*a, **k):
        raise errors.InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(cli, "factor", boom)
    assert main(["factor", "--p", "5", "--poly", "x", "--seed", "1"]) == 2
    assert "invariant" in capsys.readouterr().err


def test_oracle_exhausted_exits_three(capsys, monkeypatch):
    import ffq.cli as cli

    def boom(*a, **k):
        raise errors.OracleExhausted("forced for the exit-code test")

    monkeypatch.setattr(cli, "ddf", boom)
    assert main(["ddf", "--p", "5", "--poly", "x", "--seed", "1"]) == 3
    assert "exhausted" in capsys.readouterr().err


def test_unknown_command_is_a_parse_error(capsys):
    assert main(["transmogrify"]) == 1
    assert main([]) == 1
    capsys.readouterr()
