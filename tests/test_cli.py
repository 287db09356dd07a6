import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from permfix import laws, limits
from permfix.cli import build_parser, main, parse_parts
from permfix.errors import SizeMismatchError, ValidationError
from permfix.limits import (
    MAX_CELLS_BELOW_FIRST_ROW,
    MAX_DIST_K,
    MAX_DIST_N,
    MAX_ENGINE_SHAPES,
    MAX_MULT_R,
    MAX_MULT_SKEW_CELLS,
    MAX_ORDER,
    MAX_PARTS,
    MAX_ROW_POINTS,
    MAX_SAMPLES,
)
from permfix.moments import commutator_random_moments, moment_commutator_fixed_closed
from permfix.multiplicity import mult_oracle, mult_skew
from oracles import stratum_sizes
from strategies import partitions

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_fraction(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def test_parse_parts_grammar():
    assert parse_parts("4,1") == (4, 1)
    assert parse_parts("2^3") == (2, 2, 2)
    assert parse_parts("2^3, 1") == (2, 2, 2, 1)
    assert parse_parts("1,4,2") == (4, 2, 1)
    with pytest.raises(ValidationError):
        parse_parts("")
    with pytest.raises(ValidationError):
        parse_parts("a,b")
    with pytest.raises(ValidationError):
        parse_parts("0,1")


def test_mult_all_agree(capsys):
    code, out, _ = run_cli(capsys, "mult", "--lambda", "4,1", "--r", "1", "--alg", "all")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 6
    assert report["multiplicity"] == 1
    assert report["agree"] is True
    assert set(report["by_algorithm"]) == {"skew", "updown", "first-row", "oracle"}


def test_mult_zero_case(capsys):
    code, out, _ = run_cli(capsys, "mult", "--lambda", "2,2", "--r", "1")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 0


def test_mult_oracle_algorithm(capsys):
    code, out, _ = run_cli(capsys, "mult", "--lambda", "3", "--r", "2", "--alg", "oracle")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 2


def test_mult_parse_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "mult", "--lambda", "x", "--r", "1")
    assert code == 2
    assert "error" in err


def test_mult_first_row_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "mult", "--lambda", "3,3", "--r", "5", "--alg", "first-row")
    assert code == 2


def test_mult_oracle_size_limit_exit_code(capsys):
    code, _, _ = run_cli(capsys, "mult", "--lambda", "9", "--r", "1", "--alg", "oracle")
    assert code == 2


def test_moments_commutator_random(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "commutator-random", "--n", "10", "--r-max", "3"
    )
    assert code == 0
    report = json.loads(out)
    rows = report["table"]
    assert [row["r"] for row in rows] == [1, 2, 3]
    for row in rows:
        moment = as_fraction(row["moment"])
        assert moment >= row["poisson_reference"]


def test_moments_commutator_fixed_mean(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "commutator-fixed", "--n", "8", "--x", "8", "--r-max", "2"
    )
    assert code == 0
    rows = json.loads(out)["table"]
    assert as_fraction(rows[0]["moment"]) == 1 + Fraction(1, 7)


def test_moments_walk_small(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "walk", "--n", "60", "--i", "2", "--c", "0", "--r-max", "1"
    )
    assert code == 0
    report = json.loads(out)
    row = report["table"][0]
    assert abs(float(row["moment"]) - 2.0) < 0.25


def test_moments_walk_difference_is_taken_at_the_working_precision(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "walk", "--n", "1000", "--i", "2", "--c", "0", "--r-max", "2"
    )
    assert code == 0
    for row in json.loads(out)["table"]:
        with mpmath.workprec(128):
            difference = mpmath.mpf(row["moment"]) - mpmath.mpf(row["poisson_reference"])
            assert row["difference"] == mpmath.nstr(difference, 40)


@pytest.mark.parametrize(
    "argv",
    [
        ("commutator-random", "--n", "6"),
        ("commutator-fixed", "--n", "6", "--x", "3,2,1"),
        ("walk", "--n", "30", "--i", "2", "--k", "10"),
    ],
)
def test_moments_rows_hold_moment_reference_and_difference(capsys, argv):
    code, out, _ = run_cli(capsys, "moments", *argv, "--r-max", "2")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 6
    assert [set(row) for row in report["table"]] == [
        {"r", "moment", "poisson_reference", "difference"}
    ] * 2


@pytest.mark.parametrize("c", ("inf", "1e308", "nan"))
def test_moments_walk_rejects_a_non_finite_step_count(capsys, c):
    code, out, err = run_cli(
        capsys, "moments", "walk", "--n", "10", "--i", "2", "--c", c, "--r-max", "1"
    )
    assert code == 2
    assert out == ""
    assert f"c = {float(c)}" in err


@pytest.mark.parametrize("c", ("-5", "-0.6", "-1000000.5"))
def test_moments_walk_rejects_a_step_count_below_0(capsys, c):
    # No --k was given, so the message names c.
    code, out, err = run_cli(capsys, "moments", "walk", "--n", "2", "--i", "2", "--c", c)
    assert (code, out) == (2, "")
    assert f"c = {float(c)}" in err and "rounds below 0" in err
    assert "k and r" not in err


def test_moments_walk_requires_k_or_c(capsys):
    code, _, err = run_cli(capsys, "moments", "walk", "--n", "60", "--i", "2")
    assert code == 2


def test_simulate_deterministic_byte_for_byte(capsys):
    args = (
        "simulate", "--model", "walk", "--n", "8", "--i", "3", "--k", "5",
        "--samples", "20000", "--seed", "7", "--threads", "2",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["samples"] == 20000
    assert "tv_to_poisson_reference" in report


def test_simulate_report_does_not_depend_on_threads(capsys):
    argv = (
        "simulate", "--model", "commutator", "--n", "5",
        "--samples", "300000", "--seed", "3",
    )
    one = run_cli(capsys, *argv, "--threads", "1")
    two = run_cli(capsys, *argv, "--threads", "2")
    assert one == two
    assert "threads" not in json.loads(one[1])["config"]


def test_simulate_commutator_bands(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "commutator", "--n", "5",
        "--samples", "100000", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    for row in report["table"]:
        assert abs(float(row["z"])) < 5


def test_simulate_uniform_reports_tv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "20",
        "--samples", "50000", "--seed", "5",
    )
    assert code == 0
    report = json.loads(out)
    assert float(report["tv_to_poisson_reference"]) < 0.05


def test_simulate_config_has_precision_for_the_walk_alone(capsys):
    sim = ("simulate", "--n", "5", "--samples", "100", "--threads", "1")
    configs = {model: json.loads(run_cli(capsys, *sim, "--model", model, *extra)[1])["config"]
               for model, extra in (("uniform", ()), ("commutator", ()),
                                    ("walk", ("--i", "2", "--k", "3")))}
    assert "precision" not in configs["uniform"] and "precision" not in configs["commutator"]
    assert configs["walk"]["precision"] == 128


def test_simulate_uniform_at_a_million_points_as_a_subprocess():
    # Each sample draws its cycle lengths, about 15 bounded integers at this
    # n; shuffling a million points per sample took 45 s for 1000 samples.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = ["simulate", "--model", "uniform", "--n", "1000000", "--samples", "10000",
            "--threads", "1"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "permfix", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert sum(json.loads(proc.stdout)["histogram"].values()) == 10000


def test_simulate_uniform_at_n_4000_finishes_in_seconds(capsys):
    # Its exact moments come from F_a = 1; building the whole derangement law
    # took over a minute at this n.
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "4000", "--samples", "100",
        "--threads", "1",
    )
    assert time.perf_counter() - start < 10
    assert code == 0
    assert [as_fraction(row["exact_moment"]) for row in json.loads(out)["table"]] == [1, 2]


def test_simulate_rejects_bad_params(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--model", "walk", "--n", "4", "--i", "9", "--k", "2",
        "--samples", "100", "--seed", "1",
    )
    assert code == 2


def test_dist_walk_probabilities(capsys):
    code, out, _ = run_cli(capsys, "dist", "walk", "--n", "4", "--i", "2", "--k", "2")
    assert code == 0
    report = json.loads(out)
    probs = {row["fixed_points"]: as_fraction(row["probability"]) for row in report["table"]}
    assert probs == {0: Fraction(1, 6), 1: Fraction(2, 3), 4: Fraction(1, 6)}
    assert as_fraction(report["total"]) == 1


def test_dist_commutator(capsys):
    code, out, _ = run_cli(capsys, "dist", "commutator", "--n", "3")
    assert code == 0
    report = json.loads(out)
    probs = {row["fixed_points"]: as_fraction(row["probability"]) for row in report["table"]}
    assert probs == {0: Fraction(1, 2), 3: Fraction(1, 2)}


def test_dist_commutator_fixed(capsys):
    code, out, _ = run_cli(capsys, "dist", "commutator", "--n", "5", "--x", "5")
    assert code == 0
    report = json.loads(out)
    assert as_fraction(report["mean"]) == Fraction(5, 4)


def test_ratio_command(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--lambda", "4,1", "--i", "2")
    assert code == 0
    report = json.loads(out)
    assert as_fraction(report["ratio"]) == Fraction(1, 2)


def test_ratio_validation(capsys):
    code, _, _ = run_cli(capsys, "ratio", "--lambda", "4,1", "--i", "9")
    assert code == 2


def test_verify_identities_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines
    assert all(line["passed"] for line in lines)
    assert "gates passed" in err


def test_csv_output_is_lossless_for_table(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "walk", "--n", "4", "--i", "2", "--k", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "fixed_points,probability"
    cells = dict(line.split(",") for line in lines[1:])
    assert cells["1"] == "2/3"


@pytest.mark.parametrize("leaf", [
    ("commutator-random", "--n", "6"),
    ("commutator-fixed", "--n", "6", "--x", "3,2,1"),
    ("walk", "--n", "10", "--i", "2", "--k", "3"),
])
def test_moments_csv_header_is_the_table_columns(capsys, leaf):
    code, out, _ = run_cli(capsys, "moments", *leaf, "--r-max", "2", "--format", "csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "r,moment,poisson_reference,difference"
    assert [row.split(",")[0] for row in rows] == ["1", "2"]


@pytest.mark.parametrize("argv", [
    ("moments", "commutator-random", "--n", "5"),
    ("simulate", "--model", "uniform", "--n", "5", "--samples", "100", "--seed", "1"),
])
def test_empty_table_gives_empty_csv(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--r-max", "0", "--format", "csv")
    assert code == 0
    assert out == ""


def test_csv_without_a_table_gives_key_value_pairs(capsys):
    code, out, _ = run_cli(capsys, "mult", "--lambda", "3,1", "--r", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["key,value", "multiplicity,3"]
    code, out, _ = run_cli(capsys, "ratio", "--lambda", "3,1", "--i", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "key,value", 'shape,"[3, 1]"', "i,2", "ratio,1/3", "ratio_float,0.3333333333333333",
    ]


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["mult", "--nope"])
    assert excinfo.value.code == 2


# Every leaf, a command line it accepts, and which of --format, --seed and
# --precision it declares; every leaf declares --threads. simulate reads
# --precision for the walk alone.
LEAVES = [
    (("mult", "--lambda", "4,1", "--r", "1"), ("format",)),
    (("moments", "commutator-random", "--n", "5"), ("format",)),
    (("moments", "commutator-fixed", "--n", "5", "--x", "3,2"), ("format",)),
    (("moments", "walk", "--n", "5", "--i", "2", "--k", "3"), ("format", "precision")),
    (("simulate", "--model", "walk", "--n", "5", "--i", "2", "--k", "3", "--samples", "100"),
     ("format", "seed", "precision")),
    (("verify", "--suite", "identities"), ()),
    (("ratio", "--lambda", "4,1", "--i", "2"), ("format",)),
    (("dist", "walk", "--n", "4", "--i", "2", "--k", "2"), ("format",)),
    (("dist", "commutator", "--n", "3"), ("format",)),
]
SHARED_VALUES = {"format": "json", "seed": "3", "precision": "64"}
UNDECLARED = [(argv, flag) for argv, declared in LEAVES for flag in SHARED_VALUES
              if flag not in declared]


def _leaf_name(argv) -> str:
    return " ".join(token for token in argv[:2] if not token.startswith("--"))


@pytest.mark.parametrize(
    "argv, flag", UNDECLARED, ids=[f"{_leaf_name(argv)} --{flag}" for argv, flag in UNDECLARED]
)
def test_each_leaf_rejects_the_options_it_does_not_declare(capsys, argv, flag):
    assert _outcome(capsys, (*argv, f"--{flag}", SHARED_VALUES[flag])) == (2, "")


@pytest.mark.parametrize("argv, declared", LEAVES, ids=[_leaf_name(argv) for argv, _ in LEAVES])
def test_config_holds_only_declared_options(capsys, argv, declared):
    shared = [token for flag in declared for token in (f"--{flag}", SHARED_VALUES[flag])]
    code, out, err = run_cli(capsys, *argv, *shared, "--threads", "1")
    assert code == 0, err
    if argv[0] != "verify":  # verify prints gate lines, not a report
        config = json.loads(out)["config"]
        assert set(config) & {*SHARED_VALUES, "threads"} == set(declared)


@pytest.mark.parametrize("model, option", [
    ("uniform", "--x"), ("uniform", "--i"), ("uniform", "--k"), ("uniform", "--precision"),
    ("commutator", "--i"), ("commutator", "--k"), ("commutator", "--precision"), ("walk", "--x"),
])
def test_simulate_rejects_an_option_its_model_does_not_read(capsys, model, option):
    walk = ("--i", "2", "--k", "3") if model == "walk" else ()
    value = {"--x": "3,2", "--precision": "128"}.get(option, "2")
    code, out, err = run_cli(
        capsys, "simulate", "--model", model, "--n", "5", "--samples", "10", *walk, option, value
    )
    assert (code, out) == (2, "")
    assert f"--model {model} does not read {option}" in err


def test_every_readme_command_line_parses():
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    lines = [line.split()[1:] for block in blocks for line in block.splitlines()
             if line.startswith("permfix ")]
    assert {_leaf_name(argv) for argv in lines} == {_leaf_name(argv) for argv, _ in LEAVES}
    for argv in lines:
        build_parser().parse_args(argv)


def test_gate_failure_exits_3(capsys, monkeypatch):
    import permfix.cli as cli_mod
    from permfix.verify import GateResult

    monkeypatch.setattr(
        cli_mod,
        "run_suite",
        lambda name: [GateResult(suite=name, gate="forced", passed=False, detail={})],
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 3
    assert json.loads(out.strip().splitlines()[0])["passed"] is False
    assert "forced" in err


def test_cross_check_disagreement_exits_4(capsys, monkeypatch):
    from permfix import multiplicity

    monkeypatch.setitem(multiplicity.ROUTES, "updown", lambda lam, r: 999)
    code, _, err = run_cli(capsys, "mult", "--lambda", "4,1", "--r", "1", "--alg", "all")
    assert code == 4
    assert "disagree" in err


def test_moments_walk_takes_exactly_one_of_k_and_c(capsys):
    for steps in (("--k", "5", "--c", "0"), ()):
        code, out, err = run_cli(
            capsys, "moments", "walk", "--n", "100", "--i", "2", *steps, "--r-max", "1"
        )
        assert code == 2
        assert out == ""
        assert "exactly one of --k and --c" in err


@pytest.mark.parametrize("samples", ("inf", "nan"))
def test_simulate_rejects_non_finite_samples(capsys, samples):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "5", "--samples", samples
    )
    assert code == 2
    assert out == ""
    assert "--samples must be finite" in err


@pytest.mark.parametrize("samples", ("1.5", "2.9"))
def test_simulate_rejects_fractional_samples(capsys, samples):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "5", "--samples", samples
    )
    assert (code, out) == (2, "")
    assert "--samples must be finite, whole" in err


@pytest.mark.parametrize("samples", ("1e300", str(2**53 + 2)))
def test_simulate_samples_beyond_2_to_the_53_exit_2_before_any_work(capsys, samples):
    # 1e300 used to be accepted and ran until it was killed.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "5", "--samples", samples, "--threads", "1"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"at most 2^53 = {MAX_SAMPLES}" in err


def test_simulate_samples_at_2_to_the_53_pass_validation(capsys, monkeypatch):
    # The sampler is replaced by one that records its sample count and stops.
    from permfix import simulate

    class Sampled(Exception):
        pass

    def sampler(model, n, samples, seed, **kwargs):
        raise Sampled(samples)

    monkeypatch.setattr(simulate, "fixed_point_histogram", sampler)
    assert MAX_SAMPLES == 2**53
    with pytest.raises(Sampled) as raised:
        main(["simulate", "--model", "uniform", "--n", "5", "--samples", str(2**53), "--threads", "1"])
    assert raised.value.args == (2**53,)


@pytest.mark.parametrize("samples", ("1e2", "100.0"))
def test_simulate_accepts_whole_samples_written_as_floats(capsys, samples):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "5", "--samples", samples,
        "--threads", "1",
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["config"]["samples"] == report["samples"] == 100


@pytest.mark.parametrize("steps", (("--i", "2"), ("--k", "3"), ()))
def test_simulate_walk_without_i_and_k_exits_2(capsys, steps):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "walk", "--n", "5", "--samples", "10", *steps
    )
    assert (code, out) == (2, "")
    assert "walk model needs i and k" in err


def test_moments_commutator_fixed_with_a_thousand_cycles(capsys):
    code, out, err = run_cli(
        capsys, "moments", "commutator-fixed", "--n", "2000", "--x", "2^1000", "--r-max", "2"
    )
    assert code == 0, err
    rows = json.loads(out)["table"]
    x = (2,) * 1000
    assert as_fraction(rows[0]["moment"]) == 1 + Fraction(1, 1999)
    for row in rows:
        assert as_fraction(row["moment"]) == moment_commutator_fixed_closed(2000, x, row["r"])


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--model", "uniform", "--n", "5", "--samples", "100"),
        ("simulate", "--model", "commutator", "--n", "5", "--samples", "100"),
        ("moments", "commutator-random", "--n", "5"),
    ],
)
def test_negative_r_max_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--r-max", "-1")
    assert code == 2
    assert out == ""
    assert "--r-max must be nonnegative" in err


@pytest.mark.parametrize("precision", ("-5", "0", "52"))
def test_precision_below_its_floor_exits_2(capsys, precision):
    code, out, err = run_cli(
        capsys, "moments", "walk", "--n", "10", "--i", "2", "--k", "3", "--r-max", "1",
        "--precision", precision,
    )
    assert code == 2
    assert out == ""
    assert "--precision must be at least 53 bits" in err


def test_precision_at_its_floor_is_accepted(capsys):
    code, out, err = run_cli(
        capsys, "moments", "walk", "--n", "10", "--i", "2", "--k", "3", "--r-max", "1",
        "--precision", "53",
    )
    assert code == 0, err
    assert json.loads(out)["config"]["precision"] == 53


@pytest.mark.parametrize("precision", ("16385", "1000000"))
def test_precision_above_its_cap_exits_2(capsys, precision):
    code, out, err = run_cli(
        capsys, "moments", "walk", "--n", "10", "--i", "2", "--c", "0", "--precision", precision
    )
    assert code == 2
    assert out == ""
    assert "at most 16384, got" in err


def test_precision_at_its_cap_is_accepted(capsys):
    code, out, err = run_cli(
        capsys, "moments", "walk", "--n", "10", "--i", "2", "--k", "3", "--r-max", "1",
        "--precision", "16384",
    )
    assert code == 0, err
    assert json.loads(out)["config"]["precision"] == 16384


def test_simulate_report_carries_the_stream_version(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "5", "--samples", "100", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["stream_version"] == 6


def test_simulate_walk_reference_mean_is_rounded_once(capsys):
    # 1 + exp(-i c) at the c of k = 1 step, rounded from 128 bits to a
    # double; rounding it to 53 bits first gave 2.540251357097776.
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "walk", "--n", "3", "--i", "2", "--k", "1",
        "--samples", "10", "--seed", "1", "--threads", "1",
    )
    assert code == 0
    assert json.loads(out)["poisson_reference_mean"] == "2.5402513570977763"


def test_commutator_fixed_report_gives_the_class_by_cycle_counts(capsys):
    code, out, err = run_cli(
        capsys, "moments", "commutator-fixed", "--n", "1000000", "--x", "1^1000000"
    )
    assert code == 0, err
    assert len(out.encode()) < 4096
    assert json.loads(out)["params"]["x"] == {"1": 1000000}


def test_parse_parts_checks_the_size_before_expanding():
    assert parse_parts("2^3", 6) == (2, 2, 2)
    with pytest.raises(SizeMismatchError):
        parse_parts("2^30000000", 5)
    with pytest.raises(ValidationError):
        parse_parts("2^", 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "commutator-fixed", "--n", "5"),
        ("simulate", "--model", "commutator", "--n", "5", "--samples", "10"),
        ("dist", "commutator", "--n", "5"),
    ],
)
def test_cycle_type_of_the_wrong_size_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--x", "2^30000000")
    assert code == 2
    assert out == ""
    assert "has size 60000000, expected 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "commutator", "--n", "4"),
        ("simulate", "--model", "commutator", "--n", "4", "--samples", "10"),
    ],
)
def test_empty_cycle_type_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--x", "")
    assert (code, out) == (2, "")
    assert "empty partition string" in err


@pytest.mark.parametrize(
    "argv", (["mult", "--r", "1"], ["ratio", "--i", "2"]), ids=("mult", "ratio")
)
def test_lambda_cells_below_the_first_row_are_capped(capsys, argv):
    # A column of limit + 1 cells has exactly the limit below its first row.
    at_limit = f"1^{MAX_CELLS_BELOW_FIRST_ROW + 1}"
    code, out, _ = run_cli(capsys, *argv, "--lambda", at_limit)
    assert code == 0
    assert json.loads(out)["schema_version"] == 6
    for over in (f"1^{MAX_CELLS_BELOW_FIRST_ROW + 2}", f"7,2^{MAX_CELLS_BELOW_FIRST_ROW // 2}, 1"):
        code, out, err = run_cli(capsys, *argv, "--lambda", over)
        assert (code, out) == (2, "")
        assert f"{MAX_CELLS_BELOW_FIRST_ROW + 1} cells below its first row" in err
    code, out, _ = run_cli(capsys, *argv, "--lambda", "2^300000000")
    assert (code, out) == (2, "")


def test_parse_parts_counts_cells_below_the_first_row_before_expanding():
    assert parse_parts("5,2^3", max_below_first_row=6) == (5, 2, 2, 2)
    with pytest.raises(ValidationError):
        parse_parts("5,2^3", max_below_first_row=5)
    with pytest.raises(ValidationError):
        parse_parts("1^1000000000", max_below_first_row=10)


def test_parse_parts_counts_parts_before_expanding():
    # The largest class tried, 2^5000000 at n = 10^7, stays within the bound.
    assert 5 * 10**6 < MAX_PARTS
    assert parse_parts("1^2,3,2^2", 9) == (3, 2, 2, 1, 1)
    with pytest.raises(ValidationError, match=f"more than the {MAX_PARTS} accepted"):
        parse_parts(f"2,1^{MAX_PARTS}")


@pytest.mark.parametrize("x", ("1^1000000000", "2^500000000"))
def test_a_class_of_more_parts_than_the_bound_exits_2_before_it_is_expanded(capsys, x):
    # Expanded, each class asked for gigabytes and ended in a MemoryError traceback.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "moments", "commutator-fixed", "--n", "1000000000",
                             "--x", x, "--r-max", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"parts, more than the {MAX_PARTS} accepted" in err


# Every subcommand, interleaved, with an argparse error, a validation error,
# a CSV report and a simulation among them.
INTERLEAVED_ARGV = [
    ("moments", "commutator-fixed", "--n", "8", "--x", "3,2^2,1", "--r-max", "3"),
    ("mult", "--nope"),
    ("simulate", "--model", "commutator", "--n", "6", "--samples", "2000", "--seed", "4",
     "--threads", "1"),
    ("moments", "walk", "--n", "100", "--i", "2", "--r-max", "1"),
    ("mult", "--lambda", "4,1", "--r", "2", "--alg", "all"),
    ("moments", "walk", "--n", "10", "--i", "2", "--k", "3", "--r-max", "2", "--format", "csv"),
    ("ratio", "--lambda", "5,2", "--i", "3"),
    ("verify", "--suite", "asymptotics"),
    ("dist", "walk", "--n", "5", "--i", "2", "--k", "3"),
    ("moments", "commutator-random", "--n", "9", "--r-max", "4"),
    ("dist", "commutator", "--n", "4", "--x", "2,2", "--format", "csv"),
    ("simulate", "--model", "walk", "--n", "8", "--i", "3", "--k", "2", "--samples", "1000",
     "--threads", "1", "--seed", "9"),
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_one_parser_serves_every_main_call(capsys):
    build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in INTERLEAVED_ARGV]
    assert build_parser.cache_info().misses == 1
    assert {code for code, _ in shared} == {0, 2}
    for argv, outcome in zip(INTERLEAVED_ARGV, shared):
        build_parser.cache_clear()
        assert _outcome(capsys, argv) == outcome, argv


@pytest.mark.parametrize("lam, r", [("1000000", "20"), ("1000000", str(MAX_MULT_SKEW_CELLS)),
                                    ("4,1", "100"), (str(MAX_MULT_SKEW_CELLS), "1000")])
def test_mult_r_within_the_skew_cell_limit_runs(capsys, lam, r):
    code, out, err = run_cli(capsys, "mult", "--lambda", lam, "--r", r)
    assert code == 0, err
    assert json.loads(out)["multiplicity"] == mult_skew(parse_parts(lam), int(r))


@pytest.mark.parametrize("lam, r", [("1000000", str(MAX_MULT_SKEW_CELLS + 1)),
                                    ("1000000,1^4000", "5000"),
                                    (str(MAX_MULT_SKEW_CELLS + 1), "1000")])
@pytest.mark.parametrize("alg", ("skew", "updown", "all"))
def test_mult_r_beyond_the_skew_cell_limit_exits_2(capsys, lam, r, alg):
    code, out, err = run_cli(capsys, "mult", "--lambda", lam, "--r", r, "--alg", alg)
    assert (code, out) == (2, "")
    assert f"more than the {MAX_MULT_SKEW_CELLS} cells accepted" in err


def test_engine_shape_cap_admits_every_partition_of_40():
    assert sum(stratum_sizes(40, 40)) <= MAX_ENGINE_SHAPES < sum(stratum_sizes(10**6, 32))


@pytest.mark.parametrize("argv", [
    ("moments", "walk", "--n", "2000", "--i", "2", "--c", "0", "--r-max", "40"),
    ("moments", "commutator-random", "--n", "1000000", "--r-max", "40"),
    ("moments", "commutator-fixed", "--n", "1000", "--x", "2^500", "--r-max", "32"),
    # Whole sweeps, whose character column alone would outgrow memory.
    ("moments", "commutator-fixed", "--n", "100", "--x", "1^100", "--r-max", "100"),
    ("simulate", "--model", "commutator", "--n", "100", "--x", "1^100", "--samples", "10",
     "--r-max", "50"),
    ("simulate", "--model", "commutator", "--n", "1000", "--samples", "10", "--r-max", "16"),
    ("simulate", "--model", "walk", "--n", "1000", "--i", "2", "--k", "1", "--r-max", "16"),
    # The whole law of 41 points reaches all 44583 partitions of 41.
    ("dist", "commutator", "--n", "41"),
    ("dist", "commutator", "--n", "41", "--x", "1^41"),
])
def test_engine_shapes_beyond_the_cap_exit_2_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"more than the {MAX_ENGINE_SHAPES} shapes accepted" in err


def test_engine_shapes_at_the_cap_are_accepted(capsys, monkeypatch):
    # n = 20 and r_max = 20 reach all 627 partitions of 20, n = 21 all 792 of 21.
    monkeypatch.setattr(limits, "MAX_ENGINE_SHAPES", 627)
    code, _, err = run_cli(capsys, "moments", "commutator-random", "--n", "20", "--r-max", "20")
    assert code == 0, err
    code, out, _ = run_cli(capsys, "moments", "commutator-random", "--n", "21", "--r-max", "20")
    assert (code, out) == (2, "")
    # simulate checks 2 * r_max, except for the uniform model, which needs no shapes.
    sim = ("simulate", "--n", "21", "--samples", "10", "--r-max", "10")
    assert run_cli(capsys, *sim, "--model", "commutator")[:2] == (2, "")
    assert run_cli(capsys, *sim, "--model", "uniform")[0] == 0


# Runs permfix as python -m permfix would, then prints the peak resident set
# of its own address space (VmHWM). ru_maxrss would also count the memory of
# the forking test process, which exec carries into the child's figure.
_PEAK_REPORTING_MAIN = """
import runpy, sys
sys.argv[0] = "permfix"
try:
    runpy.run_module("permfix", run_name="__main__")
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
"""


def _run_reporting_peak(argv: list[str]) -> tuple[list[dict], int]:
    """Run the CLI as a subprocess; return its table and its peak resident KiB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_REPORTING_MAIN, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["table"], int(proc.stderr.split()[-2])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_commutator_fixed_at_a_million_points_as_a_subprocess():
    argv = ["moments", "commutator-fixed", "--n", "1000000", "--x", "2^500000", "--r-max", "4"]
    rows, peak_kib = _run_reporting_peak(argv)
    assert peak_kib < 60 * 1024
    x = (2,) * 500000
    for row in rows[:2]:
        assert as_fraction(row["moment"]) == moment_commutator_fixed_closed(10**6, x, row["r"])


# The engine enumerates its shapes stratum by stratum, so its memory does
# not grow with n: each run reads a handful of shapes, and n = 10^12
# reads the exact mean n/(n - 1) = 1 + G_1 with G_1 = 1/(n - 1).
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("command, mean", [
    ("moments commutator-random --n 100000000 --r-max 2", None),
    ("moments walk --n 100000000 --i 2 --c 0 --r-max 2", None),
    ("moments commutator-random --n 1000000000000 --r-max 1", Fraction(10**12, 10**12 - 1)),
])
def test_engine_memory_does_not_grow_with_n(command, mean):
    rows, peak_kib = _run_reporting_peak(command.split())
    assert peak_kib < 40 * 1024
    if mean is not None:
        assert as_fraction(rows[0]["moment"]) == mean


_JUNK = st.sampled_from(("", " ", "x", "^", "2^", "^2", "2^^2", "1.5", "+2", "-0", "1_0", "٣"))


@st.composite
def _parts(draw, n=None):
    """Partition grammar, with "^" runs, commas and whitespace, for a partition
    of n (of any small size when n < 1 or absent); or junk."""
    if draw(st.integers(0, 3)) == 0:
        return ",".join(draw(st.lists(st.integers(-1, 6).map(str) | _JUNK, max_size=4)))
    lam = draw(partitions(1, 8) if n is None or n < 1 else partitions(n, n))
    runs = [(str(v), lam.count(v)) for v in sorted(set(lam), reverse=True)]
    tokens = [draw(st.sampled_from((f"{v}^{m}", ",".join([v] * m)))) for v, m in runs]
    return draw(st.sampled_from((",", " ,", "\t,"))).join(tokens)


# Fuzzed command lines: X is partition grammar for the preceding --n, and
# each other capital a value drawn from _VALUES, small enough to run fast.
_COMMAND_LINES = (
    "mult --lambda P --r N --alg A",
    "moments commutator-random --n N --r-max N",
    "moments commutator-fixed --n N --x X --r-max N",
    "moments walk --n N --i N --k N --r-max N",
    "moments walk --n N --i N --c C --r-max N",
    "dist walk --n N --i N --k N",
    "dist commutator --n D",
    "dist commutator --n D --x X",
    "ratio --lambda P --i N",
    "simulate --model uniform --n N --samples S --r-max N --seed N --threads T",
    "simulate --model commutator --n N --samples S --r-max N --seed N --threads T",
    "simulate --model commutator --n N --x X --samples S --r-max N --seed N --threads T",
    "simulate --model walk --n N --i N --k N --samples S --r-max N --seed N --threads T",
)
# The command lines that declare --precision.
_PRECISION_LINES = ("moments walk", "simulate")
_VALUES = {
    "N": st.integers(-2, 12).map(str),
    # -1 is refused; every law from 0 to 8 points takes the engine well
    # under a second.
    "D": st.sampled_from(("-1", "0", "1", "2", "3", "4", "5", "6", "7", "8")),
    "C": st.floats(-5, 5).map(str) | st.sampled_from(("nan", "-inf", "1e300")),
    "S": st.integers(-5, 3000).map(str) | st.sampled_from(("0.5", "1e3", "nan")),
    "A": st.sampled_from(("skew", "updown", "first-row", "oracle", "all")),
    "T": st.sampled_from(("1", "2")),
    "P": _parts(),
}


@st.composite
def _argv(draw):
    """A command line, with a junk token in about one case in ten."""
    argv = []
    line = draw(st.sampled_from(_COMMAND_LINES))
    for token in line.split():
        value = _parts(int(argv[-2])) if token == "X" else _VALUES.get(token, st.just(token))
        argv.append(draw(value))
    if draw(st.integers(0, 9)) == 0:
        argv[draw(st.integers(1, len(argv) - 1))] = draw(_JUNK)
    if line.startswith(_PRECISION_LINES):
        argv += draw(st.sampled_from(([], ["--precision", "0"], ["--precision", "64"],
                                      ["--precision", "1000000"])))
    return argv


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_every_command_line_exits_with_a_documented_code(capsys, argv):
    code, out = _outcome(capsys, argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        json.loads(out)


@pytest.mark.parametrize("argv", [
    # Each exited 1 with an OverflowError from a double of an exact moment.
    ("simulate", "--model", "uniform", "--n", "300", "--samples", "10", "--r-max", "110"),
    ("simulate", "--model", "walk", "--n", "40", "--i", "2", "--k", "0", "--samples", "10",
     "--r-max", "100"),
    # 139 MB for the cached Stirling rows, at five shapes.
    ("moments", "commutator-random", "--n", "5", "--r-max", "800"),
    ("moments", "commutator-random", "--n", "5", "--r-max", str(MAX_ORDER + 1)),
    ("moments", "commutator-fixed", "--n", "200", "--x", "1^200", "--r-max", "200"),
    ("simulate", "--model", "uniform", "--n", "5", "--samples", "10",
     "--r-max", str(MAX_ORDER // 2 + 1)),
])
def test_orders_beyond_the_bound_exit_2_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"above the {MAX_ORDER} accepted" in err


@pytest.mark.parametrize("argv", [
    ("moments", "commutator-random", "--n", "5", "--r-max", str(MAX_ORDER)),
    ("simulate", "--model", "uniform", "--n", "300", "--samples", "10"),
    ("simulate", "--model", "commutator", "--n", "5", "--samples", "10"),
    ("simulate", "--model", "walk", "--n", "6", "--i", "2", "--k", "3", "--samples", "10"),
], ids=["moments", "simulate-uniform", "simulate-commutator", "simulate-walk"])
def test_orders_at_the_bound_are_accepted(capsys, argv):
    if argv[0] == "simulate":
        argv += ("--r-max", str(MAX_ORDER // 2), "--threads", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if argv[0] == "simulate":
        assert all(mpmath.isfinite(mpmath.mpf(row["z"])) for row in json.loads(out)["table"])


def test_mult_reads_its_stirling_columns_without_growing_the_table(capsys):
    # It cached every Stirling row up to r: 132 MB at r = 800 for n = 5.
    rows = len(laws._rows)
    code, out, err = run_cli(capsys, "mult", "--lambda", "3,2", "--r", "800")
    assert code == 0, err
    assert json.loads(out)["multiplicity"] == mult_oracle((3, 2), 800)
    assert len(laws._rows) == rows < 800


def test_mult_r_beyond_its_bound_exits_2(capsys):
    assert run_cli(capsys, "mult", "--lambda", "30", "--r", str(MAX_MULT_R))[0] == 0
    code, out, err = run_cli(capsys, "mult", "--lambda", "30", "--r", str(MAX_MULT_R + 1))
    assert (code, out) == (2, "")
    assert f"at most {MAX_MULT_R}" in err


def test_dist_walk_k_beyond_its_bound_exits_2_at_once():
    # --n 8 --i 2 --k 100000 ran for 20 s before failing to print its law.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = ["dist", "walk", "--n", "8", "--i", "2", "--k", "100000"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "permfix", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"--k must be at most {MAX_DIST_K}" in proc.stderr


def test_dist_walk_n_beyond_its_bound_exits_2(capsys):
    assert run_cli(capsys, "dist", "walk", "--n", str(MAX_DIST_N), "--i", "2", "--k", "1")[0] == 0
    code, out, err = run_cli(capsys, "dist", "walk", "--n", str(MAX_DIST_N + 1), "--i", "2",
                             "--k", "1")
    assert (code, out) == (2, "")
    assert f"--n must be at most {MAX_DIST_N}" in err


@pytest.mark.parametrize("x", [None, "1^40"], ids=["both-random", "fixed-x"])
def test_dist_commutator_prints_the_law_of_every_partition_of_40(x):
    # The fixed class of 40 fixed points is the slowest tried; its
    # commutator is the identity.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = ["dist", "commutator", "--n", "40", "--threads", "1"] + (["--x", x] if x else [])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "permfix", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    law = {row["fixed_points"]: as_fraction(row["probability"]) for row in report["table"]}
    assert as_fraction(report["total"]) == sum(law.values()) == 1
    if x:
        assert law == {40: 1}
    else:
        assert min(law.values()) > 0
        assert as_fraction(report["mean"]) == commutator_random_moments(40, 1)[1]


@pytest.mark.parametrize("i", range(2, 9))
def test_dist_walk_prints_its_law_at_the_largest_accepted_k(capsys, i):
    code, out, err = run_cli(capsys, "dist", "walk", "--n", "8", "--i", str(i),
                             "--k", str(MAX_DIST_K))
    assert code == 0, err
    report = json.loads(out)
    assert sum(as_fraction(row["probability"]) for row in report["table"]) == 1
    assert run_cli(capsys, "dist", "walk", "--n", "8", "--i", str(i),
                   "--k", str(MAX_DIST_K + 1))[0] == 2


@pytest.mark.parametrize("argv", [
    ("--model", "commutator"),
    ("--model", "commutator", "--x", f"1^{MAX_ROW_POINTS + 1}"),
    ("--model", "walk", "--i", "2", "--k", "1"),
])
def test_simulate_rows_beyond_the_bound_exit_2_before_any_work(capsys, argv):
    # n = 8 * 10^6 took 352 MB (commutator) and 207 MB (walk) for 2 samples.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--n", str(MAX_ROW_POINTS + 1),
                             "--samples", "2", "--threads", "1", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"need n <= {MAX_ROW_POINTS}" in err
