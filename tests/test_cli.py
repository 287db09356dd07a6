import json
from fractions import Fraction

import mpmath
import pytest

from permfix.cli import MAX_CELLS_BELOW_FIRST_ROW, main, parse_parts
from permfix.errors import SizeMismatchError, ValidationError
from permfix.moments import moment_commutator_fixed_closed


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
    assert report["schema_version"] == 2
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
    assert report["schema_version"] == 2
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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["mult", "--nope"])
    assert excinfo.value.code == 2


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
    import permfix.cli as cli_mod

    monkeypatch.setattr(cli_mod, "mult_updown", lambda lam, r: 999)
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


def test_non_integer_permfix_threads_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PERMFIX_THREADS", "abc")
    argv = ("simulate", "--model", "uniform", "--n", "5", "--samples", "100")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "PERMFIX_THREADS must be an integer" in err
    # An explicit --threads never reads the variable.
    code, _, err = run_cli(capsys, *argv, "--threads", "1")
    assert code == 0, err


def test_simulate_report_carries_the_stream_version(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "uniform", "--n", "5", "--samples", "100", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["stream_version"] == 2


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
    "argv", (["mult", "--r", "1"], ["ratio", "--i", "2"]), ids=("mult", "ratio")
)
def test_lambda_cells_below_the_first_row_are_capped(capsys, argv):
    # A column of limit + 1 cells has exactly the limit below its first row.
    at_limit = f"1^{MAX_CELLS_BELOW_FIRST_ROW + 1}"
    code, out, _ = run_cli(capsys, *argv, "--lambda", at_limit)
    assert code == 0
    assert json.loads(out)["schema_version"] == 2
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
