import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import mpmath as mp
import pytest

import qbinomial
from qbinomial.cli import _build_parser, _emit, _flag_table, _parse, main, parse_n_list, parse_theta
from qbinomial.distributions import Heine, KempBinomial, heine_mean, kb_moments
from qbinomial.qcalc import QBase, ScaledReal
from test_readme import COMMANDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestParsers:
    def test_theta_plain(self):
        q = QBase(0.5)
        assert parse_theta("1.5", q).to_float() == pytest.approx(1.5, rel=1e-15)

    def test_theta_literal(self):
        q = QBase(0.5)
        s = parse_theta("2*q^-10", q)
        assert s.to_float() == pytest.approx(2.0 * 2.0**10, rel=1e-13)
        assert parse_theta("1*q^-60.5", q).log_abs() == pytest.approx(
            60.5 * -q.log, rel=1e-14
        )
        assert parse_theta("2*q^(-10)", q) == s

    def test_n_list(self):
        assert parse_n_list("10,20,30") == [10, 20, 30]
        assert parse_n_list("2:8:3") == [2, 5, 8]
        assert parse_n_list("1,4:6") == [1, 4, 5, 6]
        with pytest.raises(ValueError):
            parse_n_list(" ")


class TestPmfCommand:
    def test_kb_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "2", "--theta", "1", "--q", "0.5"
        )
        assert code == 0
        rows = csv_rows(out)
        assert [r["x"] for r in rows] == ["0", "1", "2"]
        assert float(rows[0]["p"]) == pytest.approx(1 / 3, rel=1e-14)
        assert float(rows[1]["p"]) == pytest.approx(1 / 2, rel=1e-14)
        assert float(rows[2]["p"]) == pytest.approx(1 / 6, rel=1e-14)

    def test_kb_n_zero_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "0", "--theta", "1", "--q", "0.5"
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 1
        assert (rows[0]["x"], float(rows[0]["p"])) == ("0", 1.0)

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "2", "--theta", "1", "--q", "0.5"
        )
        assert "\r" not in out

    def test_exponential_theta_literal(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "30", "--theta", "2*q^-30",
            "--q", "0.5",
        )
        assert code == 0
        total = math.fsum(float(r["p"]) for r in csv_rows(out))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMomentsCommand:
    def test_kb(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--dist", "kb", "--n", "2", "--theta", "1", "--q", "0.5"
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["mean"]) == pytest.approx(5 / 6, rel=1e-13)
        assert float(row["variance"]) == pytest.approx(17 / 36, rel=1e-13)

    def test_heine_matches_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--dist", "heine", "--theta", "0.5", "--q", "0.5"
        )
        assert code == 0
        from qbinomial.distributions import Heine, heine_mean

        assert float(csv_rows(out)[0]["mean"]) == pytest.approx(
            heine_mean(Heine(0.5, QBase(0.5))), abs=1e-10
        )

    @pytest.mark.parametrize("theta, qv", [("0.5782", 0.3), ("2.2346", 0.7), ("0.9287", 0.5)])
    def test_heine_from_lattice_sums(self, capsys, theta, qv):
        code, out, _ = run_cli(capsys, "moments", "--dist", "heine", "--theta", theta, "--q", str(qv))
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["mean"]) == heine_mean(Heine(float(theta), QBase(qv)))
        with mp.workdps(40):
            p = [1 / (1 + 1 / (mp.mpf(float(theta)) * mp.mpf(qv) ** i)) for i in range(400)]
            mean, var = mp.fsum(p), mp.fsum(x * (1 - x) for x in p)
        assert float(row["mean"]) == pytest.approx(float(mean), rel=4 * 2.0**-52, abs=0.0)
        assert float(row["variance"]) == pytest.approx(float(var), rel=4 * 2.0**-52, abs=0.0)

    @pytest.mark.parametrize("alpha", ["4503599627370495.5", "12345678901.5", "1000000000000000.25"])
    def test_dnorm_far_from_zero(self, capsys, alpha):
        # against 40 digits from the weights q^((x - alpha)^2 / 2) at the exact float alpha
        code, out, _ = run_cli(capsys, "moments", "--dist", "dnorm", "--alpha", alpha, "--q", "0.5")
        assert code == 0
        row = csv_rows(out)[0]
        with mp.workdps(40):
            a, center = mp.mpf(float(alpha)), round(float(alpha))
            xs = range(center - 60, center + 61)
            w = [mp.mpf(0.5) ** ((x - a) ** 2 / 2) for x in xs]
            mean = mp.fsum(x * p for x, p in zip(xs, w)) / mp.fsum(w)
            var = mp.fsum((x - mean) ** 2 * p for x, p in zip(xs, w)) / mp.fsum(w)
        assert abs(mp.mpf(float(row["mean"])) - mean) <= math.ulp(float(mean)) / 2
        assert float(row["variance"]) == pytest.approx(float(var), rel=1e-15, abs=0.0)

    def test_dnorm_symmetric_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--dist", "dnorm", "--alpha", "0", "--q", "0.5"
        )
        assert code == 0
        assert float(csv_rows(out)[0]["mean"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB", ""])
    def test_memory_error_exits_1(self, capsys, monkeypatch, message):
        # q nearer 1 than 0.9999 can ask for an array of ~2/ln(1/q) terms; the
        # command is replaced, so nothing is allocated
        def out_of_memory(args):
            raise MemoryError(message)

        monkeypatch.setitem(qbinomial.cli._COMMANDS, "moments", out_of_memory)
        code, out, err = run_cli(
            capsys, "moments", "--dist", "kb", "--n", "1000000000", "--theta", "1",
            "--q", "0.999999999",
        )
        assert (code, out) == (1, "")
        assert err == f"numeric failure: {message or 'MemoryError'}\n"


class TestSampleCommand:
    def test_seeded_determinism(self, capsys):
        argv = [
            "--seed", "42", "sample", "--dist", "kb", "--n", "10",
            "--theta", "1.3", "--q", "0.6", "--count", "25",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_heine_inversion_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seed", "1", "sample", "--dist", "heine", "--theta", "0.5",
            "--q", "0.5", "--count", "10",
        )
        assert code == 0
        assert len(csv_rows(out)) == 10


class TestAsymCommand:
    def test_direct_comparison_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "asym", "--slope", "3/10", "--offset", "0.25", "--q", "0.5",
            "--n-list", "200,400",
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["abs_error"]) < 1e-12
            assert float(row["estimate"]) == pytest.approx(
                float(row["f"]) + float(row["c"]), rel=1e-15
            )


    def test_mu_direct_is_kb_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "asym", "--slope", "3/10", "--offset", "0.25",
            "--q", "0.5", "--n-list", "200:400:50",
        )
        assert code == 0
        q = QBase(0.5)
        for row in json.loads(out)["data"]:
            d = KempBinomial(row["n"], ScaledReal.from_q_power(-row["f"], q), q)
            assert row["mu_direct"] == kb_moments(d).mean


class TestLimitCommand:
    def test_beta_half(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--beta", "1/2", "--q", "0.5")
        assert code == 0
        rows = csv_rows(out)
        assert all(r["alpha"] == "0" for r in rows)
        total = math.fsum(float(r["p"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_beta_float(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--beta", "0.3", "--q", "0.5")
        assert code == 0
        assert float(csv_rows(out)[0]["alpha"]) == pytest.approx(0.8)

    @pytest.mark.parametrize("qv", ["0.05", "0.5", "0.9"])
    @pytest.mark.parametrize("beta", [0.5 - 1e-9, 0.5 - 1e-14, math.nextafter(0.5, 0.0)])
    def test_beta_just_below_half(self, capsys, beta, qv):
        code, out, _ = run_cli(capsys, "limit", "--beta", repr(beta), "--q", qv)
        assert code == 0
        assert {r["delta"] for r in csv_rows(out)} == {"0"}


class TestSolveThetaCommand:
    def test_mean_inversion(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-theta", "--n", "2", "--q", "0.5", "--mu", "0.833333333333"
        )
        assert code == 0
        assert float(csv_rows(out)[0]["theta"]) == pytest.approx(1.0, abs=1e-9)

    def test_limit_solve_without_n(self, capsys):
        code, out, _ = run_cli(capsys, "solve-theta", "--q", "0.5", "--mu", "1.0")
        assert code == 0
        assert float(csv_rows(out)[0]["theta"]) == pytest.approx(0.71425, abs=1e-4)

    def test_poisson_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-theta", "--n", "2", "--q", "0.5", "--lambda", "1.0"
        )
        assert code == 0
        assert float(csv_rows(out)[0]["theta"]) == 1.0

    def test_large_n(self, capsys):
        code, out, _ = run_cli(capsys, "solve-theta", "--n", "1500", "--q", "0.5", "--mu", "3")
        assert code == 0
        assert float(csv_rows(out)[0]["theta"]) == pytest.approx(4.96206219648585, rel=1e-13)

    def test_overflowing_theta_exits_1(self, capsys):
        # the root theta = 2^49999.5 has no binary64 value
        code, out, err = run_cli(
            capsys, "solve-theta", "--n", "100000", "--q", "0.5", "--mu", "50000"
        )
        assert code == 1 and out == ""
        assert "numeric failure" in err

    def test_requires_exactly_one_target(self, capsys):
        code, _, err = run_cli(capsys, "solve-theta", "--q", "0.5")
        assert code == 2
        assert "error" in err


class TestConvergeCommand:
    def test_degenerate_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--scenario", "degenerate", "--q", "0.5",
            "--fn", "sqrt", "--n-list", "400",
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert row["verdict"] == "pass"
        assert float(row["p0"]) >= 1 - 1e-5

    def test_poisson_coupling_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--scenario", "poisson-coupling", "--q", "0.5",
            "--lambda", "2", "--n-list", "10:100:10",
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 10
        assert float(rows[-1]["distance"]) < 1e-6

    def test_subexponential_rejects_mixed_beta(self, capsys):
        code, _, err = run_cli(
            capsys, "converge", "--scenario", "subexponential", "--q", "0.5",
            "--slope", "1/2", "--offset", "0.3", "--n-list", "10,11",
        )
        assert code == 2
        assert "constant" in err

    def test_constant_mean_failure_order(self, capsys):
        # theta(inf) overflows and the row n = 100 < 2 mu is unbracketed: the limit's error wins
        code, out, err = run_cli(
            capsys, "converge", "--scenario", "constant-mean", "--q", "0.5",
            "--mu", "1100", "--n-list", "100",
        )
        assert (code, out) == (1, "")
        assert "overflows binary64" in err

    def test_constant_mean_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--scenario", "constant-mean", "--q", "0.5",
            "--mu", "1", "--n-list", "5,10,20",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[-1]["verdict"] in ("pass", "fail")
        assert float(rows[-1]["residual"]) <= 1e-12

    def test_q_to_1_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--scenario", "q-to-1-binomial", "--q", "0.5",
            "--n", "10", "--theta", "1", "--q-list", "0.99,0.999,0.9999",
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 3
        assert float(rows[-1]["distance"]) <= 1e-3


class TestOutputContracts:
    def test_csv_json_value_agreement(self, capsys):
        pmf = ["pmf", "--dist", "kb", "--n", "6", "--theta", "1.7", "--q", "0.45"]
        converge = ["converge", "--scenario", "poisson-coupling", "--q", "0.5",
                    "--lambda", "2", "--n-list", "10,20,30"]
        for base in (pmf, converge):
            _, out_csv, _ = run_cli(capsys, *base)
            _, out_json, _ = run_cli(capsys, "--format", "json", *base)
            rows, data = csv_rows(out_csv), json.loads(out_json)["data"]
            assert len(rows) == len(data) > 0
            if base is converge:
                header = out_csv.splitlines()[0].split(",")
                assert header[:2] == ["n", "distance"]
                assert header[-2:] == ["threshold", "verdict"]
            for row, jrow in zip(rows, data):
                assert row.keys() == jrow.keys()
                for k, v in row.items():
                    assert v == jrow[k] if k == "verdict" else float(v) == jrow[k]

    def test_json_meta(self, capsys):
        _, out, _ = run_cli(
            capsys, "--format", "json", "--seed", "9", "sample", "--dist", "kb",
            "--n", "3", "--theta", "1", "--q", "0.5", "--count", "2",
        )
        doc = json.loads(out)
        assert doc["meta"]["subcommand"] == "sample"
        assert doc["meta"]["seed"] == 9
        assert doc["meta"]["params"]["dist"] == "kb"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run_cli(
            capsys, "--output", str(path), "pmf", "--dist", "kb", "--n", "2",
            "--theta", "1", "--q", "0.5",
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("x,p\n")

    def test_global_flags_after_subcommand(self, capsys):
        # the README's own example
        readme = ["sample", "--dist", "kb", "--n", "20", "--theta", "1.3", "--q", "0.6",
                  "--count", "1000", "--seed", "42"]
        code, out, _ = run_cli(capsys, *readme)
        assert code == 0
        assert len(csv_rows(out)) == 1000
        code, before, _ = run_cli(capsys, "--seed", "42", *readme[:-2])
        assert code == 0 and before == out

    def test_global_flag_before_subcommand_holds(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, out, _ = run_cli(
            capsys, "--format", "json", "--seed", "9", "sample", "--dist", "heine",
            "--theta", "0.5", "--q", "0.5", "--count", "3", "--output", str(path),
        )
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["meta"]["seed"] == 9 and len(doc["data"]) == 3

    def test_repeated_calls_share_no_flags(self, capsys):
        # the parser is built once; flags of one call must not reach the next
        sample = ["sample", "--dist", "kb", "--n", "5", "--theta", "1", "--q", "0.5", "--count", "3"]
        code, out, _ = run_cli(capsys, "--format", "json", "--seed", "7", *sample)
        assert code == 0 and json.loads(out)["meta"]["seed"] == 7
        code, out, _ = run_cli(capsys, *sample)
        assert code == 0 and out.startswith("index,value\n")
        args = vars(_build_parser()[0].parse_args(sample))
        assert "seed" not in args and "format" not in args
        assert run_cli(capsys, *sample, "--count", "x")[0] == 2
        code, out, _ = run_cli(capsys, *sample)
        assert code == 0 and len(csv_rows(out)) == 3

    @pytest.mark.parametrize("column", [[1, -2, 10**20], [True, False], [0.1, -0.0, 1e300, 5e-324],
                                        [math.nan, 1.5], [math.inf, -math.inf], ["pass", 'a "b", c'],
                                        [1, 2.5, True, "x", None], []],
                                 ids=["int", "bool", "finite", "nan", "inf", "str", "mixed", "empty"])
    def test_json_writer_is_json_dumps(self, column):
        args = argparse.Namespace(subcommand="pmf", format="json", q=0.5)
        constants = {"n": 7, "gap": math.nan, "threshold": 1e-6, "verdict": "pass"}
        meta = {"subcommand": "pmf", "params": {"q": 0.5}, "seed": None}
        rows = [{"x": v, **constants} for v in column]
        assert _emit(args, {"x": column, **constants}) == json.dumps({"meta": meta, "data": rows}) + "\n"

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "--format", "json", "--seed", "5", "converge", "--scenario",
            "exponential-reflection", "--q", "0.5", "--theta", "2",
            "--n-list", "10,20",
        ]
        _, a, _ = run_cli(capsys, *argv)
        _, b, _ = run_cli(capsys, *argv)
        assert a == b


_NEGATIVE_EXPONENT = [
    (["moments", "--dist", "dnorm", "--alpha", "-4e15", "--q", "0.9"], "--alpha"),
    (["converge", "--scenario", "subexponential", "--q", "0.5", "--slope", "1/2", "--offset", "-1e-3",
      "--n-list", "20:60:2"], "--offset"),
]


class TestExitCodes:
    def test_invalid_q(self, capsys):
        code, _, err = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "2", "--theta", "1", "--q", "1.5"
        )
        assert code == 2
        assert err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "2", "--theta", "1", "--q", "0.5",
            "--bogus", "1",
        )
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_negative_theta(self, capsys):
        code, _, _ = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "2", "--theta", "-1", "--q", "0.5"
        )
        assert code == 2

    @pytest.mark.parametrize("theta", ["2*q^(-3", "2*q^-3)"], ids=["open", "close"])
    def test_unbalanced_theta_literal(self, capsys, theta):
        code, out, err = run_cli(
            capsys, "pmf", "--dist", "kb", "--n", "5", "--theta", theta, "--q", "0.5"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_infinite_heine_theta(self, capsys):
        code, out, err = run_cli(
            capsys, "pmf", "--dist", "heine", "--theta", "inf", "--q", "0.5"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: theta")

    def test_negative_count(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--dist", "kb", "--n", "20", "--theta", "1.3", "--q", "0.6",
            "--count", "-3",
        )
        assert code == 2 and out == ""
        assert err == "error: count must be >= 0, got -3\n"

    def test_huge_dnorm_alpha(self, capsys):
        # |alpha| >= 2**52 has no fractional part left to centre the lattice on
        code, out, err = run_cli(
            capsys, "pmf", "--dist", "dnorm", "--alpha", "1e200", "--q", "0.5"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: alpha")

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "a-directory"])
    def test_unwritable_output(self, capsys, tmp_path, target):
        code, out, err = run_cli(
            capsys, "--output", str(tmp_path / target), "moments", "--dist", "kb", "--n", "5",
            "--theta", "1", "--q", "0.5",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["limit", "--beta", "1/0", "--q", "0.5"],
            ["asym", "--slope", "1/0", "--q", "0.5", "--n-list", "200"],
            ["converge", "--scenario", "subexponential", "--q", "0.5", "--slope", "1/0",
             "--n-list", "20:120:2"],
            ["converge", "--scenario", "degenerate", "--q", "0.5", "--fn", "1/0", "--n-list", "400"],
        ],
        ids=["limit-beta", "asym-slope", "converge-slope", "converge-fn"],
    )
    def test_zero_denominator_is_bad_input(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: zero denominator")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "exponential-reflection", "--theta", "0", "--n-list", "10:80:10"],
            ["--scenario", "q-to-1-binomial", "--n", "10", "--theta", "-1", "--q-list", "0.99"],
            ["--scenario", "poisson-coupling", "--lambda", "2", "--n-list", "10", "--threshold", "nan"],
            ["--scenario", "poisson-coupling", "--lambda", "2", "--n-list", "10", "--threshold", "-1"],
            ["--scenario", "subexponential", "--slope", "1/2", "--offset", "inf", "--n-list", "20:40:2"],
            ["--scenario", "constant-mean", "--mu", "inf", "--n-list", "10"],
        ],
        ids=["reflection-theta-0", "q-to-1-theta-negative", "threshold-nan", "threshold-negative",
             "subexponential-offset-inf", "constant-mean-mu-inf"],
    )
    def test_bad_sweep_parameter(self, capsys, argv):
        code, out, err = run_cli(capsys, "converge", "--q", "0.5", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_infinite_mu_is_bad_input(self, capsys):
        code, out, err = run_cli(capsys, "solve-theta", "--q", "0.5", "--mu", "inf")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv, flag", _NEGATIVE_EXPONENT, ids=["alpha", "offset"])
    def test_negative_exponent_in_equals_form(self, capsys, argv, flag):
        i = argv.index(flag)
        code, out, err = run_cli(capsys, *argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2 :])
        assert code == 0 and err == ""
        if flag == "--alpha":
            assert csv_rows(out)[0]["mean"] == "-4000000000000000"

    @pytest.mark.skipif(bool(argparse.ArgumentParser()._negative_number_matcher.match("-4e15")),
                        reason="this argparse reads -4e15 as a number")
    @pytest.mark.parametrize("argv, flag", _NEGATIVE_EXPONENT, ids=["alpha", "offset"])
    def test_negative_exponent_after_a_space(self, capsys, argv, flag):
        # argparse reads a value such as -4e15 as a flag; the README says to give it as --flag=value
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f": error: argument {flag}: expected one argument\n")


# usage texts as argparse writes them 80 columns wide (COLUMNS=80 below)
_USAGE = (
    "usage: qbinomial [-h] [--format {csv,json}] [--output OUTPUT] [--seed SEED]\n"
    "                 {pmf,moments,sample,asym,limit,solve-theta,converge} ...\n"
)
_MOMENTS_USAGE = (
    "usage: qbinomial moments [-h] [--format {csv,json}] [--output OUTPUT]\n"
    "                         [--seed SEED] --dist {kb,heine,dnorm} [--n N]\n"
    "                         [--theta THETA] [--alpha ALPHA] --q Q\n"
)
_DIST_OPTIONS = (
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --format {csv,json}   default: csv\n"
    "  --output OUTPUT       output file (default: stdout)\n"
    "  --seed SEED           64-bit RNG seed\n"
    "  --dist {kb,heine,dnorm}\n"
    "  --n N\n"
    "  --theta THETA         float or 'a*q^-b' literal\n"
    "  --alpha ALPHA\n"
    "  --q Q\n"
)
_HELP = _USAGE + (
    "\n"
    "Kemp q-binomial distribution toolkit: pmf tables, moments, sampling, mean\n"
    "asymptotics, limit laws, and convergence sweeps.\n"
    "\n"
    "positional arguments:\n"
    "  {pmf,moments,sample,asym,limit,solve-theta,converge}\n"
    "    pmf                 tabulate a pmf\n"
    "    moments             mean and variance\n"
    "    sample              seeded draws\n"
    "    asym                mean expansion vs direct sum\n"
    "    limit               constant-beta limit law lattice\n"
    "    solve-theta         invert the mean map\n"
    "    converge            convergence sweep for one theorem\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --format {csv,json}   default: csv\n"
    "  --output OUTPUT       output file (default: stdout)\n"
    "  --seed SEED           64-bit RNG seed\n"
)
_PMF_HELP = (
    "usage: qbinomial pmf [-h] [--format {csv,json}] [--output OUTPUT]\n"
    "                     [--seed SEED] --dist {kb,heine,dnorm} [--n N]\n"
    "                     [--theta THETA] [--alpha ALPHA] --q Q\n"
) + _DIST_OPTIONS
_CONVERGE_USAGE = (
    "usage: qbinomial converge [-h] [--format {csv,json}] [--output OUTPUT]\n"
    "                          [--seed SEED] --scenario\n"
    "                          {poisson-coupling,constant-mean,subexponential,exponential-reflection,degenerate,q-to-1-binomial}\n"
    "                          --q Q [--n-list N_LIST] [--lambda LAM] [--mu MU]\n"
    "                          [--theta THETA] [--slope SLOPE] [--offset OFFSET]\n"
    "                          [--fn FN] [--n N] [--q-list Q_LIST]\n"
    "                          [--threshold THRESHOLD]\n"
)
_MOMENTS = ["--dist", "kb", "--n", "20", "--theta", "1.3", "--q", "0.6"]
_SAMPLE = ["--dist", "heine", "--theta", "0.5", "--q", "0.5", "--count", "3"]
_MOMENTS_JSON = (
    '{"meta": {"subcommand": "moments", "params": {"dist": "kb", "n": 20, "theta": "1.3", "q": 0.6}, '
    '"seed": null}, "data": [{"mean": 1.923488406903602, "variance": 1.2278563064227987}]}\n'
)
_MOMENTS_CSV = "mean,variance\n1.923488406903602,1.2278563064227987\n"

_USAGE_CASES = {
    "no-command": ([], 2, "", _USAGE + "qbinomial: error: the following arguments are required: subcommand\n"),
    "unknown-command": (["nope"], 2, "", _USAGE + "qbinomial: error: argument subcommand: invalid choice: "
                        "'nope' (choose from 'pmf', 'moments', 'sample', 'asym', 'limit', 'solve-theta', "
                        "'converge')\n"),
    "help": (["-h"], 0, _HELP, ""),
    "long-help": (["--help"], 0, _HELP, ""),
    "help-after-global-flag": (["--format", "json", "--help"], 0, _HELP, ""),
    "command-help": (["pmf", "--help"], 0, _PMF_HELP, ""),
    "abbreviated-command-help": (["moments", "--he"], 0, _MOMENTS_USAGE + _DIST_OPTIONS, ""),
    "abbreviated-global-flag": (["--form", "json", "moments", *_MOMENTS], 0, _MOMENTS_JSON, ""),
    "bad-format-before-command": (["--format", "xml", "moments", *_MOMENTS], 2, "", _USAGE
                                  + "qbinomial: error: argument --format: invalid choice: 'xml' "
                                  "(choose from 'csv', 'json')\n"),
    "bad-seed-before-command": (["--seed", "x", "sample", *_SAMPLE], 2, "",
                                _USAGE + "qbinomial: error: argument --seed: invalid int value: 'x'\n"),
    "bad-format-after-command": (["moments", *_MOMENTS, "--format", "xml"], 2, "", _MOMENTS_USAGE
                                 + "qbinomial moments: error: argument --format: invalid choice: 'xml' "
                                 "(choose from 'csv', 'json')\n"),
    "leftover-flag": (["moments", *_MOMENTS, "--bogus", "1"], 2, "",
                      _USAGE + "qbinomial: error: unrecognized arguments: --bogus 1\n"),
    "leftover-word": (["moments", *_MOMENTS, "extra"], 2, "",
                      _USAGE + "qbinomial: error: unrecognized arguments: extra\n"),
    "missing-required": (["moments", "--dist", "kb"], 2, "", _MOMENTS_USAGE
                         + "qbinomial moments: error: the following arguments are required: --q\n"),
    "bad-scenario": (["converge", "--scenario", "nope", "--q", "0.5"], 2, "", _CONVERGE_USAGE
                     + "qbinomial converge: error: argument --scenario: invalid choice: 'nope' (choose from "
                     "'poisson-coupling', 'constant-mean', 'subexponential', 'exponential-reflection', "
                     "'degenerate', 'q-to-1-binomial')\n"),
    "global-flag-lacks-value": (["--format"], 2, "",
                                _USAGE + "qbinomial: error: argument --format: expected one argument\n"),
    # --s is ambiguous to converge's own parser (--scenario, --seed, --slope), not to the top-level one
    "flag-as-global-value": (["--output", "--s", "converge", "--scenario", "degenerate", "--q", "0.5"], 2, "",
                             _USAGE + "qbinomial: error: argument --output: expected one argument\n"),
    "negative-seed-before-command": (["--seed", "-5", "sample", *_SAMPLE], 2, "",
                                     "error: seed must be >= 0, got -5\n"),
    "equals-form": (["--format=json", "moments", *_MOMENTS], 0, _MOMENTS_JSON, ""),
    "repeated-format-json-last": (["--format", "csv", "moments", *_MOMENTS, "--format", "json"], 0,
                                  _MOMENTS_JSON, ""),
    "repeated-format-csv-last": (["--format", "json", "moments", *_MOMENTS, "--format", "csv"], 0,
                                 _MOMENTS_CSV, ""),
    "output-named-like-a-command": (["--output", "pmf", "moments", *_MOMENTS], 0, "", ""),
    # forms the flag table leaves to argparse
    "equals-form-after-command": (["moments", *_MOMENTS[:-2], "--q=0.6"], 0, _MOMENTS_CSV, ""),
    "abbreviated-command-flag": (["moments", *_MOMENTS[:4], "--thet", *_MOMENTS[5:]], 0, _MOMENTS_CSV, ""),
    "help-after-command-flags": (["moments", *_MOMENTS, "-h"], 0, _MOMENTS_USAGE + _DIST_OPTIONS, ""),
    "odd-token-count": (["moments", *_MOMENTS, "--n"], 2, "", _MOMENTS_USAGE
                        + "qbinomial moments: error: argument --n: expected one argument\n"),
    "unknown-flag-first": (["moments", "--bogus", "1", *_MOMENTS], 2, "",
                           _USAGE + "qbinomial: error: unrecognized arguments: --bogus 1\n"),
    "bad-int": (["moments", *_MOMENTS[:3], "x", *_MOMENTS[4:]], 2, "", _MOMENTS_USAGE
                + "qbinomial moments: error: argument --n: invalid int value: 'x'\n"),
    "bad-dist": (["moments", "--dist", "foo", *_MOMENTS[2:]], 2, "", _MOMENTS_USAGE
                 + "qbinomial moments: error: argument --dist: invalid choice: 'foo' "
                 "(choose from 'kb', 'heine', 'dnorm')\n"),
    "missing-q": (["moments", *_MOMENTS[:-2]], 2, "", _MOMENTS_USAGE
                  + "qbinomial moments: error: the following arguments are required: --q\n"),
}


@pytest.mark.parametrize("case", list(_USAGE_CASES))
def test_usage_text_and_exit_code(capsys, monkeypatch, tmp_path, case):
    # help, usage errors and documents, byte for byte; the top-level parser reports what it always has
    argv, code, out, err = _USAGE_CASES[case]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (code, out, err)
    if case == "output-named-like-a-command":
        assert (tmp_path / "pmf").read_text() == _MOMENTS_CSV


_GLOBAL_DESTS = ("format", "output", "seed")
_GLOBAL_FLAGS = {"csv": ["--format", "csv", "--output", "out.csv"], "json": ["--format", "json", "--seed", "7"]}


def _placements(argv: list) -> dict:
    """argv as the README gives it, and with global flags before, after, and on both sides of it."""
    out = {"bare": argv}
    for fmt, flags in _GLOBAL_FLAGS.items():
        out |= {f"{fmt}-before": [*flags, *argv], f"{fmt}-after": [*argv, *flags]}
    return out | {"both": [*_GLOBAL_FLAGS["json"], *argv, *_GLOBAL_FLAGS["csv"]]}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_flag_table_reads_what_argparse_reads(monkeypatch, argv):
    parser = _build_parser()[0]
    for name, request in _placements(argv).items():
        want = parser.parse_args(request)
        with monkeypatch.context() as m:  # the request must not reach argparse
            m.setattr(parser, "parse_args", lambda *a, **k: pytest.fail(f"{name}: argparse parsed it"))
            got = _parse(request)
        assert got == want, name
        # the keys _emit writes to JSON's params come in argparse's order
        params = [[k for k in vars(ns) if k not in _GLOBAL_DESTS] for ns in (got, want)]
        assert params[0] == params[1], name


def test_flag_table_covers_every_flag():
    # a flag the table leaves out would send every request that gives it to argparse
    for name, sub in _build_parser()[1].items():
        options, required, defaults = _flag_table(sub)
        assert {s for a in sub._actions for s in a.option_strings} - set(options) == {"-h", "--help"}, name
        assert required == {a for a in sub._actions if a.required}, name
        assert not any(isinstance(v, str) for v in defaults.values()), name  # argparse would convert it


def test_console_entry_point_runs():
    # the child imports the package under test, also when only pytest's pythonpath finds it
    src = os.path.dirname(os.path.dirname(qbinomial.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qbinomial.cli", "pmf", "--dist", "kb", "--n", "2",
         "--theta", "1", "--q", "0.5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,p\n")
