import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import crankparity
from crankparity import circle, cranks, distinct, fivetower, partitions, series
from crankparity.cli import build_parser, main

SRC = str(Path(crankparity.__file__).resolve().parent.parent)


def cli_env(**extra):
    """The environment of a fresh ``python -m crankparity`` process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "CRANK_PARITY_"))}
    env.update(PYTHONPATH=SRC, **extra)
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRunConfig:
    """The global options, which the parser alone defaults and bounds."""

    def test_defaults(self):
        args = build_parser().parse_args(["coeffs", "1", "2"])
        assert (args.terms, args.precision_bits, args.oracle_max,
                args.output, args.parallel) == (None, 128, 60, "text", False)

    def test_limits(self, capsys):
        for option, value in [("--terms", "4"), ("--precision-bits", "32"),
                              ("--oracle-max", "91")]:
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args([option, value, "coeffs", "1", "2"])
            assert err.value.code == 2
            assert (f"argument {option}: expected an integer"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ("--terms", "8"),
        ("--precision-bits", "53"),
        ("--oracle-max", "1"),
        ("--oracle-max", "90"),
    ])
    def test_boundary_values_parse(self, argv):
        args = build_parser().parse_args([*argv, "coeffs", "1", "2"])
        assert getattr(args, argv[0][2:].replace("-", "_")) == int(argv[1])

    @pytest.mark.parametrize("argv, want", [
        (("--terms", "7"), "--terms: expected an integer >= 8, got '7'"),
        (("--precision-bits", "52"),
         "--precision-bits: expected an integer >= 53, got '52'"),
        (("--oracle-max", "0"),
         "--oracle-max: expected an integer in 1..90, got '0'"),
        (("--oracle-max", "91"),
         "--oracle-max: expected an integer in 1..90, got '91'"),
        (("--terms", "8.0"), "--terms: expected an integer >= 8, got '8.0'"),
        (("--terms", "-8"), "--terms: expected an integer >= 8, got '-8'"),
    ])
    def test_out_of_range_is_refused_by_parser(self, capsys, argv, want):
        with pytest.raises(SystemExit) as err:
            main([*argv, "coeffs", "1", "2"])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("crank-parity: error:")]
        assert errors == [f"crank-parity: error: argument {want}"]
        assert captured.err.startswith("usage: crank-parity")
        assert "Traceback" not in captured.err


def test_readme_commands_parse():
    # parse only, run nothing: a renamed flag or check breaks this test
    # instead of the README's command block
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line.split("#", 1)[0].split()
             for line in block.split("```", 1)[0].splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["crank-parity"]]
    assert len(commands) >= 10
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")


@pytest.mark.parametrize("argv, message", [
    (("coeffs", "-1", "3"), "coeffs: need 0 <= N_LO <= N_HI"),
    (("coeffs", "5", "1"), "coeffs: need 0 <= N_LO <= N_HI"),
    (("asymptotic", "0", "3"), "asymptotic: need 1 <= N_LO <= N_HI"),
    (("distinct", "3", "1"), "distinct: need 1 <= N_LO <= N_HI"),
])
def test_empty_or_negative_range_is_refused(argv, message):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == message


class TestCoeffs:
    def test_table_with_anomaly_flag(self, capsys):
        code, out = run_cli(capsys, "--terms", "50", "coeffs", "1", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split() == ["1", "-3", "-1", "anomaly"]
        assert lines[2].split() == ["2", "2", "2", "match"]
        assert lines[4].split() == ["4", "5", "5", "match"]

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "--terms", "50", "--output", "json",
                            "coeffs", "2", "3")
        payload = json.loads(out)
        assert payload["schema"] == "crank-parity/1"
        assert payload["rows"][0]["series"] == "2"

    def test_truncation_hint(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--terms", "10", "coeffs", "1", "50", "--source", "series"])
        assert "--terms at least 51" in str(err.value)

    def test_builds_to_n_hi_without_terms(self, capsys, monkeypatch):
        # no --terms: the series is built to N_HI alone, so no N_HI is too
        # large for it
        monkeypatch.delenv("CRANK_PARITY_CACHE_DIR", raising=False)
        monkeypatch.setattr(series, "_memo", {})
        code, out = run_cli(capsys, "coeffs", "0", "2500", "--source",
                            "series")
        assert (code, len(out.splitlines())) == (0, 2502)
        assert series._memo["crank"].trunc == 2501

    def test_oracle_cap(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["coeffs", "1", "80"])
        assert "oracle" in str(err.value)


class TestVerify:
    def test_family_alpha1(self, capsys):
        code, out = run_cli(capsys, "--output", "json", "verify", "family",
                            "--alpha", "1")
        payload = json.loads(out)
        assert code == 0 and payload["passed"] and payload["count"] == 80

    def test_family_text(self, capsys):
        code, out = run_cli(capsys, "verify", "family", "--n-max", "500")
        assert code == 0 and out.startswith("PASS family")

    def test_ramatype(self, capsys):
        code, out = run_cli(capsys, "--terms", "200", "verify", "ramatype")
        assert code == 0 and "PASS" in out

    def test_chan_and_combproof(self, capsys):
        code, _ = run_cli(capsys, "--terms", "120", "verify", "chan")
        assert code == 0
        code, _ = run_cli(capsys, "--terms", "120", "verify", "combproof")
        assert code == 0

    def test_informative_and_watson(self, capsys):
        code, _ = run_cli(capsys, "--terms", "300", "verify", "informative")
        assert code == 0
        code, _ = run_cli(capsys, "--terms", "300", "verify",
                          "watson-whipple")
        assert code == 0

    def test_weighted(self, capsys):
        code, out = run_cli(capsys, "verify", "weighted", "--n-max", "15")
        assert code == 0 and "15 cases" in out

    def test_adh(self, capsys):
        code, out = run_cli(capsys, "verify", "adh", "--n-max", "40")
        assert code == 0 and "PASS" in out

    def test_ladder_and_claim(self, capsys):
        code, _ = run_cli(capsys, "verify", "ladder", "--alpha-max", "2")
        assert code == 0
        code, _ = run_cli(capsys, "verify", "claimL", "--alpha", "1")
        assert code == 0

    def test_claim_l_defaults_to_alpha_0(self, capsys, monkeypatch):
        from crankparity import cli
        real = cli._SIMPLE_CHECKS["claimL"]
        seen = []

        def spy(alpha, terms):
            seen.append(alpha)
            return real(alpha, terms)

        monkeypatch.setitem(cli._SIMPLE_CHECKS, "claimL", spy)
        code, out = run_cli(capsys, "verify", "claimL")
        assert (code, seen) == (0, [0])
        assert out == "PASS claimL: 40 cases\n"

    def test_claim_l_json_names_its_level(self, capsys):
        # text and csv stay as they were; the json says which level ran
        outs = [run_cli(capsys, "--output", "json", "verify", "claimL",
                        "--alpha", alpha) for alpha in ("1", "2")]
        assert outs[0] != outs[1]
        for (code, out), alpha in zip(outs, (1, 2)):
            assert code == 0
            assert json.loads(out)["detail"] == {"alpha": alpha}

    def test_unknown_check_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    @pytest.mark.parametrize("argv", [
        ("verify", "ladder", "--alpha-max", "4"),
        ("verify", "claimL", "--alpha", "3"),
        ("verify", "ladder", "--alpha-max", "3"),  # refused, not run
        ("ladder", "--alpha-max", "3"),
    ])
    def test_over_budget_is_one_stderr_line(self, capsys, monkeypatch,
                                            argv):
        # refused on E's length, before E or the matrices are built
        monkeypatch.setattr(cranks, "eta_5n4_series", None)
        monkeypatch.setattr(fivetower, "ladder_vectors", None)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("crank-parity: ")
        assert captured.err.count("\n") == 1
        assert captured.err.endswith(" coefficients of the 5n+4 eta quotient "
                                     "E, above the ceiling 40000\n")

    def test_failed_route_check_is_one_line(self, capsys, monkeypatch):
        # the Lambert sum off by one at q^28, where it is 0: the crank
        # series' route check raises AssertionError, printed as one stderr
        # line with no traceback
        real = cranks._lambert_sum
        monkeypatch.setattr(cranks, "_lambert_sum", lambda trunc: [
            c + (e == 28) for e, c in enumerate(real(trunc))])
        monkeypatch.setattr(series, "_memo", {})
        code = main(["--terms", "100", "verify", "ramatype"])
        assert (code, *capsys.readouterr()) == (1, "", "crank-parity: "
            "crank-parity series routes disagree; series arithmetic is "
            "broken: first at q^28: G*(q;q)_inf has 0, the Lambert sum 1\n")

    @pytest.mark.parametrize("argv, first", [
        (("--alpha", "3"), 61849),
        (("--alpha", "2", "--n-max", "500"), 2474),
        (("--alpha", "1", "--n-max", "20"), 99),
    ])
    def test_family_with_no_case_is_refused(self, argv, first):
        proc = subprocess.run(
            [sys.executable, "-m", "crankparity", "verify", "family", *argv],
            capture_output=True, text=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("verify family: no n <= ")
        assert proc.stderr.endswith(
            f"raise --n-max to at least {first}\n")

    @pytest.mark.parametrize("argv, alpha, n_max", [
        (("--alpha", "3"), 3, 10_000),
        (("--alpha", "2", "--n-max", "500"), 2, 500),
        (("--alpha", "1", "--n-max", "20"), 1, 20),
    ])
    def test_family_refusal_is_the_sweeps_error(self, argv, alpha, n_max):
        # the cases above: the CLI prints the sweep's one refusal after its
        # prefix, with no check of its own
        with pytest.raises(ValueError) as refused:
            cranks.verify_family_congruence(alpha, n_max)
        proc = subprocess.run(
            [sys.executable, "-m", "crankparity", "verify", "family", *argv],
            capture_output=True, text=True, env=cli_env(), timeout=60)
        assert proc.stderr == f"verify family: {refused.value}\n"

    def test_family_with_one_case_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "family", "--alpha", "2",
                            "--n-max", "2474")
        assert (code, out) == (0, "PASS family: 1 cases\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "family", "--alpha", "-1"),
        ("verify", "claimL", "--alpha", "-1"),
        ("verify", "ladder", "--alpha-max", "-1"),
        ("ladder", "--alpha-max", "-1"),
        ("ladder", "--imax", "-3"),
        ("ladder", "--imax", "x"),
        ("verify", "adh", "--n-max", "-3"),
        ("verify", "family", "--n-max", "-5"),
        ("verify", "weighted", "--n-max", "-2"),
    ])
    def test_negative_depth_rejected_by_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert "expected an integer >= 0" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("check", ["adh", "weighted"])
    def test_n_max_past_oracle_cap_is_refused(self, check):
        # as coeffs 1 80 does: one stderr line, exit 1, nothing on stdout
        proc = subprocess.run(
            [sys.executable, "-m", "crankparity", "verify", check,
             "--n-max", "200"],
            capture_output=True, text=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"verify {check}: oracle sweep capped at 60; lower --n-max or "
            "raise --oracle-max (hard limit 90)\n")

    @pytest.mark.parametrize("check", ["adh", "weighted"])
    def test_n_max_zero_is_refused(self, check):
        # an empty sweep is not a pass: refused before any work
        proc = subprocess.run(
            [sys.executable, "-m", "crankparity", "verify", check,
             "--n-max", "0"],
            capture_output=True, text=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"verify {check}: --n-max 0 checks no n; raise --n-max to at "
            "least 1\n")

    def test_default_n_max_stays_under_oracle_cap(self, capsys):
        code, out = run_cli(capsys, "--oracle-max", "12", "verify",
                            "weighted")
        assert (code, out) == (0, "PASS weighted: 12 cases\n")

    def test_failed_check_is_reported(self, capsys, corrupt):
        # one coefficient off by one (at q^99, see conftest) in the real
        # crank series, E (where it stands for the crank coefficient at
        # q^99) and closed form: each failing series check names the first
        # exponent that disagrees and both sides there, as one string
        corrupt("crank")
        corrupt("E")
        corrupt("closed form")
        for argv, check, count, first, detail in [
            (("--terms", "120", "verify", "chan"), "chan", 120,
             "q^99: -17425 != -17424", ""),
            (("--terms", "120", "verify", "informative"), "informative", 120,
             "q^99: 2 != 3", ""),
            (("verify", "claimL"), "claimL", 40, "q^20: -9830 != -9829",
             '  "detail": {\n    "alpha": 0\n  },\n'),
        ]:
            assert run_cli(capsys, *argv) == (
                1, f"FAIL {check}: {count} cases (first counterexample: "
                   f"{first})\n")
            assert run_cli(capsys, "--output", "csv", *argv) == (
                1, "check,passed,count,first_counterexample\r\n"
                   f"{check},False,{count},{first}\r\n")
            assert run_cli(capsys, "--output", "json", *argv) == (
                1, "{\n"
                   '  "schema": "crank-parity/1",\n'
                   f'  "check": "{check}",\n'
                   '  "passed": false,\n'
                   f'  "count": {count},\n'
                   f"{detail}"
                   f'  "first_counterexample": "{first}"\n'
                   "}\n")

    def test_failed_ladder_is_reported(self, capsys, monkeypatch):
        # the real ladder to alpha 1, with L_3's coefficient of G^2 set to
        # 5: 5-adic valuation 1 where the bound for L_3 asks 2
        real = fivetower.ladder

        def ladder(alpha_max):
            rungs = real(alpha_max)
            return {**rungs, 3: {**rungs[3], 2: 5}}

        monkeypatch.setattr(fivetower, "ladder", ladder)
        argv = ("verify", "ladder", "--alpha-max", "1")
        first = "L_3 G^2: 5-adic valuation 1 < 2"
        assert run_cli(capsys, *argv) == (
            1, f"FAIL ladder: 3 cases (first counterexample: {first})\n")
        assert run_cli(capsys, "--output", "csv", *argv) == (
            1, "check,passed,count,first_counterexample\r\n"
               f"ladder,False,3,{first}\r\n")
        assert run_cli(capsys, "--output", "json", *argv) == (
            1, "{\n"
               '  "schema": "crank-parity/1",\n'
               '  "check": "ladder",\n'
               '  "passed": false,\n'
               '  "count": 3,\n'
               f'  "first_counterexample": "{first}"\n'
               "}\n")

    def test_failed_family_is_reported(self, capsys, corrupt):
        # the crank series off by one at q^99 (see conftest), the 20th of
        # the 24 n == 4 (mod 5) below 120; json adds the report's detail
        corrupt("crank")
        argv = ("verify", "family", "--n-max", "120")
        assert run_cli(capsys, *argv) == (
            1, "FAIL family: 24 cases (first counterexample: 99)\n")
        assert run_cli(capsys, "--output", "csv", *argv) == (
            1, "check,passed,count,first_counterexample\r\n"
               "family,False,24,99\r\n")
        assert run_cli(capsys, "--output", "json", *argv) == (
            1, "{\n"
               '  "schema": "crank-parity/1",\n'
               '  "check": "family",\n'
               '  "passed": false,\n'
               '  "count": 24,\n'
               '  "detail": {\n'
               '    "alpha": 0,\n'
               '    "modulus": 5,\n'
               '    "count": 24,\n'
               '    "failures": [\n'
               "      99\n"
               "    ]\n"
               "  },\n"
               '  "first_counterexample": 99\n'
               "}\n")

    @pytest.mark.parametrize("check, module, name", [
        ("adh", distinct, "multiplicative_t"),
        ("weighted", partitions, "omega_weights_agree"),
    ])
    def test_failed_oracle_sweep_is_reported(self, capsys, monkeypatch,
                                             check, module, name):
        # the real check, made to fail at n = 7 alone
        real = getattr(module, name)
        if check == "adh":
            def failing(n, values=None):
                return real(n, values) + (n == 7)
        else:
            def failing(n):
                return n != 7 and real(n)
        monkeypatch.setattr(module, name, failing)
        argv = ("verify", check, "--n-max", "20")
        assert run_cli(capsys, *argv) == (
            1, f"FAIL {check}: 20 cases (first counterexample: 7)\n")
        assert run_cli(capsys, "--output", "csv", *argv) == (
            1, "check,passed,count,first_counterexample\r\n"
               f"{check},False,20,7\r\n")
        assert run_cli(capsys, "--output", "json", *argv) == (
            1, "{\n"
               '  "schema": "crank-parity/1",\n'
               f'  "check": "{check}",\n'
               '  "passed": false,\n'
               '  "count": 20,\n'
               '  "first_counterexample": 7\n'
               "}\n")

    def test_sweep_stops_at_the_first_failure(self, capsys, monkeypatch):
        real_totals = partitions.omega_totals
        real_agree = partitions.omega_weights_agree
        totals = []

        def spy(n):
            totals.append(n)
            return real_totals(n)

        monkeypatch.setattr(partitions, "omega_totals", spy)
        monkeypatch.setattr(partitions, "omega_weights_agree",
                            lambda n: n != 2 and real_agree(n))
        assert run_cli(capsys, "verify", "weighted", "--n-max", "15") == (
            1, "FAIL weighted: 15 cases (first counterexample: 2)\n")
        assert len(totals) <= 2


def fault_line(capsys, argv) -> str:
    """The one stderr line of a command that hits a fault: exit status 1,
    nothing on stdout, no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("crank-parity: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


class TestFaults:
    """A check the package runs on series it built itself fails: the
    command prints one stderr line and exits 1, as for every fault."""

    @pytest.mark.parametrize("argv", [
        ("verify", "ladder"),
        ("verify", "claimL", "--alpha", "1"),
        ("ladder", "--alpha-max", "1", "--imax", "20"),
    ])
    def test_tower_fault_is_one_line(self, capsys, monkeypatch, fresh_tower,
                                     argv):
        # every sign of Jacobi's cube terms flipped, so G is no hauptmodul:
        # the series rows fail their reduction
        exact = series._cube_terms
        monkeypatch.setattr(series, "_cube_terms", lambda d, trunc: (
            (e, -c) for e, c in exact(d, trunc)))
        err = fault_line(capsys, argv)
        assert err == ("crank-parity: nonzero residual starting at q^6: "
                       "-427696 != 0, not a hauptmodul polynomial on [1, 5] "
                       "(or truncation too small)\n")

    def test_circle_fault_is_one_line(self, capsys, monkeypatch):
        # s(h,k) off by 1/(6k) moves every M_h by one: no pair conjugates
        honest = circle.dedekind_sum
        monkeypatch.setattr(circle, "dedekind_sum",
                            lambda h, k: honest(h, k) + Fraction(1, 6 * k))
        memos = (circle._arc_angles, circle._kloosterman_residue)
        for memo in memos:
            memo.cache_clear()
        try:
            err = fault_line(capsys, ("asymptotic", "1", "5"))
        finally:
            for memo in memos:
                memo.cache_clear()
        assert err == ("crank-parity: B_1: the terms h = 1 and h = 1 are not "
                       "conjugate: M = 1 and 1 (mod 24)\n")

    def test_main_catches_every_exception_class(self):
        # a class main does not catch would reach the user as a traceback
        package = Path(crankparity.__file__).resolve().parent
        defined, caught = set(), set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and any(
                        ast.unparse(base).endswith(("Error", "Exception"))
                        for base in node.bases):
                    defined.add(node.name)
                elif isinstance(node, ast.FunctionDef) \
                        and node.name == "main" and path.name == "cli.py":
                    caught = {ast.unparse(name).rpartition(".")[2]
                              for handler in ast.walk(node)
                              if isinstance(handler, ast.ExceptHandler)
                              for name in getattr(handler.type, "elts",
                                                  [handler.type])}
        assert defined == {"BudgetExceededError", "TruncationError"}
        assert defined | {"AssertionError"} <= caught


class TestOutputFormats:
    def test_verify_csv(self, capsys):
        code, out = run_cli(capsys, "--output", "csv", "verify", "claimL")
        assert (code, out) == (0, "check,passed,count,first_counterexample"
                                  "\r\nclaimL,True,40,\r\n")

    def test_asymptotic_text_is_csv(self, capsys):
        _, text = run_cli(capsys, "asymptotic", "3", "5")
        _, as_csv = run_cli(capsys, "--output", "csv", "asymptotic", "3", "5")
        assert text == as_csv and text.startswith("n,exact,main,")

    def test_ladder_text_is_json(self, capsys):
        argv = ("ladder", "--alpha-max", "0", "--imax", "2")
        _, text = run_cli(capsys, *argv)
        _, as_json = run_cli(capsys, "--output", "json", *argv)
        _, as_csv = run_cli(capsys, "--output", "csv", *argv)
        assert text == as_json and list(json.loads(text)) == [
            "schema", "command", "alpha_max", "A", "B", "ladder"]
        assert as_csv.startswith("nu,j,entry,valuation\r\n0,0,1,0\r\n"
                                 "1,1,5,1\r\n")

    def test_rows_key_only_in_table_commands(self, capsys):
        _, out = run_cli(capsys, "--output", "json", "verify", "family",
                         "--n-max", "500")
        assert "rows" not in json.loads(out)
        _, out = run_cli(capsys, "--output", "json", "asymptotic", "3", "5")
        assert [r["n"] for r in json.loads(out)["rows"]] == ["3", "4", "5"]


class TestAsymptotic:
    def test_header_and_rows(self, capsys):
        code, out = run_cli(capsys, "asymptotic", "1", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "exact", "main", "abs_error", "bound", "pass"]
        assert len(rows) == 6
        assert all(r[5] == "true" for r in rows[1:])

    def test_bound_at_16(self, capsys):
        code, out = run_cli(capsys, "asymptotic", "16", "16")
        row = list(csv.reader(io.StringIO(out)))[1]
        assert row[4].startswith("388")

    @pytest.mark.parametrize("argv, digest", [
        (("asymptotic", "1", "40"),
         "2baeb5a92c6e71b55525b31ce71768a031cd7bf86e96878368cd83f57a28c20a"),
        (("--precision-bits", "64", "asymptotic", "1", "40"),
         "55dec9f227fb468a7bb582158a18c616294b1d91d1379feacb51faba63b70076"),
        (("--precision-bits", "200", "asymptotic", "1", "40"),
         "dcd76feaa60e826474b2ab2b9f86866d69dc2eea81f00b71a525b0612a7bf099"),
    ], ids=["128-bit", "64-bit", "200-bit"])
    def test_printed_digits_are_pinned(self, capsys, argv, digest):
        # the circle sums may be reorganised, never re-rounded
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_parallel_is_deterministic(self, capsys):
        _, seq = run_cli(capsys, "asymptotic", "3", "8")
        _, par = run_cli(capsys, "--parallel", "asymptotic", "3", "8")
        assert seq == par

    def test_parallel_fallback_is_reported(self, capsys, monkeypatch):
        def no_pool():
            raise OSError("no semaphores")

        _, seq = run_cli(capsys, "asymptotic", "3", "8")
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        code = main(["--parallel", "asymptotic", "3", "8"])
        captured = capsys.readouterr()
        assert code == 0 and captured.out == seq
        assert captured.err == ("crank-parity: no worker processes (no "
                                "semaphores); running sequentially\n")


class TestOracleSweepPins:
    """Oracle sweeps at sizes past the default cap; the enumeration may be
    reorganised, never its counts."""

    @pytest.mark.parametrize("argv, digest", [
        (("verify", "weighted", "--n-max", "45"),
         "5b8ce4d1959fa2580b22844dd89cdab5da2b369d9cc7ae0ede353a8eceefb28a"),
        (("--oracle-max", "75", "verify", "adh", "--n-max", "75"),
         "9f951db1ca74c704a9c8b842a32cffa65391f47d599230c850d4e051b02ae657"),
        (("--oracle-max", "90", "distinct", "1", "120"),
         "4070a6d221eb502e352af9a8ea60a57d01ff91a5694f19660cadaf77113f4af4"),
        (("--output", "json", "verify", "weighted"),
         "7289cab91a8ada34c118a958001bdc76e48d5c706f3da34209fcabb67c754ca3"),
    ], ids=["weighted-45", "adh-75", "distinct-120", "weighted-json"])
    def test_stdout_is_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDistinct:
    def test_rows(self, capsys):
        code, out = run_cli(capsys, "--output", "json", "distinct", "1", "8")
        payload = json.loads(out)
        assert code == 0
        by_n = {row["n"]: row for row in payload["rows"]}
        assert by_n[6]["value"] == 2 and by_n[6]["oracle"] == 2
        assert by_n[6]["case"] == "R(floor) even negative"
        assert by_n[2]["floor_term"] == 1 and by_n[2]["ceil_term"] == 0

    def test_split_mismatch_fails(self, capsys, monkeypatch):
        # the oracle column still agrees: only the printed split is wrong
        exact = distinct.ceil_part
        monkeypatch.setattr(distinct, "ceil_part",
                            lambda n: exact(n) + (n == 17))
        code, out = run_cli(capsys, "--output", "json", "distinct", "1", "30")
        rows = json.loads(out)["rows"]
        assert code == 1
        assert all(row["oracle"] == row["value"] for row in rows)
        assert [row["n"] for row in rows
                if row["floor_term"] + row["ceil_term"] != row["value"]] \
            == [17]


class TestLadderDump:
    @pytest.mark.parametrize("argv, digest", [
        (("ladder", "--alpha-max", "2", "--imax", "6"),
         "1fa56525ac584553fb3525de4f61a521185b296d00b706ed9a69e6ca81250e04"),
        (("--output", "csv", "ladder", "--alpha-max", "2", "--imax", "6"),
         "dda7f71c91fb64ecf5ca3e31579880488e64b7031748b40b21bf2a503deb2a73"),
        (("--output", "json", "verify", "ladder", "--alpha-max", "2"),
         "c4061dc1a5fca2aaf40dfd6a6753223e0dd1745681ba89af966b56cffe816c8e"),
        (("ladder", "--alpha-max", "0", "--imax", "2"),
         "079d79ccaa54c1cd51e202083123bdbffe9a5f9864a07ba349683c2363274889"),
        # rows past 6 come from the modular equation, not from the series
        (("ladder", "--alpha-max", "1", "--imax", "20"),
         "c5aaddf2313ffdf67dd542d2c7dff9bbdc93abd7396efa51b549870d705d14d4"),
        (("--output", "json", "ladder", "--alpha-max", "1", "--imax", "26"),
         "e1fc282bb2c6ac2fb5cee4b34886da2a6568f13197b54e58a732223ccb484294"),
    ])
    def test_stdout_is_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_payload(self, capsys):
        code, out = run_cli(capsys, "ladder", "--alpha-max", "1",
                            "--imax", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "crank-parity/1"
        assert payload["A"]["1"]["1"] == "11"
        rung1 = [r for r in payload["ladder"] if r["nu"] == 1][0]
        assert rung1["entries"] == {"1": "5"}
        assert rung1["valuations"] == {"1": 1}


class TestDumpSeries:
    @pytest.mark.parametrize("name, digest", [
        ("crank",
         "3193b77e1cb6f7d276326552bd47cebdec8a2f723a128bf4ab030adf95b52bf8"),
        ("rank",
         "c240ea8ef621bc9cdb5ae2600ab2dcbcef619cd64a89810758deb4ec5e8424f5"),
        ("partition",
         "e679577c97b2d72c891d2e9625e074025d8e96211451d582135ba5e0961752a9"),
        ("hauptmodul",
         "f3a8fd9f9ed940a51cf7757d902d6c01566a947bc1cb3dff8d4532093676f3a5"),
        ("multiplier",
         "fbfeec30702fc09c8b8908755a721b434e724900c513d36a80f4af153f9166b1"),
        ("eta_5n4",
         "641248e21035a3fe74fdf559ca39bffd670e7579edb33a4c8b9aa084a3633c19"),
    ])
    def test_stdout_is_pinned(self, capsys, name, digest):
        code, out = run_cli(capsys, "--terms", "40", "dump-series", name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_name_per_series(self, capsys):
        # the dump-series choices are the memoised series, by one name,
        # and argparse refuses any other
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        name = next(a for a in sub.choices["dump-series"]._actions
                    if a.dest == "name")
        assert sorted(series.SERIES) == name.choices == [
            "crank", "eta_5n4", "hauptmodul", "multiplier", "partition",
            "rank"]
        with pytest.raises(SystemExit) as err:
            main(["dump-series", "newton"])
        line = capsys.readouterr().err.splitlines()[-1]
        assert err.value.code == 2 and line.replace("'", "") == (
            "crank-parity dump-series: error: argument name: invalid "
            "choice: newton (choose from " + ", ".join(name.choices) + ")")

    @pytest.mark.parametrize("name", sorted(series.SERIES))
    def test_dump_writes_its_own_cache_file(self, capsys, tmp_path,
                                            monkeypatch, name):
        # the dump-series name is the cache file's name; the rank series
        # also writes the partition series its Watson check reads
        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(series, "_memo", {})
        code, _ = run_cli(capsys, "--terms", "40", "dump-series", name)
        assert code == 0
        want = ["partition.tsv", "rank.tsv"] if name == "rank" else [
            f"{name}.tsv"]
        assert sorted(os.listdir(tmp_path)) == want

    def test_eta_5n4_dump_is_the_crank_subsequence(self, capsys):
        _, crank = run_cli(capsys, "--terms", "200", "dump-series", "crank")
        _, eta = run_cli(capsys, "--terms", "40", "dump-series", "eta_5n4")
        c = dict(line.split("\t") for line in crank.splitlines())
        rows = [line.split("\t") for line in eta.splitlines()]
        assert len(rows) == 40
        assert all(v == c[str(5 * int(m) + 4)] for m, v in rows)

    def test_crank_dump(self, capsys):
        code, out = run_cli(capsys, "--terms", "12", "dump-series", "crank")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0\t1"
        assert lines[1] == "1\t-3"
        assert len(lines) == 12

    def test_cache_roundtrip(self, capsys, tmp_path, monkeypatch):
        written = []
        store = series._store

        def spy_store(path, x):
            written.append(os.path.basename(path))
            store(path, x)

        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(series, "_memo", {})  # built here, so written
        monkeypatch.setattr(series, "_store", spy_store)
        _, first = run_cli(capsys, "--terms", "40", "coeffs", "2", "6",
                           "--source", "series")
        assert os.listdir(tmp_path) == written == ["crank.tsv"]
        series._memo.clear()  # the second run reads the file back
        _, second = run_cli(capsys, "--terms", "40", "coeffs", "2", "6",
                            "--source", "series")
        assert first == second and written == ["crank.tsv"]

    def test_cut_cache_file_is_rebuilt(self, tmp_path):
        # a later run, in its own process, meets a file cut short by a crash
        env = cli_env(CRANK_PARITY_CACHE_DIR=str(tmp_path))

        def run():
            return subprocess.run(
                [sys.executable, "-m", "crankparity", "--terms", "40",
                 "coeffs", "37", "39", "--source", "series"],
                env=env, capture_output=True, text=True, timeout=120)

        cold = run()
        path = tmp_path / "crank.tsv"
        good = path.read_bytes()
        path.write_bytes(good[:-3])
        warm = run()
        assert (warm.returncode, warm.stdout) == (0, cold.stdout)
        assert warm.stdout.splitlines()[-1].split() == ["39", "-235"]
        assert warm.stderr.count("\n") == 1 and str(path) in warm.stderr
        assert path.read_bytes() == good

    def test_undecodable_cache_file_is_rebuilt(self, tmp_path):
        # the trailer vouches for a body that is no series dump (q^1 is
        # missing): the file takes the failed-check path, and stdout and
        # exit status are those of a run with no cache directory
        argv = [sys.executable, "-m", "crankparity", "--terms", "40",
                "coeffs", "1", "3", "--source", "series"]

        def run(cache_dir=None):
            extra = {} if cache_dir is None else {
                "CRANK_PARITY_CACHE_DIR": str(cache_dir)}
            return subprocess.run(argv, env=cli_env(**extra),
                                  capture_output=True, text=True,
                                  timeout=120)

        plain, fresh = run(), run(tmp_path / "fresh")
        path = tmp_path / "crank.tsv"
        body = b"0\t1\n2\t5\n"
        path.write_bytes(body + series._trailer(body))
        warm = run(tmp_path)
        assert (warm.returncode, warm.stdout) == (0, plain.stdout)
        assert warm.stderr == (
            f"crank-parity: cache file {path} failed its check; "
            "rebuilding\n")
        assert path.read_bytes() == (
            tmp_path / "fresh" / "crank.tsv").read_bytes()

    def test_one_file_per_series(self, tmp_path):
        # each series is built once, at its longest truncation, and kept in
        # <name>.tsv; the hauptmodul's shorter requests write nothing, and
        # the ladder reads E, not the crank series or the multiplier
        proc = subprocess.run(
            [sys.executable, "-m", "crankparity", "ladder", "--alpha-max",
             "1", "--imax", "20"],
            env=cli_env(CRANK_PARITY_CACHE_DIR=str(tmp_path)),
            capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert sorted(os.listdir(tmp_path)) == [
            "eta_5n4.tsv", "hauptmodul.tsv"]

    @pytest.mark.parametrize("case", ["under a file", "file is a directory"])
    def test_unusable_cache_costs_the_cache(self, tmp_path, case):
        # the file system refuses the write (a directory under a regular
        # file) or the read (a directory where the file should be): one
        # stderr line names the file and the error, and stdout and exit
        # status are those of a run with no cache directory
        if case == "under a file":
            (tmp_path / "plain").write_text("")
            cache_dir = tmp_path / "plain" / "x"
            error = "Not a directory"
        else:
            cache_dir = tmp_path
            (tmp_path / "crank.tsv").mkdir()
            error = "Is a directory"

        def run(**env):
            return subprocess.run(
                [sys.executable, "-m", "crankparity", "verify", "family",
                 "--alpha", "0"],
                env=cli_env(**env), capture_output=True, text=True,
                timeout=120)

        plain = run()
        proc = run(CRANK_PARITY_CACHE_DIR=str(cache_dir))
        assert (proc.returncode, proc.stdout) == (0, plain.stdout)
        path = cache_dir / "crank.tsv"
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"crank-parity: cache file {path} ")
        assert error in proc.stderr and "Traceback" not in proc.stderr


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("--terms", "50", "coeffs", "1", "12", "--source", "series"),
        ("--terms", "40", "dump-series", "crank"),
    ])
    def test_no_traceback_when_reader_is_gone(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "crankparity", *argv], env=cli_env(),
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("crank-parity:") <= 1


class TestImportContract:
    """Each public name has one import path, its own module, so importing
    the package loads nothing else and a command loads only what it runs."""

    @staticmethod
    def loaded(code):
        """The modules a fresh interpreter holds after running ``code``."""
        result = subprocess.run(
            [sys.executable, "-c",
             code + "\nimport sys\nprint(*sys.modules, file=sys.stderr)"],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return set(result.stderr.split())

    def test_package_import_loads_only_the_package(self):
        bare = self.loaded("")
        assert self.loaded("import crankparity") - bare == {"crankparity"}

    @pytest.mark.parametrize("argv, needs_mpmath", [
        (["--terms", "50", "dump-series", "crank"], False),
        (["distinct", "1", "10"], False),
        (["asymptotic", "1", "3"], True),
    ])
    def test_command_loads_only_what_it_runs(self, argv, needs_mpmath):
        mods = self.loaded(f"from crankparity.cli import main\nmain({argv!r})")
        assert ("mpmath" in mods) == needs_mpmath
        assert "concurrent.futures" not in mods
