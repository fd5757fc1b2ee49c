import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from carlitz import checks
from carlitz.cli import main
from carlitz.errors import FieldConstructionError, InvalidParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bg_command(capsys):
    code, out, _ = run_cli(capsys, "bg", "--q", "3", "--d", "2")
    assert code == 0
    assert "θ^3 + 2*θ + 1" in out
    assert "degree: 3" in out
    assert "degree_matches: True" in out
    assert "double_sum_matches: True" in out


def test_bg_takes_either_n_or_d(capsys):
    # --n and --d exclude each other, so that neither is dropped silently
    with pytest.raises(SystemExit) as exc:
        main(["bg", "--q", "3", "--n", "5", "--d", "2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "bg", "--q", "3")
    assert (code, out, err) == (2, "", "error: bg needs --n or --d\n")


def test_powsum_matches_worked_example(capsys):
    code, out, _ = run_cli(capsys, "powsum", "--q", "3", "--d", "1",
                           "--data", "t1:1")
    assert code == 0
    # (t1 - theta)/(theta - theta^3) in normalized coordinates
    assert "1/(θ^2 + 2) + (2/(θ^3 + 2*θ))*t1" in out


def test_powsum_star_flag(capsys):
    code, out, _ = run_cli(capsys, "powsum", "--q", "3", "--d", "1",
                           "--data", "1:2,1:1", "--star")
    assert code == 0
    assert "mode: star" in out


def test_partial_and_zeta(capsys):
    code, out, _ = run_cli(capsys, "partial", "--q", "3", "--d", "2",
                           "--data", "1:1")
    assert code == 0
    assert "(θ^3 + 2*θ + 2)/(θ^3 + 2*θ)" in out
    code, out, _ = run_cli(capsys, "zeta", "--q", "3", "--data", "1:1",
                           "--prec", "9")
    assert code == 0
    assert "θ^-9" in out


def test_bg_survey_csv(capsys):
    code, out, _ = run_cli(capsys, "bg-survey", "--q", "3", "--d", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("modulus,")
    assert len(lines) == 4  # header + three irreducible quadratics


def test_csv_only_for_tables(capsys):
    # partial prints one value, not a table: argparse rejects csv (exit 2)
    with pytest.raises(SystemExit) as exc:
        main(["partial", "--q", "3", "--d", "2", "--data", "1:1", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_skew_command(capsys):
    code, out, _ = run_cli(capsys, "skew", "--q", "3", "--d", "1", "--n", "1")
    assert code == 0
    assert "τ" in out


def test_verify_single_check_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm-formulas-2",
                           "--q", "4", "--d-max", "4")
    assert code == 0
    assert "thm-formulas-2" in out and "ok" in out


def test_verify_json_format(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--suite", "eq-e1", "--q", "3",
                         "--d-max", "2", "--format", "json",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["all_passed"] is True
    assert doc["checks"][0]["id"] == "eq-e1"


class _Flushed(io.StringIO):
    """A stdout that keeps what it held at its last flush."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


def test_verify_ndjson_flushes_each_record_before_the_next_check(monkeypatch):
    out = _Flushed()
    monkeypatch.setattr(sys, "stdout", out)
    seen = []  # the flushed lines when each check starts
    for cid in ("eq-e1", "eq-e2"):
        def runner(pool, params, real=checks.REGISTRY[cid].runner):
            seen.append(out.flushed.count("\n"))
            return real(pool, params)
        monkeypatch.setitem(checks.REGISTRY, cid,
                            checks.REGISTRY[cid]._replace(runner=runner))
    code = main(["verify", "--suite", "eq-e[12]", "--q", "3", "--d-max", "2",
                 "--format", "ndjson"])
    assert (code, seen) == (0, [0, 1])
    assert [json.loads(line)["id"] for line in out.getvalue().splitlines()] == [
        "eq-e1", "eq-e2"]


def test_verify_ndjson_lines_equal_the_suite_records(capsys, tmp_path):
    def strip(lines):
        return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                for line in lines]
    out_path = tmp_path / "report.ndjson"
    code, out, _ = run_cli(capsys, "verify", "--qs", "3", "--d-max", "2",
                           "--format", "ndjson", "--out", str(out_path))
    reports = checks.run_suite("all", qs=(3,), d_max=2)
    assert (code, out) == (checks.exit_code(reports), "")
    assert strip(out_path.read_text().splitlines()) == strip(
        checks.reports_to_ndjson(reports).splitlines())


def test_verify_ndjson_stops_quietly_when_the_reader_leaves():
    # the read end closes before the child writes its first record
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "carlitz.cli", "verify", "--suite", "eq-e*",
         "--q", "3", "--d-max", "2", "--format", "ndjson"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


@pytest.mark.parametrize("qs,suite", [("4,5", "eq-annals"), ("5", "cor-noncommide")])
def test_verify_with_no_case_is_skipped_and_exits_nonzero(capsys, tmp_path, qs, suite):
    code, out, _ = run_cli(capsys, "verify", "--qs", qs, "--suite", suite)
    assert code == 1
    assert f"{suite}  skip  no case ran" in out and "0/1 passed" in out
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--qs", qs, "--suite", suite,
                         "--format", "json", "--out", str(out_path))
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["all_passed"] is False
    assert doc["checks"][0]["status"] == "skipped"


@pytest.mark.parametrize("fmt", ["text", "json", "ndjson"])
def test_verify_glob_selecting_no_check_is_one_error_line(capsys, tmp_path, fmt):
    # a typo of eq-annals checks nothing, so it cannot pass
    out_path = tmp_path / "report"
    code, out, err = run_cli(capsys, "verify", "--suite", "eq-anals", "--format", fmt,
                             "--out", str(out_path))
    assert (code, out, err) == (2, "", "error: no check matches 'eq-anals'\n")
    assert not out_path.exists()


def test_verify_names_grid_points_over_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--qs", "3", "--budget", "30",
                           "--suite", "thm-formulaBG")
    assert code == 0
    assert "ok    2 cases exact; over budget: q=3 d=3, q=3 d=4" in out
    code, out, _ = run_cli(capsys, "verify", "--qs", "3", "--suite", "thm-formulaBG")
    assert code == 0
    assert "4 cases exact" in out and "over budget" not in out


def test_verify_rejects_q2(capsys):
    code, _, err = run_cli(capsys, "verify", "--q", "2", "--suite", "all")
    assert code == 2
    assert "q > 2" in err
    # a q with no field here stops the run before any check, with one line
    for qs, message in (("6", "6 is not a prime power"),
                        ("3,125", "no built-in modulus for q = 125")):
        code, out, err = run_cli(capsys, "verify", "--qs", qs)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        # verify takes no modulus, so it names the q it runs instead
        assert "pass one explicitly" not in err
    with pytest.raises(FieldConstructionError, match="6 is not a prime power"):
        checks.run_check("eq-e1", qs=(6,))
    with pytest.raises(FieldConstructionError,
                       match=r"q = 125: verify runs q prime or in \[4, 8, 9, 16, 25, 27\]"):
        checks.run_check("eq-e1", qs=(125,))
    with pytest.raises(FieldConstructionError):
        checks.iter_suite(qs=(3, 6))


def test_verify_rejects_a_repeated_q(capsys):
    # each case is counted once: q = 3 twice would report 10 cases for 5
    code, out, err = run_cli(capsys, "verify", "--qs", "3,3", "--suite", "eq-e1")
    assert (code, out) == (2, "") and "repeated" in err
    with pytest.raises(InvalidParams, match="repeated"):
        checks.run_check("eq-e1", qs=(3, 4, 3))
    assert checks.run_check("eq-e1", qs=(3,)).witness == "5 cases exact"


def test_budget_surfaced(capsys):
    # chi_t at order 4 has no closed form at q = 3, so it enumerates
    code, _, err = run_cli(capsys, "powsum", "--q", "3", "--d", "9",
                           "--data", "t1:4", "--budget", "100")
    assert code == 2
    assert "budget" in err and "100" in err


def test_budget_bounds_the_untwisted_recursion(capsys):
    # S_3(2000) by Carlitz's recursion builds 2000 values, past a budget of
    # 100; unbounded it ran past 20 s
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "powsum", "--q", "3", "--d", "3",
                             "--data", "1:2000", "--budget", "100")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == "error: Carlitz's recursion to order 2000 exceeds the budget of 100\n"
    # an order within the budget still takes the recursion
    code, out, _ = run_cli(capsys, "powsum", "--q", "3", "--d", "9",
                           "--data", "1:4", "--budget", "100")
    assert code == 0 and "value: " in out


@pytest.mark.parametrize("argv", [
    ("bg", "--n", "0"), ("bg", "--d", "0"), ("bg-survey", "--d", "0"),
    ("skew", "--d", "-1", "--n", "1"), ("skew", "--d", "1", "--n", "-1"),
    ("skew", "--d", "1", "--n", "0"), ("powsum", "--q", "3", "--d", "-1", "--data", "1:1"),
    ("partial", "--q", "3", "--d", "-1", "--data", "1:1"),
    ("zeta", "--q", "3", "--prec", "-1", "--data", "1:1")],
    ids=" ".join)
def test_out_of_range_values_are_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # the message names the range, not a failure further down
    assert "Traceback" not in err and ">= " in err


def test_grammar_error_position(capsys):
    code, _, err = run_cli(capsys, "powsum", "--q", "3", "--d", "1",
                           "--data", "t1:1,,")
    assert code == 2
    assert "position" in err


def test_malformed_integer_in_data_is_a_grammar_error(capsys):
    code, out, err = run_cli(capsys, "powsum", "--q", "9", "--d", "1",
                             "--data", "c(a*x):1")
    assert code == 2 and out == ""
    assert err.startswith("error: bad coefficient 'a'") and "position" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--qs", "3,x"),
    ("powsum", "--q", "4", "--modulus", "1,x", "--d", "1", "--data", "1:1")],
    ids=" ".join)
def test_malformed_integer_list_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "comma-separated integers" in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [("--modulus", "1,0,1"), ("--vars", "7")])
def test_verify_offers_no_field_options(capsys, extra):
    # verify builds every field from its built-in modulus; x^2 + 1 is
    # reducible over F_2, and an unread option must not look accepted
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--qs", "4", *extra, "--suite", "eq-e2", "--d-max", "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_custom_modulus_reaches_the_value_commands(capsys):
    code, _, err = run_cli(capsys, "powsum", "--q", "4", "--modulus", "1,0,1",
                           "--d", "1", "--data", "1:1")
    assert code == 2 and "is not irreducible" in err
    code, out, _ = run_cli(capsys, "powsum", "--q", "9", "--modulus", "2,1,1",
                           "--d", "1", "--data", "c(x):1", "--vars", "2")
    assert code == 0 and "value: " in out
