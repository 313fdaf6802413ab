"""End-to-end command tests: outputs, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import vfunc
from vfunc import vfunction
from vfunc.cli import (
    _MAX_DRAWS,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from vfunc.errors import G2DependentOnG1, LatticeAssertionFailed
from vfunc.extension_algebra import MAX_TERMS, LElement, _key
from vfunc.finite_field import FieldParams

from conftest import unchecked_pair


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return str(path)


COUNTEREXAMPLE_JOB = {
    "p": 2, "n": 2, "a": "0,1",
    "g1": [[-3, "1,0"]],
    "g2": [[-3, "0,1"], [-1, "1,0"]],
}

TWO_BREAK_JOB = {
    "p": 2, "n": 2, "a": "0,1",
    "g1": [[-1, "1,0"]],
    "g2": [[-3, "0,1"]],
}


def test_v_json(tmp_path, capsys):
    path = write_job(tmp_path, "job.json", COUNTEREXAMPLE_JOB)
    code, out, _ = run_cli(["v", "--input", path], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["agree"] is True
    assert data["formula"] == {"value": 2, "s": 6, "route": "formula"}
    assert data["oracle"] == {"value": 2, "s": 6, "route": "oracle"}


def test_v_csv(tmp_path, capsys):
    path = write_job(tmp_path, "job.json", COUNTEREXAMPLE_JOB)
    code, out, _ = run_cli(["v", "--input", path, "--format", "csv"], capsys)
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["v_formula", "v_oracle", "agree", "s_formula",
                      "s_oracle"]
    assert rows[1] == ["2", "2", "true", "6", "6"]


def test_filtration_report(tmp_path, capsys):
    path = write_job(tmp_path, "job.json", TWO_BREAK_JOB)
    code, out, _ = run_cli(["filtration", "--input", path], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["fingerprint"] == "upper|1:2[s1t0],3:1[]"
    assert data["quotient_compat"] is True
    assert [(b["height"], b["order"]) for b in data["upper"]] == [(1, 2), (3, 1)]
    assert [(b["height"], b["order"]) for b in data["lower"]] == [(1, 2), (5, 1)]
    assert data["upper"][0]["generators"] == ["s1t0"]


#: The leading terms of g1 and g2 cancel on the line (2 : 1).
P5_CANCEL_JOB = {
    "p": 5, "n": 2, "a": "0,1",
    "g1": [[-7, "1,0"], [-3, "1,0"]],
    "g2": [[-7, "3,0"], [-1, "1,0"]],
}


@pytest.mark.parametrize("spelling", [" 3 , 0", "8,5"])
def test_respelled_job_gives_the_same_bytes(tmp_path, capsys, spelling):
    """Coefficients are integers read mod p, spaces allowed around them:
    a respelled job prints what the canonical one prints."""
    respelled = dict(P5_CANCEL_JOB, a="5,6", g1=[[-7, "-4,0"], [-3, "1,0"]],
                     g2=[[-7, spelling], [-1, "1,0"]])
    paths = [write_job(tmp_path, "canonical.json", P5_CANCEL_JOB),
             write_job(tmp_path, "respelled.json", respelled)]
    for command in ("v", "filtration"):
        canonical, other = (run_cli([command, "--input", path], capsys)
                            for path in paths)
        assert canonical == other and canonical[0] == EXIT_OK


def test_counterexample_p2(capsys):
    code, out, _ = run_cli(["counterexample", "--p", "2", "--n", "2"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["rows"]) == 2
    assert data["filtration_constant"] is True
    assert data["v_constant"] is False
    assert data["all_routes_agree"] is True
    assert data["exceptional_c"] == ["1,1"]
    assert data["exceptional_matches_minus_a_pow_p"] is True
    assert data["exceptional_matches_minus_a_squared"] is True
    assert data["expected_pattern"] is True
    values = sorted(row["v"] for row in data["rows"])
    assert values == [1, 2]


def test_counterexample_p3(capsys):
    code, out, _ = run_cli(["counterexample", "--p", "3", "--n", "2"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["rows"]) == 6
    assert data["filtration_constant"] is True
    assert data["v_constant"] is False
    assert data["exceptional_c"] == [data["minus_a_pow_p"]]
    assert data["exceptional_matches_minus_a_pow_p"] is True
    # the squared form lands inside F_3 here, so it cannot be the answer
    assert data["exceptional_matches_minus_a_squared"] is False
    assert data["expected_pattern"] is True
    values = sorted(row["v"] for row in data["rows"])
    assert values == [1, 3, 3, 3, 3, 3]
    assert len({row["fingerprint"] for row in data["rows"]}) == 1


def test_counterexample_modulus_override(capsys):
    code, out, _ = run_cli(["counterexample", "--p", "2", "--n", "2",
                            "--modulus", "1,1,1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["expected_pattern"] is True


def test_negative_modulus_coordinate_needs_the_joined_flag(capsys):
    # -2 is 3 mod 5, so the joined form builds the default F_25.
    code, out, _ = run_cli(["counterexample", "--p", "5", "--n", "2",
                            "--modulus=-2,0,1"], capsys)
    assert code == EXIT_OK
    assert out == run_cli(["counterexample", "--p", "5", "--n", "2"],
                          capsys)[1]
    # Spaced, argparse reads "-2,0,1" as an option and --modulus as empty.
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--p", "5", "--n", "2",
              "--modulus", "-2,0,1"])
    assert exc.value.code == EXIT_PARSE


def test_counterexample_rejects_prime_field(capsys):
    # with n = 1 the generator a lies in F_p, so the family is not defined
    code, out, err = run_cli(["counterexample", "--p", "3", "--n", "1"],
                             capsys)
    assert code == EXIT_INVALID and "AInPrimeField" in err
    assert out == ""


def test_huge_p_exits_invalid_without_testing_primality(tmp_path, capsys):
    huge = 10 ** 18 + 3
    code, out, err = run_cli(["counterexample", "--p", str(huge), "--n", "2"],
                             capsys)
    assert code == EXIT_INVALID and "FieldTooLarge" in err and out == ""
    path = write_job(tmp_path, "huge.json", dict(COUNTEREXAMPLE_JOB, p=huge))
    code, out, err = run_cli(["v", "--input", path], capsys)
    assert code == EXIT_INVALID and "FieldTooLarge" in err and out == ""


def test_field_above_the_table_cap_exits_invalid(capsys):
    code, out, err = run_cli(["sweep", "--p", "2", "--n", "13", "--modulus",
                              "1,1,0,1,1" + ",0" * 8 + ",1", "--max-degree", "3",
                              "--seed", "1", "--count", "1"], capsys)
    assert code == EXIT_INVALID and "FieldTooLarge" in err
    assert out == ""


def sweep_args(seed=42, jobs=None, count=8):
    argv = ["sweep", "--p", "2", "--n", "2", "--max-degree", "5",
            "--seed", str(seed), "--count", str(count)]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv


def test_sweep_rows_and_determinism(capsys):
    code, out1, _ = run_cli(sweep_args(), capsys)
    assert code == EXIT_OK
    code, out2, _ = run_cli(sweep_args(), capsys)
    assert code == EXIT_OK
    assert out1 == out2
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["g1", "g2", "v_formula", "v_oracle", "agree", "s",
                      "fingerprint"]
    body = rows[1:]
    assert len(body) == 8
    for g1, g2, vf, vo, agree, s, fingerprint in body:
        assert agree == "true"
        assert vf == vo
        assert int(s) % 4 != 0
        assert fingerprint.startswith("upper|")
        json.loads(g1)
        json.loads(g2)


def test_sweep_seed_changes_output(capsys):
    _, out1, _ = run_cli(sweep_args(seed=42), capsys)
    _, out2, _ = run_cli(sweep_args(seed=43), capsys)
    assert out1 != out2


def test_sweep_parallel_matches_serial(capsys):
    _, serial, _ = run_cli(sweep_args(), capsys)
    _, parallel, _ = run_cli(sweep_args(jobs=2), capsys)
    assert serial == parallel


def no_fork(children):
    """A stand-in for cli._forked_rows that records how many children the
    real one would fork and makes the rows in this process: no process
    starts."""
    def forked_rows(pairs, share, seed):
        children.append(len(range(0, len(pairs), share)))
        return vfunc.cli._sweep_rows(pairs, 0, seed)

    return forked_rows


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_worker_count_is_bounded(monkeypatch, capsys):
    children = []
    monkeypatch.setattr("vfunc.cli._forked_rows", no_fork(children))
    _, serial, _ = run_cli(sweep_args(), capsys)
    # (CPU count, --jobs, --count, children forked or None for a serial run)
    # 4 pairs in shares of 2 need 2 children, not 3
    for cpus, jobs, count, forks in ((4, 100000, 8, 4), (16, 100000, 8, 8),
                                     (4, 3, 4, 2), (4, 50, 1, None),
                                     (None, 3, 8, None)):
        monkeypatch.setattr("vfunc.cli.os.cpu_count", lambda c=cpus: c)
        children.clear()
        code, out, _ = run_cli(sweep_args(jobs=jobs, count=count), capsys)
        assert code == EXIT_OK
        assert children == ([] if forks is None else [forks])
        if count == 8:
            assert out == serial


def test_sweep_builds_its_field_once_per_process(monkeypatch, capsys):
    built = []
    real_init = FieldParams.__init__
    parent = os.getpid()

    def parent_only_init(self, *args):
        if os.getpid() != parent:
            raise RuntimeError("a --jobs worker built a field")
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(FieldParams, "__init__", parent_only_init)
    code, serial, _ = run_cli(sweep_args(), capsys)
    assert code == EXIT_OK
    assert len(built) == 1
    # the children read the parent's field from the memory they inherit;
    # the 8 pairs go in shares of 4 (2 jobs) or 3, 3, 2 (3 jobs)
    monkeypatch.setattr("vfunc.cli.os.cpu_count", lambda: 4)
    for jobs in (2, 3):
        built.clear()
        code, out, err = run_cli(sweep_args(jobs=jobs), capsys)
        assert (code, err) == (EXIT_OK, "")
        assert len(built) == 1
        assert out == serial
        assert_no_child_left()


def failing_on(monkeypatch, number, error, sleeping_on=None):
    """Make _sweep_row raise error on pair `number` (from 1) of the sweep,
    and sleep for a minute on pair `sleeping_on`, in whichever process
    makes that row."""
    drawn = []
    real_jobs, real_row = vfunc.cli._sweep_jobs, vfunc.cli._sweep_row

    def jobs(*args):
        drawn[:] = real_jobs(*args)
        return drawn

    def row(pair):
        if pair is drawn[number - 1]:
            raise error("made to fail")
        if sleeping_on is not None and pair is drawn[sleeping_on - 1]:
            time.sleep(60)
        return real_row(pair)

    monkeypatch.setattr("vfunc.cli._sweep_jobs", jobs)
    monkeypatch.setattr("vfunc.cli._sweep_row", row)


@pytest.mark.parametrize("number", [3, 6])
@pytest.mark.parametrize("error, code, prefix", [
    (G2DependentOnG1, EXIT_INVALID, "invalid input: G2DependentOnG1: "),
    (LatticeAssertionFailed, EXIT_MISMATCH,
     "internal check failed: LatticeAssertionFailed: "),
])
def test_a_failing_sweep_row_names_its_pair_serially_and_under_jobs(
        monkeypatch, capsys, number, error, code, prefix):
    # 8 pairs under --jobs 2 go in shares of 4: pair 3 fails in the first
    # child, whose partner is then killed, and pair 6 in the second
    failing_on(monkeypatch, number, error)
    monkeypatch.setattr("vfunc.cli.os.cpu_count", lambda: 4)
    expected = f"{prefix}pair {number} (seed 42): made to fail\n"
    for jobs in (None, 2):
        assert run_cli(sweep_args(jobs=jobs), capsys) == (code, "", expected)
        assert_no_child_left()


def test_a_failing_worker_stops_the_others(monkeypatch, capsys):
    # pair 3 fails in the first child while the second sleeps on pair 5:
    # the parent kills the second instead of waiting a minute for it
    failing_on(monkeypatch, 3, G2DependentOnG1, sleeping_on=5)
    monkeypatch.setattr("vfunc.cli.os.cpu_count", lambda: 4)
    started = time.monotonic()
    code, out, err = run_cli(sweep_args(jobs=2), capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert "pair 3 (seed 42)" in err
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_a_worker_that_dies_without_a_result_exits_mismatch(monkeypatch,
                                                             capsys):
    parent = os.getpid()
    real_row = vfunc.cli._sweep_row

    def row(pair):
        if os.getpid() != parent:
            os._exit(3)
        return real_row(pair)

    monkeypatch.setattr("vfunc.cli._sweep_row", row)
    monkeypatch.setattr("vfunc.cli.os.cpu_count", lambda: 4)
    code, out, err = run_cli(sweep_args(jobs=2), capsys)
    assert (code, out) == (EXIT_MISMATCH, "")
    assert err == ("internal check failed: InternalCheckFailed: the --jobs "
                   "worker for pairs 1 to 4 (seed 42) ended without a "
                   "result\n")
    assert_no_child_left()


def test_sweep_without_fork_runs_serially(monkeypatch, capsys):
    _, serial, _ = run_cli(sweep_args(), capsys)
    monkeypatch.setattr("vfunc.cli.os.cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert run_cli(sweep_args(jobs=2), capsys) == (EXIT_OK, serial, "")


def test_sweep_validates_each_pair_once(monkeypatch, capsys):
    valid = []
    real = vfunc.cli.validate_pair

    def counted(*args):
        pair = real(*args)
        valid.append(pair)
        return pair

    monkeypatch.setattr("vfunc.cli.validate_pair", counted)
    code, _, _ = run_cli(sweep_args(count=5), capsys)
    assert code == EXIT_OK
    assert len(valid) == 5


def test_exit_code_parse_failures(tmp_path, capsys):
    bad_json = write_job(tmp_path, "bad.json", "{this is not json")
    code, _, err = run_cli(["v", "--input", bad_json], capsys)
    assert code == EXIT_PARSE and "parse error" in err

    missing = write_job(tmp_path, "missing.json",
                        {"p": 2, "n": 2, "a": "0,1", "g1": [[-1, "1,0"]]})
    code, _, err = run_cli(["v", "--input", missing], capsys)
    assert code == EXIT_PARSE and "g2" in err

    code, _, err = run_cli(["v", "--input", str(tmp_path / "absent.json")],
                           capsys)
    assert code == EXIT_PARSE

    # booleans and floats are not integers, even where int() would take
    # them: a wrong value, which the library rejects, exit 3
    for bad, message in (({"modulus": [1.9, 1, 1]}, "modulus [1.9, 1, 1]"),
                         ({"modulus": [True, True, True]}, "modulus [True"),
                         ({"n": True}, "n = True must be ints")):
        path = write_job(tmp_path, "typed.json", dict(COUNTEREXAMPLE_JOB, **bad))
        code, out, err = run_cli(["v", "--input", path], capsys)
        assert code == EXIT_INVALID and out == "", bad
        assert err.startswith("invalid input: InputError: ") \
            and message in err, bad

    # a coefficient that is not text, in a or in a series
    for bad in ({"a": 1}, {"g1": [[-3, 1]]}, {"g2": [[-3, [0, 1]]]}):
        path = write_job(tmp_path, "coeff.json", dict(COUNTEREXAMPLE_JOB, **bad))
        code, out, err = run_cli(["v", "--input", path], capsys)
        assert code == EXIT_INVALID and out == "", bad
        assert err.startswith("invalid input: InputError: field element"), bad
        assert "is not text" in err, bad

    # text that int() alone would read: a digit separator, a plus sign and
    # an Arabic-Indic digit are invalid input, exit 3
    for bad in ({"a": "1_0,1"}, {"g1": [[-3, "+1,0"]]},
                {"g2": [[-3, "\u0663,1"], [-1, "1,0"]]}):
        path = write_job(tmp_path, "spelling.json",
                         dict(COUNTEREXAMPLE_JOB, **bad))
        code, out, err = run_cli(["v", "--input", path], capsys)
        assert code == EXIT_INVALID and out == "", bad
        assert err.startswith("invalid input: InputError: bad field element"), bad


@pytest.mark.parametrize("spelling",
                         ["+3,0,1", "1_3,0,1", "\u0663,0,1", "3\t,0,1"])
def test_bad_modulus_spelling_exits_invalid(tmp_path, capsys, spelling):
    """The modulus follows the coordinate grammar, through --modulus and
    through a job file alike: text int() alone would read as 3,0,1."""
    code, out, err = run_cli(["sweep", "--p", "5", "--n", "2", "--modulus",
                              spelling, "--max-degree", "6", "--seed", "1",
                              "--count", "1"], capsys)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("invalid input: InputError: bad modulus")
    path = write_job(tmp_path, "modulus.json",
                     dict(P5_CANCEL_JOB, modulus=spelling))
    code, out, err = run_cli(["v", "--input", path], capsys)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("invalid input: InputError: bad modulus")


@pytest.mark.parametrize("payload", [
    b'{"p": 2, "n": 2, "a": "\xff\xfe"}',  # bytes that are not UTF-8
    b"[" * 100_000,                        # nesting past the recursion limit
    b'{"p": ' + b"1" * 5000 + b"}",        # past the 4300-digit int limit
], ids=["not-utf8", "deep", "long-int"])
def test_unreadable_job_files_exit_parse(tmp_path, capsys, payload):
    path = tmp_path / "job.json"
    path.write_bytes(payload)
    code, out, err = run_cli(["v", "--input", str(path)], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: ")


def test_exit_code_validation_failures(tmp_path, capsys):
    zero_g1 = write_job(tmp_path, "zero.json",
                        {"p": 2, "n": 2, "a": "0,1", "g1": [],
                         "g2": [[-1, "1,0"]]})
    code, _, err = run_cli(["v", "--input", zero_g1], capsys)
    assert code == EXIT_INVALID and "G1Zero" in err

    prime_a = write_job(tmp_path, "prime_a.json",
                        {"p": 2, "n": 2, "a": "1,0", "g1": [[-1, "1,0"]],
                         "g2": [[-3, "0,1"]]})
    code, _, err = run_cli(["v", "--input", prime_a], capsys)
    assert code == EXIT_INVALID and "AInPrimeField" in err

    bad_j = write_job(tmp_path, "bad_j.json",
                      {"p": 2, "n": 2, "a": "0,1", "g1": [[-2, "1,0"]],
                       "g2": [[-3, "0,1"]]})
    code, _, err = run_cli(["filtration", "--input", bad_j], capsys)
    assert code == EXIT_INVALID and "NotInJ" in err


def test_job_over_the_term_cap_exits_invalid(tmp_path, capsys):
    over = [[-2 * k - 1, "1,0"] for k in range(MAX_TERMS, -1, -1)]
    for key in ("g1", "g2"):
        job = dict(TWO_BREAK_JOB, **{key: over})
        path = write_job(tmp_path, f"{key}.json", job)
        for command in ("v", "filtration"):
            code, out, err = run_cli([command, "--input", path], capsys)
            assert code == EXIT_INVALID and "TooManyTerms" in err
            assert out == ""


def test_job_with_a_pole_past_the_cap_exits_invalid(tmp_path, capsys):
    """A 4300-digit exponent passes json.load, but s and the lower break
    it gives have more digits than int to str converts.  Validation
    rejects the pole order before any route runs."""
    exponent = "-" + "9" * 4299 + "7"
    path = write_job(tmp_path, "deep.json",
                     '{"p": 2, "n": 2, "a": "0,1", "g1": [[' + exponent
                     + ', "1,0"]], "g2": [[-1, "0,1"]]}')
    for command in ("v", "filtration"):
        code, out, err = run_cli([command, "--input", path], capsys)
        assert code == EXIT_INVALID and "PoleTooDeep" in err
        assert out == ""


def test_non_constant_condition_image_exits_mismatch(tmp_path, capsys,
                                                     monkeypatch):
    # An action that also multiplies by t puts a condition image off the
    # constants: a fault, so exit 4 with a message, not a traceback.
    real = vfunction.act_on_terms
    monkeypatch.setattr(
        vfunction, "act_on_terms",
        lambda field, g, x: {key + _key(field.p, 1, 0): k
                             for key, k in real(field, g, x).items()})
    path = write_job(tmp_path, "job.json", COUNTEREXAMPLE_JOB)
    code, out, err = run_cli(["v", "--input", path], capsys)
    assert code == EXIT_MISMATCH and out == ""
    assert err.startswith("internal check failed: InternalCheckFailed: ")
    assert "non-constant" in err


def test_sweep_max_degree_over_the_term_cap_exits_invalid(monkeypatch,
                                                          capsys):
    """At p = 2, D = 2 * MAX_TERMS allows MAX_TERMS exponents and one more
    allows MAX_TERMS + 1; the check runs before any draw."""
    drawn = []
    monkeypatch.setattr("vfunc.cli._sweep_jobs",
                        lambda *args: drawn.append(args) or [])
    for degree, code_expected in ((2 * MAX_TERMS, EXIT_OK),
                                  (2 * MAX_TERMS + 1, EXIT_INVALID)):
        code, out, err = run_cli(["sweep", "--p", "2", "--n", "2",
                                  "--max-degree", str(degree), "--seed", "1",
                                  "--count", "1"], capsys)
        assert code == code_expected, degree
    assert "TooManyTerms" in err and out == ""
    assert len(drawn) == 1


def test_sweep_rejects_bad_parameters(capsys):
    code, _, err = run_cli(["sweep", "--p", "2", "--n", "2",
                            "--max-degree", "5", "--seed", "1",
                            "--count", "0"], capsys)
    assert code == EXIT_PARSE

    code, _, err = run_cli(["sweep", "--p", "2", "--n", "2",
                            "--max-degree", "0", "--seed", "1",
                            "--count", "3"], capsys)
    assert code == EXIT_PARSE

    for jobs in ("0", "-3"):
        code, out, err = run_cli(["sweep", "--p", "2", "--n", "2",
                                  "--max-degree", "5", "--seed", "1",
                                  "--count", "3", "--jobs", jobs], capsys)
        assert code == EXIT_PARSE and "jobs" in err and out == ""

    # with n = 1 no a lies outside the prime field, so no pair can be drawn
    code, _, err = run_cli(["sweep", "--p", "2", "--n", "1",
                            "--max-degree", "5", "--seed", "1",
                            "--count", "3"], capsys)
    assert code == EXIT_INVALID and "AInPrimeField" in err


def test_sweep_pair_draws_are_capped(monkeypatch, capsys):
    calls = []

    def reject(*args):
        calls.append(args)
        raise G2DependentOnG1("always")

    monkeypatch.setattr("vfunc.cli.validate_pair", reject)
    code, out, err = run_cli(sweep_args(), capsys)
    assert code == EXIT_INVALID and "SamplingExhausted" in err
    assert out == ""
    assert 0 < len(calls) <= _MAX_DRAWS


def test_sweep_series_draws_are_capped(monkeypatch, capsys):
    calls = []

    def zero(field, rng):
        calls.append(rng)
        return field.zero()

    monkeypatch.setattr(FieldParams, "random_element", zero)
    code, out, err = run_cli(sweep_args(), capsys)
    assert code == EXIT_INVALID and "SamplingExhausted" in err
    assert out == ""
    # at p = 2 and max-degree 5 each draw takes the exponents -5, -3 and -1
    assert len(calls) == 3 * _MAX_DRAWS


def test_internal_check_failure_exits_mismatch(tmp_path, capsys,
                                               monkeypatch):
    def broken_oracle(pair):
        raise LatticeAssertionFailed("s' = 8 is divisible by p^2")

    monkeypatch.setattr("vfunc.cli.v_oracle", broken_oracle)
    path = write_job(tmp_path, "job.json", COUNTEREXAMPLE_JOB)
    code, out, err = run_cli(["v", "--input", path], capsys)
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err == ("internal check failed: LatticeAssertionFailed: "
                   "s' = 8 is divisible by p^2\n")


def test_any_other_exception_exits_mismatch_in_one_line(tmp_path, capsys,
                                                       monkeypatch):
    # A bug in the library is neither a parse error nor a traceback.
    def broken_oracle(pair):
        raise RuntimeError("oracle fell over")

    monkeypatch.setattr("vfunc.cli.v_oracle", broken_oracle)
    path = write_job(tmp_path, "job.json", COUNTEREXAMPLE_JOB)
    code, out, err = run_cli(["v", "--input", path], capsys)
    assert code == EXIT_MISMATCH == 4
    assert out == ""
    assert err == "internal error: RuntimeError: oracle fell over\n"


@pytest.mark.parametrize("g2, message", [
    # p | 4: g2 lies outside J, and lines() does not reduce it
    ([[-4, "0,1"], [-1, "1,0"]], "line break 4 outside J range"),
    # g2 = g1: the member g1 + g2 vanishes
    ([[-3, "1,0"]], "a line of a valid pair reduced to zero"),
], ids=["p-divides-jump", "zero-member"])
def test_line_check_failure_exits_mismatch(tmp_path, capsys, monkeypatch,
                                           g2, message):
    # Built past validation, the lines' own checks are the only guard.
    monkeypatch.setattr("vfunc.cli.validate_pair", unchecked_pair)
    path = write_job(tmp_path, "job.json",
                     dict(COUNTEREXAMPLE_JOB, g1=[[-3, "1,0"]], g2=g2))
    code, out, err = run_cli(["filtration", "--input", path], capsys)
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err == f"internal check failed: InternalCheckFailed: {message}\n"


def test_oracle_basis_outside_theta_exits_mismatch(tmp_path, capsys,
                                                   monkeypatch):
    # A lattice basis that fails the theta conditions is a fault of the
    # kernel, not bad input, so it must not exit 3.
    theta_lattice = vfunction.theta_lattice

    def corrupted(pair):
        tb = theta_lattice(pair)
        return tb._replace(m2=tb.m2 + LElement.alpha(pair))

    monkeypatch.setattr(vfunction, "theta_lattice", corrupted)
    path = write_job(tmp_path, "job.json", COUNTEREXAMPLE_JOB)
    code, out, err = run_cli(["v", "--input", path], capsys)
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err.startswith("internal check failed: InternalCheckFailed: ")
    assert "defining conditions" in err


#: Modules no start-up of the command line may load: numpy, a process
#: pool, and what dataclasses and fractions would pull in.
NOT_AT_START_UP = ("numpy", "concurrent.futures", "multiprocessing",
                   "dataclasses", "inspect", "fractions", "decimal")


def test_importing_the_cli_leaves_numpy_out(tmp_path):
    src = os.path.dirname(os.path.dirname(vfunc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, vfunc.cli; "
         f"print([m for m in {NOT_AT_START_UP!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
    # Nor do the filtration and both value routes on a job load fractions:
    # only phi and evaluating a transition function use them.
    path = write_job(tmp_path, "job.json", COUNTEREXAMPLE_JOB)
    for command in ("filtration", "v"):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from vfunc.cli import main; code = main(sys.argv[1:]); "
             "print(code, 'fractions' in sys.modules, file=sys.stderr)",
             command, "--input", path],
            env=env, capture_output=True, text=True, check=True)
        assert done.stderr == "0 False\n", command
    # Nor does a sweep that forks two workers load a process pool.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from vfunc.cli import main; code = main(sys.argv[1:]); "
         "print(code, [m for m in ('concurrent.futures', 'multiprocessing') "
         "if m in sys.modules], file=sys.stderr)",
         "sweep", "--p", "3", "--n", "2", "--max-degree", "5", "--seed", "1",
         "--count", "4", "--jobs", "2"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stderr == "0 []\n"


def test_import_leaves_the_youngest_generation_collected():
    # Where the first collection after import falls must not depend on how
    # many objects the standard library's imports left in that generation.
    src = os.path.dirname(os.path.dirname(vfunc.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import gc, vfunc; print(gc.get_count()[0])"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert int(done.stdout) < 20


def test_package_exports_validate_pair():
    assert "validate_pair" in vfunc.__all__


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == EXIT_PARSE


def test_filtration_with_extension_field_modulus(tmp_path, capsys):
    job = {"p": 2, "n": 3, "modulus": [1, 1, 0, 1], "a": "0,1,0",
           "g1": [[-1, "1,0,0"]], "g2": [[-3, "0,1,0"]]}
    path = write_job(tmp_path, "f8.json", job)
    code, out, _ = run_cli(["filtration", "--input", path], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["quotient_compat"] is True


#: sha256 of stdout for seeded runs whose output has been byte-identical
#: since it was first recorded; every exit code is EXIT_OK.
OUTPUT_DIGESTS = {
    "sweep --p 2 --n 2 --max-degree 12 --seed 1 --count 20":
        "e90ca070a579fba798f15bda4e80c136301b297c6e153a81808c9234116c0518",
    "sweep --p 3 --n 2 --max-degree 10 --seed 2 --count 16":
        "ca15d8cee193e2f6754eb2707d156371b785f29fe6bc0a5de64366dda5cd0cad",
    "sweep --p 5 --n 2 --max-degree 10 --seed 3 --count 4":
        "30a5e1923f537b30564d22a27baf48798d104dc96abb4b4d32ac7fc4b1887fcf",
    "sweep --p 7 --n 2 --modulus 1,0,1 --max-degree 8 --seed 4 --count 1":
        "102186fb91df3cbe8060d6cd324bd508593599ee4f3fc49be68d9b562a4d32a9",
    "sweep --p 2 --n 3 --modulus 1,1,0,1 --max-degree 12 --seed 5 --count 10":
        "62481209b4a965c22ad01a03e1b8cd5c6fee81185437f2d63d7382dbb44c7529",
    "sweep --p 3 --n 3 --modulus 1,2,0,1 --max-degree 8 --seed 6 --count 4":
        "0f97371fc07e583da1324c3d49ce898d81561d410eb2fdf35bbd18b85b6f60f8",
    "sweep --p 11 --n 2 --modulus 1,0,1 --max-degree 6 --seed 1 --count 4":
        "5717b72e3dd7cd3500bec7362ec240164f47bc429ba65bedf3079959bacf7d50",
    "counterexample --p 2 --n 2":
        "5d798c6aeaaebffe5dff7dbfff954ec83d9322c13865bd3c3be6891b34e5073a",
    "counterexample --p 3 --n 2":
        "d36a77a57c57a8e52caf8c8c79c7bef8037f064c422b6ae61144d6ddf2d1bfdf",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_seeded_output_is_byte_identical(command, capsys):
    code, out, _ = run_cli(command.split(), capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[command]
