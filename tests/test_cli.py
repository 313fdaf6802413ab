"""End-to-end command tests: outputs, determinism, exit codes."""

import csv
import io
import json

import pytest

import vfunc
from vfunc.cli import (
    _MAX_DRAWS,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from vfunc.errors import G2DependentOnG1, LatticeAssertionFailed
from vfunc.finite_field import FieldParams


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


def test_counterexample_rejects_prime_field(capsys):
    # with n = 1 the generator a lies in F_p, so the family is not defined
    code, out, err = run_cli(["counterexample", "--p", "3", "--n", "1"],
                             capsys)
    assert code == EXIT_INVALID and "AInPrimeField" in err
    assert out == ""


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


def test_sweep_worker_count_is_bounded(monkeypatch, capsys):
    # a fake pool records its size and maps serially: no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("vfunc.cli.ProcessPoolExecutor", FakePool)
    _, serial, _ = run_cli(sweep_args(), capsys)
    # (CPU count, --jobs, --count, pool size or None for a serial run)
    for cpus, jobs, count, size in ((4, 100000, 8, 4), (16, 100000, 8, 8),
                                    (4, 50, 1, None), (None, 3, 8, None)):
        monkeypatch.setattr("vfunc.cli.os.cpu_count", lambda c=cpus: c)
        sizes.clear()
        code, out, _ = run_cli(sweep_args(jobs=jobs, count=count), capsys)
        assert code == EXIT_OK
        assert sizes == ([] if size is None else [size])
        if count == 8:
            assert out == serial


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


def test_sweep_rejects_bad_parameters(capsys):
    code, _, err = run_cli(["sweep", "--p", "2", "--n", "2",
                            "--max-degree", "5", "--seed", "1",
                            "--count", "0"], capsys)
    assert code == EXIT_PARSE

    code, _, err = run_cli(["sweep", "--p", "2", "--n", "2",
                            "--max-degree", "0", "--seed", "1",
                            "--count", "3"], capsys)
    assert code == EXIT_PARSE

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
