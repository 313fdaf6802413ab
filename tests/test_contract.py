"""The command line's input contract on job files: whatever JSON value
stands in one key of a valid job, `v` and `filtration` exit 0 or 3, and
exit 3 is one `invalid input: ` line on stderr and nothing on stdout.

Hypothesis runs derandomized, so the values are the same on every run.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfunc.cli import EXIT_INVALID, EXIT_OK, main

#: A valid p = 5 job whose line (2 : 1) has cancelling leading terms.
JOB = {"p": 5, "n": 2, "modulus": "3,0,1", "a": "0,1",
       "g1": [[-7, "1,0"], [-3, "1,0"]],
       "g2": [[-7, "3,0"], [-1, "1,0"]]}

#: Text near the coordinate grammar: valid, respelled, and the spellings
#: int() reads but the grammar does not.
TEXTS = ["", "3", "0,1", "1,0", "3,0,1", "-2,0,1", " 3 , 0", "8,5",
         "+3", "1_0", "٣", "3\t,0", "0,1,0", "1,1,1,1", "x"]

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(-10 ** 30, 10 ** 30),
    st.sampled_from([-7, -3, -1, 0, 1, 2, 5, 25, 61, 10 ** 6]),
    st.floats(),
    st.sampled_from(TEXTS), st.text(max_size=6))


def containers(inner):
    return st.one_of(st.lists(inner, max_size=3),
                     st.dictionaries(st.text(max_size=3), inner,
                                     max_size=2))


#: Scalars, and lists or dicts of them nested at most two deep: a list of
#: [int, text] lists has the shape of a series.
values = st.one_of(scalars, containers(scalars),
                   containers(st.one_of(scalars, containers(scalars))))


@pytest.fixture(scope="module")
def job_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("command", ["v", "filtration"])
@pytest.mark.parametrize("key", sorted(JOB))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(value=values)
def test_any_value_in_one_key_exits_ok_or_invalid(job_dir, key, command,
                                                   value):
    # A fresh file for each value: rewriting one in place can wait on the
    # file system's flush of the old contents.
    fd, path = tempfile.mkstemp(suffix=".json", dir=job_dir)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump({**JOB, key: value}, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", path])
    assert code in (EXIT_OK, EXIT_INVALID)
    if code == EXIT_INVALID:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid input: ")
