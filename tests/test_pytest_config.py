"""The repository's pytest configuration reports a failing hypothesis test as a failure."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # a falsifying example makes hypothesis write a patch file through libcst, whose
    # import warns; the run must still end in an ordinary failure (exit 1), not exit 3
    (tmp_path / "test_one.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
    assert "Falsifying example: test_fails(" in done.stdout
