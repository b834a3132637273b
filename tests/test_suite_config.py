"""The suite's own pytest settings: every failure is reported."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_hypothesis_fails(x):
    assert x != x


def test_plain_fails():
    assert False
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Under filterwarnings = ["error"], a warning raised while hypothesis
    # reports its failure once ended the run with INTERNALERROR, which hid
    # every later failure.
    (tmp_path / "test_pair.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout.splitlines()[-1]
