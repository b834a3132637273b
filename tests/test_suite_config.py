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

LARGE_EXAMPLE = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.just("x" * 40000))
def test_large_example_fails(s):
    assert len(s) < 10
'''


def run_pytest(tmp_path, source):
    """Run the test file ``source`` under the suite's own pytest settings."""
    (tmp_path / "test_pair.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Under filterwarnings = ["error"], a warning raised while hypothesis
    # reports its failure once ended the run with INTERNALERROR, which hid
    # every later failure.
    run = run_pytest(tmp_path, FAILING)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout.splitlines()[-1]


def test_a_failing_example_with_a_large_repr_reports_its_assertion(tmp_path):
    # Hypothesis warns when it prints an example over 30 kB; under
    # filterwarnings = ["error"] that warning was the reported error, and
    # the failed assertion was never shown.
    run = run_pytest(tmp_path, LARGE_EXAMPLE)
    assert "HypothesisWarning" not in run.stdout
    assert "AssertionError: assert 40000 < 10" in run.stdout
    assert "1 failed" in run.stdout.splitlines()[-1]
