"""A failing property test does not hide the results after it.

The pair below runs in a fresh pytest session under the project's
``pyproject.toml`` (``filterwarnings = ["error"]``) and ``conftest.py``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_later():
    pass
'''


def test_failing_property_test_reports_later_results(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED tests/test_pair.py::test_fails" in out
    assert "PASSED tests/test_pair.py::test_later" in out
    assert "1 failed, 1 passed" in out
    assert run.returncode == 1
