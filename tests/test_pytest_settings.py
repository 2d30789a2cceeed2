"""The repo's pytest settings report a failing property test and keep going.

Warnings are errors in this suite, but hypothesis's report of a failing
example imports modules that warn on import.  Were those warnings errors,
the report itself would crash and abort the session with no later test run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    pytest = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider"]
    done = subprocess.run(
        [*pytest, str(probe)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
