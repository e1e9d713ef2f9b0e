"""The suite's own pytest configuration keeps a failing test from hiding the
rest of the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_given_test_does_not_end_the_session(tmp_path):
    # With warnings as errors, hypothesis's failure report once raised a
    # DeprecationWarning that ended the session: "1 failed" and an
    # INTERNALERROR, and the second test never ran.
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout
