"""The project's pytest settings report every failing test.

A settings change can hide failures: a warning filter that turns a warning
raised inside pytest's or Hypothesis's own hooks into an error ends the
session with INTERNALERROR, and every later test goes unreported.
"""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_does_not_hide_the_tests_after_it(pytester):
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_pair="""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_pair.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
