"""The repository's pytest settings, checked on a throwaway test session."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_neighbour_passes():
    pass
'''


def test_a_failing_property_test_lets_the_others_report(pytester):
    # Reporting a hypothesis failure imports a module that raises a
    # DeprecationWarning; under the settings' "error" filter alone that ended
    # the session with INTERNALERROR and no other test's result.
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.mkdir("tests")
    pytester.makepyfile(**{"tests/test_property": FAILING_PROPERTY})
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
