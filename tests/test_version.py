"""The package states its version in two places; they must agree."""

import re
from pathlib import Path

import liqgame

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    found = re.findall(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert found == [liqgame.__version__]
