"""The package version is declared once, in agreement with pyproject.toml."""

import re
from pathlib import Path

import hforest


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match and hforest.__version__ == match.group(1)
