"""Every file of the package and of the tests parses at the Python floor of
pyproject.toml (requires-python >= 3.10), whatever Python runs the tests."""

import ast
from pathlib import Path

import pytest

import het3

FLOOR = (3, 10)
FILES = sorted([*Path(het3.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")])


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
