"""The package source stays within the oldest Python that pyproject.toml accepts."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "satqlink"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    # requires-python is ">=3.10": no syntax of a later version
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
