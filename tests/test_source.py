"""The package source parses at the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "calprune").glob("*.py"))


def python_floor():
    """(major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_source_parses_at_the_declared_python_floor():
    floor = python_floor()
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
