"""The package parses as the oldest Python that pyproject.toml admits.

The tests may run on a newer interpreter than ``requires-python`` names;
``ast.parse`` with ``feature_version`` refuses syntax newer than that floor,
such as exception groups or PEP 695 type parameters, on any interpreter.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text()).groups()
    assert floor == ("3", "10")
    sources = sorted((ROOT / "src" / "artemis_color").glob("*.py"))
    assert len(sources) >= 10
    for source in sources:
        ast.parse(source.read_text(), filename=str(source),
                  feature_version=tuple(map(int, floor)))
