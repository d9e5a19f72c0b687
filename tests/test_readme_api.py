"""The README's list of main entry points names only what the package exports."""

import re
from pathlib import Path

import artemis_color

README = Path(__file__).resolve().parents[1] / "README.md"


def _listed_entry_points():
    text = README.read_text()
    start = text.index("The main entry points:")
    section = text[start:text.index("\n## ", start)]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))


def test_readme_entry_points_are_exported():
    names = _listed_entry_points()
    assert len(names) > 30
    missing = sorted(name for name in names if not hasattr(artemis_color, name))
    assert not missing, f"README lists names the package does not export: {missing}"
