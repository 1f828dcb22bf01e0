"""The public surface is what README documents and what the package uses.

Every name in dualrisk.__all__ must appear in README.md as a word, or be
referenced in code (loaded, read as an attribute or imported) by a module
of the package other than __init__. A name that only the tests call
belongs in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

import dualrisk

PACKAGE = Path(dualrisk.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _referenced_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_documented_or_used():
    readme = README.read_text(encoding="utf-8")
    used = _referenced_names()
    stray = [
        name
        for name in dualrisk.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert stray == []
