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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads: not as a name, not as the
    base of an attribute, not in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_a_leftover_import_is_caught():
    assert _unused_imports("import enum\nimport json\n\njson.dumps(1)\n") == ["enum (line 1)"]
