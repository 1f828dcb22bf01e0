"""The public surface is what README documents and what the package uses.

Every name in dualrisk.__all__ must appear in README.md as a word, or be
referenced in code (loaded, read as an attribute or imported) by a module
of the package other than __init__. A name that only the tests call
belongs in tests/oracles.py. The package resolves its names on first
access from one map of module -> exported names; the checks that need a
package with nothing resolved yet run in a fresh interpreter.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    """Names a module imports and never reads: not as a name, nor as the
    base of an attribute."""
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


def test_the_export_map_and_all_agree():
    listed = [name for names in dualrisk._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == dualrisk.__all__


def test_every_export_is_the_object_its_home_module_defines():
    for name, home in dualrisk._HOME.items():
        module = importlib.import_module(f"dualrisk.{home}")
        obj = getattr(dualrisk, name)
        assert obj is getattr(module, name), name
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == module.__name__, name


def _fresh(code: str) -> str:
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
    ).stdout


def test_star_import_and_submodule_access_from_a_fresh_package():
    code = """
import sys
import dualrisk
assert [name for name in sys.modules if name.startswith("dualrisk.")] == []
print(dualrisk.weighting is sys.modules["dualrisk.weighting"])
names = {}
exec("from dualrisk import *", names)
print(sorted(set(names) - {"__builtins__"}) == dualrisk.__all__)
print(set(dualrisk._EXPORTS) | set(dualrisk.__all__) <= set(dir(dualrisk)))
"""
    assert _fresh(code).split() == ["True"] * 3


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        dualrisk.no_such_name
    assert not hasattr(dualrisk, "oracles")
