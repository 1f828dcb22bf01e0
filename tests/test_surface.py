"""The public surface is what the paper's claims need, and README maps it.

README.md has a claim map: one table row per paper claim or documented
workflow, each listing the exported names that serve it. Every name in
dualrisk.__all__ must sit in exactly one row, and every row may list
only exported names. A name that only the tests call belongs in
tests/oracles.py. The package resolves its names on first access from
one map of module -> exported names; the checks that need a package
with nothing resolved yet run in a fresh interpreter.
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


def _claim_map(readme: str) -> dict[str, list[str]]:
    """The claim map's rows: claim -> the backquoted names of its last cell."""
    section = readme.split("\n## Claim map\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
    return {claim.strip(): re.findall(r"`([^`]+)`", names) for claim, names in rows[2:]}


def _map_faults(rows: dict[str, list[str]], exported) -> list[str]:
    """Every way rows and the exported names fail to match one to one."""
    exported = set(exported)
    homes = {name: [claim for claim, names in rows.items() if name in names] for name in exported}
    faults = [f"{name}: in {len(claims)} rows" for name, claims in sorted(homes.items()) if len(claims) != 1]
    for claim, names in rows.items():
        faults += [f"{claim!r} lists {name}, which is not exported" for name in names if name not in exported]
    return faults


def test_every_export_is_in_exactly_one_claim_map_row():
    rows = _claim_map(README.read_text(encoding="utf-8"))
    assert len(rows) >= 10
    assert _map_faults(rows, dualrisk.__all__) == []


def test_a_claim_map_that_misses_repeats_or_invents_a_name_is_caught():
    rows = {"lotteries": ["Lottery", "mean"], "moments": ["mean", "ghost"]}
    assert _map_faults(rows, ["Lottery", "mean", "rat"]) == [
        "mean: in 2 rows",
        "rat: in 0 rows",
        "'moments' lists ghost, which is not exported",
    ]


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
