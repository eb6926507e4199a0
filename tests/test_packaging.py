import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualsift"


def top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
                for dep in project["dependencies"]}
    imported = {name for path in PACKAGE.glob("*.py") for name in top_level_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"dualsift"}
    assert "numpy" in third_party  # the scan sees the package's imports
    assert sorted(third_party - declared) == []


def unused_imports(source):
    """Names a module's top-level imports bind that its code never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_scan_sees_one():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from os import path, sep\nsep\n")
    assert unused_imports(source) == ["np", "path"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_module_imports_are_used(module):
    # __init__.py is skipped: its imports are the package's re-exports
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
