"""Source hygiene: every top-level import of a ``wzmahler`` module is used."""

import ast
from pathlib import Path

import wzmahler

PACKAGE = Path(wzmahler.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_detected():
    assert unused_imports("import os\nfrom math import pi, e as euler\nprint(pi)\n") \
        == ["os", "euler"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "os.path.join('a')\n") == []


def test_no_unused_imports_in_package():
    # __init__.py imports to re-export, so its names are read by importers
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py" and (names := unused_imports(path.read_text())):
            found[str(path.relative_to(PACKAGE))] = names
    assert found == {}
