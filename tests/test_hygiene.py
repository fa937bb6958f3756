"""Source hygiene: every import in the package is used, and no invariant
check is an ``assert`` (``python -O`` would drop it)."""

import ast
from pathlib import Path

import invgpd

PACKAGE = Path(invgpd.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public API
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}


def test_no_assert_statements():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}
