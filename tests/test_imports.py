"""Every module in src/ and tests/ reads each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """``(line, name)`` of every name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import a.b\n"
        "from x import y as z, w\n"
        "w()\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "a"), (4, "z")]


def test_no_module_imports_a_name_it_never_reads() -> None:
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        # The package's __init__ imports names to re-export them.
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert offenders == []
