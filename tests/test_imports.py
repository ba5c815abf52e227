"""Every module in src/ and tests/ reads each name it imports; the package
imports no process pool."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_importing_the_package_does_not_load_the_process_pool() -> None:
    # Only run_experiment(workers > 1) starts a pool; it imports it then.
    code = (
        "import sys, htbandits\n"
        "print(sorted(name for name in ('multiprocessing', 'concurrent.futures.process')"
        " if name in sys.modules))"
    )
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
