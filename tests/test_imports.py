"""Every module in src/ and tests/ reads each name it imports; the package
reads every private name it defines and imports no process pool."""

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


def private_definitions(source: str) -> list:
    """``(line, name)`` of every private function, method, class and
    module-level name the source defines (dunder names are not private)."""
    tree = ast.parse(source)
    defined = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted(
        (line, name) for line, name in defined if name.startswith("_") and not name.endswith("__")
    )


def names_read(source: str) -> set:
    """Every name the source reads: as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_definitions(sources: dict) -> list:
    """``path:line: name`` of each private definition that no source reads."""
    read = set().union(*map(names_read, sources.values()))
    return [
        f"{path}:{line}: {name}"
        for path, source in sources.items()
        for line, name in private_definitions(source)
        if name not in read
    ]


def test_unread_private_definitions_are_found() -> None:
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED = 2\n"
            "class _Box:\n"
            "    def __init__(self): self._size()\n"
            "    def _size(self): return _USED\n"
            "    def _spare(self): pass\n"
        ),
        "b.py": "from a import _Box\ndef _orphan(): pass\n",
    }
    assert unread_private_definitions(sources) == [
        "a.py:2: _UNUSED", "a.py:6: _spare", "b.py:2: _orphan"
    ]


def test_the_package_reads_every_private_name_it_defines() -> None:
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert unread_private_definitions(sources) == []


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
