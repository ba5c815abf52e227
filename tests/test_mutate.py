"""``tools/mutate.py``'s list of mutants still applies to the tree.

The gate itself runs each mutant's tests in a copy of the tree, a few minutes
in all, as its own CI step; here only the list is checked: each old text
occurs exactly once in its file and each named test exists.
"""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def test_every_mutant_old_text_occurs_exactly_once() -> None:
    assert mutate.problems() == []


def test_an_old_text_gone_or_repeated_is_reported(tmp_path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    mutant = mutate.MUTANTS[0]
    path = tmp_path / mutant.path
    text = path.read_text()
    for changed, count in ((text.replace(mutant.old, ""), 0), (text + mutant.old, 2)):
        path.write_text(changed)
        assert mutate.problems(tmp_path) == [
            f"{mutant.name}: the old text occurs {count} times in {mutant.path}, not once"
        ]
