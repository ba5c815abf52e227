"""README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The one ``python`` block of README's Library section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_the_library_example_runs() -> None:
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    config, traces, summary = namespace["config"], namespace["traces"], namespace["summary"]
    assert len(traces) == config.reps
    assert summary.checkpoints[-1] == config.horizon
    assert namespace["report"].ok
