"""The package root exports exactly the names the README's Library section documents."""

from __future__ import annotations

import re
from pathlib import Path

import tweetslots

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Library code block"
    return match.group(1)


def test_readme_library_import_runs():
    exec(_library_block(), {})


def test_root_exports_match_readme():
    block = _library_block()
    names = set(re.findall(r"\b[A-Za-z_]\w*\b", block.split("import", 1)[1]))
    assert set(tweetslots.__all__) == names
