"""The README matches the code: the package root exports exactly the names of
its Library section, and its config paragraph lists exactly the known keys
with the defaults that the parser applies. The package modules import nothing
they do not use."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import tweetslots
from tweetslots import pipeline

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(tweetslots.__file__).resolve().parent


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


def test_readme_config_keys_match_the_parser():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("All keys"):].split("\n\n", 1)[0]
    keys = set(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", paragraph)))
    assert keys == pipeline._KNOWN_KEYS


def test_readme_defaults_match_the_parser(ws, tmp_path):
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("All keys"):].split("\n\n", 1)[0]
    corpus = f"data.corpus = {ws / 'corpus.jsonl'}\n"
    lines = []
    for key, note in re.findall(r"`([^`]+)`(?:\s+\(([^)]*)\))?", paragraph):
        default = note.split(";")[0]
        if default and default != "required":
            lines.append(f"{key} = {default}\n")
    assert len(lines) == len(pipeline._KNOWN_KEYS) - 6  # the data.* keys have no default
    (tmp_path / "minimal.ini").write_text(corpus, encoding="utf-8")
    (tmp_path / "defaults.ini").write_text(corpus + "".join(lines), encoding="utf-8")
    assert pipeline.load_config(tmp_path / "defaults.ini") == pipeline.load_config(tmp_path / "minimal.ini")


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression reads and
    ``__all__`` does not export."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in used]


def test_unused_import_check_sees_one():
    assert _unused_imports("import os\nfrom typing import Iterable, Sequence\nx: Sequence = os.sep\n") == [
        "line 2: Iterable"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_module_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
