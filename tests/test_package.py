"""The README matches the code: the package root exports exactly the names of
its Library section, and its config paragraph lists exactly the known keys
with the defaults that the parser applies. The package modules import nothing
they do not use, and open no file for writing except through
``corpus.write_file``. Every error class for bad input is a ``DataError``, so
the command line's one handler maps each to its exit code."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import tweetslots
from tweetslots import pipeline
from tweetslots.corpus import DataError

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


def test_readme_output_tree_matches_the_stage_table():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| artifact | path | written by | read by |"):].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        artifact, path, writers, readers = (re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|"))
        rows[artifact[0]] = (path[0], writers, readers)

    def commands(name: str, column: int) -> list[str]:  # stage evaluate_filtered is evaluate --filtered
        return [stage.replace("_", " --") for stage, entry in pipeline._STAGES.items() if name in entry[column]]

    assert rows == {name: (path, commands(name, 2), commands(name, 1)) for name, path in pipeline.ARTIFACTS.items()}


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


def _write_sites(source: str) -> list[str]:
    """Calls that open a file for writing, other than those inside
    ``write_file`` and the ``os.open`` of the output lock."""
    tree = ast.parse(source)

    def inside(kind, name):
        return {id(n) for top in ast.walk(tree) if isinstance(top, kind) and top.name == name for n in ast.walk(top)}

    writer, lock = inside(ast.FunctionDef, "write_file"), inside(ast.ClassDef, "_OutputLock")
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in writer:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            if id(node) not in lock:
                found.append((node.lineno, "os.open"))
        elif name == "open":
            # open(path, mode) or Path(path).open(mode); an absent mode reads,
            # a mode that is not a literal counts as a write.
            at = 1 if isinstance(func, ast.Name) else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
            mode = getattr(modes[0], "value", None) if modes else "r"
            if not isinstance(mode, str) or set(mode) & set("wax+"):
                found.append((node.lineno, "open"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_write_site_check_sees_each_form():
    source = (
        "import os\n"
        "def write_file(p):\n    open(p, 'wb')\n"
        "class _OutputLock:\n    def take(self):\n        os.open(self.p, os.O_CREAT)\n"
        "def reads(p, mode):\n    open(p)\n    open(p, 'rb')\n    p.open(encoding='utf-8')\n    p.read_text()\n"
        "def writes(p, mode):\n    open(p, 'w')\n    open(p, mode=mode)\n    p.open('a')\n"
        "    p.write_text('x')\n    p.write_bytes(b'x')\n    os.open(p, os.O_WRONLY)\n"
    )
    assert _write_sites(source) == [
        f"line {n}: {name}" for n, name in
        [(13, "open"), (14, "open"), (15, "open"), (16, "write_text"), (17, "write_bytes"), (18, "os.open")]
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_file_write_goes_through_write_file(module):
    assert _write_sites((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_every_value_error_of_the_package_is_a_data_error():
    found = {}
    for info in pkgutil.iter_modules(tweetslots.__path__):
        module = importlib.import_module(f"tweetslots.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, ValueError) and obj.__module__ == module.__name__:
                found[name] = obj
    assert len(found) >= 11  # DataError and the ten classes derived from it, at least
    assert [name for name, cls in found.items() if not issubclass(cls, DataError)] == []
