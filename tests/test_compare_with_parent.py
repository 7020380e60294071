"""tools/compare_with_parent.py: the base is the parent of the newest commit,
along first parents, that changed the program."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_with_parent", Path(__file__).resolve().parents[1] / "tools" / "compare_with_parent.py")
compare_with_parent = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_with_parent)


def _git(repo: Path, *args: str) -> str:
    cmd = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false", *args]
    return subprocess.run(cmd, cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def _commit(repo: Path, rel: str, message: str) -> str:
    path = repo / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{message}\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", message)
    return _git(repo, "rev-parse", "HEAD")


def test_base_is_the_parent_of_the_last_program_change(tmp_path):
    _git(tmp_path, "init", "-q")
    _commit(tmp_path, "src/a.py", "program, no parent")
    assert compare_with_parent.default_base(tmp_path) is None
    docs = _commit(tmp_path, "README.md", "documents")
    assert compare_with_parent.default_base(tmp_path) is None
    change = _commit(tmp_path, "tools/compare_trees.py", "program")
    assert compare_with_parent.default_base(tmp_path) == (docs, change)
    _commit(tmp_path, "CHANGES.md", "documents only")
    assert compare_with_parent.default_base(tmp_path) == (docs, change)


def test_a_merge_commit_compares_with_its_first_parent(tmp_path):
    _git(tmp_path, "init", "-q")
    first = _commit(tmp_path, "src/a.py", "program")
    trunk = _git(tmp_path, "rev-parse", "--abbrev-ref", "HEAD")
    docs = _commit(tmp_path, "README.md", "documents")
    _git(tmp_path, "checkout", "-q", "-b", "side", first)
    _commit(tmp_path, "benchmarks/workloads.py", "program on a branch")
    _git(tmp_path, "checkout", "-q", trunk)
    _git(tmp_path, "merge", "-q", "--no-ff", "side", "-m", "merge")
    assert compare_with_parent.default_base(tmp_path) == (docs, _git(tmp_path, "rev-parse", "HEAD"))
