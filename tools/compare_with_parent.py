"""Compare the `tweetslots` run trees of this checkout with a base commit's.

    python tools/compare_with_parent.py [BASE]

Without BASE, the base is the parent of the newest commit, along first parents
from HEAD, that changed the program (`src`, `benchmarks/workloads.py` or
`tools/compare_trees.py`). So a commit that changes only documents still
compares the program with its real parent, and a `pull_request` merge commit
stays on its base branch. Given BASE, such as `HEAD` for work not yet
committed, the checkout is compared with that commit.

The base's `src` comes from `git archive` into a temporary directory, and the
checkout's side is its working tree. Each side must import `tweetslots` from
its own `src`. Every command runs with one BLAS thread. The checks:

- each workload of `benchmarks/workloads.py` at seeds 1, 2 and 3: `run` on
  both sides, and `tools/compare_trees.py` passes the two trees (byte for
  byte, or under its float-order rule; it prints which);
- `joint-33` at seed 1: each side runs `predict` with its own tree's
  `models/last-s0.bin` over its own `val_instances.jsonl`, and the two
  `--out` files are byte-identical (`cmp`);
- `ingest-noisy` at seed 1 with an emoji map and a COVID tag list of its own
  (`custom.ini`; the workloads clean with the packaged tables only):
  `preprocess` on both sides, and `diff -r` finds no difference;
- the same inputs with `seed` and `clean.enabled` moved off their defaults
  (`moved.ini`), which no workload does: `run` on both sides, compared by
  `tools/compare_trees.py`.

Exits 0 when every check passes or there is no base, 1 at the first check
that fails, and 2 on a usage error.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "benchmarks/workloads.py", "tools/compare_trees.py")
WORKLOADS = ("joint-33", "ingest-noisy", "single-slot")
SEEDS = (1, 2, 3)
_WRITE_INPUTS = ("import sys, pathlib, workloads; workloads.write_inputs("
                 "workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), pathlib.Path(sys.argv[3]))")
_EMOJI_MAP = ":)\t:smile:\nso\t:so:\nvia\t:via:\n…\t:dots:\n😷\t:mask:\n"  # its lowest key is ASCII
_COVID_TAGS = "#COVID19\n#StaySafe\n#notpackaged\n"


class Failed(Exception):
    """A check failed; the message says which."""


def _git(repo: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True)


def default_base(repo: Path = ROOT) -> tuple[str, str] | None:
    """(base, last): the newest first-parent commit ``last`` that changed the
    program, and its parent; None when there is no such commit or it has no parent."""
    last = _git(repo, "log", "-1", "--first-parent", "--format=%H", "--", *PROGRAM).stdout.strip()
    parent = _git(repo, "rev-parse", "-q", "--verify", f"{last}^") if last else None
    if parent is None or parent.returncode != 0:
        return None
    return parent.stdout.strip(), last


def _run(*cmd, pythonpath: str | None = None) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    if subprocess.run([str(part) for part in cmd], cwd=ROOT, env=env).returncode != 0:
        raise Failed(" ".join(str(part) for part in cmd))


def _check_import(side: str, src: Path) -> None:
    found = subprocess.run([sys.executable, "-c", "import tweetslots; print(tweetslots.__file__)"],
                           env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        raise Failed(f"{side}: tweetslots imported from {found!r}, not {src}")


def compare(base: str, work: Path) -> None:
    """Run every check of the module docstring in ``work``; raise Failed at the first that fails."""
    parent = work / "parent"
    parent.mkdir()
    archive = subprocess.Popen(["git", "archive", base, "src"], cwd=ROOT, stdout=subprocess.PIPE)
    extracted = subprocess.run(["tar", "-x", "-C", str(parent)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or extracted.returncode != 0:
        raise Failed(f"git archive {base} src")
    sides = {"parent": parent / "src", "head": ROOT / "src"}
    for side, src in sides.items():
        _check_import(side, src)

    def tweetslots(command: str, config: Path, out: Path) -> None:
        for side, src in sides.items():
            _run(sys.executable, "-m", "tweetslots.cli", command, "--config", config, "--output", f"{out}-{side}",
                 pythonpath=str(src))

    for workload in WORKLOADS:
        for seed in SEEDS:
            print(f"== {workload}, seed {seed}", flush=True)
            run = work / f"{workload}-{seed}"
            _run(sys.executable, "-c", _WRITE_INPUTS, workload, seed, run / "in",
                 pythonpath=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'benchmarks'}")
            tweetslots("run", run / "in" / "config.ini", run / "tree")
            _run(sys.executable, ROOT / "tools" / "compare_trees.py", run / "tree-parent", run / "tree-head")

    print("== joint-33, seed 1, predict", flush=True)
    run = work / "joint-33-1"
    for side, src in sides.items():
        tree = run / f"tree-{side}"
        _run(sys.executable, "-m", "tweetslots.cli", "predict", "--config", run / "in" / "config.ini", "--output", tree,
             "--model", tree / "models" / "last-s0.bin", "--out", run / f"predict-{side}.jsonl", pythonpath=str(src))
    _run("cmp", run / "predict-parent.jsonl", run / "predict-head.jsonl")

    inputs = work / "ingest-noisy-1" / "in"
    config = (inputs / "config.ini").read_text(encoding="utf-8")
    (inputs / "emoji_map.tsv").write_text(_EMOJI_MAP, encoding="utf-8")
    (inputs / "covid_tags.txt").write_text(_COVID_TAGS, encoding="utf-8")
    (inputs / "custom.ini").write_text(
        config + "data.emoji_map = emoji_map.tsv\ndata.covid_tags = covid_tags.txt\n", encoding="utf-8")
    print("== ingest-noisy, seed 1, custom.ini", flush=True)
    tweetslots("preprocess", inputs / "custom.ini", inputs.parent / "custom")
    _run("diff", "-r", inputs.parent / "custom-parent", inputs.parent / "custom-head")

    moved = ["seed = 2" if line == "seed = 0" else line for line in config.splitlines()]
    if "seed = 2" not in moved:
        raise Failed("moved.ini does not set seed = 2")
    (inputs / "moved.ini").write_text("\n".join([*moved, "clean.enabled = false"]) + "\n", encoding="utf-8")
    print("== ingest-noisy, seed 1, moved.ini", flush=True)
    tweetslots("run", inputs / "moved.ini", inputs.parent / "moved")
    _run(sys.executable, ROOT / "tools" / "compare_trees.py", inputs.parent / "moved-parent",
         inputs.parent / "moved-head")


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv[:1] in (["-h"], ["--help"]):
        print(__doc__, file=sys.stderr)
        return 2
    if argv:
        resolved = _git(ROOT, "rev-parse", "-q", "--verify", f"{argv[0]}^{{commit}}")
        if resolved.returncode != 0:
            print(f"not a commit: {argv[0]}", file=sys.stderr)
            return 2
        base = resolved.stdout.strip()
        print(f"base: {base}")
    else:
        found = default_base()
        if found is None:
            print("no parent of a program change: nothing to compare")
            return 0
        base = found[0]
        print(f"base: {base}, the parent of {found[1]}")
    with tempfile.TemporaryDirectory(prefix="compare-with-parent-") as work:
        try:
            compare(base, Path(work))
        except Failed as exc:
            print(f"failed: {exc}", file=sys.stderr)
            return 1
    print("every run tree matches the base's")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
