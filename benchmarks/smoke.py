"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root: ``python3 benchmarks/smoke.py``. It is kept out
of the unit-test suite (the file name does not match ``test_*.py``). It checks:

- the generator writes identical bytes for the same seed, and a different
  corpus for another seed;
- the ingest-noisy decoration carries every ``clean()`` target and keeps
  every candidate span valid;
- both trace modes print exactly the metric names and units of
  ``BENCHMARK.json``, with every output check passing;
- in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_work" / "smoke"
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tweetslots.corpus import load_corpus  # noqa: E402
from tweetslots.preprocess import CleanConfig, clean  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_generator() -> None:
    for workload in workloads.WORKLOADS.values():
        tiny = dataclasses.replace(workload, n_tweets=25)
        a, _ = workloads.write_inputs(tiny, 3, SCRATCH / tiny.name / "a")
        b, _ = workloads.write_inputs(tiny, 3, SCRATCH / tiny.name / "b")
        c, _ = workloads.write_inputs(tiny, 4, SCRATCH / tiny.name / "c")
        check(_files(a.parent) == _files(b.parent), f"{tiny.name}: same seed, different bytes")
        check(
            (a.parent / "corpus.jsonl").read_bytes() != (c.parent / "corpus.jsonl").read_bytes(),
            f"{tiny.name}: seeds 3 and 4 gave the same corpus",
        )
        tweets = load_corpus(a.parent / "corpus.jsonl", workloads.registry_for(tiny))
        check(len(tweets) == 25, f"{tiny.name}: expected 25 tweets")
        if tiny.noisy:
            cfg = CleanConfig()
            for t in tweets:
                tail = t.text[max(end for _, end in t.candidates):]
                for needle in ("@user", "https://t.co/", "“", "”", "…", " "):
                    check(needle in tail, f"{t.id}: decoration lacks {needle!r}")
                cleaned = clean(tail, cfg)
                for token in ("<USER>", "<URL>", "<COVID_TAG>"):
                    check(token in cleaned, f"{t.id}: cleaning the decoration gave no {token}")
                check(":" in cleaned, f"{t.id}: decoration emoji was not mapped to an alias")


def _run_tiny(workload_name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload_name, "--seed", "5", "--seconds", "1", "--trace", str(trace)])
    check(code == 0, f"{workload_name} trace={trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS), "workload names differ")
    original = dict(workloads.WORKLOADS)
    try:
        for name, workload in original.items():
            tiny_config = {**workload.config, "train.epochs": "1"}
            workloads.WORKLOADS[name] = dataclasses.replace(workload, n_tweets=30, config=tiny_config, floor_f1=0.0)
            for trace in (0, 1):
                result = _run_tiny(name, trace)
                check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
                check(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: failed checks")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected[trace], f"{name} trace={trace}: metric names or units differ from BENCHMARK.json")
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(original)


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "joint-33", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: expected a non-zero exit and no result")


if __name__ == "__main__":
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_generator()
        check_metric_names()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("benchmark smoke test passed")
