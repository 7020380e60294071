"""End-to-end and per-layer benchmark of the tweetslots stage pipeline.

Usage, from the repository root:

    python3 benchmarks/run.py --workload joint-33 --seed 1 --seconds 40 --trace 0

One closed-loop client in this process generates the workload's corpus and
config from ``--seed``, then runs the seven ``pipeline.stage_*`` functions in
order over a fresh output directory, again and again until ``--seconds`` is
used up, checking every run's outputs. Set-up time is measured in separate
fresh processes before the loop. Every time is scaled to a nominal host speed
by a reference kernel timed after each set-up probe and each stage group
(see ``reference.py``); the report line also holds the raw wall times.

``--trace 0`` prints the end-to-end metrics (medians over pipeline runs).
``--trace 1`` alternates untraced and traced pipeline runs and prints the
per-layer metrics from the traced ones. The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the full report (environment, samples, checks, notes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# One BLAS thread, well under the core count: the pipeline is a single
# Python thread of small matmuls, and one thread leaves the other cores to
# the rest of the machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5

CHECKS = ("row_count", "filter_monotone", "nullified_text", "f1_floor", "f1_repeatable")
NOT_SPECIFIED = "Not Specified"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _setup_times(config_path: Path, ref) -> tuple[list[tuple[float, int]], int]:
    """Fresh-process set-up times after one warm-up probe, each as (wall
    seconds, reference position); plus failures. The reference kernel is
    timed after each probe."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)]
    times, failures = [], 0
    for i in range(SETUP_PROBES + 1):
        position = ref.position()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        ref.sample()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            failures += i > 0
        elif i > 0:
            times.append((float(proc.stdout.split()[-1]), position))
    return times, failures


def _run_stages(pipeline, config_path: Path, out_dir: Path, ref) -> tuple[dict[str, tuple[float, int]], int]:
    """Run every stage, timing the reference kernel after each stage group.

    Returns each stage's (wall seconds, reference position) and the number
    of stages that completed with their artifacts on disk (stops at the
    first miss)."""
    cfg = pipeline.load_config(config_path)
    out_dir.mkdir(parents=True)
    fn_names = dict(spec.STAGES)
    times: dict[str, tuple[float, int]] = {}
    for group in spec.STAGE_GROUPS:
        position = ref.position()
        for label in group:
            start = time.perf_counter()
            try:
                artifacts = getattr(pipeline, fn_names[label])(cfg, out_dir)
            except Exception:
                traceback.print_exc()
                return times, len(times)
            if not artifacts or not all(Path(p).is_file() for p in artifacts.values()):
                print(f"stage {label}: missing artifacts {artifacts!r}", file=sys.stderr)
                return times, len(times)
            times[label] = (time.perf_counter() - start, position)
        ref.sample()
    return times, len(times)


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_outputs(out_dir: Path, expected_rows: int, floor: float, first_f1: float | None) -> tuple[dict, float]:
    """Output checks of one pipeline run; returns ({check: ok}, filtered F1)."""
    raw = _read_jsonl(out_dir / "predictions.jsonl")
    filtered = _read_jsonl(out_dir / "predictions_filtered.jsonl")
    f1 = float(json.loads((out_dir / "report_filtered.json").read_text(encoding="utf-8"))["micro_f1"])
    nullified = [r for r in filtered if r.get("filtered")]
    ok = {
        "row_count": len(raw) == expected_rows and len(filtered) == expected_rows,
        "filter_monotone": sum(r["decision"] for r in filtered) <= sum(r["decision"] for r in raw),
        "nullified_text": all(r["chunk_text"] == NOT_SPECIFIED for r in nullified),
        "f1_floor": f1 >= floor,
        "f1_repeatable": first_f1 is None or f1 == first_f1,
    }
    return ok, f1


def _expected_rows(out_dir: Path, tweets: list, registry, explode) -> int:
    """Exploded (tweet, subtask, candidate) triples of the validation split."""
    manifest = json.loads((out_dir / "split_manifest.json").read_text(encoding="utf-8"))
    by_id = {t.id: t for t in tweets}
    return len(explode([by_id[i] for i in manifest["val_ids"]], registry))


def _time_samples(setup: list, runs: list[dict], seconds) -> dict[str, list[float]]:
    """Per-metric time samples; ``seconds(wall, position)`` converts one
    timed interval."""
    return {
        "setup_s": [seconds(*t) for t in setup],
        "run_s": [sum(seconds(*t) for t in r.values()) for r in runs],
        "preprocess_s": [seconds(*r["preprocess"]) for r in runs],
        "train_s": [seconds(*r["train"]) for r in runs],
        "infer_s": [sum(seconds(*r[s]) for s in spec.INFER_STAGES) for r in runs],
    }


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "samples": [round(v, 6) for v in values]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tweetslots" / "__init__.py").is_file():
        print(f"benchmark: no tweetslots package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import workloads
    from tweetslots import pipeline

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(pipeline.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: tweetslots imported from {pipeline.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _bench(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, workload, work: Path) -> int:
    import tracing
    import workloads
    from tweetslots import corpus, pipeline

    config_path, tweets = workloads.write_inputs(workload, args.seed, work / "inputs")
    registry = workloads.registry_for(workload)
    ref = reference.Reference()
    ref.sample()
    setup, probe_failures = _setup_times(config_path, ref)
    attempted, failed = SETUP_PROBES, probe_failures

    tracer = tracing.Tracer()
    traced_iters: list = []
    stage_runs: dict[bool, list[dict]] = {False: [], True: []}
    f1_values: list[float] = []
    check_failures = dict.fromkeys(CHECKS, 0)
    start = time.perf_counter()
    min_iters = 2 if args.trace else 1
    iteration = 0
    while True:
        traced = bool(args.trace) and iteration % 2 == 1
        out_dir = work / f"run{iteration}"
        if traced:
            tracer.reset()
            tracer.install()
        try:
            times, stages_ok = _run_stages(pipeline, config_path, out_dir, ref)
        finally:
            tracer.remove()
        attempted += len(spec.STAGES) + len(CHECKS)
        if stages_ok < len(spec.STAGES):
            failed += len(spec.STAGES) - stages_ok + len(CHECKS)
        else:
            stage_runs[traced].append(times)
            if traced:
                traced_iters.append((tracer.spans, dict(tracer.counts)))
            try:
                expected = _expected_rows(out_dir, tweets, registry, corpus.explode_instances)
                ok, f1 = _check_outputs(out_dir, expected, workload.floor_f1, f1_values[0] if f1_values else None)
                f1_values.append(f1)
            except (OSError, LookupError, ValueError, TypeError) as exc:
                print(f"output checks: {exc!r}", file=sys.stderr)
                ok = dict.fromkeys(CHECKS, False)
            for name, passed in ok.items():
                if not passed:
                    failed += 1
                    check_failures[name] += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        iteration += 1
        elapsed = time.perf_counter() - start
        if iteration >= min_iters and elapsed * (iteration + 1) / iteration > args.seconds:
            break

    samples = _time_samples(setup, stage_runs[False], ref.scale)
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "iterations": iteration,
        "summary": {name: _summary(v) for name, v in samples.items() if v},
        "wall_summary": {
            name: _summary(v) for name, v in _time_samples(setup, stage_runs[False], lambda w, _: w).items() if v
        },
        "reference": {
            "nominal_s": reference.NOMINAL_S, "window": reference.WINDOW, "elasticity": reference.ELASTICITY,
            **_summary(ref.samples),
        },
        "check_failures": check_failures,
        "setup_probe_failures": probe_failures,
        "f1_floor": workload.floor_f1,
    }
    if args.trace:
        traced_run = _time_samples([], stage_runs[True], ref.scale)["run_s"]
        overhead = (
            statistics.median(traced_run) / statistics.median(samples["run_s"]) - 1.0
            if traced_run and samples["run_s"] else 0.0
        )
        values, notes = tracing.layer_metrics(traced_iters, overhead, ref.run_scale()) if traced_iters else ({}, {})
        report["absent"] = tracer.absent
        report["layers"] = notes
        metrics = {name: (values.get(name, 0.0), unit) for name, unit, _ in spec.per_layer()}
    else:
        medians = {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
        medians["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians["micro_f1_filtered"] = f1_values[0] if f1_values else 0.0
        medians["ok_frac"] = (attempted - failed) / attempted
        metrics = {name: (medians[name], unit) for name, unit, _ in spec.END_TO_END}

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
