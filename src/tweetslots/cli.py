"""Command-line entry point.

``run`` executes the whole pipeline. Every stage of ``pipeline._STAGES`` is
also a subcommand of the same name (``evaluate --filtered`` selects
``evaluate_filtered``). ``run`` and each stage subcommand reach a stage only
through ``pipeline.run_stage``, under the same output-directory lock, an
``flock`` that dies with its holder (a held lock gives exit 3). A stage
whose declared input is missing exits 3, naming the file and the subcommand
that writes it. Running the stages in sequence over one output directory
reproduces the ``run`` tree byte for byte, except for ``run_manifest.json``,
which only ``run`` writes. ``predict`` is not a stage: it scores instances
with one trained model into its required ``--out``, and refuses (exit 2)
an ``--out`` that is its ``--config``, ``--model`` or ``--instances`` file,
an artifact of ``--output`` or its ``run_manifest.json``.
No option sets a config key: the config file is the whole record of a run.
Logs go to stderr.

Exit codes: 0 success, 2 configuration error, 3 data or environment error,
4 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline, serialize
from .corpus import DataError
from .multitask import DivergenceError, TrainConfig, predict as predict_records
from .pipeline import ConfigError, PipelineError

log = logging.getLogger("tweetslots")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetslots",
        description="Slot extraction over annotated tweets: preprocessing, joint training, "
        "ensembling, type-aware filtering, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config file")
        p.add_argument("--output", default="out", help="artifact directory (default: out)")
        return p

    add("preprocess", "split the corpus and write masked instance files")
    add("train", "train every (strategy, seed) pool member")
    p = add("predict", "predict with a single trained model")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument(
        "--instances",
        default=None,
        help="instance JSONL, one row per (tweet, candidate), expanded in explode order "
        f"(default: <output>/{pipeline.ARTIFACTS['val_instances']})",
    )
    p.add_argument("--out", type=Path, required=True, help="prediction JSONL to write")
    add("ensemble", "majority-vote the top-k pool members")
    add("postprocess", "filter predictions against expected entity types")
    p = add("evaluate", "score predictions against the gold corpus")
    p.add_argument("--filtered", action="store_true", help="score the postprocessed predictions")
    add("ablate", "compare filtered vs unfiltered reports")
    add("run", "execute the full pipeline")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    cfg = pipeline.load_config(args.config)
    out_dir = Path(args.output)
    command = args.command

    if command == "run":
        manifest = pipeline.run_pipeline(cfg, out_dir)
        log.info("run complete; manifest at %s", manifest)
        return EXIT_OK

    if command == "predict":  # before the lock, so a refused --out leaves nothing behind
        instances_path = Path(args.instances) if args.instances else out_dir / pipeline.ARTIFACTS["val_instances"]
        target = args.out.resolve()
        for option, path in (("--config", Path(args.config)), ("--model", Path(args.model)),
                             ("--instances", instances_path)):
            if target == path.resolve():
                raise ConfigError(f"--out {args.out} is the file predict reads as {option}; "
                                  "predict overwrites no input")
        tree = [*pipeline.artifact_paths(cfg, out_dir, pipeline.ARTIFACTS).values(), out_dir / pipeline.RUN_MANIFEST]
        if target in {path.resolve() for path in tree}:
            raise ConfigError(f"--out {args.out} is a file of the run tree in --output {out_dir}; predict writes none")
    with pipeline._OutputLock(out_dir):
        if command == "predict":
            params = serialize.load_model(args.model)
            instances = serialize.load_instances(instances_path, params.encoder.config)
            records = predict_records(params, instances, TrainConfig(threshold=cfg.train.threshold))
            serialize.save_predictions(records, args.out)
            log.info("predict: %d records -> %s", len(records), args.out)
        else:
            name = "evaluate_filtered" if command == "evaluate" and args.filtered else command
            pipeline.run_stage(name, cfg, out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except DivergenceError as exc:
        log.error("training diverged: %s", exc)
        return EXIT_DIVERGENCE
    except (DataError, PipelineError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
