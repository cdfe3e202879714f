"""CLI entry point: ``python -m documentprocessor_ray.run --config job.yaml``.

Reference analog: the process/preprocess/ocr/inference subcommand CLI
(Ocr/cli.py:45-126; args at Ocr/src/cli/args.py:127-341) collapsed to one
driver: phases are chained map_batches on one Dataset, not separate
subprocesses with JSON files in between (SURVEY.md §3.2). Submit on a
cluster with ``ray job submit -- python -m documentprocessor_ray.run ...``.

Owns its Ray session (standalone use); --resume skips completed partitions
via the checkpoint manifests (state/checkpoint.py).
"""

from __future__ import annotations

import argparse
import json
import sys


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="documentprocessor_ray.run")
    ap.add_argument("--config", help="YAML job config (config.py schema)")
    ap.add_argument("--documents-dir")
    ap.add_argument("--media-dir")
    ap.add_argument("--output-dir")
    ap.add_argument("--batch-size", type=int)
    ap.add_argument("--model",
                    help="scorer name (rule|null|donut|idefics2); omit for "
                         "heuristics only")
    ap.add_argument("--engine", help="OCR engine registry name (default: kernel)")
    ap.add_argument("--max-partitions", type=int)
    ap.add_argument("--debug-dir", help="S7 per-page debug image sink")
    ap.add_argument("--html-mode", choices=["blocks", "dom"],
                    help="html-span extractor: flat block strip or DOM heuristics")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="standalone only; ignored when Ray is already initialised")
    # per-step preprocess toggles (reference args.py:127-341 knob surface)
    ap.add_argument("--deskew", action=argparse.BooleanOptionalAction, default=None)
    ap.add_argument("--denoise", action=argparse.BooleanOptionalAction, default=None)
    ap.add_argument("--remove-background", action=argparse.BooleanOptionalAction,
                    default=None)
    ap.add_argument("--bg-fuzz-percent", type=float)
    ap.add_argument("--contrast", choices=["sigmoidal", "linear", "none"])
    ap.add_argument("--contrast-strength", type=float)
    ap.add_argument("--contrast-midpoint", type=float)
    ap.add_argument("--threshold", dest="apply_threshold",
                    action="store_true", default=None)
    ap.add_argument("--threshold-percent", type=float)
    ap.add_argument("--target-dpi", type=int)
    ap.add_argument("--assumed-dpi", type=int)
    return ap


_PRE_KEYS = ["deskew", "denoise", "remove_background", "bg_fuzz_percent",
             "contrast", "contrast_strength", "contrast_midpoint",
             "apply_threshold", "threshold_percent", "target_dpi", "assumed_dpi"]


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    from .config import load_config

    pre_overrides = {k: getattr(args, k) for k in _PRE_KEYS
                     if getattr(args, k, None) is not None}
    cfg = load_config(args.config, overrides={
        "documents_dir": args.documents_dir,
        "media_dir": args.media_dir,
        "output_dir": args.output_dir,
        "batch_size": args.batch_size,
        "model": args.model,
        "engine": args.engine,
        "max_partitions": args.max_partitions,
        "debug_dir": args.debug_dir,
        "html_mode": args.html_mode,
        **({"preprocess": pre_overrides} if pre_overrides else {}),
    })
    if not cfg.documents_dir or not cfg.media_dir or not cfg.output_dir:
        print("documents_dir, media_dir and output_dir are required", file=sys.stderr)
        return 2

    import ray

    if not ray.is_initialized():  # driver-owned sessions stay untouched
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)

    from .state.checkpoint import run_partitioned

    summary = run_partitioned(
        cfg.documents_dir, cfg.media_dir, cfg.output_dir,
        cfg=cfg.preprocess, batch_size=cfg.batch_size,
        max_partitions=cfg.max_partitions,
        model=cfg.model, debug_dir=cfg.debug_dir,
        engine=cfg.engine, html_mode=cfg.html_mode,
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
