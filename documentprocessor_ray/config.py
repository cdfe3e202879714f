"""Job configuration: dataclass defaults + YAML overlay + CLI overrides.

Reference analog: Ocr/src/config.py:13-97 (defaults + user YAML with
recursive merge) and Ocr/src/cli/args.py:127-341 (CLI knobs). Device
resolution (reference A8, receipt_processor.py:56-70) is intentionally
absent: Ray resource scheduling (num_cpus/num_gpus per stage) replaces
in-UDF device probing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .stages.preprocess import PreprocessConfig


@dataclass
class JobConfig:
    """Everything a pipeline run needs; YAML keys mirror field names."""

    documents_dir: str = ""
    media_dir: str = ""
    output_dir: str = ""
    model: Optional[str] = None          # None = heuristics only; "rule"/"null"
    max_partitions: Optional[int] = None
    debug_dir: Optional[str] = None      # S7 debug sink, off by default
    engine: Optional[str] = None         # OCR engine registry name (None = kernel)
    html_mode: str = "blocks"            # html spans: blocks | dom extractor
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)


def _merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    """Recursive dict merge — override wins, nested dicts merge
    (reference config.py:48-60 semantics)."""
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _to_dict(cfg: JobConfig) -> Dict[str, Any]:
    d = dataclasses.asdict(cfg)
    return d


def load_config(path: Optional[str] = None,
                overrides: Optional[Dict[str, Any]] = None) -> JobConfig:
    """defaults <- YAML file <- explicit overrides (CLI)."""
    merged = _to_dict(JobConfig())
    if path:
        import yaml

        with open(path) as f:
            user = yaml.safe_load(f) or {}
        if not isinstance(user, dict):
            raise ValueError(f"config root must be a mapping: {path}")
        merged = _merge(merged, user)
    if overrides:
        merged = _merge(merged, {k: v for k, v in overrides.items() if v is not None})
    pre = merged.pop("preprocess", {}) or {}
    known_pre = {f.name for f in dataclasses.fields(PreprocessConfig)}
    bad = set(pre) - known_pre
    if bad:
        raise ValueError(f"unknown preprocess keys: {sorted(bad)}")
    known = {f.name for f in dataclasses.fields(JobConfig)} - {"preprocess"}
    bad = set(merged) - known
    if bad:
        raise ValueError(f"unknown config keys: {sorted(bad)}")
    return JobConfig(preprocess=PreprocessConfig(**pre), **merged)
