"""Partitioned, resumable run driver with per-partition lineage + metrics.

Ray Data restarts a killed pipeline from scratch, so the checkpoint unit is
made explicit here (SURVEY.md §4.2): the input corpus is hash-partitioned on
doc_id (corpus.py writes ``documents/part={i}/``); each partition runs the
flagship's own Dataset (``run_extraction``, or ``run_scored_extraction``
when a model is set) as its own streaming job and commits

    output_dir/part={i}/*.parquet          (the result rows)
    output_dir/_manifest/part-{i}.json     (lineage + counters, atomic rename)

A resumed run lists manifests first and SKIPS every partition whose manifest
exists with a matching config hash — completed work is never recomputed, and
a partition is only considered complete after its manifest rename (writes
happen before the manifest, so a crash mid-partition re-runs just that
partition; the torn output is deleted before the retry).

The manifest replaces the reference's in-memory C# job dict
(Api/ServiceSideDocumentProcessor.cs:20,659-778) — progress/counters live in
durable per-partition records instead of mutable process state.

At cluster scale the partition loop becomes "submit one job per incomplete
partition"; partition count P is chosen so one partition's working set fits
a node's object store (P = total_bytes / (nodes * store_budget)).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..pipelines.extract import run_extraction, run_scored_extraction
from ..stages.preprocess import PreprocessConfig


def _config_hash(cfg: Optional[PreprocessConfig], batch_size: int,
                 model: Optional[str] = None) -> str:
    payload = json.dumps({
        "cfg": vars(cfg) if cfg else vars(PreprocessConfig()),
        "batch_size": batch_size,
        "model": model,
    }, sort_keys=True, default=str)
    return hashlib.md5(payload.encode()).hexdigest()


def _manifest_path(output_dir: str, part: str) -> str:
    return os.path.join(output_dir, "_manifest", f"{part}.json")


def list_partitions(documents_dir: str) -> List[str]:
    return sorted(
        d for d in os.listdir(documents_dir)
        if d.startswith("part=") and os.path.isdir(os.path.join(documents_dir, d))
    )


def completed_partitions(output_dir: str, config_hash: str) -> List[str]:
    mdir = os.path.join(output_dir, "_manifest")
    if not os.path.isdir(mdir):
        return []
    done = []
    for f in sorted(os.listdir(mdir)):
        if not f.endswith(".json"):
            continue
        try:
            with open(os.path.join(mdir, f)) as fh:
                m = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue  # torn manifest = incomplete partition
        if m.get("config_hash") == config_hash:
            done.append(m["partition"])
    return done


def _write_block(block: pa.Table, part_out: str) -> pa.Table:
    """Write one result block as one parquet file in ``part_out`` and return
    its counters as a one-row table. The file is named by a digest of the
    block's smallest doc_id, so a retried task overwrites its own earlier
    attempt instead of adding a second copy of its rows."""
    if block.num_rows:
        first = str(pc.min(block["doc_id"]).as_py())
        name = hashlib.md5(first.encode()).hexdigest() + ".parquet"
        pq.write_table(block, os.path.join(part_out, name))
    return pa.table({
        "docs_in": [block.num_rows],
        "docs_ok": [pc.sum(pc.equal(block["status"], "done")).as_py() or 0],
        "words": [pc.sum(block["n_words"]).as_py() or 0],
        "spans_out": [
            pc.sum(pc.list_value_length(block["spans_out"])).as_py() or 0],
    })


def run_partitioned(
    documents_dir: str,
    media_dir: str,
    output_dir: str,
    cfg: Optional[PreprocessConfig] = None,
    batch_size: int = 64,
    max_partitions: Optional[int] = None,
    model: Optional[str] = None,
    debug_dir: Optional[str] = None,
    engine=None,
    html_mode: str = "blocks",
) -> Dict[str, Any]:
    """Run (or resume) the extraction over all input partitions.

    ``max_partitions`` limits how many incomplete partitions this invocation
    processes (used by the kill-and-resume test to simulate a dying run).
    Each incomplete partition runs ``run_extraction`` over its directory, or
    ``run_scored_extraction`` (the scorer actor pool, stages/scorer.py) when
    ``model`` is set; the remaining knobs thread straight to it so the CLI
    surface is not silently dropped. The Dataset is consumed once: every
    block is written and counted by the same task (``_write_block``).
    Returns a summary with per-partition status.
    """
    chash = _config_hash(cfg, batch_size, model=model)
    parts = list_partitions(documents_dir)
    done = set(completed_partitions(output_dir, chash))
    summary: Dict[str, Any] = {"config_hash": chash, "partitions": {}, "skipped": sorted(done)}
    processed = 0

    for part in parts:
        if part in done:
            summary["partitions"][part] = "skipped"
            continue
        if max_partitions is not None and processed >= max_partitions:
            summary["partitions"][part] = "deferred"
            continue
        t0 = time.time()
        part_out = os.path.join(output_dir, part)
        if os.path.isdir(part_out):
            # no manifest VALID FOR THIS CONFIG -> any existing output is a
            # torn previous attempt (or a different-config run). Remove the
            # partition's manifest FIRST — whatever config hash it carries —
            # so a stale manifest can never outlive deleted data: if this
            # run crashes between rmtree and its own manifest commit, a
            # later resume under the OLD config must re-run the partition,
            # not skip it as complete (silent data loss otherwise).
            # Delete-then-rewrite makes the retry idempotent; the manifest
            # rename stays the single commit point.
            import shutil

            stale_manifest = _manifest_path(output_dir, part)
            if os.path.exists(stale_manifest):
                os.remove(stale_manifest)
            shutil.rmtree(part_out)
        in_path = os.path.join(documents_dir, part)
        kwargs = dict(cfg=cfg, batch_size=batch_size, html_mode=html_mode,
                      debug_dir=debug_dir, engine=engine)
        if model is None:
            ds = run_extraction(in_path, media_dir, **kwargs)
        else:
            ds = run_scored_extraction(in_path, media_dir, model=model,
                                       scorer_batch_size=batch_size, **kwargs)
        os.makedirs(part_out, exist_ok=True)
        # one pass: the task that writes a block also counts it; the
        # manifest rename below stays the atomic commit point
        rows = ds.map_batches(_write_block, batch_size=None,
                              batch_format="pyarrow",
                              fn_kwargs={"part_out": part_out}).take_all()
        counters = {k: sum(int(r[k]) for r in rows)
                    for k in ("docs_in", "docs_ok", "words", "spans_out")}
        counters["docs_failed"] = counters["docs_in"] - counters["docs_ok"]

        manifest = {
            "partition": part,
            "config_hash": chash,
            "lineage": {
                "input_dir": in_path,
                "input_files": sorted(os.listdir(in_path)),
                "media_dir": media_dir,
            },
            "counters": counters,
            "wall_ms": int((time.time() - t0) * 1000),
            "committed_at": time.time(),
        }
        mpath = _manifest_path(output_dir, part)
        os.makedirs(os.path.dirname(mpath), exist_ok=True)
        tmp = mpath + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2)
        os.replace(tmp, mpath)  # atomic commit point
        summary["partitions"][part] = "done"
        processed += 1

    return summary
