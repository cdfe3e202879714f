"""Partitioned, resumable run driver with per-partition lineage + metrics.

Ray Data restarts a killed pipeline from scratch, so the checkpoint unit is
made explicit here (SURVEY.md §4.2): the input corpus is hash-partitioned on
doc_id (corpus.py writes ``documents/part={i}/``); each partition runs the
flagship's own Dataset (``run_extraction``, or ``run_scored_extraction``
when a model is set) as its own streaming job and commits

    output_dir/part={i}/*.parquet          (the result rows)
    output_dir/_manifest/part-{i}.json     (lineage, counters and each
                                            file's rows; atomic rename)

A resumed run lists manifests first and SKIPS every partition whose manifest
exists with a matching config hash and whose listed files all exist —
completed work is never recomputed, and a partition is only considered
complete after its manifest rename (writes happen before the manifest, so a
crash mid-partition re-runs just that partition; the torn output is deleted
before the retry).

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
import uuid
from typing import Any, Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ocr_kernel import engine_key
from ..pipelines.extract import run_extraction, run_scored_extraction
from ..stages.preprocess import PreprocessConfig


def _config_hash(cfg: Optional[PreprocessConfig], model: Optional[str],
                 engine, html_mode: str) -> str:
    """Hash of every option that changes a partition's rows: a manifest
    under another hash is not a completed partition for this run."""
    payload = json.dumps({
        "cfg": vars(cfg) if cfg else vars(PreprocessConfig()),
        "model": model,
        "engine": engine_key(engine),
        "html_mode": html_mode,
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
    """Partitions whose manifest matches ``config_hash`` and whose listed
    files all exist. A manifest without a ``files`` entry (written before
    manifests listed their files) counts as incomplete."""
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
        part_out = os.path.join(output_dir, m.get("partition", ""))
        if m.get("config_hash") == config_hash and "files" in m and all(
                os.path.exists(os.path.join(part_out, name))
                for name in m["files"]):
            done.append(m["partition"])
    return done


def _write_block(block: pa.Table, part_out: str) -> pa.Table:
    """Write one result block as one parquet file in ``part_out`` and return
    a one-row table of the file's name and its counters. Every attempt
    writes a file of its own name; the commit keeps only the files whose
    counters ``run_partitioned`` received (``_drop_unlisted``), so a
    retried task leaves one copy of its rows and two blocks never share a
    file."""
    name = ""
    if block.num_rows:
        name = uuid.uuid4().hex + ".parquet"
        pq.write_table(block, os.path.join(part_out, name))
    return pa.table({
        "file": [name],
        "docs_in": [block.num_rows],
        "docs_ok": [pc.sum(pc.equal(block["status"], "done")).as_py() or 0],
        "words": [pc.sum(block["n_words"]).as_py() or 0],
        "spans_out": [
            pc.sum(pc.list_value_length(block["spans_out"])).as_py() or 0],
    })


def _drop_unlisted(part_out: str, files: Dict[str, int]) -> None:
    """Delete every file in ``part_out`` that ``files`` does not name: the
    output of task attempts whose counters ``run_partitioned`` never
    received."""
    for name in os.listdir(part_out):
        if name not in files:
            os.remove(os.path.join(part_out, name))


def run_partitioned(
    documents_dir: str,
    media_dir: str,
    output_dir: str,
    cfg: Optional[PreprocessConfig] = None,
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
    ``model`` is set, with its default plan (one span task per read
    block); the remaining options thread straight to it so the CLI
    surface is not silently dropped. The Dataset is consumed once: every
    block is written and counted by the same task (``_write_block``).
    Returns a summary with per-partition status.
    """
    chash = _config_hash(cfg, model, engine, html_mode)
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
        kwargs = dict(cfg=cfg, html_mode=html_mode, debug_dir=debug_dir,
                      engine=engine)
        if model is None:
            ds = run_extraction(in_path, media_dir, **kwargs)
        else:
            ds = run_scored_extraction(in_path, media_dir, model=model,
                                       **kwargs)
        os.makedirs(part_out, exist_ok=True)
        # one pass: the task that writes a block also counts it; the
        # manifest rename below stays the atomic commit point
        rows = ds.map_batches(_write_block, batch_size=None,
                              batch_format="pyarrow",
                              fn_kwargs={"part_out": part_out}).take_all()
        counters = {k: sum(int(r[k]) for r in rows)
                    for k in ("docs_in", "docs_ok", "words", "spans_out")}
        counters["docs_failed"] = counters["docs_in"] - counters["docs_ok"]
        files = {r["file"]: int(r["docs_in"]) for r in rows if r["file"]}
        _drop_unlisted(part_out, files)

        manifest = {
            "partition": part,
            "config_hash": chash,
            "lineage": {
                "input_dir": in_path,
                "input_files": sorted(os.listdir(in_path)),
                "media_dir": media_dir,
            },
            "counters": counters,
            "files": files,
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
