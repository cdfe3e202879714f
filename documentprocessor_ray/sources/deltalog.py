"""Delta-Lake-style transaction-log table source (snapshot reads +
time travel) — from scratch, from the public Delta transaction log
protocol (delta.io PROTOCOL.md): a table is a directory of parquet data
files plus ``_delta_log/<version>.json`` commit files, each holding one
JSON action per line (``protocol`` / ``metaData`` / ``add`` /
``remove`` / ``commitInfo``). The ACTIVE snapshot at version V is the
set of ``add``ed paths not later ``remove``d, replaying commits
0..V in order.

Lakehouse hand-off is the third interchange family a user of the
reference brings (after columnar files, sources/columnar.py, and
row formats, sources/avro.py): an upstream job publishes a Delta
table, this engine reads a consistent snapshot of it. The log replay
is driver-side but TINY (one JSON line per file-level action — at
100 TB that is thousands of lines, not rows); the data read is a plain
``ray.data.read_parquet`` over the active file list, so column pruning
and streaming apply unchanged. Checkpoint-parquet log compaction is
implemented (checkpoint_delta writes the snapshot parquet +
``_last_checkpoint``; active_files seeds from it and replays only the
tail), alongside write_delta (commits exactly the files it staged),
vacuum_delta (retention-window sweep of unreferenced files) and
compact_delta (OPTIMIZE bin-packing).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

_LOG_DIR = "_delta_log"
# vacuum_delta keeps unreferenced files younger than this: they may be
# an in-flight writer's staged files (Delta's retention window)
_VACUUM_GRACE_S = 3600.0


def _versions(log_dir: str) -> List[int]:
    """Committed versions, ascending: only ``<20 digits>.json`` names."""
    return sorted(int(f[:20]) for f in os.listdir(log_dir)
                  if len(f) == 25 and f.endswith(".json") and f[:20].isdigit())


def _actions(log_dir: str, version: int) -> List[dict]:
    """The actions of one commit file, one JSON object per line."""
    with open(os.path.join(log_dir, f"{version:020d}.json")) as f:
        return [json.loads(line) for line in f if line.strip()]


# --------------------------------------------------------------- writer

def write_delta_table(documents_parquet: str, out_dir: str,
                      num_files: int = 8, prune_mod: int = 3,
                      prune_min_chars: int = 500) -> str:
    """Deterministic sandbox-side Delta table with real history:

    - version 0: add ``num_files`` part files (doc_id % num_files);
    - version 1: REWRITE partition ``prune_mod`` — remove its file and
      add a replacement keeping only rows with
      ``n_chars >= prune_min_chars`` (a delete-where compaction).

    The final snapshot therefore equals
    ``WHERE doc_id % num_files != prune_mod OR n_chars >= prune_min_chars``
    — re-derivable logically by the paired DuckDB twin. Idempotent via
    _COMPLETE, stale when the source parquet is newer."""
    marker = os.path.join(out_dir, "_COMPLETE")
    if os.path.exists(marker) and \
            os.stat(marker).st_mtime_ns >= \
            os.stat(documents_parquet).st_mtime_ns:
        return out_dir
    log_dir = os.path.join(out_dir, _LOG_DIR)
    os.makedirs(log_dir, exist_ok=True)
    t = pq.read_table(documents_parquet).sort_by("doc_id")
    t = t.replace_schema_metadata(None)
    mod = pa.array(t["doc_id"].to_numpy() % num_files, pa.int64())
    actions0: List[str] = [
        json.dumps({"protocol": {"minReaderVersion": 1,
                                 "minWriterVersion": 2}}),
        json.dumps({"metaData": {
            "id": "dpray-delta-0001", "format": {"provider": "parquet"},
            "schemaString": json.dumps({
                "type": "struct",
                "fields": [{"name": f.name, "type": "string",
                            "nullable": True, "metadata": {}}
                           for f in t.schema]}),
            "partitionColumns": []}}),
    ]
    for k in range(num_files):
        part = t.filter(pc.equal(mod, k))
        rel = f"part-{k:05d}-v0.parquet"
        pq.write_table(part, os.path.join(out_dir, rel))
        actions0.append(json.dumps({"add": {
            "path": rel, "size": os.path.getsize(
                os.path.join(out_dir, rel)),
            "partitionValues": {}, "dataChange": True,
            "stats": json.dumps({"numRecords": part.num_rows})}}))
    actions0.append(json.dumps(
        {"commitInfo": {"operation": "WRITE", "version": 0}}))
    with open(os.path.join(log_dir, f"{0:020d}.json"), "w") as f:
        f.write("\n".join(actions0) + "\n")

    # version 1: delete-where compaction of partition `prune_mod`
    old_rel = f"part-{prune_mod:05d}-v0.parquet"
    keep = t.filter(pc.and_(
        pc.equal(mod, prune_mod),
        pc.greater_equal(t["n_chars"], prune_min_chars)))
    new_rel = f"part-{prune_mod:05d}-v1.parquet"
    pq.write_table(keep, os.path.join(out_dir, new_rel))
    actions1 = [
        json.dumps({"remove": {"path": old_rel, "dataChange": True,
                               "deletionTimestamp": 0}}),
        json.dumps({"add": {
            "path": new_rel,
            "size": os.path.getsize(os.path.join(out_dir, new_rel)),
            "partitionValues": {}, "dataChange": True,
            "stats": json.dumps({"numRecords": keep.num_rows})}}),
        json.dumps({"commitInfo": {"operation": "DELETE", "version": 1}}),
    ]
    with open(os.path.join(log_dir, f"{1:020d}.json"), "w") as f:
        f.write("\n".join(actions1) + "\n")
    with open(marker, "w") as f:
        f.write("ok")
    return out_dir


# --------------------------------------------------------------- reader

def active_adds(table_dir: str,
                version: Optional[int] = None) -> List[dict]:
    """Replay the transaction log up to ``version`` (inclusive; None =
    latest) and return the active snapshot's add records — each
    ``{"path": <relpath>, "partitionValues": {...}}`` — path-sorted.

    When a ``_last_checkpoint`` exists (checkpoint_delta) and the
    requested version is at or past it, the live set seeds from the
    checkpoint parquet and only commits AFTER it replay — O(tail)
    instead of O(history). Requests for pre-checkpoint versions fall
    back to full JSON replay (the commits are retained)."""
    log_dir = os.path.join(table_dir, _LOG_DIR)
    commits = _versions(log_dir)
    if not commits:
        raise ValueError(f"no commits in {log_dir}")
    live: dict = {}
    start_after = -1
    ckpt_ptr = os.path.join(log_dir, "_last_checkpoint")
    if os.path.exists(ckpt_ptr):
        with open(ckpt_ptr) as f:
            ckpt_v = json.load(f)["version"]
        if version is None or version >= ckpt_v:
            ckpt = pq.read_table(os.path.join(
                log_dir, f"{ckpt_v:020d}.checkpoint.parquet"))
            pvs = ckpt["partition_values"].to_pylist() \
                if "partition_values" in ckpt.column_names \
                else ["{}"] * ckpt.num_rows
            for p, pv in zip(ckpt["path"].to_pylist(), pvs):
                live[p] = json.loads(pv)
            start_after = ckpt_v
    applied = start_after
    for v in commits:
        if v <= start_after:
            applied = max(applied, v)
            continue
        if version is not None and v > version:
            break
        for action in _actions(log_dir, v):
            if "add" in action:
                live[action["add"]["path"]] = \
                    action["add"].get("partitionValues", {})
            elif "remove" in action:
                live.pop(action["remove"]["path"], None)
        applied = v
    if version is not None and applied < version:
        raise ValueError(
            f"requested version {version} but log ends at {applied}")
    return [{"path": p, "partitionValues": live[p]}
            for p in sorted(live)]


def active_files(table_dir: str,
                 version: Optional[int] = None) -> List[str]:
    """ABSOLUTE paths of the active snapshot's data files (see
    active_adds), in deterministic (path-sorted) order."""
    return [os.path.join(table_dir, a["path"])
            for a in active_adds(table_dir, version)]


def read_delta(table_dir: str, version: Optional[int] = None,
               columns: Optional[List[str]] = None,
               partition_filter: Optional[dict] = None
               ) -> "ray.data.Dataset":
    """Consistent snapshot read of a Delta-log table (optionally as of
    an earlier ``version`` — time travel). The data path is a plain
    ``read_parquet`` over the replayed active-file list: pruned columns,
    streamed blocks, one read task per file.

    ``partition_filter`` ({col: value, ...}) prunes add records by
    their logged ``partitionValues`` BEFORE any data file opens —
    metadata-level data skipping: a filter on the partition column
    reads only that partition's bytes."""
    adds = active_adds(table_dir, version)
    if partition_filter:
        adds = [a for a in adds
                if all(k in a["partitionValues"]
                       and a["partitionValues"][k] == (
                           None if v is None else str(v))
                       for k, v in partition_filter.items())]
    files = [os.path.join(table_dir, a["path"]) for a in adds]
    if not files:
        raise ValueError(
            f"snapshot of {table_dir} is empty"
            + (f" under partition filter {partition_filter}"
               if partition_filter else ""))
    return ray.data.read_parquet(files, columns=columns)


def write_delta(ds: "ray.data.Dataset", table_dir: str,
                mode: str = "append",
                partition_by: Optional[str] = None) -> int:
    """Delta-log SINK: write a Dataset as a new table version — the
    production counterpart of the sandbox table builder above.

    Each block is staged by one ``map_batches`` task: one parquet file
    per partition value under ``stage-<version>/``, named by a fresh
    uuid so a retried task never overwrites an earlier attempt. The
    task returns the ``add`` actions of the files it wrote, and the
    COMMIT is one driver-side JSON file of exactly those actions (plus
    ``remove`` of the previous snapshot for ``mode="overwrite"``): files
    another attempt left in the staging directory are never committed,
    and a crash before the commit leaves only unreferenced files that a
    vacuum can sweep. Returns the committed version number.

    ``partition_by`` (a bounded-cardinality column) writes one
    sub-prefix per distinct value in the same single pass and stamps
    each add action's ``partitionValues`` with the value's string form —
    the log metadata ``read_delta``'s ``partition_filter`` prunes on
    WITHOUT opening any data file. The partition column stays IN the
    files with its native type (no hive stripping)."""
    if mode not in ("append", "overwrite"):
        raise ValueError("mode must be 'append' or 'overwrite'")
    log_dir = os.path.join(table_dir, _LOG_DIR)
    os.makedirs(log_dir, exist_ok=True)
    commits = _versions(log_dir)
    version = (commits[-1] + 1) if commits else 0
    prev = active_adds(table_dir) if (commits and mode == "overwrite") \
        else []
    stage = f"stage-{version:010d}"

    def _stage_block(block: pa.Table) -> pa.Table:
        if partition_by is None:
            groups = [(stage, {}, block)]
        else:
            col = block[partition_by]
            groups = [(os.path.join(stage, f"{partition_by}={v}"),
                       {partition_by: None if v is None else str(v)},
                       block.filter(pc.is_null(col) if v is None
                                    else pc.equal(col, v)))
                      for v in pc.unique(col).to_pylist()]
        adds = []
        for sub, pvals, part in groups:
            if part.num_rows == 0:
                continue
            rel = os.path.join(sub, f"part-{uuid.uuid4().hex}.parquet")
            os.makedirs(os.path.join(table_dir, sub), exist_ok=True)
            pq.write_table(part, os.path.join(table_dir, rel))
            adds.append(json.dumps({
                "path": rel,
                "size": os.path.getsize(os.path.join(table_dir, rel)),
                "partitionValues": pvals, "dataChange": True}))
        return pa.table({"add": pa.array(adds, pa.string())})

    staged = sorted((json.loads(r["add"]) for r in ds.map_batches(
        _stage_block, batch_size=None, batch_format="pyarrow").take_all()),
        key=lambda a: a["path"])
    if not staged:
        raise ValueError("write_delta produced no data files")
    actions = []
    if version == 0:
        actions.append(json.dumps(
            {"protocol": {"minReaderVersion": 1,
                          "minWriterVersion": 2}}))
        actions.append(json.dumps(
            {"metaData": {"id": f"dpray-delta-{os.path.basename(table_dir)}",
                          "format": {"provider": "parquet"},
                          "partitionColumns":
                              [partition_by] if partition_by else []}}))
    actions += [json.dumps({"remove": {"path": a["path"], "dataChange": True,
                                       "deletionTimestamp": 0}})
                for a in prev]
    actions += [json.dumps({"add": a}) for a in staged]
    actions.append(json.dumps({"commitInfo": {
        "operation": "WRITE", "mode": mode, "version": version}}))
    # optimistic concurrency (the Delta commit rule): the version file
    # is created EXCLUSIVELY — a racing writer that lost the version
    # gets FileExistsError instead of silently clobbering the commit,
    # and its staged files remain unreferenced for vacuum_delta
    commit_path = os.path.join(log_dir, f"{version:020d}.json")
    try:
        fd = os.open(commit_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ValueError(
            f"concurrent write detected: version {version} of "
            f"{table_dir} was committed by another writer (retry to "
            "commit against the new snapshot; staged files are "
            "vacuumable)") from None
    with os.fdopen(fd, "w") as fh:
        fh.write("\n".join(actions) + "\n")
    return version


def vacuum_delta(table_dir: str) -> List[str]:
    """Sweep data files referenced by NO version of the log — the
    leftovers of a crash between staging and commit (write_delta's
    atomicity note) or of an aborted compaction. Files referenced by
    ANY commit (even later removed) are kept so every historical
    version stays time-travelable. Unreferenced files modified within
    the last ``_VACUUM_GRACE_S`` seconds are kept too: they may belong
    to a writer that has staged but not yet committed (Delta's
    retention window). Returns the deleted relative paths."""
    log_dir = os.path.join(table_dir, _LOG_DIR)
    referenced = {action[key]["path"]
                  for v in _versions(log_dir)
                  for action in _actions(log_dir, v)
                  for key in ("add", "remove") if key in action}
    cutoff = time.time() - _VACUUM_GRACE_S
    deleted = []
    for root, _dirs, files in os.walk(table_dir):
        if os.path.basename(root) == _LOG_DIR:
            continue
        for f in files:
            path = os.path.join(root, f)
            rel = os.path.relpath(path, table_dir)
            if f.endswith(".parquet") and rel not in referenced \
                    and os.path.getmtime(path) < cutoff:
                os.remove(path)
                deleted.append(rel)
    return sorted(deleted)


def compact_delta(table_dir: str, target_files: int = 4) -> int:
    """OPTIMIZE-style bin-packing compaction: read the ACTIVE snapshot,
    rewrite it as ``target_files`` right-sized files, and commit the
    swap (remove every current file, add the compacted set) as one new
    version. Data is unchanged — only the file layout — so any query
    over the table reads identically before and after; history remains
    time-travelable. Returns the committed version."""
    files = active_files(table_dir)
    if not files:
        raise ValueError("nothing to compact")
    ds = ray.data.read_parquet(files).repartition(target_files)
    return write_delta(ds, table_dir, mode="overwrite")


def checkpoint_delta(table_dir: str) -> int:
    """Write a CHECKPOINT of the current snapshot: a parquet file of
    the live ``add`` paths as of the latest version V plus the
    ``_last_checkpoint`` pointer ({"version": V}) — the Delta protocol's
    log-compaction mechanism. Readers then replay only commits AFTER V
    (O(tail), not O(history)); the JSON commits stay on disk so full
    history and pre-checkpoint time travel keep working. Returns V."""
    log_dir = os.path.join(table_dir, _LOG_DIR)
    commits = _versions(log_dir)
    if not commits:
        raise ValueError(f"no commits in {log_dir}")
    version = commits[-1]
    adds = active_adds(table_dir, version)
    live = [a["path"] for a in adds]
    pq.write_table(
        pa.table({
            "path": pa.array(live, pa.string()),
            "partition_values": pa.array(
                [json.dumps(a["partitionValues"]) for a in adds],
                pa.string())}),
        os.path.join(log_dir, f"{version:020d}.checkpoint.parquet"))
    with open(os.path.join(log_dir, "_last_checkpoint"), "w") as f:
        json.dump({"version": version, "size": len(live)}, f)
    return version
