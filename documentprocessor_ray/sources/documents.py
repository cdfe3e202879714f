"""Document-table source: column-pruned reads + media-ref validation.

Reference analogs: S1 load_image / S2 validate_image_path
(Ocr/src/cli/utils.py:74-117) — validation becomes an in-band predicate
column (error channel) instead of raising, and the read prunes COLUMNS
(Arrow projection pushdown). Partitions are not pruned here: the
checkpointed writer (state/checkpoint.py) reads only the `part=`
directories it has not completed, one at a time.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import pyarrow as pa

import ray.data


def lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def _looks_like_lance(path: str) -> bool:
    """A Lance dataset is a directory with a _versions/ manifest dir (or the
    conventional .lance suffix)."""
    return str(path).endswith(".lance") or os.path.isdir(os.path.join(path, "_versions"))


def _read_blocks() -> Optional[int]:
    """One read block per CPU of the cluster; None (Ray Data's own choice)
    when Ray is not up yet."""
    if not ray.is_initialized():
        return None
    return int(ray.cluster_resources().get("CPU", 1))


def read_table_auto(
    path: str,
    columns: Optional[Sequence[str]] = None,
    fmt: Optional[str] = None,
) -> "ray.data.Dataset":
    """Format-dispatching source: the north rule's input tables are LANCE
    (BASELINE.json input_hint); parquet is the sanctioned fallback where the
    lance package is absent (FIXTURES.md F1). fmt: 'lance' | 'parquet' |
    None (auto-detect: .lance suffix or _versions/ layout -> lance).

    Both paths prune COLUMNS at the read (Lance is a columnar format with
    native projection pushdown; ray.data.read_lance passes columns straight
    to the fragment scanner).

    The read asks for one block per CPU. Ray Data then runs min(files or
    fragments, CPUs) read tasks, and splits their output when there are
    fewer files than CPUs, so every CPU gets a span task.
    pipelines.extract.run_extraction materializes this read before its
    span stage starts: while a read operator is alive, Ray Data keeps
    about an equal share of the CPUs for it and for each downstream
    operator (ray/data/_internal/execution/resource_manager.py:363-387), so
    a streamed read admits the span tasks one 0.1 s executor wait tick
    apart (streaming_executor_state.py:500-505). One read task per CPU
    keeps that eager read to a few tasks rather than one per file."""
    if fmt is None:
        fmt = "lance" if _looks_like_lance(path) else "parquet"
    if fmt == "lance":
        if not lance_available():
            raise ImportError(
                "input looks like a Lance table but the 'lance' package is "
                "not installed; install pylance or pass fmt='parquet'")
        return ray.data.read_lance(path, columns=list(columns) if columns else None,
                                   override_num_blocks=_read_blocks())
    if fmt != "parquet":
        raise ValueError(f"unknown table format '{fmt}' (lance|parquet)")
    ds = ray.data.read_parquet(path, override_num_blocks=_read_blocks())
    if columns:
        ds = ds.select_columns(list(columns))
    return ds


def validate_media_refs(ds: "ray.data.Dataset", media_dir: str) -> "ray.data.Dataset":
    """S2 as a predicate stage: adds (n_media_refs, n_missing_refs,
    missing_refs) columns — bad documents are FLAGGED, not dropped or raised,
    so the error channel stays in-band (M31 discipline)."""

    def check(batch: pa.Table) -> pa.Table:
        from ..corpus import MediaStore

        store = MediaStore(media_dir)
        n_refs: List[int] = []
        n_missing: List[int] = []
        missing: List[List[str]] = []
        for spans in batch["spans"].to_pylist():
            refs = [s["media_ref"] for s in (spans or []) if s["kind"] == "media"]
            miss = [r for r in refs if store.find(r) is None]
            n_refs.append(len(refs))
            n_missing.append(len(miss))
            missing.append(miss)
        return (batch
                .append_column("n_media_refs", pa.array(n_refs, pa.int64()))
                .append_column("n_missing_refs", pa.array(n_missing, pa.int64()))
                .append_column("missing_refs", pa.array(missing, pa.list_(pa.string()))))

    return ds.map_batches(check, batch_format="pyarrow")
