"""Output check: the engine's result must hash like the single-process oracle.

The hash covers the sorted ``(doc_id, status, spans_out)`` of every document,
so a changed span text, a lost or duplicated doc, or a changed status all
show. The oracle (``oracle.document.process_document``) runs once in every
run, before and outside every timed region, so the expected hash always
comes from the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Dict, Iterable, List

import pyarrow as pa
import pyarrow.parquet as pq

import corpora


class CheckFailed(RuntimeError):
    """The engine's output does not match the oracle."""


@dataclass
class Corpus:
    workload: str
    seed: int
    root: str
    expected_hash: str
    counts: Dict[str, int]

    @property
    def docs_dir(self) -> str:
        return os.path.join(self.root, "documents")

    @property
    def media_dir(self) -> str:
        return os.path.join(self.root, "media")

    @property
    def n_docs(self) -> int:
        return self.counts["count.docs"]


def _canon(doc_id: str, status: str, spans_out: Iterable[dict]) -> str:
    spans = [[s["kind"], s["text"], s["media_ref"], int(s["order"])]
             for s in spans_out or []]
    return json.dumps([doc_id, status, spans], ensure_ascii=False,
                      separators=(",", ":"))


def rows_hash(rows: List[dict]) -> str:
    h = hashlib.sha256()
    for line in sorted(_canon(r["doc_id"], r["status"], r["spans_out"])
                       for r in rows):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def table_rows(table: pa.Table) -> List[dict]:
    return table.select(["doc_id", "status", "spans_out",
                         "n_words"]).to_pylist()


def input_counts(docs_dir: str) -> Dict[str, int]:
    rows = pq.read_table(docs_dir, columns=["doc_id", "spans"]).to_pylist()
    kinds: Dict[str, int] = {}
    for r in rows:
        for s in r["spans"]:
            kinds[s["kind"]] = kinds.get(s["kind"], 0) + 1
    return {"count.docs": len(rows),
            "count.spans_text": kinds.get("text", 0),
            "count.spans_html": kinds.get("html", 0),
            "count.spans_pdf": kinds.get("pdf", 0),
            "count.pages": kinds.get("media", 0)}


def oracle_rows(docs_dir: str, media_dir: str) -> List[dict]:
    from documentprocessor_ray.corpus import MediaStore
    from documentprocessor_ray.oracle.document import process_document

    store = MediaStore(media_dir)
    docs = pq.read_table(docs_dir, columns=["doc_id", "spans"]).to_pylist()
    return [process_document(d["doc_id"], d["spans"], store.load,
                             load_blob=store.load_bytes) for d in docs]


def output_stats(rows: List[dict]) -> Dict[str, int]:
    """Counts of one pass's output rows."""
    return {"count.spans_out": sum(len(r["spans_out"] or []) for r in rows),
            "count.words": sum(int(r.get("n_words") or 0) for r in rows),
            "count.errors": sum(r["status"] == "failed" for r in rows)}


def verify(rows: List[dict], corpus: Corpus) -> int:
    """Raise CheckFailed unless ``rows`` is the oracle's output; return the
    number of failed docs."""
    ids = [r["doc_id"] for r in rows]
    if len(set(ids)) != len(ids):
        raise CheckFailed(f"{len(ids) - len(set(ids))} duplicate doc_id rows")
    if len(ids) != corpus.n_docs:
        raise CheckFailed(f"{len(ids)} docs out, {corpus.n_docs} in")
    got = rows_hash(rows)
    if got != corpus.expected_hash:
        raise CheckFailed(f"output hash {got[:16]} != oracle "
                          f"{corpus.expected_hash[:16]}")
    return sum(r["status"] == "failed" for r in rows)


def prepare(workload: str, seed: int) -> Corpus:
    """Generate (or reuse) the corpus and run the oracle over it, outside
    timing."""
    corpora.check_pins(workload)
    root = corpora.corpus_dir(workload, seed)
    meta_path = os.path.join(root, "meta.json")
    fresh = True
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            # a cached copy changed on disk is built again
            fresh = corpora.fingerprint(root) != json.load(f)["fingerprint"]
    if fresh:
        shutil.rmtree(root, ignore_errors=True)
        corpora.generate(workload, seed, root)
        tmp = meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"fingerprint": corpora.fingerprint(root)}, f)
        os.replace(tmp, meta_path)
    docs_dir = os.path.join(root, "documents")
    oracle = oracle_rows(docs_dir, os.path.join(root, "media"))
    return Corpus(workload, seed, root, rows_hash(oracle),
                  {**input_counts(docs_dir), **output_stats(oracle)})
