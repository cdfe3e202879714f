"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship interleaved text+media extraction pipeline
(pipelines/extract.py) on a deterministic corpus derived from sf0.001.
``queries()``/``oracle_sql()`` expose every implemented operator from
SURVEY.md §2 plus the training-data operators (dedup / similarity / text
analysis) over the driver's parquet tables; SQL-expressible ones carry an
exact DuckDB twin (see pipelines/analysis.py for the exactness discipline).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from typing import Any

import pyarrow as pa

_CORPUS_ROOT = "/tmp/dpray_corpus"


def _corpus_for(n_docs: int, seed: int = 42):
    """Deterministic interleaved corpus under /tmp (generated once per size).

    The generator is fully seeded (documentprocessor_ray/corpus.py) so every
    process/agent sees byte-identical inputs; re-generation is idempotent.
    """
    from documentprocessor_ray.corpus import generate_corpus

    out = os.path.join(_CORPUS_ROOT, f"n{n_docs}_s{seed}")
    docs_dir = os.path.join(out, "documents")
    media_dir = os.path.join(out, "media")
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        generate_corpus(out, n_docs=n_docs, seed=seed)
        with open(marker, "w") as f:
            f.write("ok")
    return docs_dir, media_dir


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.01


_RE2_WS = re.compile(r"[\t\n\f\r ]+")
_RE2_TRIM = re.compile(r"^[\t\n\f\r ]+|[\t\n\f\r ]+$")

WORDS_PER_CHUNK = 32


def _chunk_text(text: str, words_per_chunk: int = WORDS_PER_CHUNK) -> list[str]:
    """Deterministic fixed-word-count chunks (>=1 chunk; '' stays one empty
    chunk). Tokenization uses the RE2 whitespace class ([\\t\\n\\f\\r ]) so the
    chunk COUNT is SQL-derivable: n_chunks = ceil(n_tokens / 32) with
    n_tokens computed by the same regexp_split the token_count oracle uses —
    this is what gives the flagship a driver-checkable DuckDB twin
    (extract_sftext)."""
    t = _RE2_TRIM.sub("", text or "")
    words = _RE2_WS.split(t) if t else []
    if not words:
        return [""]
    return [" ".join(words[i:i + words_per_chunk])
            for i in range(0, len(words), words_per_chunk)]


def _combined_corpus(sf_dir: str, n_docs: int, seed: int = 42):
    """Interleaved corpus = synthetic media documents + text-span documents
    DERIVED FROM the driver's sf documents.parquet (each row becomes one
    doc of ~200-char text spans), so the flagship genuinely consumes the
    sf input. Keyed by (n_docs, sf) and generated once.

    The sf-text part is generated DISTRIBUTED (read_parquet -> map_batches
    -> parallel write_parquet): no whole-table driver materialization in
    the entry path (round-3 verdict fix) — at a larger sf the derivation
    scales with the cluster instead of the driver's heap."""
    import ray.data

    from documentprocessor_ray.corpus import DOCUMENTS_SCHEMA, generate_corpus

    sfname = os.path.basename(os.path.normpath(sf_dir))
    # v2: fixed-word-count chunker (cache dirs from older chunkers are stale)
    out = os.path.join(_CORPUS_ROOT, f"n{n_docs}_s{seed}_{sfname}_v2")
    docs_dir = os.path.join(out, "documents")
    media_dir = os.path.join(out, "media")
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        generate_corpus(out, n_docs=n_docs, seed=seed)
        part_dir = os.path.join(docs_dir, "part=sftext")
        os.makedirs(part_dir, exist_ok=True)

        def to_docs(batch: pa.Table) -> pa.Table:
            rows = []
            for did, text in zip(batch["doc_id"].to_pylist(),
                                 batch["text"].to_pylist()):
                spans = [{"kind": "text", "text": c, "media_ref": "",
                          "offset": i}
                         for i, c in enumerate(_chunk_text(text))]
                rows.append({"doc_id": f"sfdoc-{did:06d}", "spans": spans})
            return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)

        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"]) \
            .map_batches(to_docs, batch_format="pyarrow") \
            .write_parquet(part_dir)
        with open(marker, "w") as f:
            f.write("ok")
    return docs_dir, media_dir


def _dump_extract_oracle(name: str, docs_dir: str, media_dir: str,
                         build) -> None:
    """Driver twin for the extraction family: the single-process oracle
    (oracle/document.process_document in a plain loop — the same reference
    the pytest e2e gate compares against) is dumped as a parquet table the
    DuckDB twin SELECTs, upgrading these queries from rows-only to
    rows+schema+hash. Memoized on a corpus-dir fingerprint."""
    from documentprocessor_ray.pipelines import oracle_dump as OD

    OD.dump(name, OD.file_fingerprint(docs_dir, media_dir),
            lambda: build(docs_dir, media_dir))


def _run_extract(sf_dir: str) -> Any:
    """Flagship pipeline over the interleaved corpus (sf-derived text docs +
    synthetic media docs); slim projection out. Driver twin: single-process
    oracle dump (per-doc status/n_words/n_spans_out)."""
    from documentprocessor_ray.pipelines import oracle_dump as OD
    from documentprocessor_ray.pipelines.extract import run_extraction

    n_docs = max(40, int(4000 * _sf_of(sf_dir)))
    docs_dir, media_dir = _combined_corpus(sf_dir, n_docs)
    _dump_extract_oracle("extract_receipts", docs_dir, media_dir,
                         OD.extract_receipts_expected)
    ds = run_extraction(docs_dir, media_dir)

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "status": batch["status"],
            "n_words": pa.compute.cast(batch["n_words"], pa.int64()),
            "n_spans_out": pa.compute.cast(
                pa.compute.list_value_length(batch["spans_out"]), pa.int64()),
        })

    return ds.map_batches(slim, batch_format="pyarrow")


def entry() -> Any:
    """Flagship interleaved extraction on a 40-doc corpus (sf0.001 scale)."""
    return _run_extract("/root/testdata/sf0.001")


def _run_extract_mixed(sf_dir: str) -> Any:
    """Flagship over a corpus carrying ALL FOUR span kinds (text, media,
    html, pdf): html spans go through the boilerplate strip, pdf spans
    through the layout parse, inside the same fused span stage. Driver
    twin: single-process oracle dump of per-doc html/pdf span counts (the
    same oracle the tests/test_pipeline_e2e.py span-equality classes use)."""
    from documentprocessor_ray.corpus import generate_corpus
    from documentprocessor_ray.pipelines import oracle_dump as OD
    from documentprocessor_ray.pipelines.extract import run_extraction

    n_docs = max(40, int(4000 * _sf_of(sf_dir)))
    out = os.path.join(_CORPUS_ROOT, f"mixed_n{n_docs}_s42")
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        generate_corpus(out, n_docs=n_docs, seed=42, heavy_frac=0.02,
                        html_frac=0.4, pdf_frac=0.4)
        with open(marker, "w") as f:
            f.write("ok")
    _dump_extract_oracle("extract_mixed_kinds", os.path.join(out, "documents"),
                         os.path.join(out, "media"),
                         OD.extract_mixed_expected)
    ds = run_extraction(os.path.join(out, "documents"),
                        os.path.join(out, "media"))

    def slim(batch: pa.Table) -> pa.Table:
        import numpy as np

        spans = batch["spans_out"].combine_chunks()
        flat_kind = pa.compute.struct_field(
            pa.compute.list_flatten(spans), "kind")
        parents = pa.compute.list_parent_indices(spans) \
            .to_numpy(zero_copy_only=False)

        def count_kind(k: str):
            eq = pa.compute.equal(flat_kind, k) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            c = np.zeros(batch.num_rows, np.int64)
            np.add.at(c, parents, eq)
            return pa.array(c, pa.int64())

        return pa.table({
            "doc_id": batch["doc_id"],
            "status": batch["status"],
            "n_spans_out": pa.compute.cast(
                pa.compute.list_value_length(batch["spans_out"]),
                pa.int64()),
            "n_html_spans": count_kind("html"),
            "n_pdf_spans": count_kind("pdf"),
        })

    return ds.map_batches(slim, batch_format="pyarrow")


def _run_extract_sftext(sf_dir: str) -> Any:
    """Flagship pipeline restricted to the sf-derived TEXT-doc partition:
    the SQL-checkable projection of the flagship. Per doc, the pipeline
    chunks documents.text into 32-word spans, normalizes each, and
    reassembles in order — so n_spans_out == ceil(n_tokens/32) (1 for empty
    text) is derivable by the DuckDB twin from documents.parquet, giving the
    driver a rows+schema+hash gate on the REAL extraction code path (same
    explode -> span kernels -> assemble as extract_receipts)."""
    from documentprocessor_ray.pipelines.extract import run_extraction

    n_docs = max(40, int(4000 * _sf_of(sf_dir)))
    docs_dir, media_dir = _combined_corpus(sf_dir, n_docs)
    ds = run_extraction(os.path.join(docs_dir, "part=sftext"), media_dir)

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "status": batch["status"],
            "n_spans_out": pa.compute.cast(
                pa.compute.list_value_length(batch["spans_out"]), pa.int64()),
        })

    return ds.map_batches(slim, batch_format="pyarrow")


_SFTEXT_ORACLE_SQL = r"""
    WITH tok AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = '' THEN 0
             ELSE len(regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'))
        END::BIGINT AS n_tokens
      FROM documents)
    SELECT 'sfdoc-' || printf('%06d', doc_id) AS doc_id,
           'done' AS status,
           CAST(CASE WHEN n_tokens = 0 THEN 1
                     ELSE (n_tokens + 31) // 32 END AS BIGINT) AS n_spans_out
    FROM tok"""


def _run_scored_extract(sf_dir: str, model: str = "rule") -> Any:
    """Extraction + deterministic scorer actor pool (model path, M26/M30).
    model='donut'/'idefics2' routes through the generation+parse scorers
    (M27/M28 decode running inside the actor pool). Driver twin:
    single-process oracle dump (per-doc oracle words scored by the same
    model class in a plain loop — no actor pool)."""
    from documentprocessor_ray.pipelines import oracle_dump as OD
    from documentprocessor_ray.pipelines.extract import run_scored_extraction

    n_docs = max(40, int(4000 * _sf_of(sf_dir)))
    docs_dir, media_dir = _combined_corpus(sf_dir, n_docs)
    dump_name = {"rule": "extract_scored",
                 "donut": "extract_scored_donut",
                 "idefics2": "extract_scored_idefics"}.get(model)
    if dump_name:
        _dump_extract_oracle(
            dump_name, docs_dir, media_dir,
            lambda d, m: OD.extract_scored_expected(d, m, model))
    ds = run_scored_extraction(docs_dir, media_dir, model=model)

    def slim(batch: pa.Table) -> pa.Table:
        mv = batch["model_vendor"]
        return pa.table({
            "doc_id": batch["doc_id"],
            "status": batch["status"],
            "n_words": pa.compute.cast(batch["n_words"], pa.int64()),
            "model_vendor_value": pa.compute.struct_field(mv, "value"),
            "model_n_items": batch["model_n_items"],
        })

    return ds.map_batches(slim, batch_format="pyarrow")


def _noisy_corpus(sf_dir: str, seed: int = 13,
                  noise_density: float = 0.004):
    """Pixel-noise media corpus for the LM post-correction gate (generated
    once per (n_docs, seed); same idempotent-marker discipline as
    _corpus_for)."""
    from documentprocessor_ray.corpus import generate_corpus

    n_docs = max(40, int(4000 * _sf_of(sf_dir)))
    out = os.path.join(_CORPUS_ROOT, f"n{n_docs}_s{seed}_noisy")
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        generate_corpus(out, n_docs=n_docs, seed=seed, heavy_frac=0.0,
                        noise_density=noise_density)
        with open(marker, "w") as f:
            f.write("ok")
    return os.path.join(out, "documents"), os.path.join(out, "media")


def _run_extract_corrected(sf_dir: str) -> Any:
    """North-star LM-post-correction clause, driver-gated: the flagship
    extraction under engine="kernel_lm" (stages/postcorrect.py — lexicon as
    per-actor state, unique same-length Hamming<=1 rewrite of sub-1.0-conf
    words) over a NOISY media corpus. The projection carries spans_md5 (md5
    over ordered span texts), so the gate pins the exact corrected text per
    document, not just counts. Twin: single-process oracle loop under the
    same engine (oracle_dump.extract_corrected_expected)."""
    import hashlib

    from documentprocessor_ray.pipelines import oracle_dump as OD
    from documentprocessor_ray.pipelines.extract import run_extraction

    docs_dir, media_dir = _noisy_corpus(sf_dir)
    _dump_extract_oracle("extract_corrected", docs_dir, media_dir,
                         OD.extract_corrected_expected)
    ds = run_extraction(docs_dir, media_dir, engine="kernel_lm")

    def slim(batch: pa.Table) -> pa.Table:
        md5s = []
        for spans in batch["spans_out"].to_pylist():
            joined = "\x1f".join(s["text"] for s in (spans or []))
            md5s.append(hashlib.md5(joined.encode("utf-8")).hexdigest())
        return pa.table({
            "doc_id": batch["doc_id"],
            "status": batch["status"],
            "n_words": pa.compute.cast(batch["n_words"], pa.int64()),
            "spans_md5": pa.array(md5s, pa.string()),
        })

    return ds.map_batches(slim, batch_format="pyarrow")


def _run_scored_sftext(sf_dir: str) -> Any:
    """SQL-checkable projection of the SCORER path (round-3 item): each
    documents.text row becomes one single-line word list (token k at
    x=[12k, 12k+10], y=[0, 10], conf 1.0) and the REAL ScorerStage actor
    pool (RuleScorer + M26 BIO decode) scores it. The RuleScorer's vendor
    rule labels the first 3 reading-order tokens B/I-VENDOR, so
    model_vendor.value == the first 3 whitespace tokens of text joined by
    ' ' — exactly derivable in DuckDB; items collapse to 0 because the
    single line is claimed by the vendor labels. This hash-gates the
    scorer's label/decode semantics, not just its row count."""
    import ray.data

    from documentprocessor_ray.pipelines.extract import WORD_STRUCT
    from documentprocessor_ray.stages.scorer import ScorerStage

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])

    def mk_words(batch: pa.Table) -> pa.Table:
        words_col = []
        for t in batch["text"].to_pylist():
            stripped = _RE2_TRIM.sub("", t or "")
            toks = _RE2_WS.split(stripped) if stripped else []
            words_col.append([
                {"text": tok, "x0": 12 * k, "y0": 0,
                 "x1": 12 * k + 10, "y1": 10, "confidence": 1.0}
                for k, tok in enumerate(toks)])
        return pa.table({
            "doc_id": batch["doc_id"],
            "words": pa.array(words_col, pa.list_(WORD_STRUCT)),
        })

    scored = ds.map_batches(mk_words, batch_format="pyarrow").map_batches(
        ScorerStage, fn_constructor_kwargs={"model": "rule"},
        batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)

    def slim(batch: pa.Table) -> pa.Table:
        value = pa.compute.struct_field(batch["model_vendor"], "value")
        return pa.table({
            "doc_id": batch["doc_id"],
            "vendor_value": pa.compute.fill_null(value, ""),
            "model_n_items": batch["model_n_items"],
        })

    return scored.map_batches(slim, batch_format="pyarrow")


_SCORED_SFTEXT_ORACLE_SQL = r"""
    WITH tok AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN []::VARCHAR[]
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS ts
      FROM documents)
    SELECT doc_id,
           coalesce(array_to_string(ts[1:3], ' '), '') AS vendor_value,
           CAST(0 AS BIGINT) AS model_n_items
    FROM tok"""


# The flagship queries, each with its twin: a pure-SQL projection of the
# flagship code path, or None for an oracle-DUMP twin — the query writes the
# expected table, computed by the independent single-process oracle
# (pipelines/oracle_dump.py), and the twin SELECTs it, so the driver still
# gets rows+schema+hash.
_EXTRACT_QUERIES: dict[str, tuple[Callable[[str], Any], str | None]] = {
    "extract_receipts": (_run_extract, None),
    "extract_scored": (_run_scored_extract, None),
    "extract_scored_donut": (
        lambda sf: _run_scored_extract(sf, model="donut"), None),
    "extract_scored_idefics": (
        lambda sf: _run_scored_extract(sf, model="idefics2"), None),
    "extract_sftext": (_run_extract_sftext, _SFTEXT_ORACLE_SQL),
    "extract_scored_sftext": (_run_scored_sftext, _SCORED_SFTEXT_ORACLE_SQL),
    "extract_mixed_kinds": (_run_extract_mixed, None),
    "extract_corrected": (_run_extract_corrected, None),
}


def _with_extract(registry: dict[str, Any], extract: dict[str, Any]) -> dict[str, Any]:
    shared = sorted(set(registry) & set(extract))
    if shared:
        raise ValueError(f"extract queries shadow registered queries: {shared}")
    return {**extract, **registry}


def queries() -> dict[str, Callable[[str], Any]]:
    from documentprocessor_ray.pipelines.analysis import QUERIES

    return _with_extract(
        QUERIES, {name: fn for name, (fn, _) in _EXTRACT_QUERIES.items()})


def oracle_sql() -> dict[str, str]:
    from documentprocessor_ray.pipelines import oracle_dump as OD
    from documentprocessor_ray.pipelines.analysis import ORACLE_SQL

    return _with_extract(ORACLE_SQL, {
        name: sql or OD.sql_for(name)
        for name, (_, sql) in _EXTRACT_QUERIES.items()})
