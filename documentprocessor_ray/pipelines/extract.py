"""Flagship Ray-Data extraction pipeline.

Physical plan:

    read_parquet(documents)                      # (doc_id, spans), one block per CPU
      -> materialize()                           # the read ends before the span stage
      -> map_batches(span_task, batch_size=B)    # B whole documents per call
                                                 #   (SpanProcessor)
      -> result rows (spans_out invariant + heuristic fields)

There is no all-to-all: a document never leaves its batch, and the span
UDF walks each input row's own spans, so a row's result depends on that
row alone, whichever rows share its batch. ``B`` counts documents
(DOCS_PER_SPAN_TASK).

run_extraction materializes the read, which is one block per CPU
(sources/documents.read_table_auto), and gives the flagship Dataset a
block target sized to its output (SPAN_BLOCK_BYTES says why), so every
span task starts at once; the process-global DataContext is never set.
A span task runs one read block in calls of ``B`` documents each.

Every stage is Arrow-native (batch_format="pyarrow"); per-page OCR is numpy
inside the UDF. The `order` invariant is carried as data (an explicit
column derived from span offset + reading-order line index), never as block
order, so batching cannot break it (SURVEY.md section 7.4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..corpus import MediaStore
from ..oracle import fields as F
from ..oracle.boxes import normalize_boxes
from ..oracle.document import media_span_lines
from ..oracle.textnorm import normalize_text_arrow
from ..stages.preprocess import PreprocessConfig, preprocess

# --- output Arrow schemas (explicit so empty blocks stay typed) ---

WORD_STRUCT = pa.struct([
    ("text", pa.string()),
    ("x0", pa.int32()), ("y0", pa.int32()), ("x1", pa.int32()), ("y1", pa.int32()),
    ("confidence", pa.float64()),
])
BOX_STRUCT = pa.struct([
    ("x0", pa.int32()), ("y0", pa.int32()), ("x1", pa.int32()), ("y1", pa.int32()),
])
FIELD_STRUCT = pa.struct([
    ("value", pa.string()),
    ("confidence", pa.float64()),
    ("box", BOX_STRUCT),
])
SPAN_OUT_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("order", pa.int32()),
])
LINE_ITEM_STRUCT = pa.struct([
    ("description", pa.string()),
    ("quantity", pa.int64()),
    ("unit_price", pa.float64()),
    ("line_total", pa.float64()),
    ("box", BOX_STRUCT),
    ("confidence", pa.float64()),
])
RESULT_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("status", pa.string()),
    ("error", pa.string()),
    ("spans_out", pa.list_(SPAN_OUT_STRUCT)),
    ("vendor_name", FIELD_STRUCT),
    ("date", FIELD_STRUCT),
    ("total_amount", FIELD_STRUCT),
    ("subtotal", FIELD_STRUCT),
    ("tax_amount", FIELD_STRUCT),
    ("currency", FIELD_STRUCT),
    ("merchant_address", FIELD_STRUCT),
    ("line_items", pa.list_(LINE_ITEM_STRUCT)),
    ("n_words", pa.int32()),
])
# + accumulated normalized words, for the downstream scorer stage
RESULT_SCHEMA_WORDS = RESULT_SCHEMA.append(pa.field("words", pa.list_(WORD_STRUCT)))

# Documents per span task (build_pipeline's batch_size default, which the
# benchmark's floor pass reads to batch at the same size). A doc count,
# never None: None makes a span task's batch a whole read block.
# 16 beat 8 on both perfbench workloads (4-core VM); below 8, per-task and
# driver-memory overhead grow faster than the parallelism pays.
DOCS_PER_SPAN_TASK = 16

# The flagship Dataset's target_max_block_size (run_extraction). Before an
# operator has output, Ray Data assumes each of its running tasks holds
# target_max_block_size x 2 of pending output
# (ray/data/_internal/execution/interfaces/op_runtime_metrics.py:585-602)
# and admits tasks against the object store budget. At Ray's default of
# 128 MiB a 512 MiB object store admits one span task until it finishes.
# A span task's output block measured 42 KiB (perfbench receipts, 25 docs)
# to 118 KiB (web_text, 200 docs), so 1 MiB admits every span task at once
# and larger outputs are cut into 1 MiB blocks.
SPAN_BLOCK_BYTES = 1 << 20

# Documents per coarse doc-hash bucket (explode_spans' pkey), the width
# sharding.auto_buckets derives from a doc count. Only the benchmark's Ray
# Data shuffle floor (perfbench/layers.py) and tests/test_sharding.py use it.
DOCS_PER_BUCKET = 4096


def explode_spans(batch: pa.Table, num_buckets: int = 64) -> pa.Table:
    """(doc_id, spans) -> one row per span; empty-span docs get a sentinel row
    (kind='empty', offset=-1). Each row carries pkey = crc32(doc_id) %
    num_buckets, a coarse doc-hash bucket.

    The flagship does not call it: only perfbench/layers.py (its kernel
    pass and its Ray Data shuffle floor, which groups exploded spans on
    pkey at a width from sharding.auto_buckets) and tests/test_sharding.py
    do.

    Zero-copy explode: pyarrow list_flatten / list_parent_indices unnest the
    span structs in C++; the only Python loop is one crc32 per DOC (not per
    span) for pkey."""
    import zlib

    spans = batch["spans"].combine_chunks()
    doc_ids = batch["doc_id"].combine_chunks()
    lens = pc.fill_null(pc.list_value_length(spans), 0)
    parent = pc.list_parent_indices(spans)
    flat = pc.list_flatten(spans)

    pk_doc = np.array([zlib.crc32(s.encode()) % num_buckets
                       for s in doc_ids.to_pylist()], dtype=np.int64)
    parent_np = parent.to_numpy(zero_copy_only=False).astype(np.int64)

    out = pa.table({
        "doc_id": pc.take(doc_ids, parent),
        "offset": pc.cast(pc.struct_field(flat, "offset"), pa.int32()),
        "kind": pc.cast(pc.struct_field(flat, "kind"), pa.string()),
        "text": pc.fill_null(pc.cast(pc.struct_field(flat, "text"), pa.string()), ""),
        "media_ref": pc.fill_null(
            pc.cast(pc.struct_field(flat, "media_ref"), pa.string()), ""),
        "pkey": pa.array(pk_doc[parent_np], pa.int64()),
    })

    empty = pc.equal(lens, 0)
    if pc.any(empty).as_py():
        e_ids = doc_ids.filter(empty)
        n_e = len(e_ids)
        sentinel = pa.table({
            "doc_id": pc.cast(e_ids, pa.string()),
            "offset": pa.array([-1] * n_e, pa.int32()),
            "kind": pa.array(["empty"] * n_e, pa.string()),
            "text": pa.array([""] * n_e, pa.string()),
            "media_ref": pa.array([""] * n_e, pa.string()),
            "pkey": pa.array(pk_doc[empty.to_numpy(zero_copy_only=False)], pa.int64()),
        })
        out = pa.concat_tables([out, sentinel])
    return out


# (kind, media_ref, output texts, normalized words, error) of one span
_Span = Tuple[str, str, List[str], List[Dict[str, Any]], Optional[str]]


class SpanProcessor:
    """The flagship's one span-stage UDF: it takes a batch of whole
    documents and returns one result row per input row, in input order.

    The batch's spans are flattened once, so document ``d``'s spans are
    the contiguous slice ``[start_d, start_d + len_d)``. Span kernels run
    over the flat spans: text -> ONE vectorized normalize over the batch,
    html -> ONE batched boilerplate (or DOM) call, pdf -> layout parse,
    media -> preprocess + OCR + box-normalize. Each document's slice is
    then ordered by offset, stably as the oracle's ``sorted``, and
    assembled alone: rows sharing a ``doc_id`` stay separate rows.

    The OCR templates and preprocess config load once per instance, once
    per worker process through ``span_task`` (reference lazy singletons,
    receipt_processor.py:50-54, become __init__ state)."""

    def __init__(self, media_dir: str, cfg: Optional[PreprocessConfig] = None,
                 debug_dir: Optional[str] = None, log_dir: Optional[str] = None,
                 engine=None, html_mode: str = "blocks",
                 keep_words: bool = False):
        from ..ocr_kernel import get_engine

        self.store = MediaStore(media_dir)
        # injectable engine seam (A1-A3): name from the registry or a class
        # shipped via cloudpickle; resolved ONCE per worker here
        self.kernel = get_engine(engine)
        self.cfg = cfg or PreprocessConfig()
        self.debug_dir = debug_dir  # S7 tee sink, off by default
        self.log_dir = log_dir      # S8 telemetry, off by default
        # html span extraction: 'blocks' = flat block/link-density strip,
        # 'dom' = tag-tree Readability-style scoring (north rule's third
        # extraction operator, selectable per pipeline)
        if html_mode not in ("blocks", "dom"):
            raise ValueError(f"html_mode must be blocks|dom, got {html_mode}")
        self.html_mode = html_mode
        self.keep_words = keep_words

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        lens = pc.fill_null(pc.list_value_length(spans), 0).to_pylist()
        flat = pc.list_flatten(spans)
        offsets = pc.struct_field(flat, "offset").to_pylist()
        done = self._run_spans(
            pc.struct_field(flat, "kind").to_pylist(),
            pc.fill_null(pc.struct_field(flat, "media_ref"), "").to_pylist(),
            pc.fill_null(pc.cast(pc.struct_field(flat, "text"), pa.string()), ""))
        rows, start = [], 0
        for doc_id, n in zip(batch["doc_id"].to_pylist(), lens):
            # stable, as the oracle's sorted(spans, key=offset)
            order = sorted(range(start, start + n), key=offsets.__getitem__)
            rows.append(_assemble_doc(doc_id, [done[i] for i in order],
                                      keep_words=self.keep_words))
            start += n
        return pa.Table.from_pylist(
            rows, schema=RESULT_SCHEMA_WORDS if self.keep_words else RESULT_SCHEMA)

    def _run_spans(self, kinds: List[str], refs: List[str],
                   texts: pa.Array) -> List[_Span]:
        """Flat spans -> one (kind, media_ref, output texts, normalized
        words, error) per span; a kernel failure stays in-band (M31)."""
        n = len(kinds)
        out_texts: List[List[str]] = [[] for _ in range(n)]
        words: List[List[Dict[str, Any]]] = [[] for _ in range(n)]
        errors: List[Optional[str]] = [None] * n
        # text spans: ONE vectorized RE2 normalize over the batch's text
        # column (the main-content-extraction hot path)
        norm_all = normalize_text_arrow(texts).to_pylist()
        # html spans: ONE call of the batch boilerplate (or DOM) kernel over
        # the batch's html spans; the oracle keeps the scalar twin
        html_rows = [i for i, k in enumerate(kinds) if k == "html"]
        if html_rows:
            if self.html_mode == "dom":
                from ..functions.dom import extract_dom_main_batch as kernel
            else:
                from ..functions.boilerplate import \
                    extract_main_content_batch as kernel
            html = pa.table({"doc_id": pa.nulls(len(html_rows), pa.string()),
                             "text": texts.take(pa.array(html_rows))})
            main = kernel(html, html_col="text")["main_text"].to_pylist()
            for i, text in zip(html_rows, main):
                out_texts[i] = [text]
        for i, kind in enumerate(kinds):
            try:
                if kind == "text":
                    out_texts[i] = [norm_all[i]]
                elif kind == "pdf":
                    # PDF layout parse (north rule): blob from the media
                    # store, one output span per reading-order run
                    from ..functions.pdf import parse_pdf_text

                    blob = self.store.load_bytes(refs[i])
                    if blob is None:
                        raise FileNotFoundError(f"media not found: {refs[i]}")
                    runs, _ = parse_pdf_text(blob)
                    out_texts[i] = [r[3] for r in runs]
                elif kind == "media":
                    words[i] = self._ocr(refs[i])
                    out_texts[i] = media_span_lines(words[i])
            except Exception as e:  # in-band error channel (M31)
                errors[i] = str(e)
        if self.log_dir:
            from ..stages.debug import log_event
            log_event(self.log_dir, "batch_done", rows=n,
                      media=kinds.count("media"),
                      errors=sum(1 for e in errors if e))
        return list(zip(kinds, refs, out_texts, words, errors))

    def _ocr(self, ref: str) -> List[Dict[str, Any]]:
        """One media page -> its normalized words (preprocess + OCR +
        box-normalize), teed to ``debug_dir`` when set."""
        image = self.store.load(ref)
        if image is None:
            raise FileNotFoundError(f"media not found: {ref}")
        if self.debug_dir:
            steps = [("source", image)]
            pre = preprocess(image, self.cfg,
                             tap=lambda nm, im: steps.append((nm, im)))
        else:
            pre = preprocess(image, self.cfg)
        h, w = pre.shape[:2]  # dims the OCR saw (resample rescales)
        words = self.kernel.detect_and_recognize(pre)
        norm = normalize_boxes(words, w, h)
        if self.debug_dir:
            from ..stages.debug import save_steps
            save_steps(self.debug_dir, ref, steps, pre,
                       words_px=words, words_norm=norm)
        return norm


# Per-worker-process stage cache: Ray reuses worker processes across
# map_batches tasks, so module-level state IS "load once per worker" — the
# amortization an actor pool gives, without paying actor startup. The
# span stage's state is cheap and deterministic (glyph templates are module
# constants); heavy model state belongs in the scorer's actor pool
# (run_scored_extraction).
_PROCESSOR_CACHE: Dict[tuple, "SpanProcessor"] = {}


def span_task(batch: pa.Table, **processor_kwargs) -> pa.Table:
    """The span stage: this worker process's cached SpanProcessor (built
    from ``processor_kwargs``) over one batch. The benchmark finds the span
    stage's operator by this name."""
    from ..ocr_kernel import engine_key

    key = tuple(sorted((k, engine_key(v) if k == "engine" else repr(v))
                       for k, v in processor_kwargs.items()))
    proc = _PROCESSOR_CACHE.get(key)
    if proc is None:
        proc = _PROCESSOR_CACHE[key] = SpanProcessor(**processor_kwargs)
    return proc(batch)


def _field_to_struct(f: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    if f is None:
        return None
    box = f.get("box")
    return {
        "value": f["value"],
        "confidence": float(f["confidence"]),
        "box": {k: int(box[k]) for k in ("x0", "y0", "x1", "y1")} if box else None,
    }


def _assemble_doc(doc_id: str, spans: List[_Span],
                  keep_words: bool = False) -> Dict[str, Any]:
    """One document's result row from its processed spans in offset order:
    the first error fails the document, as the oracle's raise does;
    otherwise spans_out with the running `order` index and heuristic field
    extraction over the accumulated normalized words
    (receipt_processor.py:153,196 word accumulation + :404-416
    heuristics)."""
    err = next((e for *_, e in spans if e), None)
    if err is not None:
        return _failed_row(doc_id, err)

    spans_out: List[Dict[str, Any]] = []
    all_words: List[Dict[str, Any]] = []
    for kind, ref, texts, words, _ in spans:
        ref = ref if kind in ("pdf", "media") else ""
        for text in texts:
            spans_out.append({"kind": kind, "text": text, "media_ref": ref,
                              "order": len(spans_out)})
        all_words.extend(words)

    fields = F.extract_fields_heuristic(all_words) if all_words else {}
    li = []
    for item in fields.get("line_items", []) or []:
        li.append({
            "description": item["description"],
            "quantity": int(item["quantity"]),
            "unit_price": float(item["unit_price"]),
            "line_total": float(item["line_total"]),
            "box": item["box"],
            "confidence": float(item["confidence"]),
        })
    row = {
        "doc_id": doc_id,
        "status": "done",
        "error": None,
        "spans_out": spans_out,
        "vendor_name": _field_to_struct(fields.get("vendor_name")),
        "date": _field_to_struct(fields.get("date")),
        "total_amount": _field_to_struct(fields.get("total_amount")),
        "subtotal": _field_to_struct(fields.get("subtotal")),
        "tax_amount": _field_to_struct(fields.get("tax_amount")),
        "currency": _field_to_struct(fields.get("currency")),
        "merchant_address": _field_to_struct(fields.get("merchant_address")),
        "line_items": li,
        "n_words": len(all_words),
    }
    if keep_words:
        row["words"] = [{"text": wd["text"], "x0": wd["box"][0],
                         "y0": wd["box"][1], "x1": wd["box"][2],
                         "y1": wd["box"][3], "confidence": wd["confidence"]}
                        for wd in all_words]
    return row


def _failed_row(doc_id: str, err: str) -> Dict[str, Any]:
    return {
        "doc_id": doc_id, "status": "failed", "error": err, "spans_out": [],
        "vendor_name": None, "date": None, "total_amount": None, "subtotal": None,
        "tax_amount": None, "currency": None, "merchant_address": None,
        "line_items": [], "n_words": 0, "words": [],
    }


def build_pipeline(
    docs: "ray.data.Dataset",
    media_dir: str,
    cfg: Optional[PreprocessConfig] = None,
    batch_size: int = DOCS_PER_SPAN_TASK,
    keep_words: bool = False,
    debug_dir: Optional[str] = None,
    log_dir: Optional[str] = None,
    engine=None,
    html_mode: str = "blocks",
) -> "ray.data.Dataset":
    """Compose the lazy pipeline over an already-loaded documents Dataset:
    ``read -> map_batches(span_task)`` with ``batch_size`` whole documents
    per task and no all-to-all (module docstring). The span stage runs on
    Ray's task pool with a per-worker-process cached SpanProcessor: its
    kernel state is module constants, so tasks amortize it as an actor
    pool would, without actor startup (an actor pool measured 3-5x slower
    end-to-end at this state size)."""
    return docs.map_batches(
        span_task, batch_format="pyarrow", batch_size=batch_size,
        fn_kwargs={"media_dir": media_dir, "cfg": cfg,
                   "debug_dir": debug_dir, "log_dir": log_dir,
                   "engine": engine, "html_mode": html_mode,
                   "keep_words": keep_words})


def run_extraction(
    documents_dir: str,
    media_dir: str,
    output_dir: Optional[str] = None,
    input_format: Optional[str] = None,
    output_format: str = "parquet",
    **kwargs,
) -> "ray.data.Dataset":
    """Read the documents table (Lance when available/detected, parquet
    fallback — sources/documents.read_table_auto), materialize it, and
    build the pipeline over the materialized documents; optionally write
    partitioned output (parquet|lance|json).

    The read runs here, before the span stage: while a read operator is
    alive, Ray Data keeps a share of the CPUs for it, so a streamed read
    admits the span tasks a 0.1 s executor tick apart. Over materialized
    blocks every span task starts at once. Past the object store the
    blocks spill to disk.

    The read's Dataset context, which every Dataset derived from it
    shares, gets ``target_max_block_size = SPAN_BLOCK_BYTES``; the
    process-global ``DataContext.get_current()`` is left untouched."""
    from ..sources.documents import read_table_auto
    from ..sources.sinks import write_results

    docs = read_table_auto(documents_dir, fmt=input_format)
    docs.context.target_max_block_size = SPAN_BLOCK_BYTES
    docs = docs.select_columns(["doc_id", "spans"]).materialize()
    ds = build_pipeline(docs, media_dir, **kwargs)
    if output_dir:
        write_results(ds, output_dir, fmt=output_format)
    return ds


def run_scored_extraction(
    documents_dir: str,
    media_dir: str,
    model: str = "rule",
    scorer_concurrency=(1, 4),
    scorer_batch_size: int = 64,
    scorer_resources: Optional[Dict[str, Any]] = None,
    use_pixels: bool = False,
    **kwargs,
) -> "ray.data.Dataset":
    """Extraction + model-scoring path: the heuristic pipeline keeps the
    accumulated words, then the scorer ACTOR POOL (state loaded once per
    actor, reference A4-A7) adds model_* entity columns (M26 decode inside
    the actor; merge semantics M30 in stages/scorer.py).

    ``scorer_resources`` routes per-actor resources to the pool
    (default {"num_cpus": 1}); a real GPU model (A4-A6, hf_scorers) passes
    {"num_gpus": 1} — or a fraction to pack several scorer actors per
    device — and Ray schedules the pool onto GPU nodes with no other
    change to the pipeline.

    ``use_pixels=True`` is the REAL-PIXELS vision variant: instead of the
    word stream, each scorer actor re-loads the doc's page pixels from the
    media store (refs ride the cheap spans_out column; pixels move ONCE,
    storage -> scorer actor, never through the span stage) and
    calls ``scorer.predict_image`` per page — the production shape for
    Donut/IDEFICS2, where the model wants the page image, not OCR words.
    Requires a vision scorer (donut-hf / idefics2-hf / det-vision)."""
    from ..stages.scorer import ScorerStage

    # pixels mode reads only spans_out + the media store — don't assemble
    # and ship the (heavy) per-doc word structs it would never look at
    ds = run_extraction(documents_dir, media_dir, keep_words=not use_pixels,
                        **kwargs)
    ctor = {"model": model}
    if use_pixels:
        ctor.update(use_pixels=True, media_dir=media_dir)
    return ds.map_batches(
        ScorerStage,
        fn_constructor_kwargs=ctor,
        batch_format="pyarrow",
        batch_size=scorer_batch_size,
        concurrency=scorer_concurrency,
        **(scorer_resources if scorer_resources is not None
           else {"num_cpus": 1}),
    )
