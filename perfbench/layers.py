"""Per-layer metrics from a traced run (``run.py --trace 1``).

The tracer records a span around each call the benchmark makes into a layer
of ``documentprocessor_ray``: name, start, end and parent. Spans stay in
memory and are written to ``_cache/traces/`` when the run ends. A layer's
self time is its spans' duration minus the part covered by child spans.

The run measures, on every workload:

- the Ray Data stages of one traced flagship pass (``run_extraction``, as
  the untraced passes run it), from ``ds.stats()`` of that pass: the
  operator wall time of the read, the span stage (the fused
  explode->span-UDF operator), the shuffle and the assembly, their task
  time, the span stage's concurrency and task skew, and the bytes the
  shuffle's map side hands on. ``trace.overhead_s`` is this pass's wall time
  minus the median untraced pass;
- the kernels, single-process in this process, over the same spans;
  ``trace.coverage`` is the share of the span stage's and the assembly's
  task time that they account for, and ``parallel_gap_s`` = untraced wall
  time - their sum / 4 CPUs;
- the Ray Data floor over the same exploded blocks: an identity
  ``map_batches`` and an identity groupby on ``pkey``;
- the checkpointed writer, a resume, and the parquet sink;
- set-up, and the work counts of the corpus and of the output.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import pyarrow as pa

import passes as P
from check import output_stats
from session import Session

HERE = os.path.dirname(os.path.abspath(__file__))

STAGES = ("read", "span_stage", "shuffle", "assemble")
KERNELS = ("explode", "textnorm", "boilerplate", "pdf", "media_load",
           "preprocess", "ocr", "boxes", "fields")
COUNTS = ("count.docs", "count.spans_text", "count.spans_html",
          "count.spans_pdf", "count.pages", "count.words", "count.spans_out",
          "count.errors")

PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{s}.wall_s": "s" for s in STAGES},
    "span_stage.task_s": "s",
    "span_stage.concurrency": "ratio",
    "span_stage.task_skew": "ratio",
    "shuffle.task_s": "s",
    "shuffle.bytes": "bytes",
    "assemble.task_s": "s",
    **{f"{k}.self_s": "s" for k in KERNELS},
    "floor.map_s": "s",
    "floor.shuffle_s": "s",
    "parallel_gap_s": "s",
    "checkpoint.partition_s": "s",
    "checkpoint.resume_s": "s",
    "sink.write_s": "s",
    "setup.ray_init_s": "s",
    "setup.worker_warm_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    **{c: "count" for c in COUNTS},
}


class Tracer:
    """In-memory spans: (name, start, end, parent)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, summed over that name's spans."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += self.duration(rec)
        out: Dict[str, float] = {}
        for rec in self.spans:
            out[rec["name"]] = (out.get(rec["name"], 0.0)
                                + self.duration(rec) - child_s[rec["id"]])
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


# the span UDF's name in build_pipeline's task path and actor path
SPAN_UDF_NAMES = ("span_task", "SpanProcessor")


class PlanChanged(RuntimeError):
    """The engine's executed plan has a shape the stage split cannot read."""


def _identity(batch: pa.Table) -> pa.Table:
    return batch


def _summaries(summary) -> list:
    """Every stats summary of an executed plan, sources first."""
    out = []
    for parent in summary.parents:
        out.extend(_summaries(parent))
    return out + [summary]


def plan_stages(ds) -> Tuple[Dict[str, list], object]:
    """Split the operators of an executed flagship plan into its stages, by
    position: ``Read*`` operators are the read; the one all-to-all operator
    (a summary with sub-operators) is the shuffle; the operators before it
    are the span stage, and those after it the assembly. A stage the plan
    does not have stays empty. Returns the stages and the span UDF's
    operator. Raises PlanChanged when the split cannot hold: no read, a
    second all-to-all, or no span-UDF operator in the span stage."""
    stages: Dict[str, list] = {st: [] for st in STAGES}
    names = []
    for summary in _summaries(ds._get_stats_summary()):
        ops = list(summary.operators_stats)
        if not ops:
            continue
        names.append("+".join(op.operator_name for op in ops))
        if len(ops) > 1:
            if stages["shuffle"]:
                raise PlanChanged(f"two all-to-all operators in {names}")
            stages["shuffle"].append(summary)
        elif ops[0].operator_name.startswith("Read"):
            stages["read"].extend(ops)
        else:
            stages["assemble" if stages["shuffle"] else "span_stage"] \
                .extend(ops)
    udfs = [op for op in stages["span_stage"]
            if any(n in op.operator_name for n in SPAN_UDF_NAMES)]
    if not stages["read"] or not udfs:
        raise PlanChanged(f"no read or no span UDF before the shuffle in "
                          f"{names}")
    P.note(f"plan {names}")
    return stages, udfs[0]


def _task_s(ops) -> float:
    return sum(op.wall_time["sum"] for op in ops if op.wall_time)


def stage_stats(ds) -> Dict[str, float]:
    """Wall time, task time, concurrency and skew of the executed flagship
    plan's stages, from ``ds.stats()``. A stage's wall time is its longest
    operator's first-task-start to last-task-end; the shuffle's is that of
    the whole all-to-all operator. A stage missing from the plan reads 0."""
    st, udf = plan_stages(ds)
    span = st["span_stage"]
    span_wall = max(op.time_total_s for op in span)
    shuffle_ops = [op for summary in st["shuffle"]
                   for op in summary.operators_stats]
    return {
        "read.wall_s": max(op.time_total_s for op in st["read"]),
        "span_stage.wall_s": span_wall,
        "span_stage.task_s": _task_s(span),
        "span_stage.concurrency": _task_s(span) / span_wall,
        "span_stage.task_skew": udf.wall_time["max"] / udf.wall_time["mean"],
        "shuffle.wall_s": sum(s.time_total_s for s in st["shuffle"]),
        "shuffle.task_s": _task_s(shuffle_ops),
        # the map side's output: what the shuffle moves to its reducers
        "shuffle.bytes": float(shuffle_ops[0].output_size_bytes["sum"])
        if shuffle_ops else 0.0,
        "assemble.wall_s": max((op.time_total_s for op in st["assemble"]),
                               default=0.0),
        "assemble.task_s": _task_s(st["assemble"]),
    }


def kernel_pass(corpus, tracer: Tracer) -> None:
    """Every kernel of the span UDF and of assembly, called in this process
    over the corpus's spans, one span per call."""
    import pyarrow.parquet as pq

    from documentprocessor_ray.corpus import MediaStore
    from documentprocessor_ray.functions.boilerplate import main_text_of
    from documentprocessor_ray.functions.pdf import parse_pdf_text
    from documentprocessor_ray.ocr_kernel import get_engine
    from documentprocessor_ray.oracle.boxes import normalize_boxes
    from documentprocessor_ray.oracle.document import media_span_lines
    from documentprocessor_ray.oracle.fields import extract_fields_heuristic
    from documentprocessor_ray.oracle.textnorm import normalize_text_arrow
    from documentprocessor_ray.pipelines.extract import explode_spans
    from documentprocessor_ray.stages.preprocess import (PreprocessConfig,
                                                         preprocess)

    docs = pq.read_table(corpus.docs_dir, columns=["doc_id", "spans"])
    store = MediaStore(corpus.media_dir)
    engine = get_engine(None)
    cfg = PreprocessConfig()
    words_by_doc: Dict[str, list] = {}
    with tracer.span("kernels"):
        with tracer.span("explode"):
            spans = explode_spans(docs)
        with tracer.span("textnorm"):
            normalize_text_arrow(spans["text"].combine_chunks())
        for row in spans.to_pylist():
            if row["kind"] == "html":
                with tracer.span("boilerplate"):
                    main_text_of(row["text"])
            elif row["kind"] == "pdf":
                with tracer.span("pdf"):
                    parse_pdf_text(store.load_bytes(row["media_ref"]))
            elif row["kind"] == "media":
                with tracer.span("media_load"):
                    image = store.load(row["media_ref"])
                with tracer.span("preprocess"):
                    pre = preprocess(image, cfg)
                with tracer.span("ocr"):
                    words = engine.detect_and_recognize(pre)
                with tracer.span("boxes"):
                    h, w = pre.shape[:2]
                    norm = normalize_boxes(words, w, h)
                    media_span_lines(norm)
                words_by_doc.setdefault(row["doc_id"], []).extend(norm)
        for words in words_by_doc.values():
            with tracer.span("fields"):
                extract_fields_heuristic(words)


def floor_pass(corpus, tracer: Tracer) -> None:
    """Ray Data with nothing to do, over the exploded blocks of the corpus
    (read and ``explode_spans`` as ``build_pipeline`` runs them, at its
    default span batch size)."""
    import inspect

    from documentprocessor_ray.pipelines.extract import (DOCS_PER_BUCKET,
                                                         build_pipeline,
                                                         explode_spans)
    from documentprocessor_ray.sharding import auto_buckets
    from documentprocessor_ray.sources.documents import read_table_auto

    batch_size = inspect.signature(build_pipeline) \
        .parameters["batch_size"].default
    docs = read_table_auto(corpus.docs_dir)
    spans = docs.select_columns(["doc_id", "spans"]).map_batches(
        explode_spans, batch_format="pyarrow",
        fn_kwargs={"num_buckets": auto_buckets(
            docs.count(), rows_per_bucket=DOCS_PER_BUCKET)}).materialize()
    with tracer.span("floor.map"):
        spans.map_batches(_identity, batch_format="pyarrow",
                          batch_size=batch_size).materialize()
    with tracer.span("floor.shuffle"):
        spans.groupby("pkey").map_groups(
            _identity, batch_format="pyarrow").materialize()


def writer_pass(corpus, tracer: Tracer, tally) -> Dict[str, float]:
    """Checkpointed write, resume, and the plain sink."""
    from documentprocessor_ray.pipelines.extract import run_extraction
    from documentprocessor_ray.sources.sinks import write_results

    out = P.out_dir(corpus)
    with tracer.span("checkpoint.partition"):
        written = P.write_pass(corpus)
    tally.check(written)
    manifests = P.read_manifests(out)
    with tracer.span("checkpoint.resume"):
        P.resume(corpus)
    shutil.rmtree(out)
    mat = run_extraction(corpus.docs_dir, corpus.media_dir).materialize()
    sink = out + "-sink"
    with tracer.span("sink.write"):
        write_results(mat, sink)
    shutil.rmtree(sink)
    return {"checkpoint.partition_s":
            sum(m["wall_ms"] for m in manifests) / 1000.0}


def measure_layers(corpus, seconds: float, tally,
                   log: Dict[str, list]) -> Dict[str, float]:
    tracer = Tracer()
    s = Session(P.NUM_CPUS)
    P.note(f"session set up in {s.setup_s:.2f}s")
    try:
        tally.check(P.extraction_pass(corpus))  # warm-up
        untraced = P.timed_passes(lambda: P.extraction_pass(corpus),
                                  seconds / 2, 2, tally)
        P.note(f"{len(untraced)} untraced passes")
        with tracer.span("pass"):
            traced = P.extraction_pass(corpus, span=tracer.span)
        m = stage_stats(traced.ds)
        out_counts = output_stats(traced.rows)
        tally.check(traced)
        P.note(f"traced pass {traced.wall_s:.2f}s")
        floor_pass(corpus, tracer)
        m.update(writer_pass(corpus, tracer, tally))
        P.note("writer layers done")
    finally:
        s.close()
    kernel_pass(corpus, tracer)
    P.note("kernels done")
    tracer.write(os.path.join(HERE, "_cache", "traces",
                              f"{corpus.workload}-s{corpus.seed}.json"))

    self_s = tracer.self_times()
    warm = statistics.median(p.wall_s for p in untraced)
    kernel_total = sum(self_s.get(k, 0.0) for k in KERNELS)
    log.update(untraced_s=[p.wall_s for p in untraced],
               traced_s=[traced.wall_s])
    m.update({f"{k}.self_s": self_s.get(k, 0.0) for k in KERNELS})
    m.update({
        "floor.map_s": self_s["floor.map"],
        "floor.shuffle_s": self_s["floor.shuffle"],
        "parallel_gap_s": warm - kernel_total / P.NUM_CPUS,
        "checkpoint.resume_s": self_s["checkpoint.resume"],
        "sink.write_s": self_s["sink.write"],
        "setup.ray_init_s": s.init_s,
        "setup.worker_warm_s": s.warm_s,
        "trace.overhead_s": traced.wall_s - warm,
        "trace.coverage": kernel_total
        / (m["span_stage.task_s"] + m["assemble.task_s"]),
    })
    counts = {**corpus.counts, **out_counts}
    m.update({k: float(counts[k]) for k in COUNTS})
    return m
