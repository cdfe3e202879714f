"""The flagship's default plan is shuffle-free (read -> span_task) and every
plan variant yields byte-equal output."""

import json

import pytest

from documentprocessor_ray.pipelines.extract import run_extraction


def _summaries(summary):
    """Every stats summary of an executed plan, sources first."""
    out = []
    for parent in summary.parents:
        out.extend(_summaries(parent))
    return out + [summary]


def _canon(ds) -> bytes:
    rows = sorted(
        (r["doc_id"], r["status"],
         [(s["kind"], s["text"], s["media_ref"], s["order"])
          for s in r["spans_out"]])
        for r in ds.take_all())
    return json.dumps(rows).encode()


def test_default_plan_is_read_then_span_task_without_shuffle(
        ray_session, small_corpus):
    docs_dir, media_dir = small_corpus
    ds = run_extraction(docs_dir, media_dir)
    assert len(ds.take_all()) == 60
    ops = [[op.operator_name for op in s.operators_stats]
           for s in _summaries(ds._get_stats_summary())]
    ops = [names for names in ops if names]
    # an all-to-all operator reports its map and reduce sub-operators
    assert all(len(names) == 1 for names in ops), ops
    names = [n[0] for n in ops]
    reads = [n for n in names if n.startswith("Read")]
    udfs = [n for n in names if "span_task" in n]
    assert reads and udfs, names
    assert not any("span_task" in n for n in reads), names


@pytest.fixture(scope="module")
def default_output(ray_session, small_corpus):
    return _canon(run_extraction(*small_corpus))


# batch_size 7 makes several calls per read block, the last one short
@pytest.mark.parametrize("kwargs", [
    {"batch_size": 1},
    {"batch_size": 7},
], ids=["batch_size", "batch_size7"])
def test_plan_variants_give_equal_output(default_output, small_corpus, kwargs):
    assert _canon(run_extraction(*small_corpus, **kwargs)) == default_output


def test_span_task_returns_one_chunk_per_block(ray_session, tmp_path):
    """A span task runs its read block in one call, so every column of
    every output block is one Arrow chunk. The read blocks here hold more
    than 16 documents, so calls of 16 would leave several chunks."""
    import ray

    from documentprocessor_ray.corpus import generate_corpus

    docs_dir, media_dir = generate_corpus(str(tmp_path), n_docs=128, seed=5,
                                          html_frac=0.4, pdf_frac=0.4,
                                          num_partitions=2)
    ds = run_extraction(docs_dir, media_dir).materialize()
    blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks]
    assert sum(b.num_rows for b in blocks) == 128
    assert max(b.num_rows for b in blocks) > 16
    chunked = sorted({n for b in blocks for n in b.column_names
                      if b[n].num_chunks > 1})
    assert not chunked, chunked
    assert _canon(ds) == _canon(run_extraction(docs_dir, media_dir,
                                               batch_size=16))


@pytest.mark.parametrize("batch_size", [None, 1], ids=["default", "one"])
def test_each_input_row_is_its_own_document(ray_session, tmp_path,
                                            batch_size):
    """One result row per input row, equal to the oracle on that row,
    whichever rows share a span batch: two rows with one doc_id in the
    same batch stay two rows, spans tied on offset keep their input
    order, and a document without spans comes back done and empty."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from documentprocessor_ray.corpus import DOCUMENTS_SCHEMA, MediaStore
    from documentprocessor_ray.oracle.document import process_document

    def span(kind, text, offset):
        return {"kind": kind, "text": text, "media_ref": "", "offset": offset}

    html = ("<div><p>The tied html span keeps its place after the text "
            "span that comes before it in the input.</p></div>")
    rows = [
        {"doc_id": "d1", "spans": [span("text", "alpha two", 1),
                                   span("text", "alpha one", 0)]},
        {"doc_id": "d1", "spans": [span("text", "beta one", 0),
                                   span("text", "beta two", 1)]},
        {"doc_id": "d2", "spans": [span("text", "tied first", 5),
                                   span("html", html, 5),
                                   span("text", "<b>lead</b>", 2)]},
        {"doc_id": "d3", "spans": []},
    ]
    docs_dir, media_dir = str(tmp_path / "documents"), str(tmp_path / "media")
    os.makedirs(docs_dir)
    os.makedirs(media_dir)
    pq.write_table(pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA),
                   os.path.join(docs_dir, "data.parquet"))
    store = MediaStore(media_dir)

    def canon(results):
        return sorted(json.dumps(
            [r["doc_id"], r["status"],
             [(s["kind"], s["text"], s["media_ref"], s["order"])
              for s in r["spans_out"]]]) for r in results)

    want = canon(process_document(r["doc_id"], r["spans"], store.load,
                                  load_blob=store.load_bytes) for r in rows)
    kwargs = {"batch_size": batch_size} if batch_size else {}
    assert canon(run_extraction(docs_dir, media_dir, **kwargs).take_all()) \
        == want


def test_documents_are_read_before_the_span_stage(default_output, small_corpus,
                                                  tmp_path):
    """run_extraction materializes the documents read: the returned
    Dataset no longer needs the documents directory."""
    import shutil

    docs_dir = str(tmp_path / "documents")
    shutil.copytree(small_corpus[0], docs_dir)
    ds = run_extraction(docs_dir, small_corpus[1])
    shutil.move(docs_dir, str(tmp_path / "moved"))
    assert _canon(ds) == default_output


def test_one_cpu_limit_gives_equal_output(default_output, small_corpus):
    from ray.data import DataContext, ExecutionResources

    opts = DataContext.get_current().execution_options
    saved = opts.resource_limits
    opts.resource_limits = ExecutionResources(cpu=1)
    try:
        out = _canon(run_extraction(*small_corpus))
    finally:
        opts.resource_limits = saved
    assert out == default_output


@pytest.mark.parametrize("num_files", [1, 8])
def test_read_gives_every_cpu_a_block(ray_session, tmp_path, num_files):
    """min(files, CPUs) read tasks and at least one block per CPU: Ray Data
    splits the blocks of a read of fewer files than CPUs, and only then."""
    import ray

    from documentprocessor_ray.corpus import generate_corpus
    from documentprocessor_ray.sources.documents import read_table_auto

    docs_dir, _ = generate_corpus(str(tmp_path), n_docs=40, seed=3,
                                  num_partitions=num_files)
    cpus = int(ray.cluster_resources()["CPU"])
    ds = read_table_auto(docs_dir).materialize()
    stats = ds.stats()
    assert f"{min(num_files, cpus)} tasks executed" in stats
    assert ds.num_blocks() >= cpus
    assert ds.count() == 40
    assert ("SplitBlocks" in stats) == (num_files < cpus)


def test_block_target_is_the_datasets_own(ray_session, small_corpus):
    """The flagship Dataset carries the span block target in its own
    context; the process-global DataContext and the context of a Dataset
    passed to build_pipeline are left as they were."""
    import ray
    from ray.data import DataContext

    from documentprocessor_ray.pipelines.extract import (SPAN_BLOCK_BYTES,
                                                         build_pipeline)

    ctx = DataContext.get_current()
    block_size = ctx.target_max_block_size
    options = repr(ctx.execution_options)
    docs = ray.data.read_parquet(small_corpus[0])
    build_pipeline(docs, small_corpus[1])
    assert docs.context.target_max_block_size == block_size
    ds = run_extraction(*small_corpus)
    assert len(ds.take_all()) == 60
    assert ds.context.target_max_block_size == SPAN_BLOCK_BYTES
    assert DataContext.get_current() is ctx
    assert ctx.target_max_block_size == block_size != SPAN_BLOCK_BYTES
    assert repr(ctx.execution_options) == options
