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


@pytest.mark.parametrize("kwargs", [
    {"target_blocks": 4},
    {"use_actors": True},
    {"batch_size": 1},
], ids=lambda kw: next(iter(kw)))
def test_plan_variants_give_equal_output(default_output, small_corpus, kwargs):
    assert _canon(run_extraction(*small_corpus, **kwargs)) == default_output


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
