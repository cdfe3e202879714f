"""Tests of the benchmark itself, on tiny corpora.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for _p in (BENCH, ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import check  # noqa: E402
import corpora  # noqa: E402
import layers  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
from session import Session  # noqa: E402

TINY = 12


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _tiny_corpus(tmp_path, workload: str = "receipts") -> check.Corpus:
    root = str(tmp_path / workload)
    corpora.generate(workload, 3, root, n_docs=TINY)
    return _with_oracle(workload, root)


def _with_oracle(workload: str, root: str) -> check.Corpus:
    docs, media = os.path.join(root, "documents"), os.path.join(root, "media")
    oracle = check.oracle_rows(docs, media)
    return check.Corpus(workload, 3, root, check.rows_hash(oracle),
                        check.input_counts(docs))


def test_units_match_benchmark_json():
    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(corpora.WORKLOADS)


def test_generator_is_deterministic_and_stratified(tmp_path):
    a = corpora.generate("web_text", 5, str(tmp_path / "a"), n_docs=50)
    b = corpora.generate("web_text", 5, str(tmp_path / "b"), n_docs=50)
    c = corpora.generate("web_text", 6, str(tmp_path / "c"), n_docs=50)
    fa, fb, fc = (corpora.fingerprint(os.path.dirname(p[0])) for p in (a, b, c))
    assert fa == fb != fc
    # another seed: other content, same amount of work
    assert check.input_counts(a[0]) == check.input_counts(c[0])


def test_canary_matches_pin():
    for workload in corpora.WORKLOADS:
        corpora.check_pins(workload)


def test_changed_output_span_text_fails_check(tmp_path):
    corpus = _tiny_corpus(tmp_path)
    rows = check.oracle_rows(corpus.docs_dir, corpus.media_dir)
    assert check.verify(rows, corpus) == 0
    doc = next(r for r in rows if r["spans_out"])
    doc["spans_out"][0]["text"] += " x"
    with pytest.raises(check.CheckFailed):
        check.verify(rows, corpus)
    with pytest.raises(check.CheckFailed):
        check.verify(rows[1:], corpus)  # a missing doc
    with pytest.raises(check.CheckFailed):
        check.verify(rows + rows[:1], corpus)  # a duplicate doc


@pytest.fixture(scope="class")
def ray_session():
    s = Session(2)
    yield s
    s.close()


@pytest.mark.usefixtures("ray_session")
class TestPasses:
    """Passes over tiny corpora in one shared 2-CPU session."""

    def test_changed_input_span_text_fails_check(self, tmp_path):
        corpus = _tiny_corpus(tmp_path)
        tally = passes.Tally(corpus)
        tally.check(passes.extraction_pass(corpus))
        part = sorted(glob.glob(os.path.join(corpus.docs_dir, "*",
                                             "*.parquet")))[0]
        rows = pq.read_table(part).to_pylist()
        span = next(s for r in rows for s in r["spans"] if s["kind"] == "text")
        span["text"] = "changed " + span["text"]
        pq.write_table(pa.Table.from_pylist(rows,
                                            schema=pq.read_schema(part)), part)
        with pytest.raises(check.CheckFailed):
            tally.check(passes.extraction_pass(corpus))

    def test_deleted_media_file_counts_as_failed(self, tmp_path):
        root = str(tmp_path / "receipts")
        corpora.generate("receipts", 3, root, n_docs=TINY)
        os.remove(sorted(glob.glob(os.path.join(root, "media", "*.npz8")))[0])
        corpus = _with_oracle("receipts", root)
        tally = passes.Tally(corpus)
        p = passes.extraction_pass(corpus)
        assert [r["status"] for r in p.rows].count("failed") == 1
        tally.check(p)
        assert tally.failed == 1
        assert p.rows is None  # checked passes keep no rows

    def test_write_pass_checks_manifests_and_resume(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(passes, "out_dir",
                            lambda c: str(tmp_path / "out"))
        corpus = _tiny_corpus(tmp_path, "web_text")
        tally = passes.Tally(corpus)
        p = tally.check(passes.write_pass(corpus))
        assert 0 < p.first_s <= p.wall_s
        passes.resume(corpus)


def _tiny_workload(monkeypatch, workload: str) -> None:
    spec = dataclasses.replace(corpora.WORKLOADS[workload], n_docs=TINY)
    monkeypatch.setitem(corpora.WORKLOADS, workload, spec)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_with_unit(monkeypatch, capsys, trace):
    _tiny_workload(monkeypatch, "receipts")
    assert run.main(["--workload", "receipts", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], float)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0
        assert result["metrics"]["span_stage.task_s"]["value"] > 0
