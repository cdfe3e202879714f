"""Kill-and-resume: no completed partition recomputes; output equals a
single-shot run; torn manifests re-run."""

from __future__ import annotations

import json
import os
import uuid

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from documentprocessor_ray.state.checkpoint import (
    completed_partitions, list_partitions, run_partitioned, _config_hash,
    _write_block,
)


@pytest.fixture(scope="module")
def ckpt_corpus(tmp_path_factory):
    from documentprocessor_ray.corpus import generate_corpus

    out = str(tmp_path_factory.mktemp("ckpt_corpus"))
    return generate_corpus(out, n_docs=24, seed=11, heavy_frac=0.0, num_partitions=4)


def _result_rows(output_dir):
    files = []
    for part in sorted(os.listdir(output_dir)):
        if part.startswith("part="):
            d = os.path.join(output_dir, part)
            files += [os.path.join(d, f) for f in sorted(os.listdir(d))]
    rows = pads.dataset(files).to_table().to_pylist()
    return {r["doc_id"]: (r["status"], tuple((s["kind"], s["text"], s["order"])
                                             for s in r["spans_out"]))
            for r in rows}


class TestCheckpointResume:
    def test_partial_then_resume(self, ray_session, ckpt_corpus, tmp_path):
        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "out")

        # simulate a run that dies after 2 of 4 partitions
        s1 = run_partitioned(docs_dir, media_dir, out, max_partitions=2)
        done1 = [p for p, st in s1["partitions"].items() if st == "done"]
        deferred = [p for p, st in s1["partitions"].items() if st == "deferred"]
        assert len(done1) == 2 and len(deferred) == 2

        manifests = {
            p: os.path.getmtime(os.path.join(out, "_manifest", f"{p}.json"))
            for p in done1
        }

        # resume: completed partitions must be skipped, not recomputed
        s2 = run_partitioned(docs_dir, media_dir, out)
        assert sorted(s2["skipped"]) == sorted(done1)
        for p in done1:
            assert s2["partitions"][p] == "skipped"
            assert os.path.getmtime(
                os.path.join(out, "_manifest", f"{p}.json")) == manifests[p]
        for p in deferred:
            assert s2["partitions"][p] == "done"

        # full coverage: every input doc present exactly once
        n_input = pads.dataset(docs_dir).to_table().num_rows
        rows = _result_rows(out)
        assert len(rows) == n_input

    def test_resume_equals_single_shot(self, ray_session, ckpt_corpus, tmp_path):
        docs_dir, media_dir = ckpt_corpus
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_partitioned(docs_dir, media_dir, out_a, max_partitions=1)
        run_partitioned(docs_dir, media_dir, out_a)  # resumed
        run_partitioned(docs_dir, media_dir, out_b)  # single shot
        assert _result_rows(out_a) == _result_rows(out_b)

    def test_torn_manifest_reruns(self, ray_session, ckpt_corpus, tmp_path):
        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "out")
        run_partitioned(docs_dir, media_dir, out)
        parts = list_partitions(docs_dir)
        victim = parts[0]
        mpath = os.path.join(out, "_manifest", f"{victim}.json")
        with open(mpath, "w") as f:
            f.write('{"partition": "part=')  # torn write
        chash = _config_hash(None, 64)
        assert victim not in completed_partitions(out, chash)
        s = run_partitioned(docs_dir, media_dir, out)
        assert s["partitions"][victim] == "done"

    def test_config_change_invalidates(self, ray_session, ckpt_corpus, tmp_path):
        from documentprocessor_ray.stages.preprocess import PreprocessConfig

        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "out")
        run_partitioned(docs_dir, media_dir, out, max_partitions=1)
        cfg2 = PreprocessConfig(apply_threshold=True)
        s = run_partitioned(docs_dir, media_dir, out, cfg=cfg2, max_partitions=1)
        assert s["skipped"] == []  # different config hash -> nothing skipped

    def test_manifest_counters(self, ray_session, ckpt_corpus, tmp_path):
        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "out")
        run_partitioned(docs_dir, media_dir, out)
        total_in = 0
        for p in list_partitions(docs_dir):
            with open(os.path.join(out, "_manifest", f"{p}.json")) as f:
                m = json.load(f)
            c = m["counters"]
            assert c["docs_in"] == c["docs_ok"] + c["docs_failed"]
            assert m["lineage"]["input_files"]
            total_in += c["docs_in"]
            # the counters describe exactly the rows written
            rows = pads.dataset(os.path.join(out, p)).to_table().to_pylist()
            assert c["docs_in"] == len(rows)
            assert c["docs_ok"] == sum(r["status"] == "done" for r in rows)
            assert c["words"] == sum(r["n_words"] for r in rows)
            assert c["spans_out"] == sum(len(r["spans_out"]) for r in rows)
        assert total_in == 24

    def test_each_doc_runs_the_span_stage_once(
            self, ray_session, ckpt_corpus, tmp_path, monkeypatch):
        """Rows are written and counted in one pass: the partition's
        Dataset is executed once, so no doc goes through the span stage
        a second time."""
        import documentprocessor_ray.state.checkpoint as ck

        docs_dir, media_dir = ckpt_corpus
        marks = tmp_path / "marks"
        marks.mkdir()
        real = ck.run_extraction

        def record(batch):
            (marks / uuid.uuid4().hex).write_text(
                "\n".join(batch["doc_id"].to_pylist()))
            return batch

        def recorded(*a, **k):
            return real(*a, **k).map_batches(record, batch_size=None,
                                             batch_format="pyarrow")

        monkeypatch.setattr(ck, "run_extraction", recorded)
        run_partitioned(docs_dir, media_dir, str(tmp_path / "out"))
        seen = [d for f in marks.iterdir()
                for d in f.read_text().split("\n") if d]
        want = pads.dataset(docs_dir).to_table()["doc_id"].to_pylist()
        assert sorted(seen) == sorted(want)


class TestWriteBlock:
    def test_rewritten_block_leaves_one_file(self, tmp_path):
        """A retried task writes the same block again: it must overwrite
        its earlier file, not add a second copy of the rows."""
        block = pa.table({
            "doc_id": ["d2", "d1", "d3"],
            "status": ["done", "failed", "done"],
            "n_words": pa.array([3, 0, 4], pa.int32()),
            "spans_out": [[{"order": 0}], [], [{"order": 0}, {"order": 1}]],
        })
        first = _write_block(block, str(tmp_path))
        again = _write_block(block, str(tmp_path))
        assert len(os.listdir(tmp_path)) == 1
        assert pads.dataset(str(tmp_path)).to_table().equals(block)
        assert first.equals(again)
        assert first.to_pylist() == [
            {"docs_in": 3, "docs_ok": 2, "words": 7, "spans_out": 3}]

    def test_empty_block_writes_nothing(self, tmp_path):
        block = pa.table({"doc_id": pa.array([], pa.string()),
                          "status": pa.array([], pa.string()),
                          "n_words": pa.array([], pa.int32()),
                          "spans_out": pa.array([], pa.list_(pa.int64()))})
        assert _write_block(block, str(tmp_path)).to_pylist() == [
            {"docs_in": 0, "docs_ok": 0, "words": 0, "spans_out": 0}]
        assert os.listdir(tmp_path) == []


class TestTornPartitionOutput:
    def test_stale_chunks_from_dead_attempt_are_removed(
            self, ray_session, ckpt_corpus, tmp_path):
        """A partition with output files but NO manifest is a torn attempt:
        the retry must delete-then-rewrite, not leave stale chunks alongside
        new ones (chunk names depend on batch boundaries, so overwrite alone
        is not idempotent)."""
        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "out")
        part = list_partitions(docs_dir)[0]
        part_out = os.path.join(out, part)
        os.makedirs(part_out)
        stale = os.path.join(part_out, "chunk-99999999.parquet")
        with open(stale, "wb") as f:
            f.write(b"not a real parquet file")

        s = run_partitioned(docs_dir, media_dir, out)
        assert s["partitions"][part] == "done"
        assert not os.path.exists(stale)
        # partition output parses cleanly and covers exactly its input docs
        got = pads.dataset(
            [os.path.join(part_out, f) for f in sorted(os.listdir(part_out))]
        ).to_table()
        want = pads.dataset(os.path.join(docs_dir, part)).to_table()
        assert sorted(got["doc_id"].to_pylist()) == sorted(want["doc_id"].to_pylist())

    def test_model_flag_reaches_scorer(self, ray_session, ckpt_corpus, tmp_path):
        """ADVICE fix: model threads through run_partitioned instead of
        being silently dropped."""
        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "scored")
        s = run_partitioned(docs_dir, media_dir, out, model="rule",
                            max_partitions=1)
        part = [p for p, st in s["partitions"].items() if st == "done"][0]
        t = pads.dataset(os.path.join(out, part)).to_table()
        assert "model_vendor" in t.column_names
        assert "model_n_items" in t.column_names

    def test_model_changes_config_hash(self):
        assert _config_hash(None, 64) != _config_hash(None, 64, model="rule")

    def test_stale_manifest_never_outlives_deleted_output(
            self, ray_session, ckpt_corpus, tmp_path, monkeypatch):
        """Delete-before-invalidate hazard (round-2 advice): a rerun under a
        NEW config deletes the old-config output; if it crashes before
        committing its own manifest, a resume under the OLD config must
        re-run the partition — the old-hash manifest must not survive the
        rmtree and mark deleted data as complete."""
        import documentprocessor_ray.state.checkpoint as ck

        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "out")
        run_partitioned(docs_dir, media_dir, out, max_partitions=1)
        old_hash = _config_hash(None, 64)
        victim = completed_partitions(out, old_hash)[0]

        def boom(*a, **k):
            raise RuntimeError("simulated crash mid-rerun")

        monkeypatch.setattr(ck, "run_extraction", boom)
        from documentprocessor_ray.stages.preprocess import PreprocessConfig
        cfg2 = PreprocessConfig(apply_threshold=True)
        with pytest.raises(RuntimeError):
            run_partitioned(docs_dir, media_dir, out, cfg=cfg2,
                            max_partitions=1)
        # output gone AND manifest gone -> old-config resume re-runs it
        assert victim not in completed_partitions(out, old_hash)
        monkeypatch.undo()
        s = run_partitioned(docs_dir, media_dir, out, max_partitions=1)
        assert s["partitions"][victim] == "done"
