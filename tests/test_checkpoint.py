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
    _drop_unlisted, _write_block,
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
        chash = _config_hash(None, None, None, "blocks")
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

    @pytest.mark.parametrize("change", [{"html_mode": "dom"},
                                        {"engine": "kernel_lm"}])
    def test_extractor_change_invalidates(self, ray_session, ckpt_corpus,
                                          tmp_path, change):
        """html_mode and engine change a partition's text, so a run under
        another one must not skip the partitions a default run wrote."""
        docs_dir, media_dir = ckpt_corpus
        out = str(tmp_path / "out")
        first = run_partitioned(docs_dir, media_dir, out, max_partitions=1)
        done = [p for p, st in first["partitions"].items() if st == "done"]
        s = run_partitioned(docs_dir, media_dir, out, max_partitions=1,
                            **change)
        assert s["skipped"] == []
        assert s["partitions"][done[0]] == "done"

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


_COUNTERS = ["docs_in", "docs_ok", "words", "spans_out"]


class TestWriteBlock:
    def test_rewritten_block_leaves_one_file(self, tmp_path):
        """A retried task writes the same block again: the commit keeps
        only the attempt whose counters came back, so one copy of
        the rows remains."""
        block = pa.table({
            "doc_id": ["d2", "d1", "d3"],
            "status": ["done", "failed", "done"],
            "n_words": pa.array([3, 0, 4], pa.int32()),
            "spans_out": [[{"order": 0}], [], [{"order": 0}, {"order": 1}]],
        })
        first = _write_block(block, str(tmp_path))
        again = _write_block(block, str(tmp_path))
        assert len(os.listdir(tmp_path)) == 2
        kept = again["file"][0].as_py()
        _drop_unlisted(str(tmp_path), {kept: 3})
        assert os.listdir(tmp_path) == [kept]
        assert pads.dataset(str(tmp_path)).to_table().equals(block)
        assert first["file"] != again["file"]
        assert first.select(_COUNTERS).equals(again.select(_COUNTERS))
        assert first.select(_COUNTERS).to_pylist() == [
            {"docs_in": 3, "docs_ok": 2, "words": 7, "spans_out": 3}]

    def test_empty_block_writes_nothing(self, tmp_path):
        block = pa.table({"doc_id": pa.array([], pa.string()),
                          "status": pa.array([], pa.string()),
                          "n_words": pa.array([], pa.int32()),
                          "spans_out": pa.array([], pa.list_(pa.int64()))})
        assert _write_block(block, str(tmp_path)).to_pylist() == [
            {"file": "", "docs_in": 0, "docs_ok": 0, "words": 0,
             "spans_out": 0}]
        assert os.listdir(tmp_path) == []


class TestWriterPlan:
    def test_one_file_per_read_block(self, ray_session, ckpt_corpus,
                                     tmp_path):
        """The writer runs the flagship's plan: one span task per read
        block, each writing one file. A partition read as k > 1 blocks
        lists k files in its manifest; batching the span stage bundles
        those blocks into one task and one file."""
        from documentprocessor_ray.sources.documents import read_table_auto

        docs_dir, media_dir = ckpt_corpus
        blocks = {}
        for part in list_partitions(docs_dir):
            read = read_table_auto(os.path.join(docs_dir, part)).materialize()
            blocks[part] = sum(
                1 for b in read.iter_batches(batch_size=None,
                                             batch_format="pyarrow")
                if b.num_rows)
        assert max(blocks.values()) > 1, blocks
        out = str(tmp_path / "out")
        run_partitioned(docs_dir, media_dir, out)
        for part, k in blocks.items():
            with open(os.path.join(out, "_manifest", f"{part}.json")) as f:
                assert len(json.load(f)["files"]) == k, (part, k)


class TestFilePerBlock:
    @pytest.fixture
    def shared_first_doc(self, tmp_path):
        """One partition of 4 files x 100 text rows; every file starts
        with the same doc_id, the smallest of the partition."""
        import pyarrow.parquet as pq

        from documentprocessor_ray.corpus import DOCUMENTS_SCHEMA

        part = tmp_path / "documents" / "part=0"
        part.mkdir(parents=True)
        (tmp_path / "media").mkdir()
        span = [{"kind": "text", "text": "total 12.40", "media_ref": "",
                 "offset": 0}]
        for f in range(4):
            rows = [{"doc_id": "a-shared", "spans": span}] + [
                {"doc_id": f"doc-{f}-{i:03d}", "spans": span}
                for i in range(99)]
            pq.write_table(pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA),
                           str(part / f"f{f}.parquet"))
        return str(tmp_path / "documents"), str(tmp_path / "media")

    def test_blocks_sharing_a_first_doc_id_keep_every_row(
            self, ray_session, shared_first_doc, tmp_path):
        docs_dir, media_dir = shared_first_doc
        out = str(tmp_path / "out")
        run_partitioned(docs_dir, media_dir, out)
        with open(os.path.join(out, "_manifest", "part=0.json")) as f:
            m = json.load(f)
        part_out = os.path.join(out, "part=0")
        got = pads.dataset(part_out).to_table()
        assert got.num_rows == m["counters"]["docs_in"] == 400
        assert sorted(m["files"]) == sorted(os.listdir(part_out))
        assert sum(m["files"].values()) == 400
        assert got["doc_id"].to_pylist().count("a-shared") == 4

    def test_missing_file_makes_partition_incomplete(
            self, ray_session, shared_first_doc, tmp_path):
        docs_dir, media_dir = shared_first_doc
        out = str(tmp_path / "out")
        chash = run_partitioned(docs_dir, media_dir, out)["config_hash"]
        assert completed_partitions(out, chash) == ["part=0"]
        part_out = os.path.join(out, "part=0")
        os.remove(os.path.join(part_out, sorted(os.listdir(part_out))[0]))
        assert completed_partitions(out, chash) == []
        assert run_partitioned(docs_dir, media_dir, out)["partitions"] == {
            "part=0": "done"}
        assert pads.dataset(part_out).to_table().num_rows == 400


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
        base = _config_hash(None, None, None, "blocks")
        assert base != _config_hash(None, "rule", None, "blocks")
        assert base != _config_hash(None, None, "kernel_lm", "blocks")
        assert base != _config_hash(None, None, None, "dom")
        # the default engine has one key whether it is named or not
        assert base == _config_hash(None, None, "kernel", "blocks")

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
        old_hash = _config_hash(None, None, None, "blocks")
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
