"""Delta-log table source and sink (sources/deltalog.py): snapshot
replay and time travel, the write_delta staging + commit protocol,
vacuum / compaction / checkpoint maintenance, partitioned writes and
the concurrent-writer rule. The distributed legs are hash-gated by
`scripts/check_oracle.py` (`delta_ingest`, `delta_time_travel`,
`delta_write_roundtrip`, `delta_compact`, `delta_partition_prune`)."""

import os
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from documentprocessor_ray.sources.deltalog import (
    _VACUUM_GRACE_S, active_files, write_delta_table)


def _backdate(directory: str) -> None:
    """Age every file under ``directory`` past vacuum_delta's grace
    window, as if its writer had crashed long ago."""
    old = time.time() - _VACUUM_GRACE_S - 60
    for root, _dirs, files in os.walk(directory):
        for f in files:
            os.utime(os.path.join(root, f), (old, old))


class TestDeltaLog:
    SRC = "/root/testdata/sf0.001/documents.parquet"

    def _table(self, tmp_path):
        return write_delta_table(self.SRC, str(tmp_path / "delta"),
                                 num_files=8, prune_mod=3,
                                 prune_min_chars=500)

    def test_snapshot_resolution(self, tmp_path):
        d = self._table(tmp_path)
        ref = pq.read_table(self.SRC).replace_schema_metadata(None)
        mod = ref["doc_id"].to_numpy() % 8
        keep = (mod != 3) | (ref["n_chars"].to_numpy() >= 500)
        latest = pa.concat_tables(
            [pq.read_table(f) for f in active_files(d)]).sort_by("doc_id")
        exp = ref.filter(pa.array(keep)).sort_by("doc_id")
        assert latest.equals(exp)

    def test_time_travel_version_zero(self, tmp_path):
        d = self._table(tmp_path)
        v0 = pa.concat_tables(
            [pq.read_table(f) for f in active_files(d, version=0)]) \
            .sort_by("doc_id")
        assert v0.equals(pq.read_table(self.SRC)
                         .replace_schema_metadata(None).sort_by("doc_id"))

    def test_removed_file_not_in_snapshot(self, tmp_path):
        d = self._table(tmp_path)
        names = [os.path.basename(f) for f in active_files(d)]
        assert "part-00003-v0.parquet" not in names
        assert "part-00003-v1.parquet" in names
        assert len(names) == 8

    def test_future_version_raises(self, tmp_path):
        d = self._table(tmp_path)
        with pytest.raises(ValueError, match="version"):
            active_files(d, version=7)

    def test_empty_log_raises(self, tmp_path):
        os.makedirs(tmp_path / "t" / "_delta_log")
        with pytest.raises(ValueError, match="commits"):
            active_files(str(tmp_path / "t"))


class TestDeltaWrite:
    def test_append_overwrite_and_time_travel(self, ray_session,
                                              tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_files, read_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        docs = ray.data.read_parquet(src)
        d = str(tmp_path / "t")
        assert write_delta(docs, d, mode="append") == 0
        assert write_delta(docs.filter(expr="n_chars >= 500"), d,
                           mode="overwrite") == 1
        ref = pq.read_table(src).replace_schema_metadata(None)
        latest = pa.concat_tables(
            [pq.read_table(f) for f in active_files(d)]).sort_by("doc_id")
        exp = ref.filter(
            pa.array(ref["n_chars"].to_numpy() >= 500)).sort_by("doc_id")
        assert latest.select(exp.column_names).cast(exp.schema) \
            .equals(exp)
        # time travel to the pre-overwrite append
        v0 = pa.concat_tables(
            [pq.read_table(f) for f in active_files(d, version=0)]) \
            .sort_by("doc_id")
        assert v0.num_rows == ref.num_rows
        # overwrite removed every v0 file from the live set
        live = {os.path.basename(os.path.dirname(f)) for f in
                active_files(d)}
        assert live == {"stage-0000000001"}

    def test_append_accumulates(self, ray_session, tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            read_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        docs = ray.data.read_parquet(src)
        d = str(tmp_path / "t2")
        write_delta(docs.filter(expr="n_chars < 500"), d)
        write_delta(docs.filter(expr="n_chars >= 500"), d)
        assert read_delta(d).count() == \
            pq.read_table(src).num_rows

    def test_bad_mode_rejected(self, tmp_path):
        import pytest as _pytest

        from documentprocessor_ray.sources.deltalog import write_delta

        with _pytest.raises(ValueError, match="mode"):
            write_delta(None, str(tmp_path), mode="merge")


class TestDeltaMaintenance:
    def _seed(self, tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import write_delta

        src = "/root/testdata/sf0.001/documents.parquet"
        d = str(tmp_path / "t")
        write_delta(ray.data.read_parquet(src), d, mode="append")
        return d, src

    def test_vacuum_sweeps_only_uncommitted(self, ray_session, tmp_path):
        from documentprocessor_ray.sources.deltalog import (
            active_files, vacuum_delta)

        d, src = self._seed(tmp_path)
        # simulate a crash: stage a file that never got committed
        orphan_dir = os.path.join(d, "stage-9999999999")
        os.makedirs(orphan_dir)
        import shutil
        shutil.copy(src, os.path.join(orphan_dir, "orphan.parquet"))
        _backdate(orphan_dir)
        before = active_files(d)
        deleted = vacuum_delta(d)
        assert deleted == ["stage-9999999999/orphan.parquet"]
        assert active_files(d) == before
        for f in before:
            assert os.path.exists(f)

    def test_vacuum_spares_young_unreferenced_file(self, ray_session,
                                                   tmp_path):
        """A file staged moments ago may belong to a writer that has
        not committed yet: vacuum must leave it alone."""
        from documentprocessor_ray.sources.deltalog import vacuum_delta

        d, _src = self._seed(tmp_path)
        inflight = os.path.join(d, "stage-0000000001", "inflight.parquet")
        os.makedirs(os.path.dirname(inflight))
        pq.write_table(pa.table({"x": [1]}), inflight)
        assert vacuum_delta(d) == []
        assert os.path.exists(inflight)

    def test_compact_preserves_data_and_shrinks_layout(self, ray_session,
                                                       tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_files, compact_delta, read_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        d = str(tmp_path / "t2")
        # many small appends -> fragmented layout
        docs = ray.data.read_parquet(src)
        for lo, hi in ((0, 200), (200, 350), (350, 500), (500, 10**9)):
            part = docs.filter(expr=f"n_chars >= {lo} and n_chars < {hi}")
            if part.count():
                write_delta(part, d, mode="append")
        n_before = len(active_files(d))
        rows_before = read_delta(d).count()
        v = compact_delta(d, target_files=2)
        assert len(active_files(d)) <= 2 < n_before
        after = pa.concat_tables(
            [pq.read_table(f) for f in active_files(d)]).sort_by("doc_id")
        ref = pq.read_table(src).replace_schema_metadata(None) \
            .sort_by("doc_id")
        assert after.select(ref.column_names).cast(ref.schema).equals(ref)
        assert after.num_rows == rows_before
        # pre-compaction snapshot still reachable
        assert len(active_files(d, version=v - 1)) == n_before


class TestDeltaCheckpoint:
    def test_checkpoint_equals_full_replay_and_prunes_tail(
            self, ray_session, tmp_path):
        import json as _json

        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_files, checkpoint_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        docs = ray.data.read_parquet(src)
        d = str(tmp_path / "t")
        write_delta(docs.filter(expr="n_chars < 500"), d)
        write_delta(docs.filter(expr="n_chars >= 500"), d)
        full = active_files(d)
        v = checkpoint_delta(d)
        assert v == 1
        # checkpointed replay matches the pre-checkpoint answer
        assert active_files(d) == full
        # commits after the checkpoint still apply on top of it
        write_delta(docs.filter(expr="n_chars >= 400"), d,
                    mode="overwrite")
        after = active_files(d)
        assert after != full and len(after) >= 1
        # pre-checkpoint time travel still replays pure JSON
        assert active_files(d, version=0) != full
        assert set(active_files(d, version=1)) == set(full)
        ptr = _json.load(open(os.path.join(d, "_delta_log",
                                           "_last_checkpoint")))
        assert ptr["version"] == 1

    def test_checkpoint_survives_commit_corruption_before_it(
            self, ray_session, tmp_path):
        """Seeding from the checkpoint must NOT read pre-checkpoint
        JSON — prove it by clobbering commit 0 after checkpointing."""
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_files, checkpoint_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        d = str(tmp_path / "t2")
        write_delta(ray.data.read_parquet(src), d)
        full = active_files(d)
        checkpoint_delta(d)
        c0 = os.path.join(d, "_delta_log", f"{0:020d}.json")
        open(c0, "w").write("{not json")
        assert active_files(d) == full  # tail-only replay


class TestDeltaPartitioned:
    def test_partitioned_write_and_pruned_read(self, ray_session,
                                               tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_adds, checkpoint_delta, read_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        docs = ray.data.read_parquet(src)
        d = str(tmp_path / "t")
        write_delta(docs, d, mode="append", partition_by="lang")
        adds = active_adds(d)
        langs = {a["partitionValues"]["lang"] for a in adds}
        ref = pq.read_table(src).replace_schema_metadata(None)
        assert langs == set(ref["lang"].to_pylist())
        # pruned read touches ONLY that partition's files and rows
        lang = sorted(langs)[0]
        pruned = read_delta(d, partition_filter={"lang": lang})
        exp_rows = sum(1 for v in ref["lang"].to_pylist() if v == lang)
        assert pruned.count() == exp_rows
        pruned_files = [a for a in adds
                        if a["partitionValues"]["lang"] == lang]
        assert 0 < len(pruned_files) < len(adds)
        # partition column survives IN the data (no hive stripping)
        assert set(pruned.unique("lang")) == {lang}
        # checkpoint round-trips partitionValues
        checkpoint_delta(d)
        assert active_adds(d) == adds

    def test_int_partition_column_roundtrip(self, ray_session, tmp_path):
        """An int64 partition column filters on its native value and logs
        its string form in partitionValues and the directory name."""
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_adds, read_delta, write_delta)

        t = pa.table({"k": pa.array([1, 2, 2, 3, 10], pa.int64()),
                      "v": pa.array(list("abcde"))})
        d = str(tmp_path / "ti")
        write_delta(ray.data.from_arrow(t), d, partition_by="k")
        adds = active_adds(d)
        assert {a["partitionValues"]["k"] for a in adds} == \
            {"1", "2", "3", "10"}
        assert all(f"/k={a['partitionValues']['k']}/" in a["path"]
                   for a in adds)
        back = pa.Table.from_pylist(read_delta(d).take_all())
        assert back.schema.field("k").type == pa.int64()
        assert back.sort_by("v").equals(t)
        assert sorted(read_delta(d, partition_filter={"k": 2})
                      .to_pandas()["v"]) == ["b", "c"]

    def test_empty_partition_filter_raises(self, ray_session, tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            read_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        d = str(tmp_path / "t2")
        write_delta(ray.data.read_parquet(src), d, partition_by="lang")
        with pytest.raises(ValueError, match="partition filter"):
            read_delta(d, partition_filter={"lang": "xx-nope"})


class TestDeltaConcurrency:
    def test_losing_writer_gets_conflict_not_clobber(self, ray_session,
                                                     tmp_path, monkeypatch):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_files, vacuum_delta, write_delta)

        src = "/root/testdata/sf0.001/documents.parquet"
        docs = ray.data.read_parquet(src)
        d = str(tmp_path / "t")
        write_delta(docs, d)
        # simulate a racing writer that commits version 1 AFTER our
        # writer computed its version but BEFORE it commits: inject the
        # race during the staging write
        racing = os.path.join(d, "_delta_log", f"{1:020d}.json")
        orig = ray.data.Dataset.map_batches

        def racy(self, *a, **k):
            open(racing, "w").write('{"commitInfo": {"version": 1}}\n')
            return orig(self, *a, **k)

        monkeypatch.setattr(ray.data.Dataset, "map_batches", racy)
        before = active_files(d)
        with pytest.raises(ValueError, match="concurrent write"):
            write_delta(docs.filter(expr="n_chars >= 500"), d,
                        mode="append")
        monkeypatch.setattr(ray.data.Dataset, "map_batches", orig)
        # the racing commit was NOT clobbered, snapshot unchanged,
        # and the loser's staged files are vacuumable
        assert open(racing).read().startswith('{"commitInfo"')
        assert active_files(d) == before
        _backdate(os.path.join(d, "stage-0000000001"))
        swept = vacuum_delta(d)
        assert swept and all(p.startswith("stage-0000000001/")
                             for p in swept)


class TestDeltaStaging:
    """write_delta commits exactly the files its own staging tasks
    wrote, in one pass over the upstream plan."""

    def test_crashed_attempt_is_not_committed(self, ray_session, tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            read_delta, vacuum_delta, write_delta)

        d = str(tmp_path / "t")
        write_delta(ray.data.from_items([{"x": 1}, {"x": 2}]), d)
        # an attempt at version 1 staged a file, then crashed
        crashed = os.path.join(d, "stage-0000000001")
        os.makedirs(crashed)
        pq.write_table(pa.table({"x": [999]}),
                       os.path.join(crashed, "crashed.parquet"))
        assert write_delta(ray.data.from_items([{"x": 3}]), d) == 1
        assert sorted(r["x"] for r in read_delta(d).take_all()) == \
            [1, 2, 3]
        _backdate(crashed)
        assert vacuum_delta(d) == ["stage-0000000001/crashed.parquet"]

    def test_partitioned_write_runs_upstream_once(self, ray_session,
                                                  tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_adds, read_delta, write_delta)

        marks = tmp_path / "marks"
        marks.mkdir()

        def upstream(batch):
            (marks / uuid.uuid4().hex).touch()
            return batch

        t = pa.table({"k": pa.array(list(range(5)) * 4, pa.int64()),
                      "v": pa.array(range(20), pa.int64())})
        ds = ray.data.from_arrow([t.slice(0, 10), t.slice(10)]) \
            .map_batches(upstream, batch_size=None, batch_format="pyarrow")
        write_delta(ds, str(tmp_path / "t"), partition_by="k")
        assert len(os.listdir(marks)) == 2  # one call per input block
        assert len(active_adds(str(tmp_path / "t"))) == 5 * 2
        assert read_delta(str(tmp_path / "t")).count() == 20

    def test_foreign_staged_file_is_not_committed(self, ray_session,
                                                  tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_adds, read_delta, write_delta)

        d = str(tmp_path / "t")
        write_delta(ray.data.from_items([{"x": 1}]), d)
        foreign = os.path.join(d, "stage-0000000001", "foreign.parquet")

        def second_writer(batch):
            # another writer at version 1 stages while this one runs
            os.makedirs(os.path.dirname(foreign), exist_ok=True)
            pq.write_table(pa.table({"x": [999]}), foreign)
            return batch

        ds = ray.data.from_items([{"x": 2}]).map_batches(
            second_writer, batch_size=None, batch_format="pyarrow")
        assert write_delta(ds, d) == 1
        assert os.path.exists(foreign)
        assert "stage-0000000001/foreign.parquet" not in \
            [a["path"] for a in active_adds(d)]
        assert sorted(r["x"] for r in read_delta(d).take_all()) == [1, 2]

    def test_null_partition_value_is_kept(self, ray_session, tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (
            active_adds, read_delta, write_delta)

        d = str(tmp_path / "t")
        t = pa.table({"k": pa.array(["a", None, "a"]),
                      "v": pa.array([1, 2, 3], pa.int64())})
        write_delta(ray.data.from_arrow(t), d, partition_by="k")
        assert {a["partitionValues"]["k"] for a in active_adds(d)} == \
            {"a", None}
        assert read_delta(d).count() == 3

    def test_null_partition_value_is_selectable(self, ray_session, tmp_path):
        import ray.data

        from documentprocessor_ray.sources.deltalog import (read_delta,
                                                            write_delta)

        d = str(tmp_path / "t")
        t = pa.table({"k": pa.array(["a", None]),
                      "v": pa.array([1, 2], pa.int64())})
        write_delta(ray.data.from_arrow(t), d, partition_by="k")
        assert read_delta(d, partition_filter={"k": None}).take_all() == \
            [{"k": None, "v": 2}]
        assert read_delta(d, partition_filter={"k": "a"}).take_all() == \
            [{"k": "a", "v": 1}]
