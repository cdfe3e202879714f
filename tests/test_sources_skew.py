"""Media-ref validation and corrupt media staying in the in-band error
channel."""

from __future__ import annotations

import os

import pytest

import ray.data

from documentprocessor_ray.sources.documents import read_table_auto, validate_media_refs


class TestSources:
    def test_validate_media_refs(self, ray_session, small_corpus):
        docs_dir, media_dir = small_corpus
        ds = validate_media_refs(read_table_auto(docs_dir), media_dir)
        df = ds.to_pandas()
        assert (df["n_missing_refs"] == 0).all()
        assert df["n_media_refs"].sum() > 0

    def test_validate_flags_missing(self, ray_session, small_corpus, tmp_path):
        docs_dir, _ = small_corpus
        # empty media dir: every ref is missing, nothing raises
        ds = validate_media_refs(read_table_auto(docs_dir), str(tmp_path))
        df = ds.to_pandas()
        assert (df["n_missing_refs"] == df["n_media_refs"]).all()


class TestCorruptedMedia:
    def test_corrupt_payload_stays_in_band(self, ray_session, tmp_path):
        """A truncated/garbage page must produce a failed ROW (M31), not a
        crashed pipeline; every other doc is unaffected."""
        from documentprocessor_ray.corpus import generate_corpus
        from documentprocessor_ray.pipelines.extract import run_extraction

        out = str(tmp_path / "c")
        docs_dir, media_dir = generate_corpus(out, n_docs=12, seed=31,
                                              heavy_frac=0.0, num_partitions=2)
        pages = sorted(f for f in os.listdir(media_dir) if f.endswith(".npz8"))
        assert pages
        victim = os.path.join(media_dir, pages[0])
        with open(victim, "wb") as f:
            f.write(b"\x02\x00\x00\x00\x10\x00\x00\x00\x10\x00\x00\x00garbage")
        df = run_extraction(docs_dir, media_dir).to_pandas()
        failed = df[df["status"] == "failed"]
        assert len(failed) == 1
        assert failed.iloc[0]["error"]  # zlib/shape error captured in-band
        assert (df[df["status"] == "done"]["doc_id"].nunique()
                == len(df) - 1)
