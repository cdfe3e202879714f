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

    def test_png_page_counts_as_present(self, ray_session, tmp_path):
        """A ref backed by a PNG file (a page MediaStore.load decodes) is
        present, and a ref with no file in any page format is missing."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from documentprocessor_ray.corpus import DOCUMENTS_SCHEMA, MediaStore
        from documentprocessor_ray.stages.multimodal import encode_png

        media = tmp_path / "media"
        media.mkdir()
        page = np.full((8, 8, 3), 255, np.uint8)
        (media / "page-a.png").write_bytes(encode_png(page))
        assert MediaStore(str(media)).load("page-a").shape[:2] == (8, 8)
        spans = [{"kind": "media", "text": "", "media_ref": ref, "offset": i}
                 for i, ref in enumerate(["page-a", "page-b"])]
        docs = tmp_path / "docs"
        docs.mkdir()
        pq.write_table(pa.Table.from_pylist([{"doc_id": "d", "spans": spans}],
                                            schema=DOCUMENTS_SCHEMA),
                       str(docs / "data.parquet"))
        row = validate_media_refs(read_table_auto(str(docs)),
                                  str(media)).take_all()[0]
        assert (row["n_media_refs"], row["n_missing_refs"]) == (2, 1)
        assert list(row["missing_refs"]) == ["page-b"]


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
