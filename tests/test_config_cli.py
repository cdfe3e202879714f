"""Config loader (S4), CLI driver (S3), debug sink (S7)."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from documentprocessor_ray.config import JobConfig, load_config, _merge
from documentprocessor_ray.stages.debug import save_page


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.html_mode == "blocks"
        assert cfg.preprocess.deskew is True
        # the span stage's batching is the flagship's, not a config key
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(overrides={"batch_size": 64})

    def test_yaml_recursive_merge(self, tmp_path):
        p = tmp_path / "job.yaml"
        p.write_text(
            "html_mode: dom\npreprocess:\n  deskew: false\n  contrast: linear\n")
        cfg = load_config(str(p))
        assert cfg.html_mode == "dom"
        assert cfg.preprocess.deskew is False
        assert cfg.preprocess.contrast == "linear"
        assert cfg.preprocess.denoise is True  # untouched default survives

    def test_cli_overrides_win(self, tmp_path):
        p = tmp_path / "job.yaml"
        p.write_text("html_mode: dom\noutput_dir: /a\n")
        cfg = load_config(str(p), overrides={"html_mode": "blocks",
                                             "output_dir": None})
        assert cfg.html_mode == "blocks"
        assert cfg.output_dir == "/a"  # None override ignored

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("nope: 1\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(str(p))
        p.write_text("preprocess:\n  nope: 1\n")
        with pytest.raises(ValueError, match="unknown preprocess keys"):
            load_config(str(p))

    def test_merge_nested(self):
        assert _merge({"a": {"x": 1, "y": 2}, "b": 1}, {"a": {"y": 3}}) == \
            {"a": {"x": 1, "y": 3}, "b": 1}


class TestCli:
    def test_missing_dirs_exit_code(self, capsys):
        from documentprocessor_ray.run import main
        assert main([]) == 2

    def test_cli_runs_partitioned(self, ray_session, small_corpus, tmp_path):
        from documentprocessor_ray.run import main

        docs_dir, media_dir = small_corpus
        out = str(tmp_path / "out")
        rc = main(["--documents-dir", docs_dir, "--media-dir", media_dir,
                   "--output-dir", out, "--max-partitions", "1"])
        assert rc == 0
        assert os.path.isdir(os.path.join(out, "_manifest"))


class TestDebugSink:
    def test_save_page_roundtrip(self, tmp_path):
        from documentprocessor_ray.corpus import MediaStore

        img = np.random.default_rng(5).integers(0, 256, (20, 30),
                                                dtype=np.uint8)
        words = [{"text": "HI", "box": [1, 2, 3, 4], "confidence": 0.9}]
        save_page(str(tmp_path), "ref-1", img, words)
        assert np.array_equal(MediaStore(str(tmp_path)).load("ref-1.pre"), img)
        with open(tmp_path / "ref-1.words.json") as f:
            rec = json.load(f)
        assert rec["n_words"] == 1 and rec["words"][0]["text"] == "HI"

    def test_write_page_round_trip(self, tmp_path):
        """corpus.write_page writes what MediaStore.load reads back, bit
        for bit, for 2-D and 3-D pages."""
        from documentprocessor_ray.corpus import MediaStore, write_page

        rng = np.random.default_rng(6)
        gray = rng.integers(0, 256, (17, 23), dtype=np.uint8)
        # a non-contiguous view: the page is written in C order
        rgb = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8) \
            .transpose(1, 0, 2)
        store = MediaStore(str(tmp_path))
        for ref, page in (("gray", gray), ("rgb", rgb)):
            write_page(str(tmp_path / f"{ref}.npz8"), page)
            got = store.load(ref)
            assert got.dtype == np.uint8 and got.shape == page.shape, ref
            assert np.array_equal(got, page), ref

    def test_debug_tee_in_pipeline(self, ray_session, small_corpus, tmp_path):
        from documentprocessor_ray.pipelines.extract import run_extraction

        docs_dir, media_dir = small_corpus
        dbg = str(tmp_path / "dbg")
        n = run_extraction(docs_dir, media_dir, debug_dir=dbg).count()
        assert n > 0
        pages = [f for f in os.listdir(dbg) if f.endswith(".pre.npz8")]
        # one teed page per media span of the input
        refs = {s["media_ref"]
                for spans in pads.dataset(docs_dir).to_table()["spans"]
                .to_pylist() for s in spans if s["kind"] == "media"}
        assert refs and {p[: -len(".pre.npz8")] for p in pages} == refs

        # reference-parity step artifacts (debug_output.py:24-339): numbered
        # per-step PNGs + bbox overlay + debug_summary.json per media span
        ref = pages[0][: -len(".pre.npz8")]
        summaries = [f for f in os.listdir(dbg)
                     if f == ref + ".debug_summary.json"]
        assert summaries, os.listdir(dbg)
        with open(os.path.join(dbg, summaries[0])) as f:
            summary = json.load(f)
        assert summary["steps"][0] == "source"
        assert "preprocessed_final" in summary["steps"]
        assert summary["steps"][-1] == "ocr_bboxes"
        for fn in summary["files"]:
            assert os.path.exists(os.path.join(dbg, fn)), fn
        # the step PNGs are real PNGs (decodable by the in-repo decoder)
        from documentprocessor_ray.stages.multimodal import RealCodec

        png = next(f for f in summary["files"] if f.endswith("_source.png"))
        with open(os.path.join(dbg, png), "rb") as f:
            img = RealCodec().decode_image(f.read(), {})
        assert img.ndim == 3 and img.shape[2] == 3
