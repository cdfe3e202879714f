"""End-to-end conformance: Ray pipeline output == single-process oracle.

The north-rule invariant (BASELINE.json / FIXTURES.md F4): per-document
span-sequence equality on (kind, text, media_ref, order), plus field-level
equality, over the seeded synthetic corpus. Pass rate must be 100%.
"""

import pyarrow.parquet as pq
import pytest

from documentprocessor_ray.corpus import MediaStore
from documentprocessor_ray.oracle.document import process_document
from documentprocessor_ray.pipelines.extract import run_extraction


def _oracle_results(docs_dir, media_dir, html_mode="blocks"):
    import pyarrow.dataset as pads

    table = pads.dataset(docs_dir, partitioning="hive").to_table()
    store = MediaStore(media_dir)
    out = {}
    for row in table.to_pylist():
        out[row["doc_id"]] = process_document(row["doc_id"], row["spans"],
                                              store.load, html_mode=html_mode)
    return out


@pytest.fixture(scope="module")
def pipeline_and_oracle(ray_session, small_corpus):
    docs_dir, media_dir = small_corpus
    ds = run_extraction(docs_dir, media_dir, concurrency=2, batch_size=8)
    ray_rows = {r["doc_id"]: r for r in ds.take_all()}
    oracle = _oracle_results(docs_dir, media_dir)
    return ray_rows, oracle


class TestResampleConformance:
    def test_span_equality_with_resample_on(self, ray_session, small_corpus):
        """M8 wired e2e: the DPI-resample path (downscale 300->150) stays
        span-equal between pipeline and oracle — both run the same
        preprocess chain with resample as the last step."""
        from documentprocessor_ray.stages.preprocess import PreprocessConfig

        docs_dir, media_dir = small_corpus
        cfg = PreprocessConfig(target_dpi=150, assumed_dpi=300)
        ds = run_extraction(docs_dir, media_dir, cfg=cfg, batch_size=8)
        ray_rows = {r["doc_id"]: r for r in ds.take_all()}

        import pyarrow.dataset as pads

        table = pads.dataset(docs_dir, partitioning="hive").to_table()
        store = MediaStore(media_dir)
        checked = 0
        for row in table.to_pylist()[:12]:
            o = process_document(row["doc_id"], row["spans"], store.load, cfg=cfg)
            r = ray_rows[row["doc_id"]]
            got = [(s["kind"], s["text"], s["media_ref"], s["order"])
                   for s in r["spans_out"]]
            want = [(s["kind"], s["text"], s["media_ref"], s["order"])
                    for s in o["spans_out"]]
            assert got == want, row["doc_id"]
            checked += 1
        assert checked == 12


class TestSpanEquality:
    def test_all_docs_present(self, pipeline_and_oracle):
        ray_rows, oracle = pipeline_and_oracle
        assert set(ray_rows) == set(oracle)
        assert len(ray_rows) == 60

    def test_span_sequence_equality_100pct(self, pipeline_and_oracle):
        ray_rows, oracle = pipeline_and_oracle
        mismatches = []
        for doc_id, o in oracle.items():
            r = ray_rows[doc_id]
            got = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in r["spans_out"]]
            want = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in o["spans_out"]]
            if got != want:
                mismatches.append(doc_id)
        assert mismatches == [], f"span mismatch in {len(mismatches)} docs: {mismatches[:5]}"

    def test_status_and_fields_equal(self, pipeline_and_oracle):
        ray_rows, oracle = pipeline_and_oracle
        for doc_id, o in oracle.items():
            r = ray_rows[doc_id]
            assert r["status"] == o["status"], doc_id
            assert r["n_words"] == o["n_words"], doc_id
            for f in ["vendor_name", "date", "total_amount", "subtotal",
                      "tax_amount", "currency"]:
                ov = o[f]
                rv = r[f]
                if ov is None:
                    assert rv is None, (doc_id, f, rv)
                else:
                    assert rv is not None, (doc_id, f)
                    assert rv["value"] == ov["value"], (doc_id, f)
                    assert abs(rv["confidence"] - ov["confidence"]) < 1e-12, (doc_id, f)
                    if ov.get("box") is None:
                        assert rv["box"] is None
                    else:
                        assert rv["box"] == ov["box"], (doc_id, f)

    def test_line_items_equal(self, pipeline_and_oracle):
        ray_rows, oracle = pipeline_and_oracle
        for doc_id, o in oracle.items():
            r = ray_rows[doc_id]
            assert len(r["line_items"]) == len(o["line_items"]), doc_id
            for ri, oi in zip(r["line_items"], o["line_items"]):
                assert ri["description"] == oi["description"], doc_id
                assert ri["quantity"] == oi["quantity"], doc_id
                assert abs(ri["unit_price"] - oi["unit_price"]) < 1e-9, doc_id
                assert abs(ri["line_total"] - oi["line_total"]) < 1e-9, doc_id

    def test_some_docs_have_media_and_fields(self, pipeline_and_oracle):
        ray_rows, _ = pipeline_and_oracle
        with_media = [r for r in ray_rows.values() if r["n_words"] > 0]
        assert len(with_media) > 10
        assert any(r["total_amount"] is not None for r in with_media)
        assert any(r["currency"] is not None and r["currency"]["value"] == "USD"
                   for r in with_media)

    def test_heavy_doc_handled(self, pipeline_and_oracle):
        # skew fixture: heavy docs (20-50 media spans) process correctly
        ray_rows, oracle = pipeline_and_oracle
        heavy = [d for d, o in oracle.items()
                 if sum(1 for s in o["spans_out"] if s["kind"] == "media") > 40]
        assert heavy, "corpus should contain at least one heavy doc"


class TestErrorChannel:
    def test_missing_media_fails_in_band(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pqw
        from documentprocessor_ray.corpus import DOCUMENTS_SCHEMA

        docs_dir = str(tmp_path / "documents")
        media_dir = str(tmp_path / "media")
        import os
        os.makedirs(docs_dir); os.makedirs(media_dir)
        rows = [
            {"doc_id": "doc-bad", "spans": [
                {"kind": "media", "text": "", "media_ref": "nope", "offset": 0}]},
            {"doc_id": "doc-ok", "spans": [
                {"kind": "text", "text": "hello <b>world</b>", "media_ref": "", "offset": 0}]},
            {"doc_id": "doc-empty", "spans": []},
        ]
        pqw.write_table(pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA),
                        os.path.join(docs_dir, "data.parquet"))
        ds = run_extraction(docs_dir, media_dir, concurrency=1, batch_size=4)
        out = {r["doc_id"]: r for r in ds.take_all()}
        assert out["doc-bad"]["status"] == "failed"
        assert "media not found: nope" in out["doc-bad"]["error"]
        assert out["doc-bad"]["spans_out"] == []
        assert out["doc-ok"]["status"] == "done"
        assert out["doc-ok"]["spans_out"][0]["text"] == "hello world"
        assert out["doc-empty"]["status"] == "done"
        assert out["doc-empty"]["spans_out"] == []


class TestHtmlSpans:
    """North-rule interleaved html spans: boilerplate strip inside the
    flagship, span-equal with the oracle."""

    @pytest.fixture(scope="class")
    def html_corpus(self, ray_session, tmp_path_factory):
        from documentprocessor_ray.corpus import generate_corpus

        out = str(tmp_path_factory.mktemp("html_corpus"))
        return generate_corpus(out, n_docs=40, seed=11, heavy_frac=0.05,
                               num_partitions=4, html_frac=0.6)

    def test_corpus_has_html_spans(self, html_corpus):
        import pyarrow.dataset as pads

        docs_dir, _ = html_corpus
        table = pads.dataset(docs_dir, partitioning="hive").to_table()
        kinds = {s["kind"] for row in table.to_pylist() for s in row["spans"]}
        assert "html" in kinds

    @staticmethod
    def _assert_html_spans_equal(html_corpus, **kwargs):
        """The flagship's batched html kernel against the oracle's scalar
        one, per document."""
        docs_dir, media_dir = html_corpus
        ds = run_extraction(docs_dir, media_dir, **kwargs)
        ray_rows = {r["doc_id"]: r for r in ds.take_all()}
        oracle = _oracle_results(docs_dir, media_dir,
                                 kwargs.get("html_mode", "blocks"))
        assert set(ray_rows) == set(oracle)
        n_html_spans = 0
        for did, o in oracle.items():
            got = [(s["kind"], s["text"], s["media_ref"], s["order"])
                   for s in ray_rows[did]["spans_out"]]
            want = [(s["kind"], s["text"], s["media_ref"], s["order"])
                    for s in o["spans_out"]]
            assert got == want, did
            n_html_spans += sum(1 for s in want if s[0] == "html")
        assert n_html_spans > 0

    def test_span_equality_with_html(self, ray_session, html_corpus):
        self._assert_html_spans_equal(html_corpus, batch_size=8)

    def test_span_equality_with_html_dom_mode(self, ray_session, html_corpus):
        """html_mode='dom' at the default batch size: many html spans per
        call of the batched DOM kernel."""
        self._assert_html_spans_equal(html_corpus, html_mode="dom")

    def test_html_strip_is_observable(self, ray_session, html_corpus):
        """The nav/footer must actually die: no output html span contains
        the nav anchor text, and main text is non-empty."""
        docs_dir, media_dir = html_corpus
        ds = run_extraction(docs_dir, media_dir, batch_size=8)
        found = 0
        for r in ds.take_all():
            for s in r["spans_out"]:
                if s["kind"] == "html":
                    found += 1
                    assert "nav0" not in s["text"]
                    assert "home" not in s["text"].split()
                    assert len(s["text"]) >= 50
        assert found > 0

    def test_scalar_matches_batch_helper(self):
        import pyarrow as pa

        from documentprocessor_ray.corpus import _html_snippet
        from documentprocessor_ray.functions.boilerplate import (
            extract_main_content_batch, main_text_of)
        import numpy as np

        rng = np.random.default_rng(3)
        htmls = [_html_snippet(rng) for _ in range(8)] + ["", "<p>x</p>"]
        batch = pa.table({"doc_id": pa.array(range(len(htmls)), pa.int64()),
                          "html": pa.array(htmls, pa.string())})
        out = extract_main_content_batch(batch)
        for h, m in zip(htmls, out["main_text"].to_pylist()):
            assert main_text_of(h) == m


class TestPdfSpans:
    """North-rule interleaved pdf spans: layout parse inside the flagship,
    one output span per reading-order run, span-equal with the oracle."""

    @pytest.fixture(scope="class")
    def pdf_corpus(self, ray_session, tmp_path_factory):
        from documentprocessor_ray.corpus import generate_corpus

        out = str(tmp_path_factory.mktemp("pdf_corpus"))
        return generate_corpus(out, n_docs=40, seed=13, heavy_frac=0.05,
                               num_partitions=4, html_frac=0.4, pdf_frac=0.6)

    def test_span_equality_with_pdf(self, ray_session, pdf_corpus):
        import pyarrow.dataset as pads

        docs_dir, media_dir = pdf_corpus
        ds = run_extraction(docs_dir, media_dir, batch_size=8)
        ray_rows = {r["doc_id"]: r for r in ds.take_all()}
        table = pads.dataset(docs_dir, partitioning="hive").to_table()
        store = MediaStore(media_dir)
        n_pdf = 0
        for row in table.to_pylist():
            o = process_document(row["doc_id"], row["spans"], store.load,
                                 load_blob=store.load_bytes)
            got = [(s["kind"], s["text"], s["media_ref"], s["order"])
                   for s in ray_rows[row["doc_id"]]["spans_out"]]
            want = [(s["kind"], s["text"], s["media_ref"], s["order"])
                    for s in o["spans_out"]]
            assert got == want, row["doc_id"]
            n_pdf += sum(1 for s in want if s[0] == "pdf")
        assert n_pdf > 0

    def test_missing_pdf_blob_fails_in_band(self, ray_session, pdf_corpus):
        import glob
        import os as _os

        docs_dir, media_dir = pdf_corpus
        victims = sorted(glob.glob(_os.path.join(media_dir, "*.pdf")))
        assert victims
        victim = victims[0]
        ref = _os.path.basename(victim)[:-4]
        doc_of = ref.rsplit("-s", 1)[0]
        _os.rename(victim, victim + ".bak")
        try:
            ds = run_extraction(docs_dir, media_dir, batch_size=8)
            rows = {r["doc_id"]: r for r in ds.take_all()}
            assert rows[doc_of]["status"] == "failed"
            assert f"media not found: {ref}" in rows[doc_of]["error"]
            ok = [r for d, r in rows.items() if d != doc_of]
            assert all(r["status"] == "done" for r in ok)
        finally:
            _os.rename(victim + ".bak", victim)


class TestDomModeSpans:
    def test_span_equality_dom_mode(self, ray_session, tmp_path_factory):
        """html_mode='dom' routes html spans through the tag-tree
        Readability scorer; pipeline and oracle stay span-equal."""
        import pyarrow.dataset as pads

        from documentprocessor_ray.corpus import generate_corpus

        out = str(tmp_path_factory.mktemp("dom_corpus"))
        docs_dir, media_dir = generate_corpus(
            out, n_docs=30, seed=17, heavy_frac=0.0, num_partitions=4,
            html_frac=0.7)
        ds = run_extraction(docs_dir, media_dir, batch_size=8,
                            html_mode="dom")
        ray_rows = {r["doc_id"]: r for r in ds.take_all()}
        table = pads.dataset(docs_dir, partitioning="hive").to_table()
        store = MediaStore(media_dir)
        n_html = 0
        differs_from_blocks = 0
        for row in table.to_pylist():
            o = process_document(row["doc_id"], row["spans"], store.load,
                                 html_mode="dom")
            ob = process_document(row["doc_id"], row["spans"], store.load,
                                  html_mode="blocks")
            got = [(s["kind"], s["text"], s["media_ref"], s["order"])
                   for s in ray_rows[row["doc_id"]]["spans_out"]]
            want = [(s["kind"], s["text"], s["media_ref"], s["order"])
                    for s in o["spans_out"]]
            assert got == want, row["doc_id"]
            n_html += sum(1 for s in want if s[0] == "html")
            if o["spans_out"] != ob["spans_out"]:
                differs_from_blocks += 1
        assert n_html > 0
        # the two html operators are genuinely different extractors: the
        # mode flag must be observable on this corpus (dom keeps only the
        # winning container's text; blocks keeps every surviving block)
        assert differs_from_blocks > 0

    def test_bad_mode_rejected(self):
        from documentprocessor_ray.pipelines.extract import SpanProcessor
        with pytest.raises(ValueError):
            SpanProcessor("/tmp", html_mode="nope")
