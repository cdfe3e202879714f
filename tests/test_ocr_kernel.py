"""OCR kernel + renderer + preprocessing kernel tests."""

import os
import sys

import numpy as np
import pytest

from documentprocessor_ray import ocr_kernel as K
from documentprocessor_ray.fonts import CHARSET, FONT, TEMPLATES
from documentprocessor_ray.ocr_kernel import OcrKernel, detect_words
from documentprocessor_ray.render import expected_words, render_page
from documentprocessor_ray.stages import preprocess as P

RECEIPT = [
    "GROCERY STORE", "123 Main Street", "City, State 12345", "Date: 01/15/2024",
    "Milk 2% $3.99", "Bread $2.50", "Eggs $4.99", "Subtotal $11.48",
    "Tax 8% $0.92", "TOTAL $12.40", "Thank you!",
]


class TestFont:
    def test_glyphs_distinct_and_cornered(self):
        assert len(FONT) == len(CHARSET)
        for ch, g in FONT.items():
            assert g.shape == (7, 5)
            assert g[0, 0] and g[0, -1] and g[-1, 0] and g[-1, -1]

    def test_deterministic(self):
        from documentprocessor_ray.fonts import _glyph_for
        assert np.array_equal(_glyph_for("A"), FONT["A"])


class TestOcrRoundTrip:
    def test_clean_page_exact(self):
        img = render_page(RECEIPT)
        got = detect_words(img)
        exp = expected_words(RECEIPT)
        assert [(w["text"], w["box"]) for w in got] == [(w["text"], w["box"]) for w in exp]
        assert all(w["confidence"] == 1.0 for w in got)

    def test_noisy_page_text_recovered(self):
        img = render_page(RECEIPT, noise_seed=7, noise_density=0.002)
        got = detect_words(P.denoise(img))
        assert [w["text"] for w in got] == [w["text"] for w in expected_words(RECEIPT)]

    def test_empty_page(self):
        assert detect_words(np.full((100, 100), 255, dtype=np.uint8)) == []

    def test_rgb_input(self):
        img = render_page(["TOTAL $5.00"])
        rgb = np.stack([img, img, img], axis=2)
        words = OcrKernel().detect_and_recognize(rgb)
        assert [w["text"] for w in words] == ["TOTAL", "$5.00"]

    def test_determinism_across_calls(self):
        img = render_page(RECEIPT, noise_seed=3, noise_density=0.001)
        a = detect_words(img)
        b = detect_words(img)
        assert a == b


class TestPreprocessKernels:
    def test_grayscale_luma(self):
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        rgb[0, 0] = [255, 0, 0]
        g = P.to_grayscale(rgb)
        assert g[0, 0] == 255 * 299 // 1000
        assert g.shape == (2, 2)

    def test_auto_level_stretches(self):
        img = np.array([[100, 150], [100, 200]], dtype=np.uint8)
        out = P.auto_level(img)
        assert out.min() == 0 and out.max() == 255

    def test_remove_background(self):
        img = np.array([[250, 100, 255]], dtype=np.uint8)
        out = P.remove_background(img, fuzz_percent=30.0)
        assert out[0, 0] == 255 and out[0, 2] == 255
        assert out[0, 1] == 0  # auto-level stretches the remaining dark pixel

    def test_threshold(self):
        img = np.array([[10, 200]], dtype=np.uint8)
        out = P.threshold(img, 50.0)
        assert list(out[0]) == [0, 255]

    def test_denoise_removes_speck_keeps_text(self):
        img = render_page(["TOTAL"])
        img[5, 350] = 0  # isolated speck in blank area
        out = P.denoise(img)
        assert out[5, 350] == 255
        assert [w["text"] for w in detect_words(out)] == ["TOTAL"]

    def test_deskew_identity_on_clean(self):
        img = render_page(RECEIPT)
        assert P.estimate_skew_angle(img) == 0
        assert np.array_equal(P.deskew(img), img)

    def test_deskew_recovers_sheared_page(self):
        img = render_page(["TOTAL $12.40", "Thank you!"])
        h, w = img.shape
        # apply a +2 degree shear (column y-shifts), then deskew should undo it
        shear = np.tan(np.deg2rad(2))
        sheared = np.full_like(img, 255)
        for x in range(w):
            s = int(round(x * shear))
            if s == 0:
                sheared[:, x] = img[:, x]
            else:
                sheared[s:, x] = img[: h - s, x]
        fixed = P.deskew(sheared)
        texts = [w_["text"] for w_ in detect_words(fixed)]
        assert texts == ["TOTAL", "$12.40", "Thank", "you!"]

    def test_find_safe_dpi_backoff(self):
        # 5000x5000 at 300 dpi from 72 dpi exceeds the Pillow pixel cap ->
        # steps down 300 -> 250 -> 200 -> 150 (first level that fits)
        assert P.find_safe_dpi(5000, 5000, 72, 300) == 150

    def test_find_safe_dpi_none_when_impossible(self):
        assert P.find_safe_dpi(40000, 40000, 100, 300) is None

    def test_resample(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        up = P.resample(img, 2, 1)
        assert up.shape == (8, 8)
        down = P.resample(up, 1, 2)
        assert np.array_equal(down, img)

    def test_templates_shape(self):
        assert TEMPLATES.shape == (len(CHARSET), 14, 10)

    def test_preprocess_resample_wired(self):
        """M8 in the chain: target_dpi triggers resample (last, separate);
        default config leaves the image size untouched."""
        img = np.full((100, 200), 255, dtype=np.uint8)
        cfg = P.PreprocessConfig(deskew=False, remove_background=False,
                                 contrast="none", denoise=False,
                                 target_dpi=600, assumed_dpi=300)
        out = P.preprocess(img, cfg)
        assert out.shape == (200, 400)  # 300 -> 600 dpi doubles both dims
        assert P.preprocess(img, P.PreprocessConfig()).shape == img.shape

    def test_preprocess_giant_page_backs_off_dpi(self):
        """The safety-cap guard path runs e2e: a page whose target-dpi
        resample would exceed MAX_DIM steps the dpi down instead."""
        img = np.full((100, 11000), 255, dtype=np.uint8)
        cfg = P.PreprocessConfig(deskew=False, remove_background=False,
                                 contrast="none", denoise=False,
                                 target_dpi=300, assumed_dpi=100)
        out = P.preprocess(img, cfg)
        # 300 dpi -> 33000 px wide > MAX_DIM=32767; backs off to 250 dpi
        assert out.shape == (250, 27500)

    def test_preprocess_impossible_page_skips_resample_by_default(self, caplog):
        """Reference behavior (image_preprocessor.py:330-334): when no DPI
        fits the caps, warn and proceed UN-resampled — the page still OCRs.
        error_on_unsafe_dpi=True opts into the strict in-band error."""
        import logging as _logging

        cfg = P.PreprocessConfig(deskew=False, remove_background=False,
                                 contrast="none", denoise=False,
                                 target_dpi=300, assumed_dpi=100)
        big = np.full((1, 40000), 255, dtype=np.uint8)
        with caplog.at_level(_logging.WARNING,
                             logger="documentprocessor_ray.stages.preprocess"):
            out = P.preprocess(big, cfg)
        assert out.shape == big.shape  # un-resampled, not dropped
        assert any("safety caps" in r.message for r in caplog.records)

        import pytest as _pytest
        strict = P.PreprocessConfig(deskew=False, remove_background=False,
                                    contrast="none", denoise=False,
                                    target_dpi=300, assumed_dpi=100,
                                    error_on_unsafe_dpi=True)
        with _pytest.raises(ValueError, match="safety caps"):
            P.preprocess(big, strict)


def _stepwise(img, cfg):
    """preprocess as the public step functions, one call per step."""
    if cfg.grayscale:
        img = P.to_grayscale(img)
    if cfg.deskew:
        img = P.deskew(img)
    if cfg.remove_background:
        img = P.remove_background(img, cfg.bg_fuzz_percent)
    if cfg.contrast == "sigmoidal":
        img = P.sigmoidal_contrast(img, cfg.contrast_strength,
                                   cfg.contrast_midpoint)
    elif cfg.contrast == "linear":
        img = P.auto_level(img)
    if cfg.apply_threshold:
        img = P.threshold(img, cfg.threshold_percent)
    if cfg.denoise:
        img = P.denoise(img)
    return img


def _stretch(img):
    """-auto-level by its definition: (v - min) * 255 // (max - min)."""
    lo, hi = int(img.min()), int(img.max())
    if hi <= lo:
        return img.copy()
    return ((img.astype(np.int64) - lo) * 255 // (hi - lo)).astype(np.uint8)


def _pages():
    from documentprocessor_ray.corpus import receipt_lines

    rng = np.random.default_rng(5)
    return {f"page{i}": render_page(receipt_lines(rng), noise_seed=i,
                                    noise_density=0.02) for i in range(3)}


EDGE_IMAGES = {
    "flat": np.full((12, 9), 90, dtype=np.uint8),        # hi <= lo
    "all_white": np.full((12, 9), 255, dtype=np.uint8),
    "two_levels": np.array([[100, 200], [100, 150]], dtype=np.uint8),
    "random": np.random.default_rng(1).integers(0, 256, (24, 31),
                                                dtype=np.uint8),
}
FUSED_CONFIGS = {
    "default": {},
    "linear": {"contrast": "linear"},
    "no_contrast": {"contrast": "none"},
    "no_background": {"remove_background": False},
    "threshold": {"apply_threshold": True},
    "no_point_steps": {"remove_background": False, "contrast": "none"},
    "fuzz_0": {"bg_fuzz_percent": 0.0},
    "fuzz_100": {"bg_fuzz_percent": 100.0},
    "falling_sigmoid": {"contrast_strength": -2.0, "apply_threshold": True},
}


class TestFusedPointSteps:
    """preprocess runs background removal, contrast and threshold as one
    composed LUT when no debug tap is set; it must stay byte-equal to the
    public step functions called one by one."""

    @pytest.mark.parametrize("cfg_name", list(FUSED_CONFIGS))
    def test_fused_equals_stepwise(self, cfg_name):
        cfg = P.PreprocessConfig(**FUSED_CONFIGS[cfg_name])
        for name, img in {**_pages(), **EDGE_IMAGES}.items():
            want = _stepwise(img, cfg)
            got = P.preprocess(img, cfg)
            assert got.dtype == np.uint8 and np.array_equal(got, want), name
            tapped = P.preprocess(img, cfg, tap=lambda _n, _i: None)
            assert np.array_equal(tapped, want), name

    def test_tap_sees_every_point_step(self):
        seen = []
        P.preprocess(EDGE_IMAGES["random"],
                     P.PreprocessConfig(apply_threshold=True),
                     tap=lambda n, _i: seen.append(n))
        assert seen == ["grayscale", "deskewed", "background_removed",
                        "contrast_enhanced", "threshold", "denoised"]

    @pytest.mark.parametrize("fuzz", [0.0, 30.0, 100.0])
    def test_steps_match_their_definitions(self, fuzz):
        """The min/max shortcut of the point steps against the steps
        written out on the image."""
        for name, img in {**_pages(), **EDGE_IMAGES}.items():
            thresh = 255 - int(round(255 * fuzz / 100.0))
            whitened = np.where(img >= thresh, np.uint8(255), img)
            assert np.array_equal(P.remove_background(img, fuzz),
                                  _stretch(whitened)), name
            assert np.array_equal(P.auto_level(img), _stretch(img)), name
            assert np.array_equal(P.sigmoidal_contrast(img),
                                  P._sigmoid_lut(3.0, 120.0)[_stretch(img)]), name
            assert np.array_equal(P.threshold(img, 50.0),
                                  np.where(img >= 128, 255, 0)), name


class TestRealEngineAdapters:
    """Import-guarded Tesseract/Paddle adapters behind the registry seam
    (reference ocr_engine.py:31-286). The container lacks both libs, so the
    adapter logic is driven with stub modules; with a lib present the same
    tests exercise the real import path."""

    def test_registry_names(self):
        from documentprocessor_ray import ocr_kernel as K

        assert {"kernel", "tesseract", "paddle"} <= set(K._ENGINE_REGISTRY)

    def test_missing_lib_raises_importerror(self):
        from documentprocessor_ray import ocr_kernel as K

        try:
            import pytesseract  # noqa: F401
            pytest.skip("pytesseract installed; guard not reachable")
        except ImportError:
            pass
        with pytest.raises(ImportError, match="pytesseract"):
            K.get_engine("tesseract")

    def test_tesseract_adapter_with_stub(self, monkeypatch):
        """The image_to_data dict adaptation matches the reference
        (ocr_engine.py:223-257): conf<0 skipped, conf/100, [l,t,l+w,t+h]."""
        import sys
        import types

        from documentprocessor_ray import ocr_kernel as K

        stub = types.ModuleType("pytesseract")
        stub.Output = types.SimpleNamespace(DICT="dict")

        def image_to_data(img, lang=None, config=None, output_type=None):
            return {
                "text": ["TOTAL", "", "$12.40", "ghost"],
                "conf": [96, 0, 88, -1],
                "left": [10, 0, 60, 0],
                "top": [5, 0, 5, 0],
                "width": [40, 0, 52, 0],
                "height": [12, 0, 12, 0],
            }

        stub.image_to_data = image_to_data
        monkeypatch.setitem(sys.modules, "pytesseract", stub)
        eng = K.get_engine("tesseract")
        words = eng.detect_and_recognize(np.full((32, 128), 255, np.uint8))
        assert [w["text"] for w in words] == ["TOTAL", "$12.40"]
        assert words[0]["box"] == [10, 5, 50, 17]
        assert words[0]["confidence"] == 0.96

    def test_paddle_adapter_with_stub(self, monkeypatch):
        """Polygon -> axis-aligned box; empty text skipped
        (ocr_engine.py:104-131 via oracle/boxes.paddle_result_to_words)."""
        import sys
        import types

        from documentprocessor_ray import ocr_kernel as K

        stub = types.ModuleType("paddleocr")

        class PaddleOCR:
            def __init__(self, **kw):
                pass

            def ocr(self, image):
                return [[
                    [[[10, 5], [50, 6], [50, 17], [10, 16]], ("TOTAL", 0.97)],
                    [[[0, 0], [1, 0], [1, 1], [0, 1]], ("", 0.5)],
                ]]

        stub.PaddleOCR = PaddleOCR
        monkeypatch.setitem(sys.modules, "paddleocr", stub)
        eng = K.get_engine("paddle")
        words = eng.detect_and_recognize(np.full((32, 128), 255, np.uint8))
        assert len(words) == 1
        assert words[0]["text"] == "TOTAL"
        assert words[0]["box"] == [10, 5, 50, 17]

    def test_factory_fallback_paddle_to_tesseract(self, monkeypatch):
        """create_engine('paddle') falls back to Tesseract when paddleocr is
        missing (reference ocr_engine.py:277-282)."""
        import sys
        import types

        from documentprocessor_ray import ocr_kernel as K

        monkeypatch.setitem(sys.modules, "paddleocr", None)  # import fails
        stub = types.ModuleType("pytesseract")
        stub.Output = types.SimpleNamespace(DICT="dict")
        stub.image_to_data = lambda *a, **k: {
            "text": [], "conf": [], "left": [], "top": [],
            "width": [], "height": []}
        monkeypatch.setitem(sys.modules, "pytesseract", stub)
        eng = K.create_engine("paddle")
        assert isinstance(eng, K.TesseractEngine)

    def test_factory_kernel_and_unknown(self):
        from documentprocessor_ray import ocr_kernel as K

        assert isinstance(K.create_engine("kernel"), K.OcrKernel)
        with pytest.raises(ValueError, match="Unknown OCR engine"):
            K.create_engine("nope")


class TestTesseractRecordedFixture:
    """Recorded-shape handshake (round-3 verdict item #6): a FULL
    pytesseract image_to_data Output.DICT payload as the real binary emits
    it — the complete 12-key level hierarchy (page/block/para/line rows
    interleaved with word rows), conf=-1 on structural rows, whitespace
    text rows with positive conf — in both documented conf dialects
    (int lists in current pytesseract, numeric-string lists in older
    releases). No tesseract binary exists in this container; the fixture
    is transcribed from pytesseract's published output format, which is
    exactly what the adapter consumes."""

    # one page, one block, one para, two lines: "HELLO WORLD" / "$3.50"
    _REC = {
        "level":    [1,   2,   3,   4,   5,       5,       4,   5],
        "page_num": [1,   1,   1,   1,   1,       1,       1,   1],
        "block_num": [0,  1,   1,   1,   1,       1,       1,   1],
        "par_num":  [0,   0,   1,   1,   1,       1,       1,   1],
        "line_num": [0,   0,   0,   1,   1,       1,       2,   2],
        "word_num": [0,   0,   0,   0,   1,       2,       0,   1],
        "left":     [0,   12,  12,  12,  12,      80,      12,  12],
        "top":      [0,   8,   8,   8,   8,       8,       30,  30],
        "width":    [200, 150, 150, 150, 60,      72,      48,  48],
        "height":   [60,  40,  18,  18,  18,      18,      16,  16],
        "conf":     [-1,  -1,  -1,  -1,  96,      91,      -1,  73],
        "text":     ["",  "",  "",  "",  "HELLO", "WORLD", "",  "$3.50"],
    }

    def _expect(self, words):
        assert [w["text"] for w in words] == ["HELLO", "WORLD", "$3.50"]
        assert words[0]["box"] == [12, 8, 72, 26]
        assert words[1]["box"] == [80, 8, 152, 26]
        assert words[2]["box"] == [12, 30, 60, 46]
        assert words[0]["confidence"] == pytest.approx(0.96)
        assert words[2]["confidence"] == pytest.approx(0.73)

    def test_int_conf_dialect(self, monkeypatch):
        import sys
        import types

        from documentprocessor_ray import ocr_kernel as K

        stub = types.ModuleType("pytesseract")
        stub.Output = types.SimpleNamespace(DICT="dict")
        stub.image_to_data = lambda *a, **k: dict(self._REC)
        monkeypatch.setitem(sys.modules, "pytesseract", stub)
        eng = K.get_engine("tesseract")
        self._expect(eng.detect_and_recognize(
            np.full((60, 200), 255, np.uint8)))

    def test_string_conf_dialect(self, monkeypatch):
        import sys
        import types

        from documentprocessor_ray import ocr_kernel as K

        rec = dict(self._REC)
        rec["conf"] = [str(c) for c in self._REC["conf"]]
        stub = types.ModuleType("pytesseract")
        stub.Output = types.SimpleNamespace(DICT="dict")
        stub.image_to_data = lambda *a, **k: rec
        monkeypatch.setitem(sys.modules, "pytesseract", stub)
        eng = K.get_engine("tesseract")
        self._expect(eng.detect_and_recognize(
            np.full((60, 200), 255, np.uint8)))


class TestConnectedComponentKernel:
    """cc_detect_words must be word-identical to detect_words (the band /
    column-run equivalence proved in its docstring) — gated on rendered
    pages, noisy pages, AND arbitrary random ink."""

    def _eq(self, img):
        from documentprocessor_ray.ocr_kernel import cc_detect_words
        assert cc_detect_words(img) == detect_words(img)

    def test_clean_page_identical(self):
        self._eq(render_page(RECEIPT))

    def test_noisy_pages_identical(self):
        for seed in (1, 7, 23):
            self._eq(render_page(RECEIPT, noise_seed=seed,
                                 noise_density=0.004))

    def test_random_ink_identical(self):
        rng = np.random.default_rng(11)
        for density in (0.01, 0.1, 0.45):
            img = np.where(rng.random((80, 120)) < density, 0, 255) \
                .astype(np.uint8)
            self._eq(img)

    def test_empty_page(self):
        from documentprocessor_ray.ocr_kernel import cc_detect_words
        assert cc_detect_words(np.full((60, 60), 255, np.uint8)) == []

    def test_engine_registered(self):
        from documentprocessor_ray import ocr_kernel as K
        eng = K.get_engine("kernel_cc")
        img = render_page(["TOTAL $5.00"])
        rgb = np.stack([img, img, img], axis=2)
        assert [w["text"] for w in eng.detect_and_recognize(rgb)] \
            == ["TOTAL", "$5.00"]

    def test_multipart_glyph_components_merge(self):
        # a column-split shape inside one word: two blocks 3px apart (<= 6)
        # then a 10px gap to the next word — CC and projection must agree
        img = np.full((20, 60), 255, np.uint8)
        img[5:12, 4:8] = 0
        img[5:12, 11:14] = 0    # gap 3 -> same word
        img[5:12, 24:30] = 0    # gap 10 -> new word
        self._eq(img)

    def test_vertically_disjoint_components_one_band(self):
        # i-dot shape: dot and stem disjoint in y but bridged into one band
        # by a tall neighbor component
        img = np.full((30, 40), 255, np.uint8)
        img[4:6, 10:12] = 0     # dot
        img[9:16, 10:12] = 0    # stem (y-gap from dot)
        img[2:18, 20:23] = 0    # tall block spanning both -> one band
        self._eq(img)


# --- byte-equality twins -------------------------------------------------
#
# The oracle calls the same preprocess and OCR kernels as the engine, so an
# oracle check cannot see a kernel whose output drifts. These are verbatim
# copies of the kernels before their vectorized rewrite (the `old_` prefix
# and the calls between them are the only edits); every rewritten kernel
# must give byte-equal output on every image below.

def old_despeckle(ink):
    p = np.pad(ink, 1, mode="constant")
    neighbors = (
        p[:-2, :-2].astype(np.uint8) + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    )
    return ink & (neighbors > 0)


def old_runs(mask):
    if not mask.any():
        return []
    m = mask.astype(np.int8)
    diff = np.diff(np.concatenate(([0], m, [0])))
    starts = np.flatnonzero(diff == 1)
    stops = np.flatnonzero(diff == -1)
    return list(zip(starts.tolist(), stops.tolist()))


def old_detect_words(image):
    ink = old_despeckle(image < 128)
    boxes = []
    blocks = []
    for y0, y1 in old_runs(ink.any(axis=1)):
        band = ink[y0:y1]
        col_has_ink = band.any(axis=0)
        ink_runs = old_runs(col_has_ink)
        if not ink_runs:
            continue
        word_spans = [[ink_runs[0][0], ink_runs[0][1]]]
        for s, e in ink_runs[1:]:
            if s - word_spans[-1][1] <= K.WORD_GAP:
                word_spans[-1][1] = e
            else:
                word_spans.append([s, e])
        for x0, x1 in word_spans:
            boxes.append([int(x0), int(y0), int(x1), int(y1)])
            blocks.append(band[:, x0:x1])
    words = []
    for box, (text, conf) in zip(boxes, old_classify_blocks(blocks)):
        if not text.strip():
            continue
        words.append({"text": text, "box": box, "confidence": float(conf)})
    return words


def old_classify_blocks(cellblocks):
    from documentprocessor_ray.fonts import (CHAR_GAP, CHAR_H, CHAR_PITCH,
                                             CHAR_W, CHARS)

    _NPX, _T_FLAT, _T_SUM = K._NPX, K._T_FLAT, K._T_SUM
    if not cellblocks:
        return []
    n_chars_per = []
    for cb in cellblocks:
        w = cb.shape[1]
        n_chars_per.append(max(1, int(round((w + CHAR_GAP) / CHAR_PITCH))))
    total = int(np.sum(n_chars_per))
    cells = np.zeros((total, CHAR_H, CHAR_W), dtype=np.float32)
    pos = 0
    for cb, n_chars in zip(cellblocks, n_chars_per):
        for k in range(n_chars):
            xs = k * CHAR_PITCH
            cell = cb[:CHAR_H, xs: xs + CHAR_W]
            cells[pos, : cell.shape[0], : cell.shape[1]] = cell
            pos += 1
    flat = cells.reshape(total, _NPX)
    eq = (_NPX - flat.sum(axis=1)[:, None] - _T_SUM[None, :]
          + 2.0 * (flat @ _T_FLAT.T))
    best = eq.argmax(axis=1)
    scores = eq[np.arange(total), best].astype(np.float64) / _NPX
    out = []
    pos = 0
    for n_chars in n_chars_per:
        b = best[pos: pos + n_chars]
        out.append(("".join(CHARS[i] for i in b),
                    float(scores[pos: pos + n_chars].mean())))
        pos += n_chars
    return out


def old_denoise(img):
    p = np.pad(img, 1, mode="edge")
    views = (
        p[:-2, :-2], p[:-2, 1:-1], p[:-2, 2:],
        p[1:-1, :-2], p[1:-1, 2:],
        p[2:, :-2], p[2:, 1:-1], p[2:, 2:],
    )
    nmax = views[0].copy()
    nmin = views[0].copy()
    for v in views[1:]:
        np.maximum(nmax, v, out=nmax)
        np.minimum(nmin, v, out=nmin)
    isolated_dark = (img < 128) & (nmin >= 128)
    out = img.copy()
    out[isolated_dark] = nmax[isolated_dark]
    return out


def old_estimate_skew_angle(img, max_angle=3):
    ink = (img < 128)
    if not ink.any():
        return 0
    h, w = ink.shape
    ys, xs = np.nonzero(ink)
    col = np.arange(w, dtype=np.float64)
    off = {0: np.zeros(w, np.int64)}
    for ang in range(1, max_angle + 1):
        r = np.round(col * np.tan(np.deg2rad(ang))).astype(np.int64)
        off[ang] = r
        off[-ang] = -r
    best_angle, best_var = 0, -1.0
    for ang in range(-max_angle, max_angle + 1):
        yy = np.clip(ys - off[ang][xs], 0, h - 1)
        prof = np.bincount(yy, minlength=h).astype(np.float64)
        var = prof.var()
        if var > best_var + 1e-9:
            best_var, best_angle = var, ang
    return best_angle


def old_deskew(img, max_angle=3):
    ang = old_estimate_skew_angle(img, max_angle)
    if ang == 0:
        return img
    h, w = img.shape[:2]
    shear = np.tan(np.deg2rad(ang))
    out = np.full_like(img, 255)
    shifts = np.round(np.arange(w) * shear).astype(np.int64)
    for x in range(w):
        s = shifts[x]
        if s == 0:
            out[:, x] = img[:, x]
        elif s > 0:
            out[: h - s, x] = img[s:, x]
        else:
            out[-s:, x] = img[: h + s, x]
    return out


def old_apply(img, *steps):
    return np.take(P._compose(steps, int(img.min()), int(img.max())), img)


def old_preprocess(img):
    """The default chain with the old deskew, LUT gather and denoise."""
    steps = [s for _, s in P._point_steps(P.PreprocessConfig())]
    return old_denoise(old_apply(old_deskew(img), *steps))


def _shear(img, deg):
    """Shift column x down by round(x * tan(deg)), white fill."""
    h, w = img.shape
    src = np.arange(h)[:, None] - np.round(
        np.arange(w) * np.tan(np.deg2rad(deg))).astype(np.int64)
    out = img[np.clip(src, 0, h - 1), np.arange(w)]
    out[(src < 0) | (src >= h)] = 255
    return out


def _load_media(media_dir):
    from documentprocessor_ray.corpus import MediaStore

    store = MediaStore(media_dir)
    return [store.load(f[:-5]) for f in sorted(os.listdir(media_dir))
            if f.endswith(".npz8")]


@pytest.fixture(scope="module")
def twin_images(tmp_path_factory):
    """Image sets by name; every image is a 2-D uint8 page."""
    from documentprocessor_ray.corpus import generate_corpus

    root = tmp_path_factory.mktemp("twins")
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, bench)
    try:
        import corpora
    finally:
        sys.path.remove(bench)
    corpora.generate("receipts", 300, str(root / "receipts"))
    receipts = _load_media(str(root / "receipts" / "media"))
    _, media = generate_corpus(str(root / "gen"), n_docs=24, seed=7,
                               heavy_frac=0.1, num_partitions=2)
    generated = _load_media(media)
    rng = np.random.default_rng(16)
    noise = [rng.integers(0, 256, (int(h), int(w)), dtype=np.uint8)
             for h, w in rng.integers(20, 90, (20, 2))]
    noise += [np.where(rng.random((60, 80)) < d, 0, 255).astype(np.uint8)
              for d in (0.005, 0.02, 0.1, 0.3, 0.5, 0.8, 0.97)]
    degenerate = [
        np.full((40, 30), 255, np.uint8),          # no ink
        np.zeros((40, 30), np.uint8),              # all ink
        np.zeros((1, 1), np.uint8), np.full((1, 1), 255, np.uint8),
        np.zeros((1, 57), np.uint8), np.full((1, 57), 255, np.uint8),
        rng.integers(0, 256, (1, 400), dtype=np.uint8),
        rng.integers(0, 256, (57, 1), dtype=np.uint8),
        rng.integers(0, 256, (31, 17), dtype=np.uint8),  # odd widths
        np.where(rng.random((45, 33)) < 0.05, 0, 255).astype(np.uint8),
    ]
    return {
        "receipts": receipts,
        "generate_corpus": generated,
        "sheared": [_shear(p, d) for p in receipts[:4] + generated[:2]
                    for d in (-3, -2, -1, 1, 2, 3)],
        "noise": noise,
        "degenerate": degenerate,
    }


TWIN_SETS = ["receipts", "generate_corpus", "sheared", "noise", "degenerate"]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestKernelTwins:
    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_estimate_skew_angle(self, twin_images, name):
        got = [P.estimate_skew_angle(im) for im in twin_images[name]]
        assert got == [old_estimate_skew_angle(im)
                       for im in twin_images[name]]

    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_deskew(self, twin_images, name):
        for im in twin_images[name]:
            assert _same(P.deskew(im), old_deskew(im))

    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_denoise(self, twin_images, name):
        for im in twin_images[name]:
            assert _same(P.denoise(im), old_denoise(im))

    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_preprocess(self, twin_images, name):
        for im in twin_images[name]:
            assert _same(P.preprocess(im), old_preprocess(im))

    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_despeckle(self, twin_images, name):
        for im in twin_images[name]:
            assert _same(K.despeckle(im < 128), old_despeckle(im < 128))

    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_detect_words(self, twin_images, name):
        for im in twin_images[name]:
            assert detect_words(im) == old_detect_words(im)
            pre = P.preprocess(im)
            assert detect_words(pre) == old_detect_words(pre)

    def test_lut_gather_of_a_wider_dtype(self):
        """The pair-table gather reads uint8 pixel pairs; other dtypes keep
        the per-pixel gather."""
        img = np.random.default_rng(3).integers(0, 256, (6, 8)).astype(
            np.uint16)
        steps = [s for _, s in P._point_steps(P.PreprocessConfig())]
        assert _same(P._apply(img, *steps), old_apply(img, *steps))

    def test_sheared_pages_estimate_their_shear(self, twin_images):
        """The sheared set exercises every non-zero angle."""
        angles = {P.estimate_skew_angle(im) for im in twin_images["sheared"]}
        assert angles == {-3, -2, -1, 1, 2, 3}

    def test_deskew_of_a_page_shorter_than_its_shear(self):
        """Column x of the output reads row y + s_x of the input, white
        where that row is off the page; the old column loop raised a
        broadcast ValueError once a shift passed the page height."""
        shift = np.round(np.arange(200) * np.tan(np.deg2rad(3))).astype(int)
        img = np.full((3, 200), 255, np.uint8)
        img[shift[shift < 3], np.flatnonzero(shift < 3)] = 0  # a 3° stroke
        ang = P.estimate_skew_angle(img)
        assert ang == 3
        with pytest.raises(ValueError):
            old_deskew(img)
        s = np.round(np.arange(200) * np.tan(np.deg2rad(ang))).astype(int)
        want = np.full_like(img, 255)
        for x in range(200):
            for y in range(3):
                if 0 <= y + s[x] < 3:
                    want[y, x] = img[y + s[x], x]
        assert _same(P.deskew(img), want)


INK_CONFIGS = {**FUSED_CONFIGS,
               "no_denoise": {"denoise": False},
               "no_deskew": {"deskew": False},
               "resampled": {"target_dpi": 150}}


class TestInkPath:
    """The span stage OCRs a page from preprocess_ink, the preprocessed
    page's ink mask, without building the page. The mask must be the
    page's exactly, and the kernels' words from it the words from the
    page."""

    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_mask_is_the_preprocessed_pages_ink(self, twin_images, name):
        for cfg_name, kw in INK_CONFIGS.items():
            cfg = P.PreprocessConfig(**kw)
            for im in twin_images[name]:
                assert _same(P.preprocess_ink(im, cfg),
                             P.preprocess(im, cfg) < 128), cfg_name

    @pytest.mark.parametrize("engine", [K.OcrKernel, K.OcrKernelCC])
    @pytest.mark.parametrize("name", TWIN_SETS)
    def test_words_from_the_mask(self, twin_images, name, engine):
        kernel = engine()
        for im in twin_images[name]:
            assert kernel.detect_ink(P.preprocess_ink(im)) == \
                kernel.detect_and_recognize(P.preprocess(im))

    def test_a_page_left_rgb_has_no_mask(self):
        rgb = np.full((8, 9, 3), 255, np.uint8)
        assert P.preprocess_ink(rgb, P.PreprocessConfig(grayscale=False)) \
            is None
        assert P.preprocess_ink(rgb).shape == (8, 9)
