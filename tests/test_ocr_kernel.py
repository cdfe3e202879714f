"""OCR kernel + renderer + preprocessing kernel tests."""

import numpy as np
import pytest

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
