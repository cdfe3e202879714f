"""Deterministic template-matching OCR kernel (pure numpy).

Replaces the reference's PaddleOCR/Tesseract engines (Ocr/src/ocr/ocr_engine.py,
A1-A3 in SURVEY.md section 2.3) with a fully deterministic kernel so that
span-sequence conformance can be byte-exact and N=8 vs N=32 parallelism runs
produce identical output (the scaling benchmark doubles as a determinism test).

Algorithm (classic projection-profile OCR):
1. binarize (ink = pixel < 128)
2. despeckle: drop ink pixels with no ink 8-neighbor (noise robustness)
3. line segmentation: row projection profile -> maximal ink-row bands
4. word segmentation within a band: column projection; a blank gap wider than
   WORD_GAP columns splits words (intra-word char gaps are CHAR_GAP=2 px;
   inter-word gaps are >= 14 px with the fonts.py metrics)
5. char classification: fixed-pitch cells template-matched against the
   deterministic glyph set (argmax pixel agreement); per-char score ->
   word confidence = mean char score
6. emit words in reading order (top band to bottom, left to right) with
   pixel boxes [x0, y0, x1, y1] — same word schema as the reference engines
   (ocr_engine.py:89-97: {'text', 'box', 'confidence'}).

The kernel is stateless math, but the template stack + charset are loaded once
per OCR actor (__init__) in the Ray stage — mirroring the reference's
lazy-singleton engine (receipt_processor.py:50-54).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from .fonts import CHAR_GAP, CHAR_H, CHAR_PITCH, CHAR_W, CHARS, TEMPLATES
from .stages.preprocess import ink_neighbours

WORD_GAP = 6  # blank columns ending a word (strictly greater than)
INK_THRESHOLD = 128


def binarize(img: np.ndarray) -> np.ndarray:
    """uint8 grayscale -> bool ink mask."""
    return img < INK_THRESHOLD


def despeckle(ink: np.ndarray) -> np.ndarray:
    """Remove ink pixels with zero ink 8-neighbors (isolated noise)."""
    return ink & ink_neighbours(ink)


def _runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of True along each row of a 2-D bool array, as
    (row, start, stop) arrays (stop exclusive), ordered by row then start."""
    edges = np.diff(mask.view(np.int8), axis=1, prepend=0, append=0)
    rows, starts = np.nonzero(edges == 1)
    return rows, starts, np.nonzero(edges == -1)[1]


def detect_words(image: np.ndarray) -> List[Dict[str, Any]]:
    """Full detect+recognize on one grayscale uint8 page."""
    return detect_ink_words(binarize(image))


def detect_ink_words(ink: np.ndarray) -> List[Dict[str, Any]]:
    """detect_words on a page's ink mask (``binarize(page)``): the page is
    read through that mask alone. Segmentation runs page-wide (every band's
    column runs in one call); classification batches ALL words into one
    page-level matmul (_classify_words)."""
    ink = despeckle(ink)
    _, y0, y1 = _runs(ink.any(axis=1)[None])
    if not y0.size:
        return []
    band, s, e = _runs(np.stack([ink[a:b].any(axis=0) for a, b in
                                 zip(y0.tolist(), y1.tolist())]))
    # merge char runs into words: a gap <= WORD_GAP stays in the word
    first = np.ones(len(s), dtype=bool)
    first[1:] = (band[1:] != band[:-1]) | (s[1:] - e[:-1] > WORD_GAP)
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(s)) - 1
    band = band[starts]
    return _classify_words(ink, np.stack(
        [s[starts], y0[band], e[ends], y1[band]], axis=1))


def _cc_components(ink: np.ndarray) -> List[tuple]:
    """8-connected components of a bool ink mask via run-based two-pass
    labeling (union-find over per-row ink runs). Returns component bboxes
    as (y0, y1, x0, x1) half-open, unordered.

    A connected component's row range is contiguous, so each component lies
    wholly inside one row-projection band — the equivalence that makes the
    CC segmentation path word-identical to the projection path (see
    OcrKernelCC)."""
    parent: List[int] = []

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    all_runs: List[tuple] = []  # (y, s, e, run_id)
    prev: List[tuple] = []      # previous row's (s, e, run_id)
    cur: List[tuple] = []
    last_y = -1
    for rid, (y, s, e) in enumerate(zip(*(a.tolist() for a in _runs(ink)))):
        if y != last_y:
            prev = cur if y == last_y + 1 else []
            cur, last_y = [], y
        parent.append(rid)
        # 8-connectivity: touches a prev-row run iff ps <= e and pe >= s
        for ps, pe, pid in prev:
            if ps <= e and pe >= s:
                union(rid, pid)
        cur.append((s, e, rid))
        all_runs.append((y, s, e, rid))

    boxes: Dict[int, List[int]] = {}
    for y, s, e, rid in all_runs:
        r = find(rid)
        b = boxes.get(r)
        if b is None:
            boxes[r] = [y, y + 1, s, e]
        else:
            b[1] = y + 1
            if s < b[2]:
                b[2] = s
            if e > b[3]:
                b[3] = e
    return [tuple(b) for b in boxes.values()]


def cc_detect_words(image: np.ndarray) -> List[Dict[str, Any]]:
    """detect_words via connected components instead of projection profiles.

    Provably word-identical to ``detect_words`` on ANY image:
    - components have contiguous row ranges, so the maximal runs of the
      union of component row intervals are exactly the row-projection
      bands;
    - within a band, gap-merging the sorted component column intervals
      (gap <= WORD_GAP over a running max right edge) yields exactly the
      gap-merged column-projection runs;
    - each word is then classified from the same ink slice
      ``ink[band_y0:band_y1, x0:x1]``.
    The equality is pytest-gated on corpus pages AND random noise images.
    """
    return cc_detect_ink_words(binarize(image))


def cc_detect_ink_words(ink: np.ndarray) -> List[Dict[str, Any]]:
    """cc_detect_words on a page's ink mask (``binarize(page)``)."""
    ink = despeckle(ink)
    comps = _cc_components(ink)
    if not comps:
        return []
    comps.sort()  # by (y0, y1, x0, x1)

    # bands = maximal runs of the union of component row intervals
    bands: List[List[Any]] = []  # [y0, y1, [comps]]
    for c in comps:
        if bands and c[0] <= bands[-1][1]:
            bands[-1][1] = max(bands[-1][1], c[1])
            bands[-1][2].append(c)
        else:
            bands.append([c[0], c[1], [c]])

    boxes: List[List[int]] = []
    for y0, y1, cs in bands:
        xs = sorted((c[2], c[3]) for c in cs)
        spans = [[xs[0][0], xs[0][1]]]
        for s, e in xs[1:]:
            if s - spans[-1][1] <= WORD_GAP:
                spans[-1][1] = max(spans[-1][1], e)
            else:
                spans.append([s, max(s, e)])
        boxes.extend([x0, y0, x1, y1] for x0, x1 in spans)
    return _classify_words(ink, np.array(boxes, dtype=np.int64))


# Flattened template stack for the batched matmul classifier: with X a 0/1
# cell vector and T a 0/1 template, the pixel-agreement COUNT is
# |px| - |X|_1 - |T|_1 + 2*X·T (all exact small integers in float32), so one
# BLAS gemm per page replaces a per-word broadcast-compare + mean — same
# values bit-for-bit (agreement = count / |px| evaluated in float64, exactly
# what bool.mean() computed).
_NPX = CHAR_H * CHAR_W
_T_FLAT = np.ascontiguousarray(TEMPLATES.reshape(len(TEMPLATES), _NPX),
                               dtype=np.float32)
_T_SUM = _T_FLAT.sum(axis=1)  # exact: counts <= _NPX


def _classify_words(ink: np.ndarray, boxes: np.ndarray) -> List[Dict[str, Any]]:
    """Classify the word boxes ``[x0, y0, x1, y1]`` of a page's ink mask in
    ONE page-level matmul and return the non-blank words in box order.

    A word of width w holds round((w + CHAR_GAP) / CHAR_PITCH) (at least
    one) fixed-pitch cells; cell k is the CHAR_H x CHAR_W window at column
    x0 + k * CHAR_PITCH, cut off at the word's right edge and bottom and
    zero-filled. Every cell of the page is gathered in one indexing call."""
    if not len(boxes):
        return []
    x0, y0, x1, y1 = boxes.T
    n_chars = np.maximum(
        1, np.round((x1 - x0 + CHAR_GAP) / CHAR_PITCH).astype(np.int64))
    word = np.repeat(np.arange(len(boxes)), n_chars)
    first = np.cumsum(n_chars) - n_chars
    total = len(word)
    left = x0[word] + (np.arange(total) - first[word]) * CHAR_PITCH
    rows = y0[word, None] + np.arange(CHAR_H)
    cols = left[:, None] + np.arange(CHAR_W)
    h, w = ink.shape
    cells = ink[np.minimum(rows, h - 1)[:, :, None],
                np.minimum(cols, w - 1)[:, None, :]]
    cells &= (rows < y1[word, None])[:, :, None]
    cells &= (cols < x1[word, None])[:, None, :]
    flat = cells.reshape(total, _NPX).astype(np.float32)
    # agreement counts: exact integers in float32 (products 0/1, sums <= 140)
    eq = (_NPX - flat.sum(axis=1)[:, None] - _T_SUM[None, :]
          + 2.0 * (flat @ _T_FLAT.T))
    best = eq.argmax(axis=1)
    scores = eq[np.arange(total), best].astype(np.float64) / _NPX
    chars = [CHARS[i] for i in best.tolist()]
    words: List[Dict[str, Any]] = []
    for box, a, n in zip(boxes.tolist(), first.tolist(), n_chars.tolist()):
        text = "".join(chars[a: a + n])
        if text.strip():
            # the mean score as np.mean sums and divides it, minus its
            # per-call overhead
            conf = float(np.add.reduce(scores[a: a + n])) / n
            words.append({"text": text, "box": box, "confidence": conf})
    return words


class OcrKernel:
    """Engine-protocol object (reference OcrEngine ABC, ocr_engine.py:14-28).

    Holds the template stack; constructed once per Ray actor. detect_and_
    recognize matches the reference engine signature.
    """

    def __init__(self):
        self.templates = TEMPLATES
        self.chars = CHARS

    def detect_and_recognize(self, image: np.ndarray) -> List[Dict[str, Any]]:
        if image.ndim == 3:  # RGB -> gray via exact mean (deterministic ints)
            image = (image.astype(np.uint16).sum(axis=2) // image.shape[2]).astype(np.uint8)
        return self.detect_ink(binarize(image))

    def detect_ink(self, ink: np.ndarray) -> List[Dict[str, Any]]:
        """detect_and_recognize of a 2-D page given its ink mask
        (``binarize(page)``), which is all the kernel reads of a page."""
        return detect_ink_words(ink)


# --- engine registry (A1-A3 factory/fallback; reference ocr_engine.py:200-233) ---
#
# The span stage resolves its engine INSIDE the Ray worker (actor __init__ /
# task-pool cache), so a name registered only in the driver process would not
# exist worker-side. Two supported shapes:
#   - built-in/name: get_engine("kernel") — names registered at module import
#     exist in every worker (module-level dict);
#   - user engine: pass the CLASS itself (build_pipeline(engine=MyEngine)) —
#     cloudpickle ships it to the workers with the stage closure. This is the
#     seam where a real Paddle/Tesseract wrapper drops in (its __init__ loads
#     the model once per actor; detect_and_recognize(image) -> word dicts).

class OcrKernelCC(OcrKernel):
    """The connected-component segmentation variant of the deterministic
    kernel (north-star parity: "connected-component and projection-profile
    line/word segmentation" — the projection path is OcrKernel). Same
    glyph classification, same word schema; word-for-word identical output
    by the equivalence argument on cc_detect_words, so every span-equality
    gate holds under engine="kernel_cc" too."""

    def detect_ink(self, ink: np.ndarray) -> List[Dict[str, Any]]:
        return cc_detect_ink_words(ink)


class TesseractEngine:
    """A2: pytesseract-backed engine behind the registry seam (reference
    ocr_engine.py:159-233). Import-guarded — this container has no
    tesseract, so construction raises ImportError with the install hint; the
    result adaptation (image_to_data dict -> words, conf<0 skipped,
    conf/100, box [l, t, l+w, t+h]) is oracle/boxes.tesseract_result_to_words
    (M11), unit-tested against a stubbed pytesseract so the adapter logic is
    exercised without the binary. One instance per Ray actor: __init__
    resolves the module once; detect_and_recognize runs per page."""

    def __init__(self, lang: str = "eng", config: str = "--psm 6"):
        try:
            import pytesseract
        except ImportError as e:  # pragma: no cover - absent in container
            raise ImportError(
                "pytesseract not installed. Install with: "
                "pip install pytesseract (plus the tesseract binary)") from e
        self.lang = lang
        self.config = config
        self._pt = pytesseract

    def detect_and_recognize(self, image: np.ndarray) -> List[Dict[str, Any]]:
        from .oracle.boxes import tesseract_result_to_words

        img = image
        try:
            from PIL import Image

            if isinstance(image, np.ndarray):
                img = Image.fromarray(image)
        except ImportError:
            pass  # recent pytesseract accepts ndarrays directly
        data = self._pt.image_to_data(
            img, lang=self.lang, config=self.config,
            output_type=self._pt.Output.DICT)
        return tesseract_result_to_words(data)


class PaddleEngine:
    """A1: PaddleOCR-backed engine (reference ocr_engine.py:31-147).
    Import-guarded like TesseractEngine; the model loads ONCE per actor in
    __init__ (the reference lazy-loads per request — per-actor state is the
    Ray-idiomatic replacement). Result adaptation (4-corner polygon ->
    axis-aligned box, empty-text skip) is oracle/boxes.paddle_result_to_words
    (M10)."""

    def __init__(self, lang: str = "en"):
        try:
            from paddleocr import PaddleOCR
        except ImportError as e:  # pragma: no cover - absent in container
            raise ImportError(
                "PaddleOCR not installed. Install with: "
                "pip install paddleocr paddlepaddle") from e
        self._ocr = PaddleOCR(use_angle_cls=True, lang=lang)

    def detect_and_recognize(self, image: np.ndarray) -> List[Dict[str, Any]]:
        from .oracle.boxes import paddle_result_to_words

        return paddle_result_to_words(self._ocr.ocr(image))


def create_engine(engine_type: str = "paddle", **kwargs):
    """A3 factory/fallback (reference ocr_engine.py:264-286): paddle falls
    back to tesseract when paddleocr is absent; 'kernel' resolves the
    deterministic built-in."""
    engine_type = engine_type.lower()
    if engine_type == "paddle":
        try:
            return PaddleEngine(**kwargs)
        except ImportError:
            import logging

            logging.getLogger(__name__).warning(
                "PaddleOCR not available, falling back to Tesseract")
            return TesseractEngine()
    if engine_type == "tesseract":
        return TesseractEngine(**kwargs)
    if engine_type == "kernel":
        return OcrKernel(**kwargs)
    raise ValueError(f"Unknown OCR engine type: {engine_type}")


def _kernel_lm():
    """Deterministic kernel wrapped with lexicon LM post-correction
    (stages/postcorrect.py) — registered as a factory so the lexicon code
    matrix builds once per worker at get_engine time."""
    from .stages.postcorrect import PostCorrectingEngine

    return PostCorrectingEngine(base="kernel")


_ENGINE_REGISTRY: Dict[str, type] = {
    "kernel": OcrKernel,
    "kernel_cc": OcrKernelCC,
    "kernel_lm": _kernel_lm,
    "tesseract": TesseractEngine,
    "paddle": PaddleEngine,
}


def register_engine(name: str, cls: type) -> None:
    """Add an engine by name (effective in workers only if registration runs
    at import time of a module the workers also import; otherwise pass the
    class object directly to build_pipeline)."""
    _ENGINE_REGISTRY[name] = cls


def get_engine(engine=None):
    """Resolve an engine spec: None -> default kernel; str -> registry name;
    class/callable -> instantiate; instance -> as-is."""
    if engine is None:
        engine = "kernel"
    if isinstance(engine, str):
        if engine not in _ENGINE_REGISTRY:
            raise ValueError(
                f"unknown OCR engine '{engine}'; known: {sorted(_ENGINE_REGISTRY)}")
        return _ENGINE_REGISTRY[engine]()
    if isinstance(engine, type) or callable(engine):
        return engine()
    return engine


def engine_key(engine) -> str:
    """Stable cache key for the per-worker processor cache."""
    if engine is None:
        return "kernel"
    if isinstance(engine, str):
        return engine
    if isinstance(engine, type):
        return f"{engine.__module__}.{engine.__qualname__}"
    return repr(engine)
