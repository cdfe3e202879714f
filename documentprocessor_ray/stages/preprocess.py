"""Image preprocessing kernels (M1-M9) as pure numpy functions.

The reference shells out to ImageMagick per image per step
(Ocr/src/preprocessing/image_preprocessor.py:186-220 — one `magick`
subprocess each). We re-derive each step as a deterministic, vectorized numpy
kernel so the whole chain runs subprocess-free inside one fused map_batches
UDF (SURVEY.md section 2.2, M1-M9). Default order mirrors the reference
composer (image_preprocessor.py:336-478): deskew -> grayscale -> background
removal -> contrast -> [threshold] -> denoise; resample is deliberately a
separate, last step (image_preprocessor.py:510-553).

All kernels take/return uint8 arrays; grayscale images are (H, W), RGB
(H, W, 3). Everything is integer/LUT math -> bit-exact across runs and
parallelism levels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_LOG = logging.getLogger(__name__)

# Safety caps from the reference (image_preprocessor.py:40-43)
MAX_DIM = 32767              # Tesseract per-dimension cap
MAX_PIXELS = 178_956_970     # Pillow decompression-bomb cap
DPI_STEP = 50
MIN_DPI = 100


def to_grayscale(img: np.ndarray) -> np.ndarray:
    """M2: colorspace Gray via integer luma (ITU-R 601 weights, /1000)."""
    if img.ndim == 2:
        return img
    r = img[..., 0].astype(np.uint32)
    g = img[..., 1].astype(np.uint32)
    b = img[..., 2].astype(np.uint32)
    return ((299 * r + 587 * g + 114 * b) // 1000).astype(np.uint8)


# Point operations: background removal, contrast and threshold map each
# pixel by its value alone, so each is a 256-entry LUT and a chain of them
# composes into one LUT and one gather. The only image statistic they read
# is the min and max (the stretch of -auto-level), and a monotone LUT maps
# the min and max of an image to the min and max of its output, so one
# min/max reduction of the input serves the whole chain. Bit-identical by
# construction (uint8 domain, same per-value arithmetic).
#
# A point step is a function (lo, hi) -> LUT of the min and max of its input.
PointStep = Callable[[int, int], np.ndarray]


def _stretch_lut(lo: int, hi: int) -> np.ndarray:
    if hi <= lo:
        return np.arange(256, dtype=np.uint8)  # identity (matches .copy())
    return np.clip((np.arange(256, dtype=np.int64) - lo) * 255
                   // (hi - lo), 0, 255).astype(np.uint8)


def _compose(steps: Sequence[PointStep], lo: int, hi: int) -> np.ndarray:
    """One LUT for ``steps`` applied in order to an image with min ``lo``
    and max ``hi``."""
    out = np.arange(256, dtype=np.uint8)
    for step in steps:
        lut = step(lo, hi)
        out = lut[out]
        lo, hi = sorted((int(lut[lo]), int(lut[hi])))
    return out


@lru_cache(maxsize=16)
def _point_luts(steps: Tuple[PointStep, ...], lo: int,
                hi: int) -> Tuple[np.ndarray, np.ndarray, Optional[int]]:
    """For ``steps`` on an image with min ``lo`` and max ``hi``: the
    composed LUT; the same LUT over pixel pairs (two pixels p, q read as
    one little-endian uint16 p + 256 q index the entry lut[p] + 256
    lut[q]); and, when the LUT is monotone (every built-in step is), the
    count of values it maps below 128, so the mapped image's ink is the
    source below that count. Read-only, as the cache shares them; the
    steps of one config are the same objects on every page (_point_steps),
    so a page costs a lookup."""
    lut = _compose(steps, lo, hi)
    l16 = lut.astype("<u2")
    pairs = (l16 | l16[:, None] << 8).astype("<u2").reshape(-1)
    lut.flags.writeable = pairs.flags.writeable = False
    monotone = bool((lut[1:] >= lut[:-1]).all())
    return lut, pairs, int(np.searchsorted(lut, 128)) if monotone else None


def _apply(img: np.ndarray, *steps: PointStep) -> np.ndarray:
    lut, pair_lut, _ = _point_luts(steps, int(img.min()), int(img.max()))
    if img.dtype != np.uint8 or img.size % 2 or not img.flags.c_contiguous:
        return np.take(lut, img)
    # one gather per pixel pair: half the index conversions of lut[img]
    pairs = np.take(pair_lut, img.reshape(-1).view("<u2"))
    return pairs.view(np.uint8).reshape(img.shape)


def auto_level(img: np.ndarray) -> np.ndarray:
    """Linear histogram stretch to full [0, 255] (ImageMagick -auto-level)."""
    return _apply(img, _stretch_lut)


def _whiten_lut(fuzz_percent: float) -> np.ndarray:
    thresh = 255 - int(round(255 * fuzz_percent / 100.0))
    lut = np.arange(256, dtype=np.uint8)
    lut[thresh:] = 255
    return lut


def _background_step(fuzz_percent: float) -> PointStep:
    wlut = _whiten_lut(fuzz_percent)
    return lambda lo, hi: _stretch_lut(int(wlut[lo]), int(wlut[hi]))[wlut]


def remove_background(img: np.ndarray, fuzz_percent: float = 30.0) -> np.ndarray:
    """M3: pixels within fuzz% of white forced to pure white, then auto-level.
    One min/max pass + one gather (whiten and stretch LUTs composed)."""
    return _apply(img, _background_step(fuzz_percent))


def _sigmoid_lut(strength: float, midpoint_percent: float) -> np.ndarray:
    mid = 255.0 * midpoint_percent / 100.0 / 2.0  # ImageMagick midpoint is % of range
    x = np.arange(256, dtype=np.float64)
    s = 1.0 / (1.0 + np.exp(strength * (mid - x) / 255.0 * 10.0 / 3.0))
    s0 = 1.0 / (1.0 + np.exp(strength * mid / 255.0 * 10.0 / 3.0))
    s1 = 1.0 / (1.0 + np.exp(strength * (mid - 255.0) / 255.0 * 10.0 / 3.0))
    return np.clip(np.round((s - s0) / (s1 - s0) * 255.0), 0, 255).astype(np.uint8)


def _sigmoidal_step(strength: float, midpoint_percent: float) -> PointStep:
    slut = _sigmoid_lut(strength, midpoint_percent)
    return lambda lo, hi: slut[_stretch_lut(lo, hi)]


def sigmoidal_contrast(img: np.ndarray, strength: float = 3.0, midpoint_percent: float = 120.0) -> np.ndarray:
    """M4: -auto-level then sigmoidal contrast LUT (strength x midpoint%).
    One min/max pass + one gather (stretch and sigmoid LUTs composed)."""
    return _apply(img, _sigmoidal_step(strength, midpoint_percent))


def threshold(img: np.ndarray, percent: float = 50.0) -> np.ndarray:
    """M5: global binarize at percent of full scale (off by default upstream)."""
    t = int(round(255 * percent / 100.0))
    return np.where(img >= t, np.uint8(255), np.uint8(0))


def _threshold_step(percent: float) -> PointStep:
    lut = threshold(np.arange(256, dtype=np.uint8), percent)
    return lambda lo, hi: lut


def ink_neighbours(ink: np.ndarray) -> np.ndarray:
    """Whether any of each pixel's 8 neighbours is set in a bool mask;
    outside the mask counts as unset. Separable: left|right, then the rows
    above and below add left|centre|right."""
    near = np.zeros_like(ink)
    near[:, 1:] = ink[:, :-1]
    near[:, :-1] |= ink[:, 1:]
    row3 = near | ink
    near[1:] |= row3[:-1]
    near[:-1] |= row3[1:]
    return near


def isolated_ink(ink: np.ndarray) -> np.ndarray:
    """The ink pixels denoise lifts: inner ones with no ink neighbour. The
    neighbourhood is edge-padded, so a border pixel is its own neighbour
    and never isolated."""
    iso = ink & ~ink_neighbours(ink)
    iso[[0, -1]] = False
    iso[:, [0, -1]] = False
    return iso


def denoise(img: np.ndarray) -> np.ndarray:
    """M6: despeckle — isolated dark pixels on light ground are lifted to the
    max of their 8-neighborhood (a one-pixel morphological open, integer-exact).
    A dark pixel is isolated exactly when no neighbour is dark, so one bool
    OR of the ink mask finds them (isolated_ink), and the neighbourhood max
    is read at those pixels only: their 3x3 window's max is their
    neighbours' (the dark centre is below every light one)."""
    iso = isolated_ink(img < 128)
    out = img.copy()
    if iso.any():
        ys, xs = np.nonzero(iso)
        win = sliding_window_view(img, (3, 3))
        out[ys, xs] = win[ys - 1, xs - 1].max(axis=(1, 2))
    return out


@lru_cache(maxsize=16)
def _shear_bins(w: int, max_angle: int) -> Tuple[int, Tuple[np.ndarray, ...]]:
    """``pad``, the largest row offset round(x * tan(a)) of a page ``w``
    wide, and for a = -max_angle .. -1, 1 .. max_angle the per-column bin
    shift pad - round(x * tan(a)): an ink pixel (y, x) sheared by a lands in
    bin y + shift[x] of a profile padded by ``pad`` rows on each side
    (read-only: the cache shares them). round and tan are odd functions,
    so angle -a shifts by the negated offsets of a."""
    col = np.arange(w, dtype=np.float64)
    offs = [np.round(col * np.tan(np.deg2rad(ang))).astype(np.int64)
            for ang in range(1, max_angle + 1)]
    pad = int(offs[-1][-1]) if offs and w else 0  # offsets grow with x
    shifts = tuple(pad + o for o in offs[::-1]) + tuple(pad - o for o in offs)
    for s in shifts:
        s.flags.writeable = False
    return pad, shifts


def estimate_skew_angle(img: np.ndarray, max_angle: int = 3) -> int:
    """M1 (estimate): integer-degree angle maximizing row-profile variance
    under horizontal shear; 0 for clean axis-aligned pages. The ink
    coordinates are taken once; each non-zero angle then costs one gather
    of the ink pixels' bin shifts and one bincount over the padded rows,
    whose padding folds into the first and last row as clipping the
    sheared row would. One var call covers every angle's profile."""
    ink = np.flatnonzero(img < 128)
    if not ink.size:
        return 0
    h, w = img.shape
    ys, xs = np.divmod(ink, w)
    pad, shifts = _shear_bins(w, max_angle)
    prof = np.empty((2 * max_angle + 1, h))
    prof[max_angle] = np.bincount(ys, minlength=h)
    rows = chain(range(max_angle), range(max_angle + 1, 2 * max_angle + 1))
    for row, shift in zip(rows, shifts):
        yy = shift[xs]
        yy += ys
        bins = np.bincount(yy, minlength=h + 2 * pad)
        prof[row] = bins[pad:pad + h]
        prof[row, 0] += bins[:pad].sum()
        prof[row, -1] += bins[pad + h:].sum()
    best_angle, best_var = 0, -1.0
    for ang, var in zip(range(-max_angle, max_angle + 1),
                        prof.var(axis=1).tolist()):
        if var > best_var + 1e-9:
            best_var, best_angle = var, ang
    return best_angle


def deskew(img: np.ndarray, max_angle: int = 3) -> np.ndarray:
    """M1: undo the estimated shear by integer row-shifts (nearest-neighbor,
    deterministic); white background fill. Column x reads row y + s_x of
    the page padded with white rows, one gather for the whole page (a shift
    past the page height reads only padding, so the padding stops there)."""
    ang = estimate_skew_angle(img, max_angle)
    if ang == 0:
        return img
    h, w = img.shape[:2]
    shear = np.tan(np.deg2rad(ang))
    shifts = np.round(np.arange(w) * shear).astype(np.int64)
    pad = min(int(np.abs(shifts).max()), h)
    padded = np.pad(img, ((pad, pad), (0, 0)), constant_values=255)
    src = (np.clip(shifts, -pad, pad) + pad) * w + np.arange(w)
    return np.take(padded, (np.arange(h) * w)[:, None] + src)


def resample(img: np.ndarray, scale_num: int, scale_den: int) -> np.ndarray:
    """M8 core: nearest-neighbor resample by a rational factor (deterministic)."""
    h, w = img.shape[:2]
    nh = max(1, h * scale_num // scale_den)
    nw = max(1, w * scale_num // scale_den)
    ri = (np.arange(nh) * scale_den // scale_num).clip(0, h - 1)
    ci = (np.arange(nw) * scale_den // scale_num).clip(0, w - 1)
    return img[np.ix_(ri, ci)]


def find_safe_dpi(width: int, height: int, current_dpi: int, target_dpi: int) -> Optional[int]:
    """M8 guard: step target DPI down by 50 until the resampled image fits the
    Tesseract/Pillow caps; None when even MIN_DPI would not fit
    (image_preprocessor.py:283-334)."""
    dpi = target_dpi
    while dpi >= MIN_DPI:
        nw = width * dpi // current_dpi
        nh = height * dpi // current_dpi
        if nw <= MAX_DIM and nh <= MAX_DIM and nw * nh <= MAX_PIXELS:
            return dpi
        dpi -= DPI_STEP
    return None


@dataclass
class PreprocessConfig:
    deskew: bool = True
    grayscale: bool = True
    remove_background: bool = True
    bg_fuzz_percent: float = 30.0
    contrast: str = "sigmoidal"  # 'sigmoidal' | 'linear' | 'none'
    contrast_strength: float = 3.0
    contrast_midpoint: float = 120.0
    apply_threshold: bool = False
    threshold_percent: float = 50.0
    denoise: bool = True
    # M8: DPI resample, reference-order LAST and separate
    # (image_preprocessor.py:510-553). None disables; when set, the page is
    # resampled assumed_dpi -> find_safe_dpi(target_dpi), the safety caps
    # stepping the target down by DPI_STEP until the result fits. A page
    # that cannot fit even at MIN_DPI matches the reference by default
    # (image_preprocessor.py:330-334, :533): WARN and skip the resample so
    # the page still OCRs; error_on_unsafe_dpi=True raises instead ->
    # in-band error channel (M31).
    target_dpi: Optional[int] = None
    assumed_dpi: int = 300
    error_on_unsafe_dpi: bool = False


def _point_steps(cfg: PreprocessConfig) -> Tuple[Tuple[str, PointStep], ...]:
    """The point steps ``cfg`` turns on, in order, with their tap names;
    equal settings give the same step objects (_point_luts caches by them)."""
    return _steps_of(cfg.remove_background, cfg.bg_fuzz_percent, cfg.contrast,
                     cfg.contrast_strength, cfg.contrast_midpoint,
                     cfg.apply_threshold, cfg.threshold_percent)


@lru_cache(maxsize=16)
def _steps_of(remove_bg: bool, fuzz: float, contrast: str, strength: float,
              midpoint: float, apply_threshold: bool,
              threshold_percent: float) -> Tuple[Tuple[str, PointStep], ...]:
    steps = []
    if remove_bg:
        steps.append(("background_removed", _background_step(fuzz)))
    if contrast == "sigmoidal":
        steps.append(("contrast_enhanced", _sigmoidal_step(strength, midpoint)))
    elif contrast == "linear":
        steps.append(("contrast_enhanced", _stretch_lut))
    if apply_threshold:
        steps.append(("threshold", _threshold_step(threshold_percent)))
    return tuple(steps)


def preprocess(img: np.ndarray, cfg: PreprocessConfig = PreprocessConfig(),
               tap=None) -> np.ndarray:
    """M9: fused chain in the reference composer's order (grayscale hoisted
    before deskew — deskew estimation needs single-channel; output-equivalent
    because the reference's deskew precedes any color-dependent step).

    ``tap(step_name, image)`` is the S7 debug hook: called after every stage
    that RAN (the debug sink numbers and PNG-encodes them,
    stages/debug.save_steps). None (the default) costs nothing, and the
    point steps (background removal, contrast, threshold) then run as one
    composed LUT: one min/max pass and one gather instead of one each."""
    t = tap if tap is not None else (lambda _n, _i: None)
    if cfg.grayscale:
        img = to_grayscale(img)
        t("grayscale", img)
    if cfg.deskew:
        img = deskew(img)
        t("deskewed", img)
    steps = _point_steps(cfg)
    if tap is not None:
        for name, step in steps:
            img = _apply(img, step)
            t(name, img)
    elif steps:
        img = _apply(img, *(step for _, step in steps))
    if cfg.denoise:
        img = denoise(img)
        t("denoised", img)
    resampled = _dpi_resample(img, cfg)
    if resampled is not img:
        img = resampled
        t("resampled", img)
    return img


def _dpi_resample(img: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """M8: ``img`` resampled assumed_dpi -> find_safe_dpi(target_dpi) when
    ``cfg.target_dpi`` is set, else ``img`` itself."""
    if not cfg.target_dpi:
        return img
    h, w = img.shape[:2]
    safe = find_safe_dpi(w, h, cfg.assumed_dpi, cfg.target_dpi)
    if safe is None:
        if cfg.error_on_unsafe_dpi:
            raise ValueError(
                f"page {w}x{h}@{cfg.assumed_dpi}dpi exceeds safety caps "
                f"even at MIN_DPI={MIN_DPI}")
        # reference behavior (image_preprocessor.py:330-334): warn and
        # proceed un-resampled so the page still OCRs
        _LOG.warning(
            "page %dx%d@%ddpi exceeds safety caps even at MIN_DPI=%d; "
            "skipping DPI adjustment", w, h, cfg.assumed_dpi, MIN_DPI)
        return img
    if safe == cfg.assumed_dpi:
        return img
    return resample(img, safe, cfg.assumed_dpi)


def preprocess_ink(img: np.ndarray, cfg: PreprocessConfig = PreprocessConfig()
                   ) -> Optional[np.ndarray]:
    """``preprocess(img, cfg) < 128`` without building the preprocessed
    page, for a page that preprocesses to 2-D (None for one that stays
    RGB): the OCR kernel reads a page through that mask alone. A monotone
    point LUT maps exactly the source pixels below one value to ink;
    denoise takes exactly the isolated pixels out of the ink (they rise to
    a light neighbour's value); and the nearest-neighbour resample picks
    the same pixels from the mask as from the page."""
    if cfg.grayscale:
        img = to_grayscale(img)
    if img.ndim != 2:
        return None
    if cfg.deskew:
        img = deskew(img)
    steps = tuple(step for _, step in _point_steps(cfg))
    if steps:
        lut, _, below = _point_luts(steps, int(img.min()), int(img.max()))
        ink = img < below if below is not None else np.take(lut, img) < 128
    else:
        ink = img < 128
    if cfg.denoise:
        ink &= ~isolated_ink(ink)
    return _dpi_resample(ink, cfg)
