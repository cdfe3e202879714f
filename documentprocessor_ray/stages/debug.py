"""Debug tee sink (reference S7, Ocr/src/cli/debug_output.py:24-339).

The reference writes step_01..step_08 PNGs + debug_summary.json per job. Here
the debug stage is an optional TEE on the span stage
(``SpanProcessor(debug_dir=)``): per media span it writes into ``debug_dir``
a numbered PNG per preprocessing step that ran, an OCR-box overlay, the
preprocessed page as ``{media_ref}.pre.npz8`` (``corpus.write_page``, so
``MediaStore(debug_dir).load(media_ref + ".pre")`` reads it back), the word
dump and a debug_summary.json. Off by default; zero cost when disabled.

The reference's S8 event stream (the stdout {"event": ...} lines parsed by
C#, commands.py:241-258 / ServiceSideDocumentProcessor.cs:636-657) has no
twin here: each checkpoint manifest (state/checkpoint.py) records its
partition's rows in, ok and failed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

import numpy as np

from ..corpus import write_page


def save_page(debug_dir: str, media_ref: str, image: np.ndarray,
              words: List[Dict[str, Any]]) -> None:
    """Write one preprocessed page + its word dump under debug_dir."""
    os.makedirs(debug_dir, exist_ok=True)
    write_page(os.path.join(debug_dir, media_ref + ".pre.npz8"), image)
    with open(os.path.join(debug_dir, media_ref + ".words.json"), "w") as f:
        json.dump({"media_ref": media_ref, "n_words": len(words), "words": words},
                  f, indent=2)


def _to_rgb(img: np.ndarray) -> np.ndarray:
    if img.ndim == 2:
        return np.repeat(img[:, :, None], 3, axis=2)
    return img


def _draw_boxes(img: np.ndarray, boxes: List[List[int]]) -> np.ndarray:
    """Red box outlines on an RGB copy (the reference draws engine pixel
    boxes on the final page, debug_output.py:123-180)."""
    rgb = _to_rgb(img).copy()
    h, w = rgb.shape[:2]
    for box in boxes:
        x0 = int(np.clip(box[0], 0, w - 1))
        y0 = int(np.clip(box[1], 0, h - 1))
        x1 = int(np.clip(box[2], 0, w - 1))
        y1 = int(np.clip(box[3], 0, h - 1))
        rgb[y0, x0:x1 + 1] = (255, 0, 0)
        rgb[y1, x0:x1 + 1] = (255, 0, 0)
        rgb[y0:y1 + 1, x0] = (255, 0, 0)
        rgb[y0:y1 + 1, x1] = (255, 0, 0)
    return rgb


def save_steps(debug_dir: str, media_ref: str,
               steps: List[Any], final: np.ndarray,
               words_px: List[Dict[str, Any]],
               words_norm: List[Dict[str, Any]]) -> None:
    """Reference-parity debug artifacts for one media span
    (Ocr/src/cli/debug_output.py:24-339): numbered per-step PNGs for every
    preprocessing stage that RAN (step order follows this engine's fused
    chain), the final page, an OCR-bbox overlay, the word dump + compressed
    page (save_page, kept for tooling back-compat), and a
    debug_summary.json listing everything. PNGs are real (the in-repo
    numpy+zlib encoder) — no external imaging library needed."""
    from .multimodal import encode_png

    os.makedirs(debug_dir, exist_ok=True)
    files: List[str] = []
    numbered = [(n, im) for n, im in steps]
    numbered.append(("preprocessed_final", final))
    for i, (name, img) in enumerate(numbered, start=1):
        fn = f"{media_ref}.step_{i:02d}_{name}.png"
        with open(os.path.join(debug_dir, fn), "wb") as f:
            f.write(encode_png(_to_rgb(np.asarray(img))))
        files.append(fn)
    fn = f"{media_ref}.step_{len(numbered) + 1:02d}_ocr_bboxes.png"
    with open(os.path.join(debug_dir, fn), "wb") as f:
        f.write(encode_png(_draw_boxes(np.asarray(final),
                                       [w["box"] for w in words_px])))
    files.append(fn)
    save_page(debug_dir, media_ref, final, words_norm)
    files += [media_ref + ".pre.npz8", media_ref + ".words.json"]
    summary = {
        "media_ref": media_ref,
        "n_words": len(words_px),
        "steps": [n for n, _ in numbered] + ["ocr_bboxes"],
        "files": files,
    }
    with open(os.path.join(debug_dir, media_ref + ".debug_summary.json"),
              "w") as f:
        json.dump(summary, f, indent=2)
