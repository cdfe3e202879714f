"""Seeded synthetic corpus generator — the `documents` input table.

Produces exactly the BASELINE.json input_hint shape:

    doc_id: string
    spans:  list<struct<kind: string, text: string, media_ref: string, offset: int32>>

plus a companion media store of deterministically rendered receipt pages
(render.py; geometry mirrors Ocr/tests/test_cli_integration.py:52-68 of the
reference). All randomness flows from one integer seed through
numpy.default_rng — same seed => byte-identical corpus on any machine.

Skew fixture per FIXTURES.md F1: ~1% of docs get 20-50 media spans; the rest
0-2 (exercises the skew-aware repartition path, SURVEY.md section 4.2).

The media store is a directory of .npy pages keyed by media_ref — the
single-node stand-in for an object-store/blob bucket; the OCR actor loads a
page by ref inside __call__, exactly the "media_ref points into a media
store, decoded inside the OCR actor" design of SURVEY.md section 1.3. The
input table is written as hash-partitioned parquet (part=hash(doc_id)%P) so
checkpointed runs can prune whole partitions at the read.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .render import render_page

SPAN_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])
DOCUMENTS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
])

_VENDORS = [
    ["GROCERY STORE", "123 Main Street", "City, State 12345"],
    ["CORNER MARKET", "42 Oak Avenue", "Springfield, IL 62704"],
    ["CAFE EUROPA", "9 High Street", "London, UK"],
    ["BIG BOX RETAIL", "1000 Commerce Way", "Dallas, TX 75201"],
]
_ITEMS = [
    ("Milk 2%", 3.99), ("Bread", 2.50), ("Eggs", 4.99), ("Coffee", 8.75),
    ("Apples", 5.25), ("Cheese", 6.49), ("Butter", 4.25), ("Rice", 3.10),
    ("Pasta", 2.89), ("Juice", 3.75), ("Cereal", 4.60), ("Yogurt", 1.99),
]
_TEXT_SNIPPETS = [
    "<html><body><p>Quarterly report shows steady growth in all regions.</p></body></html>",
    "Fast   shipping &amp; friendly support.  <b>Highly recommended</b> by customers.",
    "<div class=nav>Home | About</div>The quick brown fox jumps over the lazy dog.",
    "Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod tempor.",
    "<script>var x=1;</script>Visit our store for seasonal offers &lt;today&gt;.",
    "Invoice terms: net 30 days. Contact billing@example.com with questions.",
    "Opening hours: Mon-Fri 9:00 - 18:00, Sat 10:00 - 14:00.",
    "Warranty covers parts &amp; labor for 12 months from purchase date.",
]


def receipt_lines(rng: np.random.Generator) -> List[str]:
    """One deterministic receipt page's text lines (<=11 lines fit the page)."""
    vendor = _VENDORS[int(rng.integers(0, len(_VENDORS)))]
    month = int(rng.integers(1, 13))
    day = int(rng.integers(1, 29))
    year = int(rng.integers(2020, 2026))
    n_items = int(rng.integers(2, 5))
    idx = rng.choice(len(_ITEMS), size=n_items, replace=False)
    lines = list(vendor[: int(rng.integers(1, 4))])
    lines.append(f"Date: {month:02d}/{day:02d}/{year}")
    subtotal = 0.0
    for i in idx:
        name, price = _ITEMS[int(i)]
        qty = int(rng.integers(1, 4))
        line_total = round(price * qty, 2)
        subtotal = round(subtotal + line_total, 2)
        if qty > 1:
            lines.append(f"{name} {qty}x ${line_total:.2f}")
        else:
            lines.append(f"{name} ${line_total:.2f}")
    tax = round(subtotal * 0.08, 2)
    total = round(subtotal + tax, 2)
    lines.append(f"Subtotal ${subtotal:.2f}")
    lines.append(f"Tax 8% ${tax:.2f}")
    lines.append(f"TOTAL ${total:.2f}")
    lines.append("Thank you!")
    return lines


def _html_snippet(rng: np.random.Generator) -> str:
    """Deterministic boilerplate-laden HTML: a link-farm nav (dies of link
    density), a long content paragraph (survives), a short footer (dies of
    MIN_BLOCK_CHARS) — so the strip is observable, not a pass-through."""
    body = " ".join(
        _TEXT_SNIPPETS[int(rng.integers(0, len(_TEXT_SNIPPETS)))]
        for _ in range(3))
    nav = " ".join(f'<a href="#{k}">nav{k}</a>' for k in range(6))
    return (f"<div>{nav}</div><p>{body}</p>"
            f'<footer><a href="/">home</a></footer>')


def _doc_spans(rng: np.random.Generator, doc_id: str, heavy: bool,
               html_frac: float = 0.0, pdf_frac: float = 0.0) -> List[Dict]:
    if heavy:
        n_media = int(rng.integers(20, 51))
        n_text = int(rng.integers(0, 3))
    else:
        n_media = int(rng.integers(0, 3))
        n_text = int(rng.integers(1, 4))
    kinds = ["media"] * n_media + ["text"] * n_text
    if html_frac > 0:
        # drawn ONLY when the feature is on, so html_frac=0 corpora keep
        # byte-identical rng sequences with pre-html generator versions
        n_html = int(rng.integers(1, 3)) if rng.random() < html_frac else 0
        kinds += ["html"] * n_html
    if pdf_frac > 0:
        n_pdf = int(rng.integers(1, 3)) if rng.random() < pdf_frac else 0
        kinds += ["pdf"] * n_pdf
    rng.shuffle(kinds)
    spans = []
    for off, kind in enumerate(kinds):
        if kind == "text":
            spans.append({
                "kind": "text",
                "text": _TEXT_SNIPPETS[int(rng.integers(0, len(_TEXT_SNIPPETS)))],
                "media_ref": "",
                "offset": off,
            })
        elif kind == "html":
            spans.append({
                "kind": "html",
                "text": _html_snippet(rng),
                "media_ref": "",
                "offset": off,
            })
        elif kind == "pdf":
            spans.append({
                "kind": "pdf",
                "text": "",
                "media_ref": f"{doc_id}-s{off:03d}",
                "offset": off,
            })
        else:
            spans.append({
                "kind": "media",
                "text": "",
                "media_ref": f"{doc_id}-s{off:03d}",
                "offset": off,
            })
    return spans


def doc_part(doc_id: str, num_partitions: int) -> int:
    """Stable partition id for a doc (zlib.crc32 — platform-stable, unlike hash())."""
    return zlib.crc32(doc_id.encode()) % num_partitions


def generate_corpus(
    out_dir: str,
    n_docs: int = 100,
    seed: int = 42,
    heavy_frac: float = 0.01,
    num_partitions: int = 8,
    noise_density: float = 0.0,
    html_frac: float = 0.0,
    pdf_frac: float = 0.0,
) -> Tuple[str, str]:
    """Write documents/ (hash-partitioned parquet) + media/ (npy pages).

    Returns (documents_dir, media_dir). Idempotent for a given
    (out_dir, n_docs, seed): re-generation overwrites with identical bytes.
    """
    docs_dir = os.path.join(out_dir, "documents")
    media_dir = os.path.join(out_dir, "media")
    os.makedirs(media_dir, exist_ok=True)

    parts: Dict[int, List[Dict]] = {p: [] for p in range(num_partitions)}
    for i in range(n_docs):
        doc_id = f"doc-{i:06d}"
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        heavy = rng.random() < heavy_frac
        spans = _doc_spans(rng, doc_id, heavy, html_frac=html_frac,
                           pdf_frac=pdf_frac)
        for s in spans:
            if s["kind"] == "pdf":
                from .functions.pdf import make_pdf

                snippet = _TEXT_SNIPPETS[int(rng.integers(
                    0, len(_TEXT_SNIPPETS)))]
                with open(os.path.join(media_dir,
                                       s["media_ref"] + ".pdf"), "wb") as f:
                    f.write(make_pdf(snippet.split()))
            elif s["kind"] == "media":
                lines = receipt_lines(rng)
                img = render_page(
                    lines,
                    noise_seed=int(rng.integers(0, 2**31)) if noise_density > 0 else None,
                    noise_density=noise_density,
                )
                write_page(os.path.join(media_dir, s["media_ref"] + ".npz8"),
                           img)
        parts[doc_part(doc_id, num_partitions)].append({"doc_id": doc_id, "spans": spans})

    for p, rows in parts.items():
        pdir = os.path.join(docs_dir, f"part={p}")
        os.makedirs(pdir, exist_ok=True)
        table = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA) if rows else DOCUMENTS_SCHEMA.empty_table()
        pq.write_table(table, os.path.join(pdir, "data.parquet"))
    return docs_dir, media_dir


def write_page(path: str, img: np.ndarray) -> None:
    """Write one uint8 page in the ``.npz8`` layout ``MediaStore.load``
    reads: an int32 ndim, the int32 shape, then the zlib-compressed
    C-order bytes. Mostly-white renders shrink ~100x at level 1, which is
    what makes 10k-page scaling corpora fit on disk."""
    header = np.asarray([img.ndim, *img.shape], dtype=np.int32).tobytes()
    with open(path, "wb") as f:
        f.write(header + zlib.compress(img.tobytes(), level=1))


class MediaStore:
    """Pluggable page store — the object-store/blob-bucket stand-in.

    Pages load from {media_ref}.npz8 (zlib + shape header), legacy .npy,
    or REAL encoded image files (.png/.jpg/.jpeg/.tif/.tiff/.gif/.bmp/.webp) via
    the in-repo pure-numpy codecs — the S1 surface exactly as the
    reference's load_image (Ocr/src/cli/utils.py:98-117: decode any of the
    allow-listed formats to an RGB ndarray). Decode is lazy per page and
    lives in whatever worker calls load(); decoded pixels never persist."""

    _IMAGE_EXTS = (".png", ".jpg", ".jpeg", ".tif", ".tiff", ".gif",
                   ".bmp", ".webp")

    def __init__(self, media_dir: str):
        self.media_dir = media_dir
        self._codec = None  # built lazily (multimodal import is not free)

    def load_bytes(self, media_ref: str,
                   ext: str = ".pdf") -> Optional[bytes]:
        """Raw blob fetch (pdf spans and other non-image media)."""
        path = os.path.join(self.media_dir, media_ref + ext)
        if os.path.exists(path):
            with open(path, "rb") as f:
                return f.read()
        return None

    def find(self, media_ref: str) -> Optional[str]:
        """Path of the file ``load`` decodes for ``media_ref``, None when
        the page is missing. The one list of page formats and their
        lookup order."""
        for ext in (".npz8", ".npy") + self._IMAGE_EXTS:
            path = os.path.join(self.media_dir, media_ref + ext)
            if os.path.exists(path):
                return path
        return None

    def load(self, media_ref: str) -> Optional[np.ndarray]:
        path = self.find(media_ref)
        if path is None:
            return None
        if path.endswith(".npy"):
            return np.load(path, allow_pickle=False)
        with open(path, "rb") as f:
            raw = f.read()
        if path.endswith(".npz8"):
            ndim = int(np.frombuffer(raw[:4], dtype=np.int32)[0])
            shape = tuple(np.frombuffer(raw[4:4 + 4 * ndim], dtype=np.int32))
            # sized to the page, the output buffer is never grown and copied
            data = zlib.decompress(memoryview(raw)[4 + 4 * ndim:],
                                   bufsize=max(1, int(np.prod(shape))))
            return np.frombuffer(data, dtype=np.uint8).reshape(shape)
        if self._codec is None:
            from .stages.multimodal import AutoCodec

            self._codec = AutoCodec()
        # route by in-file signature; meta format is a hint only
        return self._codec.decode_image(
            raw, {"format": os.path.splitext(path)[1].lstrip(".")})
