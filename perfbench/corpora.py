"""Seeded benchmark corpora, cached under ``perfbench/_cache`` by
(workload, seed, size).

Every workload writes the engine's input layout (``documents/part=P/`` parquet
with ``corpus.DOCUMENTS_SCHEMA`` rows, plus a ``media/`` store of ``.npz8``
receipt pages and ``.pdf`` blobs). Span content comes from the engine's own
corpus makers, drawn as ``corpus.generate_corpus`` draws it: text spans are
``corpus._TEXT_SNIPPETS``, html spans ``corpus._html_snippet``, pdf spans a
snippet through ``functions.pdf.make_pdf``, and pages ``corpus.receipt_lines``
through ``render.render_page``.

The span-count mix of each workload is *stratified*: the number of docs, of
spans of each kind and of pages is a function of the size alone, and the seed
only decides which doc gets which shape and what the content is. So every seed
asks the engine for the same amount of work and docs/s is comparable across
seeds; ``corpus.generate_corpus`` draws each doc independently, which moves
the page count of a 200-doc corpus by +-20% from seed to seed.

A corpus is fingerprinted (sha256 over its rows and media bytes). The
fingerprint is stored with the cached corpus and re-checked on reuse, and a
small canary corpus per workload (seed 0) is compared with the fingerprint
pinned in ``pins.json``, so a change to ``corpus.py``, ``render.py`` or the
pdf writer cannot shift the inputs without stopping the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, "_cache")
PINS = os.path.join(HERE, "pins.json")
CANARY_DOCS = 24
NUM_PARTITIONS = 8  # documents/part=P directories, as corpus.generate_corpus


@dataclass(frozen=True)
class Spec:
    """Size and kind mix of one workload's corpus."""
    n_docs: int
    heavy_share: float = 0.0  # share of docs with 20-50 media pages
    light_pages: int = 3      # light docs get 0 .. light_pages-1 pages
    html_share: float = 0.0   # share of docs with 1-2 html spans
    pdf_share: float = 0.0    # share of docs with 1-2 pdf spans


WORKLOADS: Dict[str, Spec] = {
    # corpus.generate_corpus defaults: 1% heavy docs with 20-50 pages, the
    # rest 0-2 pages and 1-3 text spans
    "receipts": Spec(n_docs=100, heavy_share=0.01),
    # the html and pdf shares of the engine's own four-kind corpus (the
    # extract_mixed_kinds query: html_frac=0.4, pdf_frac=0.4), without media
    # pages, so the OCR does nothing
    "web_text": Spec(n_docs=800, light_pages=1, html_share=0.4,
                     pdf_share=0.4),
}


def _write_page(path: str, rng: np.random.Generator) -> None:
    """One receipt page in MediaStore's ``.npz8`` layout, drawn and written
    as ``corpus.generate_corpus`` does."""
    from documentprocessor_ray.corpus import receipt_lines
    from documentprocessor_ray.render import render_page

    img = render_page(receipt_lines(rng))
    header = np.asarray([img.ndim, *img.shape], dtype=np.int32).tobytes()
    with open(path, "wb") as f:
        f.write(header + zlib.compress(img.tobytes(), level=1))


def _shapes(spec: Spec) -> List[Tuple[int, int, int, int]]:
    """(pages, texts, htmls, pdfs) per doc slot. Counts are spread evenly
    over the slots (i-th slot of a k-way cycle), so they depend on n_docs
    only."""
    n = spec.n_docs
    n_heavy = round(n * spec.heavy_share)
    shapes = []
    for i in range(n):
        if i < n_heavy:
            pages = 20 + 30 * (2 * i + 1) // (2 * n_heavy)
            texts = i % 3
        else:
            j = i - n_heavy
            pages = j % spec.light_pages
            texts = 1 + (j // spec.light_pages) % 3
        # multipliers coprime to 100: every 100 slots hold exactly
        # share * 100 docs with html (pdf) spans
        htmls = 1 + i % 2 if (i * 7919 % 100) < spec.html_share * 100 else 0
        pdfs = 1 + i % 2 if (i * 104729 % 100) < spec.pdf_share * 100 else 0
        shapes.append((pages, texts, htmls, pdfs))
    return shapes


def generate(workload: str, seed: int, out_dir: str,
             n_docs: int = 0) -> Tuple[str, str]:
    """Write ``out_dir/documents`` and ``out_dir/media``; same (workload,
    seed, n_docs) gives byte-identical content."""
    from documentprocessor_ray.corpus import (_TEXT_SNIPPETS,
                                              DOCUMENTS_SCHEMA, _html_snippet,
                                              doc_part)
    from documentprocessor_ray.functions.pdf import make_pdf

    def snippet(rng: np.random.Generator) -> str:
        return _TEXT_SNIPPETS[int(rng.integers(0, len(_TEXT_SNIPPETS)))]

    spec = WORKLOADS[workload]
    if n_docs:
        spec = dataclasses.replace(spec, n_docs=n_docs)
    docs_dir = os.path.join(out_dir, "documents")
    media_dir = os.path.join(out_dir, "media")
    os.makedirs(media_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20261017]))
    shapes = _shapes(spec)
    order = rng.permutation(len(shapes))
    parts: Dict[int, List[dict]] = {p: [] for p in range(NUM_PARTITIONS)}
    for i, slot in enumerate(order):
        pages, texts, htmls, pdfs = shapes[int(slot)]
        doc_id = f"doc-{i:06d}"
        drng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        kinds = (["media"] * pages + ["text"] * texts + ["html"] * htmls
                 + ["pdf"] * pdfs)
        drng.shuffle(kinds)
        spans = []
        for off, kind in enumerate(kinds):
            ref = f"{doc_id}-s{off:03d}" if kind in ("media", "pdf") else ""
            text = ""
            if kind == "text":
                text = snippet(drng)
            elif kind == "html":
                text = _html_snippet(drng)
            elif kind == "pdf":
                with open(os.path.join(media_dir, ref + ".pdf"), "wb") as f:
                    f.write(make_pdf(snippet(drng).split()))
            else:
                _write_page(os.path.join(media_dir, ref + ".npz8"), drng)
            spans.append({"kind": kind, "text": text, "media_ref": ref,
                          "offset": off})
        parts[doc_part(doc_id, NUM_PARTITIONS)].append(
            {"doc_id": doc_id, "spans": spans})
    for p, rows in parts.items():
        pdir = os.path.join(docs_dir, f"part={p}")
        os.makedirs(pdir, exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA),
                       os.path.join(pdir, "data.parquet"))
    return docs_dir, media_dir


def fingerprint(out_dir: str) -> str:
    """sha256 over the doc rows of each partition (sorted by doc_id) and
    every media file."""
    h = hashlib.sha256()
    docs_dir = os.path.join(out_dir, "documents")
    for part in sorted(os.listdir(docs_dir)):
        h.update(part.encode())
        rows = pq.read_table(os.path.join(docs_dir, part),
                             columns=["doc_id", "spans"]).to_pylist()
        for r in sorted(rows, key=lambda r: r["doc_id"]):
            h.update(json.dumps(r, sort_keys=True).encode())
    media_dir = os.path.join(out_dir, "media")
    for name in sorted(os.listdir(media_dir)):
        h.update(name.encode())
        with open(os.path.join(media_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def canary_fingerprint(workload: str, workdir: str) -> str:
    """Fingerprint of the seed-0 canary corpus, generated afresh."""
    out = os.path.join(workdir, f"canary-{workload}")
    shutil.rmtree(out, ignore_errors=True)
    generate(workload, 0, out, n_docs=CANARY_DOCS)
    try:
        return fingerprint(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_pins(workload: str) -> None:
    """Raise unless the canary corpus matches its pinned fingerprint."""
    with open(PINS) as f:
        pinned = json.load(f)[workload]
    got = canary_fingerprint(workload, CACHE)
    if got != pinned:
        raise RuntimeError(
            f"{workload}: corpus generator output changed (canary "
            f"fingerprint {got[:16]}, pinned {pinned[:16]}); the inputs "
            f"would not match earlier runs. Re-pin with "
            f"`python3 perfbench/run.py --pin` only on purpose.")


def pin_all() -> Dict[str, str]:
    pins = {w: canary_fingerprint(w, CACHE) for w in WORKLOADS}
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return pins


def corpus_dir(workload: str, seed: int) -> str:
    """Cache directory of a corpus; a re-pinned generator gets new ones."""
    with open(PINS) as f:
        pin = json.load(f)[workload][:12]
    return os.path.join(
        CACHE, "corpora",
        f"{workload}-s{seed}-n{WORKLOADS[workload].n_docs}-{pin}")
