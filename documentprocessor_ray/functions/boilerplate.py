"""Main-content extraction: HTML boilerplate strip via block-level
link-density heuristics (the north rule's "HTML boilerplate strip ... DOM
heuristics" operator; algorithmic lineage is the public jusText/Boilerpipe
family — Kohlschütter et al. WSDM'10, Pomikálek 2011 — reduced to an EXACT
integer-threshold spec so a DuckDB twin can verify it bit-for-bit).

Spec (shared verbatim by the SQL oracle in pipelines/analysis.py):

1. Split the raw HTML on block-level tags (BLOCK_TAG_RE, RE2 `(?i)`).
2. Per block:
   - ``visible``  = the engine's normalize chain (script/style strip, tag
     strip, entity decode, whitespace collapse — oracle/textnorm, already
     hash-verified against the SQL twin);
   - ``n_link``   = total RAW length of ``<a ...>...</a>`` group-1 captures
     (ANCHOR_RE);
   - keep iff ``len(visible) >= MIN_BLOCK_CHARS`` and
     ``3 * n_link <= len(visible)`` (link density <= 1/3, exact rational).
3. ``main_text`` = kept visible blocks joined by one space.

All regexes use the RE2-safe subset (explicit ``[ \\t\\n\\f\\r]`` instead of
``\\s``, no backrefs) so pyarrow/Python/DuckDB agree byte-for-byte.

Stateless, embarrassingly parallel: per-batch the blocks of every document
are flattened into ONE Arrow array, normalized with one vectorized RE2 pass
(normalize_text_arrow), then re-segmented — the per-row Python work is the
split and the anchor scan only.
"""

from __future__ import annotations

import re
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..oracle.textnorm import normalize_text_arrow

MIN_BLOCK_CHARS = 50

# shared literal specs (the SQL twin embeds the same patterns)
BLOCK_TAG_PATTERN = (r"(?i)</?(?:div|p|td|th|li|h[1-6]|table|section|article|"
                     r"header|footer|nav|br)[^>]*>")
ANCHOR_PATTERN = r"(?is)<a(?:[ \t\n\f\r][^>]*)?>(.*?)</a>"

_BLOCK_RE = re.compile(BLOCK_TAG_PATTERN)
_ANCHOR_RE = re.compile(ANCHOR_PATTERN)


def main_text_of(html: str) -> str:
    """Scalar twin of extract_main_content_batch for one HTML string (the
    oracle's per-span path; the flagship calls the batch function, so every
    oracle check compares the two)."""
    from ..oracle.textnorm import normalize_text

    kept: List[str] = []
    for b in _BLOCK_RE.split(html or ""):
        vis = normalize_text(b)
        n_link = sum(len(m) for m in _ANCHOR_RE.findall(b))
        if len(vis) >= MIN_BLOCK_CHARS and 3 * n_link <= len(vis):
            kept.append(vis)
    return " ".join(kept)


def extract_main_content_batch(batch: pa.Table,
                               html_col: str = "html") -> pa.Table:
    """(doc_id, html) -> (doc_id, main_text, n_blocks, n_kept)."""
    htmls: List[str] = batch[html_col].to_pylist()
    flat_blocks: List[str] = []
    offsets = [0]
    link_lens: List[int] = []
    for h in htmls:
        blocks = _BLOCK_RE.split(h or "")
        for b in blocks:
            flat_blocks.append(b)
            link_lens.append(sum(len(m) for m in _ANCHOR_RE.findall(b)))
        offsets.append(len(flat_blocks))
    vis = normalize_text_arrow(pa.array(flat_blocks, pa.string()))
    vis_len = pc.utf8_length(vis).to_numpy(zero_copy_only=False)
    link_np = np.asarray(link_lens, dtype=np.int64)
    keep = (vis_len >= MIN_BLOCK_CHARS) & (3 * link_np <= vis_len)
    vis_py = vis.to_pylist()

    texts, n_blocks, n_kept = [], [], []
    for d in range(len(htmls)):
        i, j = offsets[d], offsets[d + 1]
        kept = [vis_py[k] for k in range(i, j) if keep[k]]
        texts.append(" ".join(kept))
        n_blocks.append(j - i)
        n_kept.append(len(kept))
    return pa.table({
        "doc_id": batch["doc_id"],
        "main_text": pa.array(texts, pa.string()),
        "n_blocks": pa.array(n_blocks, pa.int64()),
        "n_kept": pa.array(n_kept, pa.int64()),
    })
