"""Single-process oracle dumps: driver-checkable twins for non-SQL operators.

The driver's correctness gate runs each ``queries()`` entry side-by-side with
its ``oracle_sql()`` DuckDB twin (rows + schema + value-hash compare). For
operators whose semantics are not expressible in SQL — the stateful OCR
extraction chain, BPE's greedy data-dependent iteration, perceptual image
hashing, trigram language scoring — the twin instead SELECTs from a parquet
file that an INDEPENDENT single-process implementation writes when the query
is invoked: the same "one implementation, two harnesses" discipline the
pytest e2e gate already uses (oracle/document.py vs pipelines/extract.py),
surfaced to the driver as a rows+schema+hash gate instead of rows-only.

What the dump side deliberately does NOT use: Ray, actor pools, the
Ray Data span pipeline, the banded Hamming exchange, the
distributed BPE vocab iteration. A hash match therefore proves the
distributed orchestration did not change the answer computed by the plain
per-document/per-word reference loops.

``DPRAY_SKIP_ORACLE_DUMP=1`` (set by bench.py) skips dumping so benchmark
timings measure only the distributed pipeline. Dumps are memoized on a
fingerprint of their inputs (size+mtime), so repeated driver invocations at
the same sf are free.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

DUMP_DIR = "/tmp/dpray_oracle"


def dump_path(name: str) -> str:
    return os.path.join(DUMP_DIR, f"{name}.parquet")


def sql_for(name: str) -> str:
    """The DuckDB twin: read the expected table the dump wrote."""
    return f"SELECT * FROM read_parquet('{dump_path(name)}')"


def skip_dump() -> bool:
    return os.environ.get("DPRAY_SKIP_ORACLE_DUMP") == "1"


def file_fingerprint(*paths: str) -> str:
    """size+mtime_ns fingerprint over files (dirs use their newest file) —
    the cache key that invalidates a dump when its inputs are regenerated
    (same discipline the round-3 ADVICE asked of the WARC shard cache)."""
    parts: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            newest = 0
            total = 0
            for root, _, files in os.walk(p):
                for f in files:
                    st = os.stat(os.path.join(root, f))
                    newest = max(newest, st.st_mtime_ns)
                    total += st.st_size
            parts.append(f"{p}:dir:{total}:{newest}")
        elif os.path.exists(p):
            st = os.stat(p)
            parts.append(f"{p}:{st.st_size}:{st.st_mtime_ns}")
        else:
            parts.append(f"{p}:absent")
    return "|".join(parts)


def dump(name: str, fingerprint: str, build: Callable[[], pa.Table]) -> None:
    """Write the expected table for ``name`` unless the current dump already
    matches ``fingerprint``. Atomic (tmp + rename) so a concurrent DuckDB
    read never sees a torn file."""
    if skip_dump():
        return
    os.makedirs(DUMP_DIR, exist_ok=True)
    path = dump_path(name)
    fp_path = path + ".fp"
    if os.path.exists(path) and os.path.exists(fp_path):
        try:
            with open(fp_path) as f:
                if f.read() == fingerprint:
                    return
        except OSError:
            pass
    table = build()
    tmp = path + f".tmp{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    with open(fp_path, "w") as f:
        f.write(fingerprint)


# --- shared single-process extraction oracle (per corpus dir) ---

_EXTRACT_CACHE: Dict[Tuple[str, str], List[dict]] = {}


def extraction_oracle_rows(docs_dir: str, media_dir: str,
                           engine: Optional[str] = None) -> List[dict]:
    """Run oracle/document.process_document over every row of a corpus in a
    plain loop (one OcrKernel instance, no Ray). Memoized per (corpus dir,
    engine) so the extract_* dump family shares one OCR pass. ``engine``
    is an ocr_kernel registry name (None = the default kernel)."""
    import pyarrow.dataset as pads

    from ..corpus import MediaStore
    from ..ocr_kernel import OcrKernel
    from ..oracle.document import process_document

    key = (os.path.normpath(docs_dir), os.path.normpath(media_dir), engine)
    cached = _EXTRACT_CACHE.get(key)
    if cached is not None:
        return cached
    table = pads.dataset(docs_dir, partitioning="hive").to_table()
    store = MediaStore(media_dir)
    if engine is None:
        kernel = OcrKernel()
    else:
        from ..ocr_kernel import get_engine

        kernel = get_engine(engine)
    rows = [
        process_document(r["doc_id"], r["spans"], store.load, kernel=kernel,
                         load_blob=store.load_bytes, keep_words=True)
        for r in table.to_pylist()
    ]
    _EXTRACT_CACHE.clear()  # bound memory: one corpus at a time
    _EXTRACT_CACHE[key] = rows
    return rows


def extract_receipts_expected(docs_dir: str, media_dir: str) -> pa.Table:
    """Twin of __ray_entry__._run_extract's slim projection."""
    rows = extraction_oracle_rows(docs_dir, media_dir)
    return pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.string()),
        "status": pa.array([r["status"] for r in rows], pa.string()),
        "n_words": pa.array([r["n_words"] for r in rows], pa.int64()),
        "n_spans_out": pa.array([len(r["spans_out"]) for r in rows],
                                pa.int64()),
    })


def extract_mixed_expected(docs_dir: str, media_dir: str) -> pa.Table:
    """Twin of __ray_entry__._run_extract_mixed's slim projection (html/pdf
    span counts per doc)."""
    rows = extraction_oracle_rows(docs_dir, media_dir)

    def n_kind(r: dict, kind: str) -> int:
        return sum(1 for s in r["spans_out"] if s["kind"] == kind)

    return pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.string()),
        "status": pa.array([r["status"] for r in rows], pa.string()),
        "n_spans_out": pa.array([len(r["spans_out"]) for r in rows],
                                pa.int64()),
        "n_html_spans": pa.array([n_kind(r, "html") for r in rows],
                                 pa.int64()),
        "n_pdf_spans": pa.array([n_kind(r, "pdf") for r in rows], pa.int64()),
    })


def extract_scored_expected(docs_dir: str, media_dir: str,
                            model: str) -> pa.Table:
    """Twin of __ray_entry__._run_scored_extract's slim projection: the
    scorer model applied per doc to the oracle's accumulated words in a
    plain loop (no actor pool)."""
    from ..stages.scorer import get_scorer

    rows = extraction_oracle_rows(docs_dir, media_dir)
    scorer = get_scorer(model)
    vendor_vals: List[Optional[str]] = []
    n_items: List[int] = []
    for r in rows:
        ents = scorer.predict(r["words"]) if r["words"] else {}
        v = ents.get("vendor")
        vendor_vals.append(v["value"] if v else None)
        n_items.append(len(ents.get("items", [])))
    return pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.string()),
        "status": pa.array([r["status"] for r in rows], pa.string()),
        "n_words": pa.array([r["n_words"] for r in rows], pa.int64()),
        "model_vendor_value": pa.array(vendor_vals, pa.string()),
        "model_n_items": pa.array(n_items, pa.int64()),
    })


# --- text / tokenizer / image oracles over the sf tables ---

def _documents_table(sf_dir: str, columns: List[str]) -> pa.Table:
    return pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=columns)


def langid_expected(sf_dir: str) -> pa.Table:
    """Twin of q_langid: the trigram scorer run once, single-process, over
    the whole table (vs the distributed autoscaling actor pool)."""
    from ..functions.textstats import LangIdModel

    return LangIdModel()(_documents_table(sf_dir, ["doc_id", "text"]))


def bpe_merges_expected(sf_dir: str) -> pa.Table:
    """Twin of q_bpe_merges: learn_bpe_reference (single-machine Counter
    loop) vs the distributed vocab-level iteration."""
    from ..functions.bpe import learn_bpe_reference

    texts = _documents_table(sf_dir, ["text"])["text"].to_pylist()
    merges = learn_bpe_reference(texts, n_merges=12)
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64()),
    })


def bpe_encode_expected(sf_dir: str) -> pa.Table:
    """Twin of q_bpe_encode: encode with the REFERENCE-learned merges in one
    single-process pass — gates both the distributed merge learning (equal
    merge table) and the distributed encode."""
    from ..functions.bpe import BpeEncoder, learn_bpe_reference

    docs = _documents_table(sf_dir, ["doc_id", "text"])
    merges = learn_bpe_reference(docs["text"].to_pylist(), n_merges=12)
    return BpeEncoder(merges)(docs)


def winnow_fingerprint_expected(sf_dir: str) -> pa.Table:
    """Twin of q_winnow_fingerprint: the same per-doc winnowing function in
    one single-process pass (integer FNV/rolling-hash arithmetic —
    bit-deterministic)."""
    from ..functions.textstats import winnow_fingerprint_batch

    return winnow_fingerprint_batch(
        _documents_table(sf_dir, ["doc_id", "text"]))


def minhash_pairs_expected(sf_dir: str, num_perm: int = 64, bands: int = 16,
                           shingle_k: int = 3,
                           threshold: float = 0.5) -> pa.Table:
    """Twin of q_minhash_pairs: signatures via the same MinHasher in one
    plain call, then the banding replayed with a dict of band-key buckets
    (no Ray, no bucket folding) — a hash match proves the distributed
    band exchange finds exactly the single-process candidate set. The
    est_jaccard filter (mean of equal slots = k/num_perm) is exact in
    float64 on both sides."""
    from ..functions.dedup import MinHasher

    docs = _documents_table(sf_dir, ["doc_id", "text"])
    sig_t = MinHasher(num_perm=num_perm, shingle_k=shingle_k)(docs)
    ids = sig_t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    sigs = np.array(sig_t["sig"].to_pylist(), dtype=np.uint64)
    rows = num_perm // bands
    prime = np.uint64(0x100000001B3)
    buckets: Dict[int, List[int]] = {}
    for b in range(bands):
        acc = np.full(len(ids), np.uint64(1469598103934665603 + b),
                      dtype=np.uint64)
        chunk = sigs[:, b * rows:(b + 1) * rows]
        for j in range(rows):
            acc = (acc ^ chunk[:, j]) * prime
        for i, key in enumerate(acc.astype(np.int64)):
            buckets.setdefault(int(key), []).append(i)
    seen = set()
    a_out, b_out, est_out = [], [], []
    for members in buckets.values():
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                i, j = members[x], members[y]
                if ids[i] == ids[j]:
                    continue
                a, bb = sorted((int(ids[i]), int(ids[j])))
                if (a, bb) in seen:
                    continue
                seen.add((a, bb))
                est = float((sigs[i] == sigs[j]).mean())
                if est >= threshold:
                    a_out.append(a)
                    b_out.append(bb)
                    est_out.append(round(est, 6))
    return pa.table({
        "doc_a": pa.array(a_out, pa.int64()),
        "doc_b": pa.array(b_out, pa.int64()),
        "est_jaccard": pa.array(est_out, pa.float64()),
    })


def simhash_pairs_expected(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """Twin of q_simhash_pairs: signatures via the same simhash64_batch,
    then an ALL-PAIRS Hamming scan — for max_hamming=3 with 4x16 bands the
    banded exchange is GUARANTEED (pigeonhole) to equal all-pairs, so this
    is a genuinely independent check of the blocking."""
    from ..functions.dedup import simhash64_batch

    docs = _documents_table(sf_dir, ["doc_id", "text"])
    ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    hs = simhash64_batch(docs["text"].to_pylist())
    a_out, b_out, d_out = [], [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] == ids[j]:
                continue
            d = bin(hs[i] ^ hs[j]).count("1")
            if d <= max_hamming:
                a, bb = sorted((int(ids[i]), int(ids[j])))
                a_out.append(a)
                b_out.append(bb)
                d_out.append(d)
    return pa.table({
        "doc_a": pa.array(a_out, pa.int64()),
        "doc_b": pa.array(b_out, pa.int64()),
        "hamming": pa.array(d_out, pa.int64()),
    })


def embedding_neardup_lsh_expected(sf_dir: str, threshold: float = 0.4,
                                   n_planes: int = 16, n_bands: int = 4,
                                   seed: int = 9) -> pa.Table:
    """Twin of q_embedding_neardup_lsh: the seeded hyperplane banding
    replayed with dict buckets, candidates verified with the exact cosine
    (same normalize + matmul arithmetic)."""
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    emb = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    nrm = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(nrm == 0, 1, nrm)
    bits_per_band = n_planes // n_bands
    planes = np.random.default_rng(seed).normal(
        size=(n_planes, emb.shape[1]))
    signs = (emb @ planes.T) > 0
    weights = (1 << np.arange(bits_per_band)).astype(np.int64)
    buckets: Dict[int, List[int]] = {}
    for b in range(n_bands):
        chunk = signs[:, b * bits_per_band:(b + 1) * bits_per_band]
        keys = chunk @ weights + (b << bits_per_band)
        for i, key in enumerate(keys):
            buckets.setdefault(int(key), []).append(i)
    seen = set()
    a_out, b_out, s_out = [], [], []
    for members in buckets.values():
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                i, j = members[x], members[y]
                if ids[i] == ids[j]:
                    continue
                a, bb = sorted((int(ids[i]), int(ids[j])))
                if (a, bb) in seen:
                    continue
                seen.add((a, bb))
                sim = float(emb[i] @ emb[j])
                if sim >= threshold:
                    a_out.append(a)
                    b_out.append(bb)
                    s_out.append(int(np.rint(sim * 1000)))
    return pa.table({
        "vec_a": pa.array(a_out, pa.int64()),
        "vec_b": pa.array(b_out, pa.int64()),
        "sim_milli": pa.array(s_out, pa.int64()),
    })


def _media_table_for(sf: float) -> pa.Table:
    from ..stages.multimodal import synth_media_table

    return synth_media_table(n_assets=max(30, int(3000 * sf)), seed=5)


def media_stage_expected(sf: float, kind: str, stage_cls, post=None
                         ) -> pa.Table:
    """Twin of the multimodal feature queries: the SAME stage class called
    once, single-process, on the deterministic synth media table (all
    outputs are milli-quantized integers — bit-deterministic)."""
    t = _media_table_for(sf)
    t = t.filter(pa.compute.equal(t["kind"], kind))
    out = stage_cls()(t)
    return post(out) if post else out


def image_features_expected(sf: float) -> pa.Table:
    import hashlib as _hl

    from ..stages.multimodal import ImageFeatureStage

    def scalarize(b: pa.Table) -> pa.Table:
        fh = [_hl.blake2b(np.asarray(f, dtype=np.float64).tobytes(),
                          digest_size=8).hexdigest()
              for f in b["feat"].to_pylist()]
        return pa.table({
            "asset_id": b["asset_id"],
            "width": b["width"],
            "height": b["height"],
            "mean_luma_milli": b["mean_luma_milli"],
            "feat_hash": pa.array(fh, pa.string()),
        })

    return media_stage_expected(sf, "image", ImageFeatureStage, scalarize)


def compression_ratio_expected(sf_dir: str) -> pa.Table:
    """Twin of q_compression_ratio: the same per-doc zlib pass (stdlib
    deflate at a fixed level is deterministic)."""
    from ..functions.textstats import compression_ratio_batch

    return compression_ratio_batch(_documents_table(sf_dir, ["doc_id", "text"]))


def event_users_hll_expected(sf_dir: str, p: int = 12) -> pa.Table:
    """Twin of q_event_users_hll: the same HLL register math
    (sketches.hll_partial_rows/_estimate) in one single-process pass —
    registers are max-mergeable so any partitioning yields these exact
    estimates."""
    from ..functions.sketches import _estimate, hll_partial_rows

    t = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                      columns=["event_type", "user_id"])
    types = np.array(t["event_type"].to_pylist())
    users = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    slot, rho = hll_partial_rows(users, p)
    out_t, out_n = [], []
    for et in sorted(set(types)):
        m = types == et
        regs: Dict[int, int] = {}
        for s_, r_ in zip(slot[m], rho[m]):
            s_ = int(s_)
            if r_ > regs.get(s_, -1):
                regs[s_] = int(r_)
        out_t.append(et)
        out_n.append(_estimate(np.array(list(regs.values()), np.int64), p))
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "approx_distinct": pa.array(out_n, pa.int64()),
    })


def price_quantiles_approx_expected(sf_dir: str, sub_bits: int = 5
                                    ) -> pa.Table:
    """Twin of q_price_quantiles_approx: the same integer log-bin sketch
    (agg.log_bin/log_bin_lower) reduced single-process — cells are
    sum-mergeable so the selected bins are partition-independent."""
    from ..functions.agg import log_bin, log_bin_lower

    t = pq.read_table(os.path.join(sf_dir, "lineitem.parquet"),
                      columns=["l_returnflag", "l_extendedprice"])
    flags = np.array(t["l_returnflag"].to_pylist())
    cents = np.rint(
        t["l_extendedprice"].to_numpy(zero_copy_only=False)
        .astype(np.float64) * 100).astype(np.int64)
    bins = log_bin(cents, sub_bits)
    out = {"l_returnflag": [], "q50": [], "q90": [], "q99": [],
           "n_vals": []}
    for fl in sorted(set(flags)):
        m = flags == fl
        bv, cnt = np.unique(bins[m], return_counts=True)
        csum = np.cumsum(cnt)
        n = int(csum[-1])
        out["l_returnflag"].append(fl)
        for q, name in [(0.5, "q50"), (0.9, "q90"), (0.99, "q99")]:
            tgt = max(1, int(np.ceil(q * float(n))))
            idx = int(np.searchsorted(csum, tgt, side="left"))
            out[name].append(int(log_bin_lower(bv[idx:idx + 1],
                                               sub_bits)[0]))
        out["n_vals"].append(n)
    return pa.table({
        "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
        "q50": pa.array(out["q50"], pa.int64()),
        "q90": pa.array(out["q90"], pa.int64()),
        "q99": pa.array(out["q99"], pa.int64()),
        "n_vals": pa.array(out["n_vals"], pa.int64()),
    })


def kmeans_expected(sf_dir: str, k: int = 8, iters: int = 5) -> pa.Table:
    """Twin of q_kmeans: the identical integer fixed-point Lloyd loop in
    one plain numpy pass (functions/clustering.kmeans_int_reference), with
    the seed selection replayed from the same multiplicative-hash order the
    distributed sampler uses."""
    from ..functions.clustering import kmeans_int_reference

    vids, embs, seed_rows = _embedding_seed_rows(sf_dir, k)
    pairs = kmeans_int_reference(vids, embs, seed_rows, k=k, iters=iters)
    return pa.table({
        "vec_id": pa.array([p[0] for p in pairs], pa.int64()),
        "cluster": pa.array([p[1] for p in pairs], pa.int64()),
    })


def _embedding_seed_rows(sf_dir: str, k: int):
    """Replay the distributed hash-sampler's seed draw (similarity.
    _hash_sample_rows ordering contract) over the embeddings table."""
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    vids = t["vec_id"].to_pylist()
    embs = t["embedding"].to_pylist()
    n_seed = max(k, min(2048, 4 * k))
    total = max(1, len(vids))
    if total <= n_seed:
        thresh = 1 << 32
    else:
        thresh = int((1 << 32) * min(1.0, n_seed * 1.3 / total))
    hs = [((v * 2654435761) & 0xFFFFFFFF) for v in vids]
    cand = sorted(((h, v, e) for h, v, e in zip(hs, vids, embs)
                   if h < thresh))[:n_seed]
    return vids, embs, [{"embedding": e} for _, _, e in cand]


def semdedup_expected(sf_dir: str, k: int = 8, iters: int = 5,
                      tau_micro: int = 400_000) -> pa.Table:
    """Twin of q_semdedup: the identical Lloyd + ascending-vec_id greedy
    keep replayed in one plain numpy pass
    (functions/clustering.semdedup_reference)."""
    from ..functions.clustering import semdedup_reference

    vids, embs, seed_rows = _embedding_seed_rows(sf_dir, k)
    rows = semdedup_reference(vids, embs, seed_rows, k=k, iters=iters,
                              tau_micro=tau_micro)
    return pa.table({
        "vec_id": pa.array([r[0] for r in rows], pa.int64()),
        "cluster": pa.array([r[1] for r in rows], pa.int64()),
        "keep": pa.array([r[2] for r in rows], pa.int64()),
    })


def pca_project_expected(sf_dir: str, k: int = 4) -> pa.Table:
    """Twin of q_pca_project: the identical scatter/eigh/rounding in one
    plain numpy pass (functions/clustering.pca_project_reference)."""
    from ..functions.clustering import pca_project_reference

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    rows = pca_project_reference(t["vec_id"].to_pylist(),
                                 t["embedding"].to_pylist(), k=k)
    cols = {"vec_id": pa.array([r[0] for r in rows], pa.int64())}
    for j in range(k):
        cols[f"pc{j}"] = pa.array([r[1][j] for r in rows], pa.int64())
    return pa.table(cols)


def bigram_surprisal_expected(sf_dir: str) -> pa.Table:
    """Twin of q_bigram_surprisal: plain-dict bigram/context counts + the
    same quantized-log scoring in one loop
    (functions/textstats.bigram_surprisal_reference)."""
    from ..functions.textstats import bigram_surprisal_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    rows = bigram_surprisal_reference(t["doc_id"].to_pylist(),
                                      t["text"].to_pylist())
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_bigrams": pa.array([r[1] for r in rows], pa.int64()),
        "surprisal_micro": pa.array([r[2] for r in rows], pa.int64()),
        "mean_surprisal_micro": pa.array([r[3] for r in rows], pa.int64()),
    })


def dsir_logweight_expected(sf_dir: str) -> pa.Table:
    """Twin of q_dsir_logweight: plain-dict target/raw unigram LMs + the
    same quantized-log scoring loop
    (functions/textstats.dsir_logweight_reference); target = lang 'en'."""
    from ..functions.textstats import dsir_logweight_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    targets = [1 if v == "en" else 0 for v in t["lang"].to_pylist()]
    rows = dsir_logweight_reference(t["doc_id"].to_pylist(),
                                    t["text"].to_pylist(), targets)
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_tokens": pa.array([r[1] for r in rows], pa.int64()),
        "logw_micro": pa.array([r[2] for r in rows], pa.int64()),
    })


def image_phash_pairs_expected(media_table: pa.Table,
                               max_hamming: int = 3) -> pa.Table:
    """Twin of q_image_phash_pairs: aHash per image via a plain loop over
    the SAME codec/hash math, then an all-pairs O(n^2) Hamming scan — no
    actor pool, no banded exchange. The distinct-pair output matches
    functions.dedup.hamming_sig_pairs' (doc_a, doc_b, hamming) schema."""
    from ..stages.multimodal import ImageAHashStage

    stage = ImageAHashStage()
    imgs = media_table.filter(
        pa.compute.equal(media_table["kind"], "image"))
    sigs = stage(imgs)
    ids = sigs["doc_id"].to_pylist()
    hs = sigs["simhash"].to_pylist()
    seen = set()
    a_out, b_out, d_out = [], [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] == ids[j]:
                continue
            d = bin(hs[i] ^ hs[j]).count("1")
            if d <= max_hamming:
                a, b = sorted((ids[i], ids[j]))
                if (a, b) in seen:
                    continue
                seen.add((a, b))
                a_out.append(a)
                b_out.append(b)
                d_out.append(d)
    return pa.table({
        "doc_a": pa.array(a_out, pa.int64()),
        "doc_b": pa.array(b_out, pa.int64()),
        "hamming": pa.array(d_out, pa.int64()),
    })


def event_heavy_hitters_expected(sf_dir: str, k: int = 10, depth: int = 4,
                                 width: int = 4096) -> pa.Table:
    """Twin of q_event_heavy_hitters: the full Count-Min sketch built in one
    plain numpy pass (cells are sum-mergeable, so any partitioning of the
    distributed build lands on these exact cells), estimates for EVERY
    distinct user (candidates="all" is partition-independent by
    construction), top-k by (est desc, value asc)."""
    from ..functions.sketches import _cms_slots

    t = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                      columns=["user_id"])
    v = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    uniq, cnt = np.unique(v, return_counts=True)
    slots = _cms_slots(uniq, depth, width)  # (depth, u)
    cms = np.zeros(depth * width, np.int64)
    for d in range(depth):
        np.add.at(cms, d * width + slots[d], cnt)
    est = np.min(np.stack([cms[d * width + slots[d]]
                           for d in range(depth)]), axis=0)
    order = np.lexsort((uniq, -est))[:k]
    return pa.table({
        "user_id": pa.array(uniq[order], pa.int64()),
        "est_count": pa.array(est[order], pa.int64()),
    })


def knn_ivf_expected(sf_dir: str, n_queries: int = 4, k: int = 10,
                     n_lists: int = 16, nprobe: int = 4,
                     sample_size: int = 2048) -> pa.Table:
    """Twin of q_knn_ivf: the whole IVF path replayed in one plain numpy
    pass — the multiplicative-hash training sample, the (shared,
    driver-side in both harnesses) k-means fit, nearest-list assignment of
    every vector, per-query probe selection, and exact top-k over the
    probed lists' members. No Ray, no actor pool, no partitioned layout,
    no pruned read: a hash match proves the materialized index + pruned
    probe machinery answers exactly what the flat replay answers. All
    scores are quantized to 1e-6 before any argmax/ordering (the same
    quantization the distributed side applies), so block-layout GEMM
    noise cannot flip a comparison."""
    from ..functions.similarity import _kmeans_fit, _normalize

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = _normalize(np.array(t["embedding"].to_pylist(),
                              dtype=np.float64))

    # queries: vec_id < n_queries in vec_id order (similarity._query_matrix)
    qsel = np.flatnonzero(vids < n_queries)
    qsel = qsel[np.argsort(vids[qsel])]
    qids = vids[qsel]
    qm = mat[qsel]

    # training sample: multiplicative-hash filter, (hash, vec_id) order,
    # first sample_size (similarity._hash_sample_rows)
    total = max(1, len(vids))
    if total <= sample_size:
        thresh = np.uint64(1) << np.uint64(32)
    else:
        frac = min(1.0, sample_size * 1.3 / total)
        thresh = np.uint64(int((1 << 32) * frac))
    h = (vids.astype(np.uint64) * np.uint64(2654435761)) \
        & np.uint64(0xFFFFFFFF)
    mask = h < thresh
    msel = np.flatnonzero(mask)
    order = np.lexsort((vids[msel], h[msel].astype(np.int64)))
    sample = mat[msel[order][:sample_size]]

    cent = _kmeans_fit(sample, n_lists)
    assign = np.argmax(np.round(mat @ cent.T, 6), axis=1)
    probe_lists = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]

    out_q, out_v, out_r, out_s = [], [], [], []
    for qi in range(len(qids)):
        qid = int(qids[qi])
        cmask = np.isin(assign, probe_lists[qi]) & (vids != qid)
        v = vids[cmask]
        s = np.round(qm[qi] @ mat[cmask].T, 6)
        idx = np.lexsort((v, -s))[:k]
        out_q.extend([qid] * len(idx))
        out_v.extend(int(x) for x in v[idx])
        out_r.extend(range(1, len(idx) + 1))
        out_s.extend(float(x) for x in s[idx])
    return pa.table({
        "qid": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "sim": pa.array(out_s, pa.float64()),
    })


def interleaved_pack_expected(sf_dir: str) -> pa.Table:
    """Twin of q_interleaved_pack: explicit span-by-span pack simulation per
    doc (functions/interleave.interleaved_pack_reference)."""
    from ..functions.interleave import interleaved_pack_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    rows = interleaved_pack_reference(t["doc_id"].to_pylist(),
                                      t["text"].to_pylist())
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_seqs": pa.array([r[1] for r in rows], pa.int64()),
        "n_text_tokens": pa.array([r[2] for r in rows], pa.int64()),
        "n_images": pa.array([r[3] for r in rows], pa.int64()),
        "n_pad_tokens": pa.array([r[4] for r in rows], pa.int64()),
    })


def unigram_vocab_expected(sf_dir: str) -> pa.Table:
    """Twin of q_unigram_vocab: learn_unigram_reference (single-process
    corpus loop) vs the distributed quantized-EM learn."""
    from ..functions.unigram import learn_unigram_reference

    texts = _documents_table(sf_dir, ["text"])["text"].to_pylist()
    scored = learn_unigram_reference(texts)
    return pa.table({
        "piece": pa.array([p for p, _ in scored], pa.string()),
        "ilogp": pa.array([lp for _, lp in scored], pa.int64())})


def unigram_encode_expected(sf_dir: str) -> pa.Table:
    """Twin of q_unigram_encode: Viterbi encode with the REFERENCE-learned
    table in one single-process pass — gates both the learn and the
    distributed encode."""
    from ..functions.unigram import (learn_unigram_reference,
                                     unigram_encode_reference)

    docs = _documents_table(sf_dir, ["doc_id", "text"])
    scored = learn_unigram_reference(docs["text"].to_pylist())
    rows = unigram_encode_reference(docs["doc_id"].to_pylist(),
                                    docs["text"].to_pylist(), scored)
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_unigram_tokens": pa.array([r[1] for r in rows], pa.int64()),
        "n_words": pa.array([r[2] for r in rows], pa.int64()),
        "ilogp_sum": pa.array([r[3] for r in rows], pa.int64())})


def spans_md5(spans_out: List[dict]) -> str:
    """md5 over the ordered span texts — pins the exact EXTRACTED TEXT (the
    north-rule per-row invariant), not just counts."""
    import hashlib

    joined = "\x1f".join(s["text"] for s in spans_out)
    return hashlib.md5(joined.encode("utf-8")).hexdigest()


def extract_corrected_expected(docs_dir: str, media_dir: str) -> pa.Table:
    """Twin of __ray_entry__._run_extract_corrected: the single-process
    oracle under the kernel_lm engine (lexicon LM post-correction) over the
    NOISY corpus. spans_md5 pins corrected text span-for-span."""
    rows = extraction_oracle_rows(docs_dir, media_dir, engine="kernel_lm")
    return pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.string()),
        "status": pa.array([r["status"] for r in rows], pa.string()),
        "n_words": pa.array([r["n_words"] for r in rows], pa.int64()),
        "spans_md5": pa.array([spans_md5(r["spans_out"]) for r in rows],
                              pa.string()),
    })


def wordpiece_merges_expected(sf_dir: str) -> pa.Table:
    """Twin of q_wordpiece_merges: learn_wordpiece_reference (single-process
    Counter loop, exact-rational argmax) vs the distributed one-exchange-
    per-round iteration."""
    from ..functions.wordpiece import learn_wordpiece_reference

    texts = _documents_table(sf_dir, ["text"])["text"].to_pylist()
    merges = learn_wordpiece_reference(texts, n_merges=12)
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64()),
    })


def wordpiece_encode_expected(sf_dir: str) -> pa.Table:
    """Twin of q_wordpiece_encode: reference-learned merges + corpus
    alphabet + one plain greedy longest-prefix encode pass."""
    from ..functions.wordpiece import (corpus_alphabet_reference,
                                       learn_wordpiece_reference,
                                       wordpiece_encode_reference)

    docs = _documents_table(sf_dir, ["doc_id", "text"])
    texts = docs["text"].to_pylist()
    merges = learn_wordpiece_reference(texts, n_merges=12)
    rows = wordpiece_encode_reference(docs["doc_id"].to_pylist(), texts,
                                      merges,
                                      corpus_alphabet_reference(texts))
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_wp_tokens": pa.array([r[1] for r in rows], pa.int64()),
        "n_words": pa.array([r[2] for r in rows], pa.int64()),
        "n_unk": pa.array([r[3] for r in rows], pa.int64())})


def knn_pq_expected(sf_dir: str, n_queries: int = 4, k: int = 10,
                    m: int = 8, ksub: int = 16,
                    sample_size: int = 2048) -> pa.Table:
    """Twin of q_knn_pq: the PQ path replayed flat — hash-sample, the
    shared per-subspace _pq_fit, full-corpus pq_encode in ONE call, ADC
    scoring via the shared pq_adc_scores, exact top-k. No Ray, no actor
    pool, no materialized code table: a hash match proves the distributed
    encode + compressed-domain scan answers exactly what the flat replay
    answers. All quantization (1e-6 on distances, LUT entries and final
    scores) lives inside the shared pure kernels, so both harnesses use
    the identical arithmetic by construction."""
    from ..functions.similarity import (_normalize, _pq_fit, pq_adc_scores,
                                        pq_encode)

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = _normalize(np.array(t["embedding"].to_pylist(),
                              dtype=np.float64))

    qsel = np.flatnonzero(vids < n_queries)
    qsel = qsel[np.argsort(vids[qsel])]
    qids = vids[qsel]
    qm = mat[qsel]

    total = max(1, len(vids))
    if total <= sample_size:
        thresh = np.uint64(1) << np.uint64(32)
    else:
        frac = min(1.0, sample_size * 1.3 / total)
        thresh = np.uint64(int((1 << 32) * frac))
    h = (vids.astype(np.uint64) * np.uint64(2654435761)) \
        & np.uint64(0xFFFFFFFF)
    msel = np.flatnonzero(h < thresh)
    order = np.lexsort((vids[msel], h[msel].astype(np.int64)))
    sample = mat[msel[order][:sample_size]]

    books = _pq_fit(sample, m, ksub)
    codes = pq_encode(mat, books)

    out_q, out_v, out_r, out_s = [], [], [], []
    for qi in range(len(qids)):
        qid = int(qids[qi])
        s = pq_adc_scores(qm[qi], books, codes)
        mask = vids != qid
        v, sv = vids[mask], s[mask]
        idx = np.lexsort((v, -sv))[:k]
        out_q.extend([qid] * len(idx))
        out_v.extend(int(x) for x in v[idx])
        out_r.extend(range(1, len(idx) + 1))
        out_s.extend(float(x) for x in sv[idx])
    return pa.table({
        "qid": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "score": pa.array(out_s, pa.float64()),
    })


def trigram_backoff_expected(sf_dir: str) -> pa.Table:
    """Twin of q_trigram_backoff: dict-count trigram/bigram/unigram LMs fit
    on the lang='en' slice, one per-position scoring loop with the same
    stupid-backoff branch chain — no Ray, no bucketed exchanges."""
    from ..functions.textstats import trigram_backoff_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    trains = [1 if l == "en" else 0 for l in t["lang"].to_pylist()]
    rows = sorted(trigram_backoff_reference(ids, texts, trains))
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_scored": pa.array([r[1] for r in rows], pa.int64()),
        "surp_micro": pa.array([r[2] for r in rows], pa.int64()),
        "mean_surp_micro": pa.array([r[3] for r in rows], pa.int64()),
    })


def knn_ivfpq_expected(sf_dir: str, n_queries: int = 4, k: int = 10,
                       n_lists: int = 16, nprobe: int = 4, m: int = 8,
                       ksub: int = 16, sample_size: int = 2048) -> pa.Table:
    """Twin of q_knn_ivfpq: the full IVFADC path replayed flat — the
    multiplicative-hash sample, shared _kmeans_fit centroids, residual
    _pq_fit codebooks on the SAME sample residuals, whole-corpus
    assignment + residual pq_encode in one call, per-query probe
    selection, and score = round(q·c_list, 6) + pq_adc_scores over the
    probed members only. No Ray, no partitioned layout, no pruned read:
    a hash match proves the materialized compressed index + probed-file
    scan answers exactly what this flat replay answers. All argmax/argmin
    inputs are 1e-6-quantized inside the shared pure kernels, so batch
    layout cannot flip an assignment or an ordering."""
    from ..functions.similarity import (_kmeans_fit, _normalize, _pq_fit,
                                        pq_adc_scores, pq_encode)

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = _normalize(np.array(t["embedding"].to_pylist(),
                              dtype=np.float64))

    qsel = np.flatnonzero(vids < n_queries)
    qsel = qsel[np.argsort(vids[qsel])]
    qids = vids[qsel]
    qm = mat[qsel]

    total = max(1, len(vids))
    if total <= sample_size:
        thresh = np.uint64(1) << np.uint64(32)
    else:
        frac = min(1.0, sample_size * 1.3 / total)
        thresh = np.uint64(int((1 << 32) * frac))
    h = (vids.astype(np.uint64) * np.uint64(2654435761)) \
        & np.uint64(0xFFFFFFFF)
    msel = np.flatnonzero(h < thresh)
    order = np.lexsort((vids[msel], h[msel].astype(np.int64)))
    sample = mat[msel[order][:sample_size]]

    cent = _kmeans_fit(sample, n_lists)
    sassign = np.argmax(np.round(sample @ cent.T, 6), axis=1)
    books = _pq_fit(sample - cent[sassign], m, ksub)

    assign = np.argmax(np.round(mat @ cent.T, 6), axis=1)
    codes = pq_encode(mat - cent[assign], books)
    probe_lists = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]
    qdotc = np.round(qm @ cent.T, 6)

    out_q, out_v, out_r, out_s = [], [], [], []
    for qi in range(len(qids)):
        qid = int(qids[qi])
        cmask = np.isin(assign, probe_lists[qi]) & (vids != qid)
        if not cmask.any():
            continue
        adc = pq_adc_scores(qm[qi], books, codes[cmask])
        s = np.round(qdotc[qi][assign[cmask]] + adc, 6)
        v = vids[cmask]
        idx = np.lexsort((v, -s))[:k]
        out_q.extend([qid] * len(idx))
        out_v.extend(int(x) for x in v[idx])
        out_r.extend(range(1, len(idx) + 1))
        out_s.extend(float(x) for x in s[idx])
    return pa.table({
        "qid": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "score": pa.array(out_s, pa.float64()),
    })


def pack_bfd_expected(sf_dir: str, bin_size: int = 512,
                      part_size: int = 256) -> pa.Table:
    """Twin of q_pack_bfd: plain-Python best-fit-decreasing packing
    (window.bfd_pack_reference — list scan, no numpy) over items built
    with the same split rule (full-bin chunks dedicated, remainder pools
    unless exactly bin_size) and the same doc-range partitioning. The
    distributed side implements the argmin scan independently
    (vectorized residual search), so equality is a real two-implementation
    gate on the whole deterministic spec."""
    import re

    from ..functions.window import bfd_pack_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    by_part: dict = {}
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        s = re.sub(r"^\s+|\s+$", "", text or "")
        n = 0 if s == "" else len(re.split(r"\s+", s))
        if n == 0:
            continue
        k = -(-n // bin_size)
        for ci in range(k):
            ln = bin_size if ci < k - 1 else n - (k - 1) * bin_size
            by_part.setdefault(did // part_size, []).append(
                (did, ci, ln, ln == bin_size))
    out_p, out_b, out_s, out_d, out_c, out_l = [], [], [], [], [], []
    for part in sorted(by_part):
        for did, ci, ln, b, slot in bfd_pack_reference(by_part[part],
                                                       bin_size):
            out_p.append(part)
            out_b.append(b)
            out_s.append(slot)
            out_d.append(did)
            out_c.append(ci)
            out_l.append(ln)
    return pa.table({
        "part": pa.array(out_p, pa.int64()),
        "bin_idx": pa.array(out_b, pa.int64()),
        "slot": pa.array(out_s, pa.int64()),
        "doc_id": pa.array(out_d, pa.int64()),
        "chunk_idx": pa.array(out_c, pa.int64()),
        "item_len": pa.array(out_l, pa.int64()),
    })


def kn_trigram_expected(sf_dir: str) -> pa.Table:
    """Twin of q_kn_trigram: dict/set Kneser-Ney statistics fit on the
    lang='en' slice, one scoring loop per doc through the SHARED
    kn_surprisal_micro kernel — no Ray, no type-dedup exchange."""
    from ..functions.textstats import kn_trigram_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    trains = [1 if l == "en" else 0 for l in t["lang"].to_pylist()]
    rows = sorted(kn_trigram_reference(ids, texts, trains))
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_scored": pa.array([r[1] for r in rows], pa.int64()),
        "kn_surp_micro": pa.array([r[2] for r in rows], pa.int64()),
        "mean_kn_micro": pa.array([r[3] for r in rows], pa.int64()),
    })


def tokbin_roundtrip_expected(sf_dir: str, vocab: int = 32768) -> pa.Table:
    """Twin of q_tokbin_roundtrip: tokenize + hashed-vocab encode in one
    plain pass and compute the position-weighted checksum DIRECTLY — no
    binary format anywhere. A hash match proves the distributed
    .bin/.idx sink + source preserved every sequence's ids, order and
    doc mapping exactly."""
    import re

    from ..functions.textstats import _token_hashes

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    out_d, out_n, out_c = [], [], []
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        s = re.sub(r"^\s+|\s+$", "", (text or "").lower())
        toks = re.split(r"\s+", s) if s else []
        if toks:
            ids = (_token_hashes(np.asarray(toks, dtype=object))
                   % np.uint64(vocab)).astype(np.int64)
            pos = np.arange(1, len(ids) + 1, dtype=np.int64)
            chk = int((pos * (ids + 1)).sum())
        else:
            ids, chk = np.empty(0, np.int64), 0
        out_d.append(int(did))
        out_n.append(len(ids))
        out_c.append(chk)
    return pa.table({
        "doc_id": pa.array(out_d, pa.int64()),
        "n_tokens": pa.array(out_n, pa.int64()),
        "ids_checksum": pa.array(out_c, pa.int64()),
    })


def cdc_chunk_stats_expected(sf_dir: str) -> pa.Table:
    """Twin of q_cdc_chunk_stats: sequential per-byte Gear boundaries
    (the independent implementation) + dict first-wins dedup in
    ascending (doc_id, chunk_idx) order."""
    from ..functions.cdc import cdc_chunk_stats_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    rows = sorted(cdc_chunk_stats_reference(t["doc_id"].to_pylist(),
                                            t["text"].to_pylist()))
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_chunks": pa.array([r[1] for r in rows], pa.int64()),
        "n_dup_chunks": pa.array([r[2] for r in rows], pa.int64()),
        "dup_bytes": pa.array([r[3] for r in rows], pa.int64()),
    })


def trainready_shards_expected(sf_dir: str, bin_size: int = 512,
                               part_size: int = 256,
                               vocab: int = 32768) -> pa.Table:
    """Twin of q_trainready_shards: tokenize + hashed-vocab encode, the
    SAME item-split spec, the INDEPENDENT plain-Python BFD packer, bins
    assembled in slot order and padded, checksummed directly — no Ray,
    no exchanges, no binary shards."""
    import re

    from ..functions.textstats import _token_hashes
    from ..functions.window import bfd_pack_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids_of: dict = {}
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        s = re.sub(r"^\s+|\s+$", "", (text or "").lower())
        toks = re.split(r"\s+", s) if s else []
        ids_of[int(did)] = (
            (_token_hashes(np.asarray(toks, dtype=object))
             % np.uint64(vocab)).astype(np.int64).tolist()
            if toks else [])
    by_part: dict = {}
    for did, ids in ids_of.items():
        n = len(ids)
        if n == 0:
            continue
        k = -(-n // bin_size)
        for ci in range(k):
            ln = bin_size if ci < k - 1 else n - (k - 1) * bin_size
            by_part.setdefault(did // part_size, []).append(
                (did, ci, ln, ln == bin_size))
    out_key, out_n, out_c = [], [], []
    for part in sorted(by_part):
        bins: dict = {}
        for did, ci, ln, b, slot in bfd_pack_reference(by_part[part],
                                                       bin_size):
            bins.setdefault(b, []).append(
                (slot, ids_of[did][ci * bin_size:ci * bin_size + ln]))
        for b, items in bins.items():
            buf: list = []
            for _, chunk in sorted(items, key=lambda x: x[0]):
                buf.extend(chunk)
            buf.extend([0] * (bin_size - len(buf)))
            ids = np.asarray(buf, dtype=np.int64)
            pos = np.arange(1, len(ids) + 1, dtype=np.int64)
            out_key.append(part * (1 << 32) + b)
            out_n.append(len(ids))
            out_c.append(int((pos * (ids + 1)).sum()))
    return pa.table({
        "doc_id": pa.array(out_key, pa.int64()),
        "n_tokens": pa.array(out_n, pa.int64()),
        "ids_checksum": pa.array(out_c, pa.int64()),
    })


def source_divergence_expected(sf_dir: str) -> pa.Table:
    """Twin of q_source_divergence: dict unigram counts per source, one
    union-vocabulary pass through the shared js_contrib_micro kernel."""
    from ..functions.textstats import source_divergence_reference

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["text", "source"])
    rows = sorted(source_divergence_reference(t["text"].to_pylist(),
                                              t["source"].to_pylist()))
    return pa.table({
        "source_a": pa.array([r[0] for r in rows], pa.string()),
        "source_b": pa.array([r[1] for r in rows], pa.string()),
        "js_micro": pa.array([r[2] for r in rows], pa.int64()),
    })


def audio_fp_pairs_expected(media: pa.Table, min_shared: int = 5,
                            group_cap: int = 16) -> pa.Table:
    """Twin of q_audio_fp_pairs: single-process fingerprints through the
    shared audio_fingerprint kernel + dict hash->members matching with
    the SAME lexicographic per-hash cap — no Ray, no exchanges."""
    from ..stages.multimodal import RawCodec, audio_fingerprint

    codec = RawCodec()
    members: dict = {}
    for i in range(media.num_rows):
        if media["kind"][i].as_py() != "audio":
            continue
        aid = media["asset_id"][i].as_py()
        wav = np.asarray(codec.decode_audio(media["payload"][i].as_py(),
                                            media["meta"][i].as_py()),
                         dtype=np.float64)
        for h in audio_fingerprint(wav):
            members.setdefault(int(h), []).append(aid)
    counts: dict = {}
    for h, aids in members.items():
        aids = sorted(aids)[:group_cap]
        for x in range(len(aids)):
            for y in range(x + 1, len(aids)):
                k = (aids[x], aids[y])
                counts[k] = counts.get(k, 0) + 1
    rows = sorted((a, b, c) for (a, b), c in counts.items()
                  if c >= min_shared)
    return pa.table({
        "asset_a": pa.array([r[0] for r in rows], pa.string()),
        "asset_b": pa.array([r[1] for r in rows], pa.string()),
        "shared": pa.array([r[2] for r in rows], pa.int64()),
    })


def video_clip_pairs_expected(media: pa.Table, min_shared: int = 5,
                              group_cap: int = 16) -> pa.Table:
    """Twin of q_video_clip_pairs: single-process frame aHash landmarks
    through the shared video_frame_sigs kernel + dict matching with the
    identical per-hash lexicographic cap."""
    from ..stages.multimodal import RawCodec, video_frame_sigs

    codec = RawCodec()
    members: dict = {}
    for i in range(media.num_rows):
        if media["kind"][i].as_py() != "video":
            continue
        aid = media["asset_id"][i].as_py()
        frames = codec.decode_video_frames(media["payload"][i].as_py(),
                                           media["meta"][i].as_py(), 1)
        for h in video_frame_sigs(frames):
            members.setdefault(int(h), []).append(aid)
    counts: dict = {}
    for h, aids in members.items():
        aids = sorted(aids)[:group_cap]
        for x in range(len(aids)):
            for y in range(x + 1, len(aids)):
                k = (aids[x], aids[y])
                counts[k] = counts.get(k, 0) + 1
    rows = sorted((a, b, c) for (a, b), c in counts.items()
                  if c >= min_shared)
    return pa.table({
        "asset_a": pa.array([r[0] for r in rows], pa.string()),
        "asset_b": pa.array([r[1] for r in rows], pa.string()),
        "shared": pa.array([r[2] for r in rows], pa.int64()),
    })


def text_tiling_expected(sf_dir: str, w: int = 20,
                         step: int = 10) -> pa.Table:
    """Twin of q_text_tiling: plain per-doc loop through the shared
    tiling_boundaries kernel — no Ray."""
    import re

    from ..functions.textstats import _token_hashes, tiling_boundaries

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    out_d, out_n, out_t, out_c = [], [], [], []
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        s = re.sub(r"^\s+|\s+$", "", (text or "").lower())
        toks = re.split(r"\s+", s) if s else []
        th = _token_hashes(np.asarray(toks, dtype=object)) \
            .view(np.int64) if toks else np.empty(0, np.int64)
        bounds = tiling_boundaries(th, w, step)
        out_d.append(int(did))
        out_n.append(len(th))
        out_t.append(len(bounds) + 1)
        out_c.append(sum((k + 1) * (off + 1)
                         for k, off in enumerate(bounds)))
    return pa.table({
        "doc_id": pa.array(out_d, pa.int64()),
        "n_tokens": pa.array(out_n, pa.int64()),
        "n_tiles": pa.array(out_t, pa.int64()),
        "boundary_checksum": pa.array(out_c, pa.int64()),
    })


def codec_matrix_expected(n_assets: int, seed: int = 9) -> pa.Table:
    """Twin of q_codec_matrix. Lossless rows are CODEC-FREE: the expected
    digest comes straight from the SOURCE pixel arrays
    (codec_matrix_images), never touching a decoder — a hash match proves
    the distributed stage's real decoders reproduced their encoders'
    input bit-exactly. The two JPEG rows decode the BASELINE encoding
    here (single-process) while the distributed side decodes the payload
    it carries — progressive bytes for 'jpeg_prog' — so the hash gate
    pins the progressive and sequential scan machineries against each
    other on every asset."""
    from ..stages.multimodal import (
        _jpeg_decode, codec_matrix_images, encode_jpeg, pixel_digest)

    ids, ws, hs, lum, digs = [], [], [], [], []
    for aid, fmt, img in codec_matrix_images(n_assets, seed):
        if fmt in ("jpeg", "jpeg_prog"):
            img = _jpeg_decode(encode_jpeg(img, quant=2, subsample=True))
        ids.append(aid)
        hs.append(img.shape[0])
        ws.append(img.shape[1])
        lum.append(int(round(float(img.mean()) * 1000)))
        digs.append(pixel_digest(img))
    return pa.table({
        "asset_id": pa.array(ids, pa.string()),
        "width": pa.array(ws, pa.int64()),
        "height": pa.array(hs, pa.int64()),
        "mean_luma_milli": pa.array(lum, pa.int64()),
        "pix_digest": pa.array(digs, pa.string()),
    })


def substring_prune_expected(sf_dir: str, k: int = 40) -> pa.Table:
    """Twin of q_substring_prune: single-process dict replay — window-hash
    -> doc-set over every document, dup set = hashes in >= 2 docs, then the
    SAME _window_hashes + _excise kernels per doc. The distributed op's
    three bucketed exchanges are what the gate actually tests."""
    from ..functions.contamination import _excise, _window_hashes

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = [x or "" for x in t["text"].to_pylist()]
    hs, off = _window_hashes(texts, k)
    docs_per_hash: dict = {}
    for i, d in enumerate(ids):
        for h in np.unique(hs[off[i]:off[i + 1]]).tolist():
            s = docs_per_hash.setdefault(h, set())
            s.add(d)
    dup = {h for h, s in docs_per_hash.items() if len(s) >= 2}
    out_id, out_ns, out_nr, out_tx = [], [], [], []
    for i, d in enumerate(ids):
        seg = hs[off[i]:off[i + 1]]
        bs = texts[i].encode("utf-8")
        pos = np.array([j for j, h in enumerate(seg.tolist()) if h in dup],
                       dtype=np.int64)
        pruned, n_spans, n_removed = _excise(bs, pos, k)
        out_id.append(int(d))
        out_ns.append(n_spans)
        out_nr.append(n_removed)
        out_tx.append(pruned.decode("utf-8"))
    return pa.table({
        "doc_id": pa.array(out_id, pa.int64()),
        "n_spans": pa.array(out_ns, pa.int64()),
        "n_removed": pa.array(out_nr, pa.int64()),
        "pruned_text": pa.array(out_tx, pa.string()),
    })
