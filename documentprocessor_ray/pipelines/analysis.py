"""Query layer: every implemented operator bound to the driver testdata
tables, each with (where expressible) an exact DuckDB SQL twin.

Exactness discipline: any column that feeds the driver's value-hash compare
is an integer, string, or boolean — monetary values are integerized to cents
(``rint(x*100)``) BEFORE summing so distributed partial aggregation is exact
and associative (float sums are not), and ratio metrics are emitted as
numerator/denominator integer pairs instead of rounded floats (np.round is
half-even, DuckDB round is half-away — a real mismatch class). The only float
column kept is cosine ``sim`` rounded to 6 places where the 7th digit is
never exactly 5 for accumulated dot products.

Aggregation pattern (pricing_summary, top_customers): vectorized per-batch
partial aggregation with ``pyarrow.Table.group_by`` inside ``map_batches``,
then ONE small ``groupby().aggregate(Sum)`` shuffle over the partials — the
combiner pattern that keeps the all-to-all exchange proportional to
distinct-key count, not row count.

Registry: ``QUERIES`` is every ``q_<name>`` function of this module, under
``<name>``. Each needs its twin ``ORACLE_SQL["<name>"]`` (exact SQL, or the
SELECT of an oracle dump); ``check_registry`` fails the import otherwise.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

from ..functions import dedup as D
from ..functions import similarity as S
from ..functions import textstats as T

# ---------------------------------------------------------------- helpers

def _read(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


def _cents(x: np.ndarray) -> np.ndarray:
    return np.rint(np.asarray(x, dtype=np.float64) * 100).astype(np.int64)


# ---------------------------------------------------------------- text ops

def q_normalize_text(sf_dir: str) -> "ray.data.Dataset":
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.normalize_batch, batch_format="pyarrow")


def q_token_count(sf_dir: str) -> "ray.data.Dataset":
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.token_count_batch, batch_format="pyarrow")


def q_quality_stats(sf_dir: str) -> "ray.data.Dataset":
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.quality_stats_batch, batch_format="pyarrow")


def q_fingerprint(sf_dir: str) -> "ray.data.Dataset":
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.fingerprint_md5_batch, batch_format="pyarrow")


def q_langid(sf_dir: str) -> "ray.data.Dataset":
    # autoscaling pool (1, 4): small inputs use one actor without warning,
    # big inputs scale out. Driver twin: single-process scorer dump
    # (pipelines/oracle_dump.py) — gates that the distributed pool didn't
    # change any per-doc prediction.
    from . import oracle_dump as OD

    OD.dump("langid",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.langid_expected(sf_dir))
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.LangIdModel, batch_format="pyarrow", concurrency=(1, 4))


def q_winnow_fingerprint(sf_dir: str) -> "ray.data.Dataset":
    # driver twin: single-process dump of the same integer winnowing pass
    from . import oracle_dump as OD

    OD.dump("winnow_fingerprint",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.winnow_fingerprint_expected(sf_dir))
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.winnow_fingerprint_batch, batch_format="pyarrow")


def q_length_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Outlier trim: documents longer than the corpus-wide p99 length.
    The p99 comes from the exact distributed quantile (value-histogram
    merge, one tiny result row) and is applied as a broadcast filter —
    the quantile never forces a global sort and the filter is a pushed-down
    Arrow expression over a column-pruned read."""
    from ..functions.agg import grouped_quantile_disc

    qtab = grouped_quantile_disc(
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(lambda b: pa.table({
            "g": pa.array(np.zeros(b.num_rows, np.int64)),
            "n_chars": b["n_chars"]}), batch_format="pyarrow"),
        ["g"], "n_chars", [0.99], q_names=["p99"])
    p99 = int(qtab.to_pandas()["p99"].iloc[0])
    return _read(sf_dir, "documents", ["doc_id", "n_chars"]) \
        .filter(expr=f"n_chars > {p99}")


def q_incremental_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Incremental-ingest dedup: the md5-split 'incoming' docs that do NOT
    already exist (by exact content hash) in the 'existing' corpus
    partition — the daily-crawl-vs-index shape. Both sides stream; the
    membership test is the distributed string-keyed anti semi-join (one
    co-bucketed exchange on hash(text_hash), real-string equality
    in-bucket). Nothing — not even the existing index — is collected or
    broadcast."""
    import hashlib as _hl

    from ..functions.joins import semi_join

    def with_hash(which: str):
        def fn(b: pa.Table) -> pa.Table:
            hs = [_hl.md5((t or "").encode()).hexdigest()
                  for t in b["text"].to_pylist()]
            ids = b["doc_id"].to_pylist()
            inc = [_hl.md5(str(i).encode()).hexdigest()[0] in "0123"
                   for i in ids]
            mask = pa.array(inc if which == "incoming"
                            else [not x for x in inc])
            return pa.table({"doc_id": b["doc_id"],
                             "text_hash": pa.array(hs, pa.string())}) \
                .filter(mask)
        return fn

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    incoming = docs.map_batches(with_hash("incoming"), batch_format="pyarrow")
    existing = docs.map_batches(with_hash("existing"), batch_format="pyarrow") \
        .select_columns(["text_hash"])
    sch = pa.schema([("doc_id", pa.int64()), ("text_hash", pa.string())])
    return semi_join(incoming, existing, left_on="text_hash",
                     keep_on="text_hash", left_schema=sch, anti=True)


def q_bloom_prefilter(sf_dir: str) -> "ray.data.Dataset":
    """Bloom-prefiltered semi-join: orders whose customer is 'rich'
    (acctbal cents > 500000). The rich-key Bloom filter (128 KiB, small BY
    DESIGN) broadcasts once and drops definitely-absent orders inside the
    map — at crawl scale this cuts the semi-join exchange to ~the match
    rate — and the surviving candidates then pass the EXACT co-bucketed
    membership test, so false positives are removed and the result equals
    the plain semi-join (SQL-gated)."""
    from ..functions.joins import semi_join
    from ..functions.sketches import bloom_build, bloom_probe_mask

    def rich_keys(b: pa.Table) -> pa.Table:
        cents = _cents(b["c_acctbal"].to_numpy(zero_copy_only=False))
        return pa.table({"c_custkey": b["c_custkey"]}).filter(
            pa.array(cents > 500000))

    def rich_ds():
        return _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]) \
            .map_batches(rich_keys, batch_format="pyarrow")

    filt = bloom_build(rich_ds(), "c_custkey", m_bits=1 << 20, k=5)
    ref = ray.put(filt)

    def probe(b: pa.Table) -> pa.Table:
        f = ray.get(ref)  # zero-copy shared read
        keys = b["o_custkey"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return b.filter(pa.array(bloom_probe_mask(f, keys)))

    candidates = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]) \
        .map_batches(probe, batch_format="pyarrow")
    return semi_join(
        candidates, rich_ds(), left_on="o_custkey", keep_on="c_custkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]))


def q_line_flag_share(sf_dir: str) -> "ray.data.Dataset":
    """COMPOSITE-key distributed join: every lineitem row joined to its
    (orderkey, returnflag) group total — big side x derived aggregate on a
    two-column key. Bucketing hashes the key TUPLE; the in-bucket Acero
    join matches both real columns."""
    from ..functions.agg import bucketed_group_sum_multi
    from ..functions.joins import hash_join

    def left_prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "l_returnflag": b["l_returnflag"],
            "l_linenumber": b["l_linenumber"],
            "cents": pa.array(
                _cents(b["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "l_orderkey": b["l_orderkey"],
            "l_returnflag": b["l_returnflag"],
            "flag_cents": pa.array(
                _cents(b["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})
        g = t.group_by(["l_orderkey", "l_returnflag"]).aggregate(
            [("flag_cents", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "l_returnflag": g["l_returnflag"],
                         "flag_cents": pc.cast(g["flag_cents_sum"],
                                               pa.int64())})

    li = ["l_orderkey", "l_returnflag", "l_extendedprice"]
    totals = bucketed_group_sum_multi(
        _read(sf_dir, "lineitem", li).map_batches(
            partial, batch_format="pyarrow"),
        ["l_orderkey", "l_returnflag"], ["flag_cents"])
    return hash_join(
        _read(sf_dir, "lineitem", li + ["l_linenumber"]).map_batches(
            left_prep, batch_format="pyarrow"),
        totals, on=["l_orderkey", "l_returnflag"],
        left_schema=pa.schema([
            ("l_orderkey", pa.int64()), ("l_returnflag", pa.string()),
            ("l_linenumber", pa.int64()), ("cents", pa.int64())]),
        right_schema=pa.schema([
            ("l_orderkey", pa.int64()), ("l_returnflag", pa.string()),
            ("flag_cents", pa.int64())]))


def q_customer_nation(sf_dir: str) -> "ray.data.Dataset":
    """Broadcast dimension join as a first-class operator: every customer
    enriched with its nation name. The 25-row nation table is ray.put once
    and Acero-joined against each batch — zero shuffle (vs. hash_join's
    one exchange), the right plan whenever a side fits worker memory."""
    import pyarrow.parquet as pq

    from ..functions.joins import broadcast_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nation = pa.table({"c_nationkey": nation["n_nationkey"],
                       "n_name": nation["n_name"]})
    return broadcast_join(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        nation, on="c_nationkey")


def q_chunk_text(sf_dir: str) -> "ray.data.Dataset":
    """Sliding token-window chunking (64-token windows, stride 48): the
    RAG / context-prep step. Stateless map_batches — zero shuffle; the
    kernel iterates over chunk INDEX with whole-column Arrow slice+join
    ops (see textstats.chunk_text_batch)."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: T.chunk_text_batch(b, chunk_tokens=64, stride=48),
        batch_format="pyarrow")


def q_source_enrich(sf_dir: str) -> "ray.data.Dataset":
    """STRING-keyed distributed join: every document enriched with its
    source's total doc count (big side x derived aggregate side). The key
    is hashed only for co-bucketing (vectorized siphash); the in-bucket
    Acero join matches on the actual strings, so a hash collision can
    never mis-pair rows."""
    from ..functions.agg import bucketed_group_sum_multi
    from ..functions.joins import hash_join

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"source": b["source"],
                      "n_docs": pa.array(np.ones(b.num_rows, np.int64))})
        g = t.group_by("source").aggregate([("n_docs", "sum")])
        return pa.table({"source": g["source"],
                         "n_docs": pc.cast(g["n_docs_sum"], pa.int64())})

    counts = bucketed_group_sum_multi(
        _read(sf_dir, "documents", ["source"])
        .map_batches(partial, batch_format="pyarrow"),
        ["source"], ["n_docs"])
    return hash_join(
        _read(sf_dir, "documents", ["doc_id", "source"]), counts,
        on="source",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("source", pa.string())]),
        right_schema=pa.schema([("source", pa.string()),
                                ("n_docs", pa.int64())]))


def q_pack_sequences(sf_dir: str) -> "ray.data.Dataset":
    """GPT-style sequence packing over the documents table: token streams
    concatenated in doc_id order and cut into fixed 512-token bins; one row
    per (doc, bin) overlap with the doc-local token span. See
    window.pack_sequences for the range-partition + offset-broadcast plan."""
    from ..functions.window import pack_sequences

    counts = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.token_count_batch, batch_format="pyarrow")
    return pack_sequences(counts, n_col="n_tokens", order_col="doc_id",
                          bin_size=512)


def _dir_key(src: str, version: str = "v1") -> str:
    """Stable /tmp cache-dir key for a derived artifact of ``src``:
    md5(version:path:size:mtime_ns)[:12] — regenerating the source file
    invalidates the key (the WARC-cache staleness discipline)."""
    import hashlib as _hl

    st = os.stat(src)
    return _hl.md5(f"{version}:{os.path.normpath(src)}:{st.st_size}:"
                   f"{st.st_mtime_ns}".encode()).hexdigest()[:12]


def q_pack_bfd(sf_dir: str) -> "ray.data.Dataset":
    """Best-fit-decreasing DOC-ATOMIC packing (Ding et al. 2024, "Fewer
    Truncations Improve Language Modeling"): docs shorter than a bin are
    never split across training sequences; bins fill by best-fit over
    whole docs within doc-range partitions (window.pack_bfd — items are
    5 int64s, one groupby exchange, text never moves). Hash-gated against
    a plain-Python independent BFD replay (oracle_dump.pack_bfd_expected);
    the two sides share only the deterministic spec, not the packer."""
    from ..functions.window import pack_bfd
    from . import oracle_dump as OD

    src = os.path.join(sf_dir, "documents.parquet")
    OD.dump("pack_bfd", OD.file_fingerprint(src),
            lambda: OD.pack_bfd_expected(sf_dir))
    counts = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.token_count_batch, batch_format="pyarrow")
    return pack_bfd(counts, n_col="n_tokens", id_col="doc_id",
                    bin_size=512, part_size=256)


def q_pack_shuffled(sf_dir: str) -> "ray.data.Dataset":
    """Shuffle-then-pack (the actual LM training layout): docs ordered by a
    deterministic md5 shuffle key, concatenated and cut into 512-token
    bins. The shuffle key is hash-valued, so pack_sequences' linear range
    partition is perfectly balanced by construction; the real doc_id rides
    through as a carry column. (60-bit keys: a tie is ~2^-61 per pair —
    ordering is total at any test scale.)"""
    import hashlib as _hl

    from ..functions.window import pack_sequences

    counts = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.token_count_batch, batch_format="pyarrow")

    def add_key(b: pa.Table) -> pa.Table:
        sk = [int(_hl.md5(str(i).encode()).hexdigest()[:15], 16)
              for i in b["doc_id"].to_pylist()]
        return b.append_column("shuffle_key", pa.array(sk, pa.int64()))

    return pack_sequences(
        counts.map_batches(add_key, batch_format="pyarrow"),
        n_col="n_tokens", order_col="shuffle_key", bin_size=512,
        carry_cols=["doc_id"]).drop_columns(["shuffle_key"])


def q_source_lang_mode(sf_dir: str) -> "ray.data.Dataset":
    """Grouped mode / argmax-by-aggregate: the most frequent language per
    source (deterministic tie-break: smaller lang string). Stage 1 is the
    combiner-first multi-key sum (shuffle ∝ distinct (source,lang) pairs,
    never doc rows); stage 2 re-buckets the tiny count table on
    hash(source) and picks each group's argmax with one Arrow sort +
    first-of-segment mask — no per-group calls, nothing on the driver."""
    from ..functions.agg import bucketed_group_sum_multi
    from ..sharding import auto_buckets, bucket_of_strs

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"source": b["source"], "lang": b["lang"],
                      "n_docs": pa.array(np.ones(b.num_rows, np.int64))})
        g = t.group_by(["source", "lang"]).aggregate([("n_docs", "sum")])
        return pa.table({"source": g["source"], "lang": g["lang"],
                         "n_docs": pc.cast(g["n_docs_sum"], pa.int64())})

    counts = bucketed_group_sum_multi(
        _read(sf_dir, "documents", ["source", "lang"])
        .map_batches(partial, batch_format="pyarrow"),
        ["source", "lang"], ["n_docs"])

    nb = auto_buckets(None)

    def add_pkey(b: pa.Table) -> pa.Table:
        return b.append_column("pkey", pa.array(
            bucket_of_strs(b["source"].to_pylist(), nb), pa.int64()))

    def argmax_bucket(g: pa.Table) -> pa.Table:
        t = g.sort_by([("source", "ascending"), ("n_docs", "descending"),
                       ("lang", "ascending")])
        src = np.asarray(t["source"].to_pylist(), dtype=object)
        n = len(src)
        if n == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "top_lang": pa.array([], pa.string()),
                             "n_docs": pa.array([], pa.int64())})
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = src[1:] != src[:-1]
        t = t.filter(pa.array(first))
        return pa.table({"source": t["source"], "top_lang": t["lang"],
                         "n_docs": t["n_docs"]})

    return counts.map_batches(add_pkey, batch_format="pyarrow") \
        .groupby("pkey").map_groups(argmax_bucket, batch_format="pyarrow")


def q_bigram_rarity(sf_dir: str) -> "ray.data.Dataset":
    """Corpus-frequency bigram rarity per doc (LM-style quality signal):
    occurrence counts, summed corpus frequency, and rare-bigram count —
    all integers, no frequency table ever broadcast (see
    textstats.bigram_rarity for the two-shuffle plan)."""
    return T.bigram_rarity(
        _read(sf_dir, "documents", ["doc_id", "text"]), rare_max=2)


def q_bigram_surprisal(sf_dir: str) -> "ray.data.Dataset":
    """CCNet-style perplexity filter (Wenzek et al. 2020): per-doc
    surprisal under an add-one-smoothed bigram LM fit on the corpus
    itself — exact int64 micro-nat totals via quantize-once logs, one
    bucketed hash exchange, LM table never broadcast
    (textstats.bigram_surprisal). The corpus-global count dependence is
    not cleanly SQL (ln + half-even rounding), so the driver twin is an
    oracle DUMP of the plain-dict single-process replay."""
    from . import oracle_dump as OD

    OD.dump("bigram_surprisal",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.bigram_surprisal_expected(sf_dir))
    return T.bigram_surprisal(
        _read(sf_dir, "documents", ["doc_id", "text"]))


def q_trigram_backoff(sf_dir: str) -> "ray.data.Dataset":
    """Trigram stupid-backoff LM surprisal (Brants et al. 2007 LM inside
    the CCNet filter shape): a trigram model fit on the lang='en'
    reference slice scores EVERY doc, with real backoff branches for
    out-of-slice text (self-trained LMs never back off — every seen
    trigram has count >= 1). Two bucketed exchanges: occurrence rows pick
    up the unigram-fallback term at bucket(h(w)), then every remaining
    count lookup co-locates at bucket(h(middle word)) by construction
    (textstats.trigram_backoff). Corpus-global ln-of-count dependence ->
    oracle-DUMP twin of the plain-dict single-process replay."""
    from . import oracle_dump as OD

    OD.dump("trigram_backoff",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.trigram_backoff_expected(sf_dir))

    def tag(b: pa.Table) -> pa.Table:
        tr = pc.cast(pc.equal(b["lang"], "en"), pa.int64())
        return pa.table({"doc_id": b["doc_id"], "text": b["text"],
                         "is_train": tr})

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"]) \
        .map_batches(tag, batch_format="pyarrow")
    return T.trigram_backoff(ds)


def q_corpus_dolma(sf_dir: str) -> "ray.data.Dataset":
    """A Dolma-flavored cleaning composition (Soldaini et al. 2024 chain
    a taboo-word gate, dedup, and an LM-quality cut) built entirely from
    this round's gated operators: C4 banned-phrase gate (blocked = 0) ->
    CDC chunk-dedup majority-unique gate (2*n_dup_chunks <= n_chunks) ->
    Kneser-Ney perplexity tercile tail drop. Survivor doc_ids; each stage
    is the exact operator its standalone query gates, and the twin
    composes the blocklist SQL + the two dump tables with the identical
    quantile_disc cut, so the full pipeline hash-gates as one unit."""
    from ..functions.agg import grouped_quantile_disc
    from ..functions.joins import semi_join

    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()
    bl = T.blocklist_scan(_read(sf_dir, "documents", ["doc_id", "text"]),
                          _BLOCKLIST) \
        .filter(expr="blocked == 0").select_columns(["doc_id"])
    q_schema = pa.schema([("doc_id", pa.int64())])

    def rename_cdc(b: pa.Table) -> pa.Table:
        keep = 2 * b["n_dup_chunks"].to_numpy(zero_copy_only=False) <= \
            b["n_chunks"].to_numpy(zero_copy_only=False)
        return pa.table({"cdc_id": pc.cast(b["doc_id"], pa.int64())}) \
            .filter(pa.array(keep))

    cdc_keep = q_cdc_chunk_stats(sf_dir) \
        .map_batches(rename_cdc, batch_format="pyarrow")
    surv = semi_join(bl, cdc_keep, left_on="doc_id", keep_on="cdc_id",
                     size_hint=n_docs, left_schema=q_schema)

    kn = _session_memo("kn_trigram", sf_dir,
                       lambda: q_kn_trigram(sf_dir).materialize())

    def const_key(b: pa.Table) -> pa.Table:
        return b.append_column(
            "g", pa.array(np.zeros(b.num_rows, np.int64), pa.int64()))

    qt = grouped_quantile_disc(
        kn.map_batches(const_key, batch_format="pyarrow"),
        ["g"], "mean_kn_micro", [2.0 / 3], ["q2"]).take_all()
    t2 = int(qt[0]["q2"])

    def rename_kn(b: pa.Table) -> pa.Table:
        keep = b["mean_kn_micro"].to_numpy(zero_copy_only=False) <= t2
        return pa.table({"kn_id": pc.cast(b["doc_id"], pa.int64())}) \
            .filter(pa.array(keep))

    kn_keep = kn.map_batches(rename_kn, batch_format="pyarrow")
    return semi_join(surv, kn_keep, left_on="doc_id", keep_on="kn_id",
                     size_hint=n_docs, left_schema=q_schema)


def q_cdc_chunk_stats(sf_dir: str) -> "ray.data.Dataset":
    """Content-defined chunking (Gear/FastCDC shape, windowless 64-byte
    rolling hash) + cross-doc chunk-level first-wins dedup rollup
    (functions/cdc.py): per-doc chunking is local, then two ~32 B/row
    exchanges (hash hop -> winner pick, doc hop -> rollup); chunk text
    never moves. Gated against the INDEPENDENT sequential per-byte Gear
    loop + dict dedup replay (oracle_dump.cdc_chunk_stats_expected) —
    the vectorized 64-shifted-adds hash stream vs the textbook loop."""
    from . import oracle_dump as OD
    from ..functions.cdc import cdc_chunk_stats

    OD.dump("cdc_chunk_stats",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.cdc_chunk_stats_expected(sf_dir))
    return cdc_chunk_stats(_read(sf_dir, "documents", ["doc_id", "text"]))


_BLOCKLIST = ["slow", "batch batch", "the customer", "vector join"]


def q_blocklist_filter(sf_dir: str) -> "ray.data.Dataset":
    """C4-style banned-phrase page gate (Raffel et al. 2020 §2.2's 'bad
    words' filter shape): token-boundary phrase matching over
    whitespace-normalized lowered text, zero shuffles
    (textstats.blocklist_scan). Exact SQL twin — the identical
    normalize + ' phrase ' LIKE chain."""
    return T.blocklist_scan(
        _read(sf_dir, "documents", ["doc_id", "text"]), _BLOCKLIST)


def _hashed_ids_batch(b: pa.Table) -> pa.Table:
    split, empty = T._tokens_list(
        pc.utf8_lower(b["text"].combine_chunks()))
    lens = pc.list_value_length(split) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    emp = empty.to_numpy(zero_copy_only=False)
    lens = np.where(emp, 0, lens)
    flat_all = split.flatten().to_numpy(zero_copy_only=False)
    # drop the [''] artifact rows RE2 split leaves for empty text
    keep = np.repeat(~emp, np.where(emp, 1, lens)
                     if len(emp) else lens)
    flat = flat_all[keep] if len(flat_all) else flat_all
    ids = (T._token_hashes(np.asarray(flat, dtype=object))
           % np.uint64(32768)).astype(np.int32) \
        if len(flat) else np.empty(0, np.int32)
    off = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    col = pa.ListArray.from_arrays(
        pa.array(off, pa.int64()).cast(pa.int32()),
        pa.array(ids, pa.int32()))
    return pa.table({"doc_id": b["doc_id"], "tokens": col})


def q_tokbin_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """Indexed binary token-shard sink + source round trip (the
    Megatron-style .bin/.idx layout LM trainers mmap — sources/tokbin.py):
    documents tokenized and hashed-vocab encoded to list<int32> ids,
    written as 8 deterministic shards (ONE groupby exchange, one task per
    shard, driver never sees token bytes), read back one task per shard,
    and reduced to a per-doc position-weighted checksum. The oracle-DUMP
    twin computes the checksum directly with no binary format, so the
    hash gate proves the sink+source preserved ids, order and doc
    mapping exactly."""
    from ..sources.tokbin import read_token_shards, write_token_shards
    from . import oracle_dump as OD

    src = os.path.join(sf_dir, "documents.parquet")
    OD.dump("tokbin_roundtrip", OD.file_fingerprint(src),
            lambda: OD.tokbin_roundtrip_expected(sf_dir))

    encode = _hashed_ids_batch

    # shard count + encoding params live in the cache key (r4 ADVICE):
    # changing num_shards or the hashed vocab must miss, not glob stale
    # shard-*.idx files back in
    shard_dir = os.path.join("/tmp/dpray_tokbin",
                             _dir_key(src, version="s8-hv32768-v1"))
    os.makedirs(shard_dir, exist_ok=True)
    manifest = write_token_shards(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(encode, batch_format="pyarrow"),
        shard_dir, num_shards=8)
    manifest.materialize()  # consuming the manifest IS the write

    def checksum(b: pa.Table) -> pa.Table:
        col = b["tokens"].combine_chunks()
        lens = pc.list_value_length(col) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(col) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.cumsum(lens) - lens
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, lens)
        run = np.concatenate(([0], np.cumsum((pos + 1) * (flat + 1))))
        chk = run[starts + lens] - run[starts]  # 0 for empty docs
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": pa.array(lens, pa.int64()),
            "ids_checksum": pa.array(chk, pa.int64())})

    return read_token_shards(shard_dir) \
        .map_batches(checksum, batch_format="pyarrow")


def _ray_session_key() -> Any:
    try:
        if ray.is_initialized():
            return ray.get_runtime_context().get_job_id()
    except Exception:
        pass
    return None


_SESSION_MEMO: Dict[Any, Any] = {}


def _session_memo(kind: str, sf_dir: str, build: Callable[[], Any],
                  fresh: bool = False) -> Any:
    """The artifact several queries share — the 3-gram pair Dataset, the
    learned BPE / unigram / WordPiece tables, the LM score Datasets —
    built by `build()` once per (kind, corpus, Ray session). Keyed on the
    job id because materialized blocks die with the session. The query
    that BUILDS an artifact passes fresh=True, so it pays the build on
    every call while its consumers reuse the entry. Storing an entry drops
    the kind's older entries and every other session's, so the object
    store pins at most one corpus per kind."""
    key = (kind, os.path.abspath(sf_dir), _ray_session_key())
    if fresh or key not in _SESSION_MEMO:
        for k in [k for k in _SESSION_MEMO if k[0] == kind or k[2] != key[2]]:
            del _SESSION_MEMO[k]
        _SESSION_MEMO[key] = build()
    return _SESSION_MEMO[key]


def q_trainready_shards(sf_dir: str) -> "ray.data.Dataset":
    """The complete corpus -> training-batches-on-disk path as ONE gated
    unit: hashed-vocab token ids -> best-fit-decreasing doc-atomic
    packing (pack_bfd assignments) -> bins MATERIALIZED (each bin gathers
    its items' token slices in slot order, padded to 512 — token ids
    move once through two narrow exchanges, window.assemble_packed_bins)
    -> written as Megatron-style .bin/.idx shards -> read back -> per-bin
    position-weighted checksum. The twin replays tokenize/split/
    independent-BFD/assemble/checksum with no Ray and no binary format,
    so the hash gate covers packing, materialization AND the shard
    round trip end-to-end."""
    from ..functions.window import assemble_packed_bins, pack_bfd
    from ..sources.tokbin import read_token_shards, write_token_shards
    from . import oracle_dump as OD

    src = os.path.join(sf_dir, "documents.parquet")
    OD.dump("trainready_shards", OD.file_fingerprint(src),
            lambda: OD.trainready_shards_expected(sf_dir))

    ids = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(_hashed_ids_batch, batch_format="pyarrow") \
        .materialize()  # consumed twice (counts + assembly); narrow rows

    def counts(b: pa.Table) -> pa.Table:
        n = pc.cast(pc.list_value_length(b["tokens"]), pa.int64())
        return pa.table({"doc_id": b["doc_id"], "n_tokens": n})

    assign = pack_bfd(ids.map_batches(counts, batch_format="pyarrow"),
                      bin_size=512, part_size=256)
    bins = assemble_packed_bins(ids, assign, bin_size=512)

    def to_sink(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(b["bin_key"], pa.int64()),
                         "tokens": b["tokens"]})

    shard_dir = os.path.join(
        "/tmp/dpray_trainready",
        _dir_key(src, version="s8-b512-p256-hv32768-v1"))
    os.makedirs(shard_dir, exist_ok=True)
    write_token_shards(bins.map_batches(to_sink, batch_format="pyarrow"),
                       shard_dir, num_shards=8).materialize()

    def checksum(b: pa.Table) -> pa.Table:
        col = b["tokens"].combine_chunks()
        lens = pc.list_value_length(col) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(col) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.cumsum(lens) - lens
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(starts,
                                                               lens)
        run = np.concatenate(([0], np.cumsum((pos + 1) * (flat + 1))))
        chk = run[starts + lens] - run[starts]
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": pa.array(lens, pa.int64()),
            "ids_checksum": pa.array(chk, pa.int64())})

    return read_token_shards(shard_dir) \
        .map_batches(checksum, batch_format="pyarrow")


def q_audio_fp_pairs(sf_dir: str) -> "ray.data.Dataset":
    """Near-duplicate audio detection by constellation fingerprints (the
    Shazam landmark shape, Wang 2003): REAL PCM-WAV decode + per-frame
    dominant-bin landmarks on the actor pool, one bucket(fh) exchange
    emitting capped co-occurrence pairs, bucketed pair-count sum,
    shared >= 5 gate (stages/multimodal.audio_fingerprint_pairs). The
    corpus plants near-duplicates with DIFFERENT bytes (0.8x amplitude +
    noise) so only the landmark path can pair them — payload equality
    cannot. Oracle-DUMP twin: single-process fingerprints through the
    shared kernel + dict matching with the identical per-hash cap."""
    from ..stages.multimodal import (audio_fingerprint_pairs,
                                     synth_audio_neardup_table)
    from . import oracle_dump as OD

    n = max(30, int(3000 * _sf_of_dir(sf_dir)))
    media = synth_audio_neardup_table(n_assets=n, seed=7)
    OD.dump("audio_fp_pairs", f"afp:v2:n{n}:seed7",
            lambda: OD.audio_fp_pairs_expected(media))
    return audio_fingerprint_pairs(ray.data.from_arrow(media))


def q_mixture_quota(sf_dir: str) -> "ray.data.Dataset":
    """Largest-remainder apportionment of a 10,000-doc sampling budget
    across sources (the exact integer PLAN that complements
    domain_mixture's temperature weights): quota_s = floor(B*n_s/N) plus
    one extra for the largest remainders (ties -> source asc) until the
    budget is exact. Counts come from one combiner-first groupby; the
    apportionment itself is K tiny driver rows — a plan, not data.
    Exact SQL twin via the same integer div/mod + row_number."""
    B = 10000
    counts = _read(sf_dir, "documents", ["source"]) \
        .groupby("source").count().take_all()
    rows = sorted((r["source"], int(r["count()"])) for r in counts)
    tot = sum(n for _, n in rows)
    base = [(s_, n, (B * n) // tot, (B * n) % tot) for s_, n in rows]
    leftover = B - sum(b for _, _, b, _ in base)
    order = sorted(range(len(base)),
                   key=lambda i: (-base[i][3], base[i][0]))
    bonus = set(order[:leftover])
    out = pa.table({
        "source": pa.array([b[0] for b in base], pa.string()),
        "n": pa.array([b[1] for b in base], pa.int64()),
        "quota": pa.array(
            [b[2] + (1 if i in bonus else 0)
             for i, b in enumerate(base)], pa.int64())})
    return ray.data.from_arrow(out)


def q_spatial_knn(sf_dir: str) -> "ray.data.Dataset":
    """Radius-bounded spatial k-nearest-neighbors: the grid join's pair
    stream (both directions) reduced to each point's 5 nearest within
    the radius, ties broken by neighbor id — a per-key top-k over the
    cell exchange, no all-pairs anywhere. Exact SQL twin: row_number
    over the same integer distances."""
    from ..functions.spatial import spatial_join

    def to_points(b: pa.Table) -> pa.Table:
        col = b["embedding"].combine_chunks()
        n = len(col)
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mat = flat.reshape(n, -1)
        return pa.table({
            "vec_id": pc.cast(b["vec_id"], pa.int64()),
            "x": pa.array(np.floor(1e6 * mat[:, 0] + 0.5)
                          .astype(np.int64), pa.int64()),
            "y": pa.array(np.floor(1e6 * mat[:, 1] + 0.5)
                          .astype(np.int64), pa.int64())})

    pts = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .map_batches(to_points, batch_format="pyarrow")
    pairs = spatial_join(pts, radius=50000)

    def both_dirs(b: pa.Table) -> pa.Table:
        a = b["id_a"].to_numpy(zero_copy_only=False)
        c = b["id_b"].to_numpy(zero_copy_only=False)
        d = b["d2"].to_numpy(zero_copy_only=False)
        return pa.table({
            "pid": pa.array(np.concatenate([a, c]), pa.int64()),
            "nid": pa.array(np.concatenate([c, a]), pa.int64()),
            "d2": pa.array(np.concatenate([d, d]), pa.int64())})

    def topk(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        pid = g["pid"].to_numpy(zero_copy_only=False)
        nid = g["nid"].to_numpy(zero_copy_only=False)
        d2 = g["d2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nid, d2, pid))
        pid, nid, d2 = pid[order], nid[order], d2[order]
        starts = np.flatnonzero(np.r_[True, pid[1:] != pid[:-1]])
        within = np.arange(len(pid)) - np.repeat(
            starts, np.diff(np.r_[starts, len(pid)]))
        keep = within < 5
        return pa.table({
            "pid": pa.array(pid[keep], pa.int64()),
            "nid": pa.array(nid[keep], pa.int64()),
            "rank": pa.array(within[keep] + 1, pa.int64()),
            "d2": pa.array(d2[keep], pa.int64())})

    return pairs.map_batches(both_dirs, batch_format="pyarrow") \
        .groupby("pid").map_groups(topk, batch_format="pyarrow")


def q_match_pattern(sf_dir: str) -> "ray.data.Dataset":
    """SQL:2016 MATCH_RECOGNIZE shape for a literal contiguous pattern:
    every view -> click -> purchase run inside a user's
    (ts, event_id)-ordered stream (functions/temporal.match_pattern —
    one user shuffle, shifted vector compares, no per-user loop). Exact
    SQL twin: a lead()-chain over the same window."""
    from ..functions.temporal import match_pattern

    return match_pattern(
        _read(sf_dir, "events",
              ["user_id", "ts", "event_id", "event_type"]),
        ["view", "click", "purchase"])


def q_spatial_join(sf_dir: str) -> "ray.data.Dataset":
    """Grid-partitioned spatial distance join (the SpatialHadoop/SJMP
    cell-blocking shape, functions/spatial.py): embedding dims 1-2
    quantized to int64 coordinates (floor(1e6*x + 0.5), the knn_int8
    convention DuckDB replays exactly), 3x3 cell replication, one cell
    exchange, exact-once ownership (home cell of the smaller id). All
    distance math is int64, so the twin is an EXACT SQL self-join."""
    from ..functions.spatial import spatial_join

    def to_points(b: pa.Table) -> pa.Table:
        col = b["embedding"].combine_chunks()
        n = len(col)
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mat = flat.reshape(n, -1)
        return pa.table({
            "vec_id": pc.cast(b["vec_id"], pa.int64()),
            "x": pa.array(np.floor(1e6 * mat[:, 0] + 0.5)
                          .astype(np.int64), pa.int64()),
            "y": pa.array(np.floor(1e6 * mat[:, 1] + 0.5)
                          .astype(np.int64), pa.int64())})

    pts = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .map_batches(to_points, batch_format="pyarrow")
    return spatial_join(pts, radius=50000)


def q_text_tiling(sf_dir: str) -> "ray.data.Dataset":
    """TextTiling topic segmentation (Hearst 1997): block-comparison
    lexical cohesion valleys become tile boundaries — the RAG chunker
    that cuts at subject shifts instead of fixed windows (chunk_text).
    Zero shuffles; every score/depth/threshold comparison happens on
    int64-quantized values (textstats.tiling_boundaries), so the
    order-sensitive boundary checksum hash-gates every cut position.
    Oracle-DUMP twin: per-doc loop through the shared kernel."""
    from . import oracle_dump as OD

    OD.dump("text_tiling",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.text_tiling_expected(sf_dir))
    return T.text_tiling(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_video_clip_pairs(sf_dir: str) -> "ray.data.Dataset":
    """Video clip-containment detection: per-frame aHash landmark sets
    (real raw-rgb24 decode on the actor pool) through the SAME generic
    shared-hash matcher as audio constellations
    (stages/multimodal.video_clip_pairs). The corpus plants byte-identical
    frame sub-ranges under new asset ids (a cut/trim), which payload
    equality cannot pair but frame-level landmarks must. Oracle-DUMP
    twin: single-process landmarks + dict matching, identical cap."""
    from ..stages.multimodal import synth_video_clip_table, video_clip_pairs
    from . import oracle_dump as OD

    n = max(30, int(3000 * _sf_of_dir(sf_dir)))
    media = synth_video_clip_table(n_assets=n, seed=9)
    OD.dump("video_clip_pairs", f"vcp:v1:n{n}:seed9",
            lambda: OD.video_clip_pairs_expected(media))
    return video_clip_pairs(ray.data.from_arrow(media))


def q_source_divergence(sf_dir: str) -> "ray.data.Dataset":
    """Pairwise Jensen-Shannon divergence between per-source unigram
    distributions — the corpus-drift monitor (textstats.source_divergence):
    per-source totals are K driver scalars, (source, word) counts exchange
    ONCE on bucket(h(word)), each bucket computes all pairs' contributions
    vectorized through the shared js_contrib_micro kernel (quantize-once
    micro-nats, so summation order is irrelevant). Oracle-DUMP twin: dict
    replay through the same kernel."""
    from . import oracle_dump as OD

    OD.dump("source_divergence",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.source_divergence_expected(sf_dir))
    return T.source_divergence(
        _read(sf_dir, "documents", ["doc_id", "text", "source"]))


def q_kn_trigram(sf_dir: str) -> "ray.data.Dataset":
    """Interpolated Kneser-Ney trigram surprisal (Kneser & Ney 1995; Chen
    & Goodman 1999 — the smoothing KenLM implements and CCNet's filter
    actually uses), fit on the lang='en' slice, scoring every doc. KN's
    lower orders use CONTINUATION counts (distinct-type statistics, not
    sum-mergeable), so the scale shape adds a type-dedup exchange in
    front of the resolve/score hops (textstats.kn_trigram); the
    distinct-bigram-type total N1+(..) is one driver scalar off the
    materialized vocab-bounded cell table. Oracle-DUMP twin: dict/set
    replay sharing only the hash + kn_surprisal_micro kernels."""
    from . import oracle_dump as OD

    OD.dump("kn_trigram",
            "v2|" +  # v2: t_uv > 0 guard on the trigram level (log-0 fix)
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.kn_trigram_expected(sf_dir))

    def tag(b: pa.Table) -> pa.Table:
        tr = pc.cast(pc.equal(b["lang"], "en"), pa.int64())
        return pa.table({"doc_id": b["doc_id"], "text": b["text"],
                         "is_train": tr})

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"]) \
        .map_batches(tag, batch_format="pyarrow")
    return T.kn_trigram(ds)


def q_ppl_buckets(sf_dir: str) -> "ray.data.Dataset":
    """CCNet's head/middle/tail perplexity bucketing (Wenzek et al. 2020
    §4.3) composed on the trigram stupid-backoff scores: global terciles
    of mean surprisal via the exact distributed quantile histogram
    (DuckDB quantile_disc index semantics bit-for-bit), then a zero-shuffle
    tag pass. The twin SELECTs the trigram dump and applies the identical
    quantile_disc + CASE, so the whole composition is hash-gated."""
    from ..functions.agg import grouped_quantile_disc

    scored = _session_memo("trigram_backoff", sf_dir,
                           lambda: q_trigram_backoff(sf_dir).materialize())

    def const_key(b: pa.Table) -> pa.Table:
        return b.append_column(
            "g", pa.array(np.zeros(b.num_rows, np.int64), pa.int64()))

    qt = grouped_quantile_disc(
        scored.map_batches(const_key, batch_format="pyarrow"),
        ["g"], "mean_surp_micro", [1.0 / 3, 2.0 / 3],
        ["q1", "q2"]).take_all()
    t1 = int(qt[0]["q1"])
    t2 = int(qt[0]["q2"])

    def tag(b: pa.Table) -> pa.Table:
        v = b["mean_surp_micro"].to_numpy(zero_copy_only=False)
        lab = np.where(v <= t1, "head",
                       np.where(v <= t2, "middle", "tail"))
        return pa.table({
            "doc_id": b["doc_id"],
            "mean_surp_micro": b["mean_surp_micro"],
            "bucket": pa.array(lab.tolist(), pa.string())})

    return scored.map_batches(tag, batch_format="pyarrow")


def q_dsir_logweight(sf_dir: str) -> "ray.data.Dataset":
    """DSIR data selection (Xie et al. 2023, arXiv:2302.03169): importance
    log-weights of every doc toward the lang='en' target slice under
    hashed unigram LMs — one bucketed hash exchange, LM tables never
    broadcast, two driver scalars (textstats.dsir_logweight). Corpus-global
    ln-of-count dependence -> oracle-DUMP twin."""
    from . import oracle_dump as OD

    OD.dump("dsir_logweight",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.dsir_logweight_expected(sf_dir))

    def flag(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "text": b["text"],
            "is_target": pc.cast(pc.equal(b["lang"], "en"), pa.int64())})

    return T.dsir_logweight(
        _read(sf_dir, "documents", ["doc_id", "text", "lang"])
        .map_batches(flag, batch_format="pyarrow"))


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_event_pivot(sf_dir: str) -> "ray.data.Dataset":
    """Pivot (conditional aggregation): one row per user with a count
    column per event type + purchase revenue cents. Per-batch combiner
    first (indicator columns -> local group_by), then ONE bucketed merge —
    shuffle rows ∝ distinct users per batch, never event rows."""
    from ..functions.agg import bucketed_group_sum
    cols = [f"n_{t}" for t in _EVENT_TYPES] + ["purchase_cents"]

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"]
        t = {"user_id": b["user_id"]}
        for ty in _EVENT_TYPES:
            t[f"n_{ty}"] = pc.cast(pc.equal(et, ty), pa.int64())
        cents = _cents(b["value"].to_numpy(zero_copy_only=False))
        is_p = pc.equal(et, "purchase").to_numpy(zero_copy_only=False)
        t["purchase_cents"] = pa.array(np.where(is_p, cents, 0), pa.int64())
        g = pa.table(t).group_by("user_id").aggregate(
            [(c, "sum") for c in cols])
        return pa.table({"user_id": g["user_id"],
                         **{c: pc.cast(g[f"{c}_sum"], pa.int64())
                            for c in cols}})

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    return bucketed_group_sum(ds.map_batches(partial, batch_format="pyarrow"),
                              "user_id", cols)


def q_retention(sf_dir: str) -> "ray.data.Dataset":
    """Retention cohorts: users grouped by their FIRST active day; one row
    per (cohort_day, day_offset) with the distinct-user count active that
    many days after their cohort day. ONE bucketed shuffle on hash(user)
    does all per-user work (first day, per-day dedup) vectorized in-bucket
    — a user's whole history co-locates — then the tiny (cohort, offset)
    partial counts merge in a second, cardinality-bounded shuffle."""
    from ..functions.agg import bucketed_group_sum_multi
    from ..sharding import auto_buckets, bucket_of_ints

    DAY = np.int64(86400) * 1000000
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    num_buckets = auto_buckets(ds.count(), rows_per_bucket=65536)

    def add_pkey(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = b["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // DAY
        return pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "day": pa.array(day, pa.int64()),
            "pkey": pa.array(bucket_of_ints(uid, num_buckets), pa.int64())})

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        if len(uid) == 0:
            return pa.table({"cohort_us": pa.array([], pa.int64()),
                             "day_offset": pa.array([], pa.int64()),
                             "n_users": pa.array([], pa.int64())})
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        keep = np.empty(len(uid), dtype=bool)  # distinct (user, day)
        keep[0] = True
        keep[1:] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        uid, day = uid[keep], day[keep]
        new_u = np.empty(len(uid), dtype=bool)
        new_u[0] = True
        new_u[1:] = uid[1:] != uid[:-1]
        # first day per user = the segment-start value broadcast to rows
        # (sorted by (user, day), so each segment's first row is its min)
        first = day[np.flatnonzero(new_u)][np.cumsum(new_u) - 1]
        t = pa.table({"cohort_us": pa.array(first * DAY, pa.int64()),
                      "day_offset": pa.array(day - first, pa.int64()),
                      "n_users": pa.array(np.ones(len(uid), np.int64))})
        t = t.group_by(["cohort_us", "day_offset"]).aggregate(
            [("n_users", "sum")])
        return pa.table({"cohort_us": t["cohort_us"],
                         "day_offset": t["day_offset"],
                         "n_users": pc.cast(t["n_users_sum"], pa.int64())})

    partials = ds.map_batches(add_pkey, batch_format="pyarrow") \
        .groupby("pkey").map_groups(per_bucket, batch_format="pyarrow")
    merged = bucketed_group_sum_multi(partials, ["cohort_us", "day_offset"],
                                      ["n_users"])

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_day": pc.cast(b["cohort_us"], pa.timestamp("us")),
            "day_offset": b["day_offset"],
            "n_users": b["n_users"]})

    return merged.map_batches(finalize, batch_format="pyarrow")


def q_user_activity_full(sf_dir: str) -> "ray.data.Dataset":
    """FULL OUTER join of two independent per-user aggregates (click counts
    vs purchase counts): users appearing on either side survive, missing
    side filled with 0. Each side is combiner-first (per-batch partial
    count -> one bucketed merge ∝ distinct users), and the join is the
    co-bucketed hash join with how='full' — both sides shuffle once, the
    outer semantics resolve inside each bucket because a key's rows from
    BOTH sides co-locate (a bucket-local miss is a global miss)."""
    from ..functions.agg import bucketed_group_sum
    from ..functions.joins import hash_join

    def per_user_count(etype: str, out_col: str) -> "ray.data.Dataset":
        def partial(b: pa.Table) -> pa.Table:
            t = b.filter(pc.equal(b["event_type"], etype))
            g = pa.table({"user_id": t["user_id"],
                          out_col: pa.array(np.ones(t.num_rows, np.int64))})
            g = g.group_by("user_id").aggregate([(out_col, "sum")])
            return pa.table({"user_id": g["user_id"],
                             out_col: pc.cast(g[f"{out_col}_sum"], pa.int64())})
        ds = _read(sf_dir, "events", ["user_id", "event_type"])
        return bucketed_group_sum(
            ds.map_batches(partial, batch_format="pyarrow"),
            "user_id", [out_col])

    sch = lambda c: pa.schema([("user_id", pa.int64()), (c, pa.int64())])
    j = hash_join(per_user_count("click", "n_click"),
                  per_user_count("purchase", "n_purchase"),
                  on="user_id", how="full",
                  left_schema=sch("n_click"), right_schema=sch("n_purchase"))
    return j.map_batches(lambda b: pa.table({
        "user_id": b["user_id"],
        "n_click": pc.fill_null(b["n_click"], 0),
        "n_purchase": pc.fill_null(b["n_purchase"], 0),
    }), batch_format="pyarrow")


def q_funnel(sf_dir: str) -> "ray.data.Dataset":
    """Staged conversion funnel (view -> click -> purchase) per user: stage
    k counts only if it happens at-or-after the user's stage k-1 time.
    ONE bucketed shuffle on hash(user_id); inside a bucket every user is
    resolved in a single vectorized pass — per-user stage times are
    np.minimum.reduceat segment reductions, and each later stage's mask
    thresholds on the earlier stage's time broadcast back to rows. The
    sequential-dependency window scan never leaves the bucket."""
    from ..sharding import auto_buckets, bucket_of_ints

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    num_buckets = auto_buckets(ds.count(), rows_per_bucket=65536)
    BIG = np.int64(1) << np.int64(62)

    def add_pkey(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column(
            "pkey", pa.array(bucket_of_ints(uid, num_buckets), pa.int64()))

    def per_bucket(g: pa.Table) -> pa.Table:
        t = g.sort_by([("user_id", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(uid)
        if n == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "funnel_depth": pa.array([], pa.int64())})
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        et = t["event_type"]
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        starts = np.where(new_user)[0]
        seg = np.cumsum(new_user) - 1  # per-row segment index
        is_v = pc.equal(et, "view").to_numpy(zero_copy_only=False)
        t1 = np.minimum.reduceat(np.where(is_v, ts, BIG), starts)
        is_c = pc.equal(et, "click").to_numpy(zero_copy_only=False) \
            & (ts >= t1[seg])
        t2 = np.minimum.reduceat(np.where(is_c, ts, BIG), starts)
        is_p = pc.equal(et, "purchase").to_numpy(zero_copy_only=False) \
            & (ts >= t2[seg])
        t3 = np.minimum.reduceat(np.where(is_p, ts, BIG), starts)
        depth = ((t1 < BIG).astype(np.int64) + (t2 < BIG).astype(np.int64)
                 + (t3 < BIG).astype(np.int64))
        return pa.table({"user_id": pa.array(uid[starts], pa.int64()),
                         "funnel_depth": pa.array(depth, pa.int64())})

    return ds.map_batches(add_pkey, batch_format="pyarrow") \
        .groupby("pkey").map_groups(per_bucket, batch_format="pyarrow")


def q_label_centroids(sf_dir: str) -> "ray.data.Dataset":
    """Per-label embedding centroid SUMS (class prototypes / IVF centroid
    recompute): each vector element quantized to integer micro-units with
    DuckDB's exact half-away rounding (sign*floor(abs(x*1e6)+0.5) — NOT
    np.rint, which is half-even), then combiner-first integer sums per
    (label, dim) — associative, so the distributed result hash-matches.
    The mean is left to the consumer (sum_q / n_vecs) to keep division
    off the gate."""
    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        emb = b["embedding"].combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        lens = pc.list_value_length(emb).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        labels = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = flat * 1e6
        q = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        dim = np.concatenate([np.arange(1, n + 1) for n in lens]) \
            if len(lens) else np.empty(0, np.int64)
        t = pa.table({
            "label": pa.array(np.repeat(labels, lens), pa.int64()),
            "dim": pa.array(dim, pa.int64()),
            "sum_q": pa.array(q, pa.int64()),
            "n_vecs": pa.array(np.ones(len(q), np.int64))})
        g = t.group_by(["label", "dim"]).aggregate(
            [("sum_q", "sum"), ("n_vecs", "sum")])
        return pa.table({"label": g["label"], "dim": g["dim"],
                         "sum_q": pc.cast(g["sum_q_sum"], pa.int64()),
                         "n_vecs": pc.cast(g["n_vecs_sum"], pa.int64())})

    return bucketed_group_sum_multi(
        _read(sf_dir, "embeddings", ["embedding", "label"])
        .map_batches(partial, batch_format="pyarrow"),
        ["label", "dim"], ["sum_q", "n_vecs"])


def q_label_scatter(sf_dir: str) -> "ray.data.Dataset":
    """Within-class scatter (per-label, per-dim integer sum of SQUARED
    quantized elements): with label_centroids' sum_q this yields the
    per-class variance (scatter/n - (sum/n)^2) without any float on the
    gate. Same quantization (sign*floor(abs(x*1e6)+0.5) on the float64
    promotion of the float32 element) and the same combiner-first bucketed
    integer sum, so the distributed result is associative and hash-exact."""
    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        emb = b["embedding"].combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        lens = pc.list_value_length(emb).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        labels = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = flat * 1e6
        q = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        dim = np.concatenate([np.arange(1, n + 1) for n in lens]) \
            if len(lens) else np.empty(0, np.int64)
        t = pa.table({
            "label": pa.array(np.repeat(labels, lens), pa.int64()),
            "dim": pa.array(dim, pa.int64()),
            "sum_q2": pa.array(q * q, pa.int64())})
        g = t.group_by(["label", "dim"]).aggregate([("sum_q2", "sum")])
        return pa.table({"label": g["label"], "dim": g["dim"],
                         "sum_q2": pc.cast(g["sum_q2_sum"], pa.int64())})

    return bucketed_group_sum_multi(
        _read(sf_dir, "embeddings", ["embedding", "label"])
        .map_batches(partial, batch_format="pyarrow"),
        ["label", "dim"], ["sum_q2"])


def q_grouped_comoments(sf_dir: str) -> "ray.data.Dataset":
    """Two-variable integer comoments per (l_returnflag, l_linestatus):
    n, sum/sum-of-squares of x=round(l_quantity) units and y=round(
    l_extendedprice) WHOLE DOLLARS (dollars, not cents, keep sum_yy inside
    int64 at sf>=1), plus the cross term sum_xy. Covariance / correlation
    are left to the consumer as rational functions of these six integers —
    the gate stays division-free and the distributed sum associative."""
    from ..functions.agg import bucketed_group_sum_multi

    cols = ["n_rows", "sum_x", "sum_y", "sum_xx", "sum_xy", "sum_yy"]

    def partial(b: pa.Table) -> pa.Table:
        # floor(v + 0.5), not np.rint: rint is half-EVEN while the SQL twin
        # uses the same floor formula — identical float64 ops on both sides
        # (values are non-negative, so no sign term needed).
        x = np.floor(b["l_quantity"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) + 0.5).astype(np.int64)
        y = np.floor(b["l_extendedprice"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) + 0.5).astype(np.int64)
        t = pa.table({"l_returnflag": b["l_returnflag"],
                      "l_linestatus": b["l_linestatus"],
                      "n_rows": pa.array(np.ones(len(x), np.int64)),
                      "sum_x": pa.array(x, pa.int64()),
                      "sum_y": pa.array(y, pa.int64()),
                      "sum_xx": pa.array(x * x, pa.int64()),
                      "sum_xy": pa.array(x * y, pa.int64()),
                      "sum_yy": pa.array(y * y, pa.int64())})
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [(c, "sum") for c in cols])
        return pa.table({"l_returnflag": g["l_returnflag"],
                         "l_linestatus": g["l_linestatus"],
                         **{c: pc.cast(g[f"{c}_sum"], pa.int64())
                            for c in cols}})

    return bucketed_group_sum_multi(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity",
               "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"], cols)


def q_zscore_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Moments-based 2-sigma length outliers (the quantile-free twin of
    length_outliers): pass 1 reduces global integer moments (n, S=sum len,
    Q=sum len^2) to ONE tiny row; pass 2 re-streams the corpus and flags
    each doc by the cross-multiplied INTEGER inequality
        (n*len - S)^2 > 4 * (n*Q - S^2)
    (i.e. (len-mean)^2 > 4*variance) — no division, no sqrt, no float on
    either side, so the flag is hash-exact. The broadcast side is 3 ints."""
    src = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        v = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"n": pa.array([np.int64(len(v))]),
                         "s": pa.array([v.sum()], pa.int64()),
                         "q": pa.array([(v * v).sum()], pa.int64())})

    m = src.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = np.int64(m["n"].sum()); s = np.int64(m["s"].sum())
    qq = np.int64(m["q"].sum())
    var4 = 4 * (n * qq - s * s)  # 4 * n^2 * variance

    def flag(b: pa.Table) -> pa.Table:
        v = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        dev = n * v - s
        return pa.table({"doc_id": b["doc_id"],
                         "n_chars": pa.array(v, pa.int64()),
                         "is_outlier": pa.array(
                             (dev * dev > var4).astype(np.int64),
                             pa.int64())})

    return src.map_batches(flag, batch_format="pyarrow")


def q_forecast_revenue(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q6-shape forecast-revenue: filter pushed INTO the parquet read
    (year-1996 shipdates, discount band, qty cap — only matching row
    groups leave storage), then a single combiner-first integer reduction
    of cents*discount_pct micro-units. One tiny output row."""
    import pyarrow.dataset as pads
    from datetime import datetime

    f = ((pads.field("l_shipdate") >= datetime(1996, 1, 1))
         & (pads.field("l_shipdate") < datetime(1997, 1, 1))
         & (pads.field("l_discount") >= 0.0295)
         & (pads.field("l_discount") <= 0.0705)
         & (pads.field("l_quantity") < 24))
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount"], filter=f)

    def partial(b: pa.Table) -> pa.Table:
        cents = _cents(b["l_extendedprice"].to_numpy(zero_copy_only=False))
        disc = np.rint(b["l_discount"].to_numpy(zero_copy_only=False)
                       .astype(np.float64) * 100).astype(np.int64)
        return pa.table({
            "revenue_micro": pa.array([np.int64((cents * disc).sum())]),
            "n_rows": pa.array([np.int64(len(cents))])})

    def total(b: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_micro": pa.array(
                [np.int64(b["revenue_micro"].to_numpy().sum())]),
            "n_rows": pa.array([np.int64(b["n_rows"].to_numpy().sum())])})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(total, batch_format="pyarrow")


def q_large_orders(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q18-shape large-volume orders: per-order quantity sums
    (combiner-first, bucketed by orderkey), HAVING sum > 250 units (~top
    1%), then a co-bucketed hash join back to orders for customer and
    order price. The having-filter runs BEFORE the join so only the ~1%
    survivor keys enter the exchange."""
    from ..functions.agg import bucketed_group_sum_multi
    from ..functions.joins import hash_join

    def partial(b: pa.Table) -> pa.Table:
        q = np.floor(b["l_quantity"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) + 0.5).astype(np.int64)
        t = pa.table({"o_orderkey": b["l_orderkey"],
                      "total_qty": pa.array(q, pa.int64())})
        g = t.group_by("o_orderkey").aggregate([("total_qty", "sum")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "total_qty": pc.cast(g["total_qty_sum"],
                                              pa.int64())})

    big = bucketed_group_sum_multi(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
        .map_batches(partial, batch_format="pyarrow"),
        ["o_orderkey"], ["total_qty"]) \
        .filter(expr="total_qty > 250")

    def order_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_custkey": b["o_custkey"],
            "o_total_cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"]) \
        .map_batches(order_cents, batch_format="pyarrow")
    return hash_join(
        big, orders, on="o_orderkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("total_qty", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64()),
                                ("o_total_cents", pa.int64())]))


def q_purchasers_minus_errors(sf_dir: str) -> "ray.data.Dataset":
    """Distinct set EXCEPT as a first-class op: users with a high-value
    (>150) purchase but no high-value error. One (key, tag) shuffle via
    functions/setops.set_op — 16 bytes/row on the exchange regardless of
    event width."""
    from ..functions.setops import set_op

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    hi = ev.filter(expr="value > 150.0")
    return set_op(hi.filter(expr="event_type == 'purchase'"),
                  hi.filter(expr="event_type == 'error'"),
                  "user_id", "except")


def q_purchase_and_click_users(sf_dir: str) -> "ray.data.Dataset":
    """Distinct set INTERSECT: users present in BOTH the purchase and the
    click streams (same single-exchange plan as the EXCEPT twin)."""
    from ..functions.setops import set_op

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return set_op(ev.filter(expr="event_type == 'purchase'"),
                  ev.filter(expr="event_type == 'click'"),
                  "user_id", "intersect")


def q_priority_region_matrix(sf_dir: str) -> "ray.data.Dataset":
    """Fill-missing-combinations (cross join + zero-fill): order counts per
    (region, priority) including explicit 0 rows for absent combos. Plan:
    orders⨝customer by the co-bucketed hash join (both fact-sized at
    scale), then nation→region resolved by a 25-int broadcast LOOKUP
    ARRAY (never a shuffle), combiner-first counts, and the ≤|regions|x
    |priorities| grid zero-filled inside one final single-block map."""
    import pyarrow.parquet as pq_

    from ..functions.agg import bucketed_group_sum_multi
    from ..functions.joins import hash_join

    nation = pq_.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq_.read_table(os.path.join(sf_dir, "region.parquet"))
    rname_of = dict(zip(region["r_regionkey"].to_pylist(),
                        region["r_name"].to_pylist()))
    nk = nation["n_nationkey"].to_numpy(zero_copy_only=False)
    lut = np.empty(int(nk.max()) + 1, dtype=object)
    for k, rk in zip(nk, nation["n_regionkey"].to_pylist()):
        lut[int(k)] = rname_of[rk]

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .map_batches(lambda b: pa.table({
            "custkey": b["o_custkey"],
            "o_orderpriority": b["o_orderpriority"]}),
            batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda b: pa.table({
            "custkey": b["c_custkey"],
            "c_nationkey": pc.cast(b["c_nationkey"], pa.int64())}),
            batch_format="pyarrow")
    joined = hash_join(
        orders, cust, on="custkey",
        left_schema=pa.schema([("custkey", pa.int64()),
                               ("o_orderpriority", pa.string())]),
        right_schema=pa.schema([("custkey", pa.int64()),
                                ("c_nationkey", pa.int64())]))

    def partial(b: pa.Table) -> pa.Table:
        nkeys = b["c_nationkey"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "r_name": pa.array(lut[nkeys.astype(np.int64)], pa.string()),
            "o_orderpriority": b["o_orderpriority"],
            "n_orders": pa.array(np.ones(b.num_rows, np.int64))})
        g = t.group_by(["r_name", "o_orderpriority"]).aggregate(
            [("n_orders", "sum")])
        return pa.table({"r_name": g["r_name"],
                         "o_orderpriority": g["o_orderpriority"],
                         "n_orders": pc.cast(g["n_orders_sum"], pa.int64())})

    cnt = bucketed_group_sum_multi(
        joined.map_batches(partial, batch_format="pyarrow"),
        ["r_name", "o_orderpriority"], ["n_orders"])

    def zero_fill(b: pa.Table) -> pa.Table:
        rn = sorted(set(b["r_name"].to_pylist()))
        pr = sorted(set(b["o_orderpriority"].to_pylist()))
        have = {(r, p): n for r, p, n in zip(
            b["r_name"].to_pylist(), b["o_orderpriority"].to_pylist(),
            b["n_orders"].to_pylist())}
        rows = [(r, p, have.get((r, p), 0)) for r in rn for p in pr]
        return pa.table({
            "r_name": pa.array([x[0] for x in rows], pa.string()),
            "o_orderpriority": pa.array([x[1] for x in rows], pa.string()),
            "n_orders": pa.array([x[2] for x in rows], pa.int64())})

    return cnt.repartition(1).map_batches(zero_fill, batch_format="pyarrow")


def q_event_unpivot(sf_dir: str) -> "ray.data.Dataset":
    """UNPIVOT/melt: the wide per-user pivot folded back to long
    (user_id, event_type, n) rows, zero rows dropped. Stateless columnar
    melt over the pivot's output blocks — the only exchange is the one the
    pivot itself already did. Gate: equals the direct long GROUP BY."""
    wide = q_event_pivot(sf_dir)

    def melt(b: pa.Table) -> pa.Table:
        parts = []
        for ty in _EVENT_TYPES:
            parts.append(pa.table({
                "user_id": b["user_id"],
                "event_type": pa.array([ty] * b.num_rows, pa.string()),
                "n": pc.cast(b[f"n_{ty}"], pa.int64())}))
        t = pa.concat_tables(parts)
        return t.filter(pc.greater(t["n"], 0))

    return wide.map_batches(melt, batch_format="pyarrow")


def q_cube_revenue(sf_dir: str) -> "ray.data.Dataset":
    """GROUP BY CUBE(priority, status): the rollup plan plus the by-status
    grouping set — four levels, all re-aggregated from the ~15-row
    materialized FINE result, never from the raw stream."""
    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "o_orderpriority": b["o_orderpriority"],
            "o_orderstatus": b["o_orderstatus"],
            "cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})
        t = t.group_by(["o_orderpriority", "o_orderstatus"]).aggregate(
            [("cents", "sum"), ("cents", "count")])
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "o_orderstatus": t["o_orderstatus"],
            "revenue_cents": pc.cast(t["cents_sum"], pa.int64()),
            "n_orders": pc.cast(t["cents_count"], pa.int64())})

    # All four grouping sets from ONE single-block pass over the combined
    # partials: the partial stream is ~|priority|x|status| rows per input
    # block (tiny at any scale), so repartition(1) + a local 4-way
    # re-aggregate beats four separate Sort exchanges of the same rows.
    def all_levels(b: pa.Table) -> pa.Table:
        outs = []
        for keep_prio, keep_status in ((True, True), (True, False),
                                       (False, True), (False, False)):
            n = b.num_rows
            allc = pa.array(["ALL"] * n, pa.string())
            t = pa.table({
                "o_orderpriority": b["o_orderpriority"]
                if keep_prio else allc,
                "o_orderstatus": b["o_orderstatus"]
                if keep_status else allc,
                "revenue_cents": b["revenue_cents"],
                "n_orders": b["n_orders"]})
            g = t.group_by(["o_orderpriority", "o_orderstatus"]).aggregate(
                [("revenue_cents", "sum"), ("n_orders", "sum")])
            outs.append(pa.table({
                "o_orderpriority": g["o_orderpriority"],
                "o_orderstatus": g["o_orderstatus"],
                "revenue_cents": pc.cast(g["revenue_cents_sum"], pa.int64()),
                "n_orders": pc.cast(g["n_orders_sum"], pa.int64())}))
        return pa.concat_tables(outs)

    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(all_levels, batch_format="pyarrow")


def q_fuzzy_name_pairs(sf_dir: str) -> "ray.data.Dataset":
    """Fuzzy string-match pairs: distinct part names within Levenshtein
    distance 3 and length band 2 (the string analog of embedding near-dup;
    the reference fuzzily merges vendor spellings the same way). Distinct
    pass -> exact-cover length blocking -> in-block banded DP; every
    exchange is vocabulary-sized, never corpus-sized."""
    from ..functions.fuzzy import fuzzy_pairs

    return fuzzy_pairs(_read(sf_dir, "part", ["p_name"]), "p_name",
                       max_dist=3, len_band=2)


def q_winsorized_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Winsorized (clamped-tail) revenue per order priority: order prices
    clamped to the group's exact [p05, p95] discrete quantiles, then an
    integer cents sum. Two passes: the value-histogram quantile reduce
    (tiny result, broadcast as a dict closure) and a combiner-first
    clamp+sum — robust aggregation without a global sort."""
    from ..functions.agg import bucketed_group_sum_multi, \
        grouped_quantile_disc

    def cents_tab(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": b["o_orderpriority"],
            "cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    src = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]) \
        .map_batches(cents_tab, batch_format="pyarrow")
    q = grouped_quantile_disc(src, ["o_orderpriority"], "cents",
                              [0.05, 0.95], ["lo", "hi"]).to_pandas()
    lims = {r.o_orderpriority: (int(r.lo), int(r.hi))
            for r in q.itertuples()}

    def partial(b: pa.Table) -> pa.Table:
        prio = b["o_orderpriority"].to_pylist()
        c = b["cents"].to_numpy(zero_copy_only=False)
        lo = np.array([lims[p][0] for p in prio], np.int64)
        hi = np.array([lims[p][1] for p in prio], np.int64)
        t = pa.table({
            "o_orderpriority": b["o_orderpriority"],
            "wins_cents": pa.array(np.clip(c, lo, hi), pa.int64()),
            "n_orders": pa.array(np.ones(len(c), np.int64))})
        g = t.group_by("o_orderpriority").aggregate(
            [("wins_cents", "sum"), ("n_orders", "sum")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "wins_cents": pc.cast(g["wins_cents_sum"],
                                               pa.int64()),
                         "n_orders": pc.cast(g["n_orders_sum"], pa.int64())})

    return bucketed_group_sum_multi(
        src.map_batches(partial, batch_format="pyarrow"),
        ["o_orderpriority"], ["wins_cents", "n_orders"])


def q_nation_customer_rank(sf_dir: str) -> "ray.data.Dataset":
    """Per-group window ranks: every customer's row_number / rank /
    dense_rank by account balance (cents, DESC) within its nation. Groups
    co-locate via ONE bucketed shuffle on hash(nationkey); ranks are
    computed per group with vectorized lexsort + run-length logic (no
    Python over rows). Partitioning assumption: one nation's customers fit
    a reducer — salt or range-split the group if a key is pathological."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)

    def prep(b: pa.Table) -> pa.Table:
        nk = pc.cast(b["c_nationkey"], pa.int64())
        return pa.table({
            "c_nationkey": nk,
            "c_custkey": b["c_custkey"],
            "bal_cents": pa.array(
                _cents(b["c_acctbal"].to_numpy(zero_copy_only=False)),
                pa.int64()),
            "pkey": pa.array(bucket_of_ints(
                nk.to_numpy(zero_copy_only=False), nb))})

    def rank_bucket(g: pa.Table) -> pa.Table:
        nk = g["c_nationkey"].to_numpy(zero_copy_only=False)
        ck = g["c_custkey"].to_numpy(zero_copy_only=False)
        bal = g["bal_cents"].to_numpy(zero_copy_only=False)
        # sort: nation ASC, balance DESC, custkey ASC (deterministic)
        order = np.lexsort((ck, -bal, nk))
        nk, ck, bal = nk[order], ck[order], bal[order]
        n = len(nk)
        idx = np.arange(n)
        new_grp = np.empty(n, bool)
        new_grp[:1] = True
        new_grp[1:] = nk[1:] != nk[:-1]
        new_val = np.empty(n, bool)
        new_val[:1] = True
        new_val[1:] = new_grp[1:] | (bal[1:] != bal[:-1])
        # carry-forward via monotone start INDICES (safe across segments,
        # unlike carrying values: a new group's rank restarts at 1)
        grp_start = np.maximum.accumulate(np.where(new_grp, idx, 0))
        run_start = np.maximum.accumulate(np.where(new_val, idx, 0))
        rn = idx - grp_start + 1
        rank = rn[run_start]
        cs = np.cumsum(new_val)
        dense = cs - cs[grp_start] + 1
        return pa.table({
            "c_nationkey": pa.array(nk, pa.int64()),
            "c_custkey": pa.array(ck, pa.int64()),
            "bal_cents": pa.array(bal, pa.int64()),
            "rn": pa.array(rn, pa.int64()),
            "rnk": pa.array(rank, pa.int64()),
            "dense_rnk": pa.array(dense, pa.int64())})

    return _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"]) \
        .map_batches(prep, batch_format="pyarrow") \
        .groupby("pkey").map_groups(rank_bucket, batch_format="pyarrow")


def q_latest_event_per_user(sf_dir: str) -> "ray.data.Dataset":
    """Grouped ARGMAX with whole-row carry: each user's latest event (max
    (ts, event_id)), the canonical-record / last-state-wins primitive.
    Combiner-first: every batch reduces to <= distinct-users-in-batch rows
    via one vectorized lexsort+take-last, then ONE bucketed shuffle merges
    per-user candidates the same way — shuffle volume ~ users, not events."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)

    def argmax_local(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        ts = b["ts_us"].to_numpy(zero_copy_only=False)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        last = np.empty(len(uid), bool)
        last[-1:] = True
        u = uid[order]
        last[:-1] = u[1:] != u[:-1]
        keep = order[last]
        return b.take(pa.array(np.sort(keep)))

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": b["user_id"],
            "ts_us": pc.cast(b["ts"], pa.int64()),
            "event_id": b["event_id"],
            "event_type": b["event_type"],
            "value_cents": pa.array(
                _cents(b["value"].to_numpy(zero_copy_only=False)),
                pa.int64())})
        t = argmax_local(t)
        return t.append_column("pkey", pa.array(bucket_of_ints(
            t["user_id"].to_numpy(zero_copy_only=False), nb)))

    def merge(g: pa.Table) -> pa.Table:
        return argmax_local(g).drop_columns(["pkey"])

    return _read(sf_dir, "events",
                 ["user_id", "ts", "event_id", "event_type", "value"]) \
        .map_batches(prep, batch_format="pyarrow") \
        .groupby("pkey").map_groups(merge, batch_format="pyarrow")


def q_char_trigram_topk(sf_dir: str) -> "ray.data.Dataset":
    """Per-language character-trigram top-20 (the n-gram profile build that
    trains the language-ID stage). Per batch: ONE sliding byte window over
    the whole batch's concatenated text (docs separated by two NULs so no
    window crosses a boundary), trigrams packed to int24 and counted with a
    single np.unique — no Python over rows or chars. Then a bucketed
    (lang, gram) integer-sum merge and a per-lang vectorized top-20."""
    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        langs = b["lang"].to_pylist()
        if not texts:
            return pa.table({"lang": pa.array([], pa.string()),
                             "g": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        lang_idx = {l: i for i, l in enumerate(sorted(set(langs)))}
        rev = {i: l for l, i in lang_idx.items()}
        blob = "\x00\x00".join(texts).encode("ascii", "replace")
        arr = np.frombuffer(blob, np.uint8)
        win = np.lib.stride_tricks.sliding_window_view(arr, 3)
        ok = (win != 0).all(axis=1)
        # lang id per window start: repeat per doc (len) + 2 separators
        lens = np.fromiter((len(t) for t in texts), np.int64, len(texts))
        li = np.fromiter((lang_idx[l] for l in langs), np.int64, len(langs))
        per_doc = lens + 2
        per_doc[-1] -= 2
        owner = np.repeat(li, per_doc)[:len(win)]
        g24 = (win[:, 0].astype(np.int64) << 16) | \
              (win[:, 1].astype(np.int64) << 8) | win[:, 2].astype(np.int64)
        key = (owner[ok] << 24) | g24[ok]
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "lang": pa.array([rev[int(k >> 24)] for k in uniq], pa.string()),
            "g": pa.array(uniq & np.int64(0xFFFFFF), pa.int64()),
            "n": pa.array(cnt.astype(np.int64), pa.int64())})

    agg = bucketed_group_sum_multi(
        _read(sf_dir, "documents", ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        ["lang", "g"], ["n"])

    def topk(g: pa.Table) -> pa.Table:
        gi = g["g"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((gi, -n))[:20]
        gi, n = gi[order], n[order]
        grams = ["".join(chr(int(x)) for x in
                         ((v >> 16) & 255, (v >> 8) & 255, v & 255))
                 for v in gi]
        return pa.table({
            "lang": g["lang"].take(pa.array(order)),
            "gram": pa.array(grams, pa.string()),
            "n": pa.array(n, pa.int64()),
            "rn": pa.array(np.arange(1, len(n) + 1), pa.int64())})

    return agg.groupby("lang").map_groups(topk, batch_format="pyarrow")


def q_qty_discount_histogram(sf_dir: str) -> "ray.data.Dataset":
    """2-D histogram (heatmap feed): lineitem counts and revenue cents per
    (quantity unit, discount pct) cell. Pure combiner-first integer sums —
    the exchange carries <=50x11 cells per batch regardless of row count."""
    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        q = np.floor(b["l_quantity"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) + 0.5).astype(np.int64)
        d = np.floor(b["l_discount"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) * 100 + 0.5).astype(np.int64)
        cents = _cents(b["l_extendedprice"].to_numpy(zero_copy_only=False))
        t = pa.table({"qty_bin": pa.array(q, pa.int64()),
                      "disc_pct": pa.array(d, pa.int64()),
                      "n_rows": pa.array(np.ones(len(q), np.int64)),
                      "cents": pa.array(cents, pa.int64())})
        g = t.group_by(["qty_bin", "disc_pct"]).aggregate(
            [("n_rows", "sum"), ("cents", "sum")])
        return pa.table({"qty_bin": g["qty_bin"],
                         "disc_pct": g["disc_pct"],
                         "n_rows": pc.cast(g["n_rows_sum"], pa.int64()),
                         "cents": pc.cast(g["cents_sum"], pa.int64())})

    return bucketed_group_sum_multi(
        _read(sf_dir, "lineitem",
              ["l_quantity", "l_discount", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["qty_bin", "disc_pct"], ["n_rows", "cents"])


def q_user_growth_daily(sf_dir: str) -> "ray.data.Dataset":
    """New-user and cumulative-user counts per day (the DAU-growth curve):
    per-user FIRST event day via a combiner-first bucketed MIN (shuffle ~
    users, not events), per-day new-user counts, then one single-block
    cumulative sum over the tiny day series (days ~ corpus age, never data-
    sized)."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)
    us_per_day = np.int64(86_400_000_000)

    def first_day_local(b: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": b["user_id"],
            "day": pa.array(
                pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
                // us_per_day, pa.int64())})
        g = t.group_by("user_id").aggregate([("day", "min")])
        out = pa.table({"user_id": g["user_id"],
                        "day": pc.cast(g["day_min"], pa.int64())})
        return out.append_column("pkey", pa.array(bucket_of_ints(
            out["user_id"].to_numpy(zero_copy_only=False), nb)))

    def merge_min(g: pa.Table) -> pa.Table:
        a = g.group_by("user_id").aggregate([("day", "min")])
        t = pa.table({"day": pc.cast(a["day_min"], pa.int64()),
                      "new_users": pa.array(
                          np.ones(a.num_rows, np.int64))})
        c = t.group_by("day").aggregate([("new_users", "sum")])
        return pa.table({"day": c["day"],
                         "new_users": pc.cast(c["new_users_sum"],
                                              pa.int64())})

    per_day = _read(sf_dir, "events", ["user_id", "ts"]) \
        .map_batches(first_day_local, batch_format="pyarrow") \
        .groupby("pkey").map_groups(merge_min, batch_format="pyarrow")

    def cumulate(b: pa.Table) -> pa.Table:
        g = b.group_by("day").aggregate([("new_users", "sum")])
        day = g["day"].to_numpy(zero_copy_only=False)
        nu = g["new_users_sum"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(day)
        day, nu = day[order], nu[order]
        return pa.table({"day": pa.array(day, pa.int64()),
                         "new_users": pa.array(nu, pa.int64()),
                         "cum_users": pa.array(np.cumsum(nu), pa.int64())})

    return per_day.repartition(1).map_batches(cumulate,
                                              batch_format="pyarrow")


def _ohlc_reduce(t: pa.Table) -> pa.Table:
    """Merge OHLC partial states per hour, fully vectorized: open/close by
    lexsorted first/last-per-hour, high/low/n by one Arrow group_by."""
    hour = t["hour"].to_numpy(zero_copy_only=False)
    o_ts = t["o_ts"].to_numpy(zero_copy_only=False)
    o_eid = t["o_eid"].to_numpy(zero_copy_only=False)
    o_c = t["o_c"].to_numpy(zero_copy_only=False)
    c_ts = t["c_ts"].to_numpy(zero_copy_only=False)
    c_eid = t["c_eid"].to_numpy(zero_copy_only=False)
    c_c = t["c_c"].to_numpy(zero_copy_only=False)

    oo = np.lexsort((o_eid, o_ts, hour))
    hh = hour[oo]
    first = np.empty(len(hh), bool)
    first[:1] = True
    first[1:] = hh[1:] != hh[:-1]
    open_hour = hh[first]
    open_ts, open_eid, open_c = o_ts[oo][first], o_eid[oo][first], \
        o_c[oo][first]

    co = np.lexsort((c_eid, c_ts, hour))
    hh2 = hour[co]
    last = np.empty(len(hh2), bool)
    last[-1:] = True
    last[:-1] = hh2[1:] != hh2[:-1]
    close_ts, close_eid, close_c = c_ts[co][last], c_eid[co][last], \
        c_c[co][last]

    g = t.group_by("hour").aggregate(
        [("high", "max"), ("low", "min"), ("n", "sum")])
    gh = g["hour"].to_numpy(zero_copy_only=False)
    pos = {int(h): i for i, h in enumerate(gh)}
    sel = np.fromiter((pos[int(h)] for h in open_hour), np.int64,
                      len(open_hour))
    return pa.table({
        "hour": pa.array(open_hour, pa.int64()),
        "o_ts": pa.array(open_ts, pa.int64()),
        "o_eid": pa.array(open_eid, pa.int64()),
        "o_c": pa.array(open_c, pa.int64()),
        "c_ts": pa.array(close_ts, pa.int64()),
        "c_eid": pa.array(close_eid, pa.int64()),
        "c_c": pa.array(close_c, pa.int64()),
        "high": pa.array(pc.cast(g["high_max"], pa.int64()).to_numpy(
            zero_copy_only=False)[sel], pa.int64()),
        "low": pa.array(pc.cast(g["low_min"], pa.int64()).to_numpy(
            zero_copy_only=False)[sel], pa.int64()),
        "n": pa.array(pc.cast(g["n_sum"], pa.int64()).to_numpy(
            zero_copy_only=False)[sel], pa.int64())})


def q_purchase_ohlc_hourly(sf_dir: str) -> "ray.data.Dataset":
    """Hourly OHLC bars over purchase values (open/close = value of the
    first/last event by (ts, event_id); high/low = extremes; n = trades).
    The OHLC state is a 10-int mergeable partial, reduced per batch first
    and merged by ONE bucketed shuffle on hash(hour) — the time-series
    downsampling primitive."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)
    us_per_hour = np.int64(3_600_000_000)

    def partial(b: pa.Table) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        cents = _cents(b["value"].to_numpy(zero_copy_only=False))
        t = pa.table({
            "hour": pa.array(ts // us_per_hour, pa.int64()),
            "o_ts": pa.array(ts, pa.int64()),
            "o_eid": pa.array(eid, pa.int64()),
            "o_c": pa.array(cents, pa.int64()),
            "c_ts": pa.array(ts, pa.int64()),
            "c_eid": pa.array(eid, pa.int64()),
            "c_c": pa.array(cents, pa.int64()),
            "high": pa.array(cents, pa.int64()),
            "low": pa.array(cents, pa.int64()),
            "n": pa.array(np.ones(len(ts), np.int64))})
        t = _ohlc_reduce(t)
        return t.append_column("pkey", pa.array(bucket_of_ints(
            t["hour"].to_numpy(zero_copy_only=False), nb)))

    def merge(g: pa.Table) -> pa.Table:
        r = _ohlc_reduce(g.drop_columns(["pkey"]))
        return pa.table({
            "hour": r["hour"],
            "open_cents": r["o_c"],
            "close_cents": r["c_c"],
            "high_cents": r["high"],
            "low_cents": r["low"],
            "n_trades": r["n"]})

    return _read(sf_dir, "events", ["ts", "event_id", "event_type",
                                    "value"]) \
        .filter(expr="event_type == 'purchase'") \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("pkey").map_groups(merge, batch_format="pyarrow")


def q_cluster_canonical(sf_dir: str) -> "ray.data.Dataset":
    """Survivorship: one canonical document per near-dup cluster (longest
    text, ties to the smallest doc_id) plus the cluster size — the
    keep-best step that completes find-pairs -> cluster -> select ->
    drop. Cluster labels come from the distributed min-label propagation;
    lengths arrive via the co-bucketed hash join; the per-cluster argmax
    is the same mergeable-partial pattern as latest_event_per_user."""
    from ..functions.joins import hash_join
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)
    clusters = q_dedup_clusters(sf_dir)
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    j = hash_join(
        clusters, docs, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("cluster_rep", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("n_chars", pa.int64())]))

    def best_local(t: pa.Table) -> pa.Table:
        rep = t["cluster_rep"].to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        ln = t["n_chars"].to_numpy(zero_copy_only=False)
        sz = t["sz"].to_numpy(zero_copy_only=False) \
            if "sz" in t.column_names else np.ones(len(rep), np.int64)
        # order: rep ASC, n_chars DESC, doc ASC -> first per rep is best
        order = np.lexsort((doc, -ln, rep))
        r = rep[order]
        first = np.empty(len(r), bool)
        first[:1] = True
        first[1:] = r[1:] != r[:-1]
        sizes = pa.table({"cluster_rep": pa.array(rep, pa.int64()),
                          "sz": pa.array(sz, pa.int64())}) \
            .group_by("cluster_rep").aggregate([("sz", "sum")])
        pos = {int(k): i for i, k in enumerate(
            sizes["cluster_rep"].to_numpy(zero_copy_only=False))}
        reps = r[first]
        sel = np.fromiter((pos[int(x)] for x in reps), np.int64, len(reps))
        return pa.table({
            "cluster_rep": pa.array(reps, pa.int64()),
            "canonical_doc": pa.array(doc[order][first], pa.int64()),
            "n_chars": pa.array(ln[order][first], pa.int64()),
            "sz": pa.array(pc.cast(sizes["sz_sum"], pa.int64()).to_numpy(
                zero_copy_only=False)[sel], pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        t = best_local(b)
        return t.rename_columns(
            ["cluster_rep", "doc_id", "n_chars", "sz"]).append_column(
            "pkey", pa.array(bucket_of_ints(
                t["cluster_rep"].to_numpy(zero_copy_only=False), nb)))

    def merge(g: pa.Table) -> pa.Table:
        t = best_local(g.drop_columns(["pkey"]))
        return t.rename_columns(
            ["cluster_rep", "canonical_doc", "n_chars", "cluster_size"])

    return j.map_batches(partial, batch_format="pyarrow") \
        .groupby("pkey").map_groups(merge, batch_format="pyarrow")


def q_lang_sample_n(sf_dir: str) -> "ray.data.Dataset":
    """Per-stratum EXACT-N sample: the 20 docs with the smallest
    md5(doc_id) within every language — fixed quotas per stratum (vs the
    rational-threshold balanced sampler). Per-batch local top-20 per lang
    prunes candidates to 20 x langs x batches before the tiny per-lang
    final selection."""
    import hashlib as _hl

    n = 20

    def local_topn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        h = [_hl.md5(str(i).encode()).hexdigest() for i in ids]
        t = pa.table({"lang": b["lang"], "doc_id": b["doc_id"],
                      "h": pa.array(h, pa.string())})
        t = t.sort_by([("lang", "ascending"), ("h", "ascending"),
                       ("doc_id", "ascending")])
        lang = t["lang"].to_numpy(zero_copy_only=False)
        new = np.empty(len(lang), bool)
        new[:1] = True
        new[1:] = lang[1:] != lang[:-1]
        idx = np.arange(len(lang))
        start = np.maximum.accumulate(np.where(new, idx, 0))
        keep = (idx - start) < n
        return t.filter(pa.array(keep))

    def final_topn(g: pa.Table) -> pa.Table:
        t = local_topn(g)
        return t

    return _read(sf_dir, "documents", ["doc_id", "lang"]) \
        .map_batches(local_topn, batch_format="pyarrow") \
        .groupby("lang").map_groups(final_topn, batch_format="pyarrow")


def q_lang_sources_concat(sf_dir: str) -> "ray.data.Dataset":
    """Grouped ordered string aggregation: per language, the comma-joined
    SORTED distinct sources (deterministic string_agg). Distinct (lang,
    source) pairs reduce per batch first; the concat runs over the tiny
    distinct domain."""
    def local_distinct(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"], "source": b["source"]})
        return t.group_by(["lang", "source"]).aggregate([])

    def concat(g: pa.Table) -> pa.Table:
        srcs = sorted(set(g["source"].to_pylist()))
        return pa.table({
            "lang": pa.array([g["lang"][0].as_py()], pa.string()),
            "sources": pa.array([",".join(srcs)], pa.string()),
            "n_sources": pa.array([len(srcs)], pa.int64())})

    return _read(sf_dir, "documents", ["lang", "source"]) \
        .map_batches(local_distinct, batch_format="pyarrow") \
        .groupby("lang").map_groups(concat, batch_format="pyarrow")


def q_monthly_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Calendar-month rollup: orders per month with integer cents revenue.
    Month derives from the epoch-us timestamp via numpy datetime64[M]
    (exact calendar math, no float) and is keyed as months-since-epoch —
    the same integer DuckDB's date_diff('month', ...) produces."""
    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(b["o_orderdate"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        month = us.astype("datetime64[us]").astype("datetime64[M]") \
            .astype(np.int64)
        t = pa.table({
            "month": pa.array(month, pa.int64()),
            "n_orders": pa.array(np.ones(len(us), np.int64)),
            "revenue_cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})
        g = t.group_by("month").aggregate(
            [("n_orders", "sum"), ("revenue_cents", "sum")])
        return pa.table({"month": g["month"],
                         "n_orders": pc.cast(g["n_orders_sum"], pa.int64()),
                         "revenue_cents": pc.cast(g["revenue_cents_sum"],
                                                  pa.int64())})

    return bucketed_group_sum_multi(
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["month"], ["n_orders", "revenue_cents"])


def q_events_dow_hour(sf_dir: str) -> "ray.data.Dataset":
    """Day-of-week × hour-of-day activity heatmap. Both coordinates are
    pure int64 expressions of the epoch-us timestamp ((days+3)%7 pins
    Monday=0 on BOTH sides; hour = (us//3600e6)%24) so the grid is
    hash-exact; combiner-first counts, exchange ≤ 168 cells per batch."""
    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((us // 86_400_000_000) + 3) % 7  # epoch day 0 = Thursday
        hod = (us // 3_600_000_000) % 24
        t = pa.table({"dow": pa.array(dow, pa.int64()),
                      "hod": pa.array(hod, pa.int64()),
                      "n_events": pa.array(np.ones(len(us), np.int64))})
        g = t.group_by(["dow", "hod"]).aggregate([("n_events", "sum")])
        return pa.table({"dow": g["dow"], "hod": g["hod"],
                         "n_events": pc.cast(g["n_events_sum"], pa.int64())})

    return bucketed_group_sum_multi(
        _read(sf_dir, "events", ["ts"])
        .map_batches(partial, batch_format="pyarrow"),
        ["dow", "hod"], ["n_events"])


def q_small_quantity_revenue(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q17 shape, division-free: revenue of lineitems whose quantity
    is below 20% of their part's average quantity. Pass 1: per-part
    integer moments (n, Σqty) via a bucketed sum; pass 2 re-streams
    lineitem co-bucketed with the moments (hash join on partkey) and
    filters by the cross-multiplied INTEGER inequality
        5 * qty * n_part < sum_qty
    — no division, no float, so the one-row result is hash-exact."""
    from ..functions.agg import bucketed_group_sum_multi
    from ..functions.joins import hash_join

    def moments(b: pa.Table) -> pa.Table:
        q = np.floor(b["l_quantity"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) + 0.5).astype(np.int64)
        t = pa.table({"l_partkey": b["l_partkey"],
                      "n_part": pa.array(np.ones(len(q), np.int64)),
                      "sum_qty": pa.array(q, pa.int64())})
        g = t.group_by("l_partkey").aggregate(
            [("n_part", "sum"), ("sum_qty", "sum")])
        return pa.table({"l_partkey": g["l_partkey"],
                         "n_part": pc.cast(g["n_part_sum"], pa.int64()),
                         "sum_qty": pc.cast(g["sum_qty_sum"], pa.int64())})

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])
    avg = bucketed_group_sum_multi(
        li.map_batches(moments, batch_format="pyarrow"),
        ["l_partkey"], ["n_part", "sum_qty"])

    def fact(b: pa.Table) -> pa.Table:
        q = np.floor(b["l_quantity"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) + 0.5).astype(np.int64)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "qty": pa.array(q, pa.int64()),
            "cents": pa.array(
                _cents(b["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    j = hash_join(
        li.map_batches(fact, batch_format="pyarrow"), avg, on="l_partkey",
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("qty", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("l_partkey", pa.int64()),
                                ("n_part", pa.int64()),
                                ("sum_qty", pa.int64())]))

    def reduce_local(b: pa.Table) -> pa.Table:
        qty = b["qty"].to_numpy(zero_copy_only=False)
        n = b["n_part"].to_numpy(zero_copy_only=False)
        s = b["sum_qty"].to_numpy(zero_copy_only=False)
        c = b["cents"].to_numpy(zero_copy_only=False)
        keep = 5 * qty * n < s
        return pa.table({
            "revenue_cents": pa.array([np.int64(c[keep].sum())]),
            "n_rows": pa.array([np.int64(keep.sum())])})

    def total(b: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_cents": pa.array(
                [np.int64(b["revenue_cents"].to_numpy().sum())]),
            "n_rows": pa.array([np.int64(b["n_rows"].to_numpy().sum())])})

    return j.map_batches(reduce_local, batch_format="pyarrow") \
        .repartition(1).map_batches(total, batch_format="pyarrow")


def q_brand_type_share(sf_dir: str) -> "ray.data.Dataset":
    """Revenue share of each brand WITHIN its part type, as exact integers
    (brand_cents, type_cents): the percent-of-parent window pattern.
    lineitem⨝part co-bucketed on partkey (both fact-sized at crawl
    scale), combiner-first (type, brand) sums, then the per-type total
    joined back to the ~|brands×types| rows in one tiny single-block
    pass."""
    from ..functions.agg import bucketed_group_sum_multi
    from ..functions.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"]) \
        .map_batches(lambda b: pa.table({
            "l_partkey": b["l_partkey"],
            "cents": pa.array(
                _cents(b["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64())}), batch_format="pyarrow")
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type"]) \
        .map_batches(lambda b: pa.table({
            "l_partkey": b["p_partkey"],
            "p_brand": b["p_brand"],
            "p_type": b["p_type"]}), batch_format="pyarrow")
    j = hash_join(
        li, part, on="l_partkey",
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("l_partkey", pa.int64()),
                                ("p_brand", pa.string()),
                                ("p_type", pa.string())]))

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"p_type": b["p_type"], "p_brand": b["p_brand"],
                      "brand_cents": b["cents"]})
        g = t.group_by(["p_type", "p_brand"]).aggregate(
            [("brand_cents", "sum")])
        return pa.table({"p_type": g["p_type"], "p_brand": g["p_brand"],
                         "brand_cents": pc.cast(g["brand_cents_sum"],
                                                pa.int64())})

    fine = bucketed_group_sum_multi(
        j.map_batches(partial, batch_format="pyarrow"),
        ["p_type", "p_brand"], ["brand_cents"])

    def add_type_total(b: pa.Table) -> pa.Table:
        g = b.group_by(["p_type", "p_brand"]).aggregate(
            [("brand_cents", "sum")])
        ty = g["p_type"].to_pylist()
        bc = pc.cast(g["brand_cents_sum"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        totals: Dict[str, int] = {}
        for t_, c_ in zip(ty, bc):
            totals[t_] = totals.get(t_, 0) + int(c_)
        return pa.table({
            "p_type": g["p_type"], "p_brand": g["p_brand"],
            "brand_cents": pa.array(bc, pa.int64()),
            "type_cents": pa.array([totals[t_] for t_ in ty], pa.int64())})

    return fine.repartition(1).map_batches(add_type_total,
                                           batch_format="pyarrow")


def q_activity_streaks(sf_dir: str) -> "ray.data.Dataset":
    """Gaps-and-islands: per user, the count of distinct active days and
    the LONGEST run of consecutive days (day - rank collapses a run to a
    constant — the classic islands trick, vectorized). One hash(user)
    shuffle; per-batch distinct (user, day) combiner bounds the exchange
    by active-days, not events."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)
    us_per_day = np.int64(86_400_000_000)

    def distinct_local(b: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": b["user_id"],
            "day": pa.array(
                pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
                // us_per_day, pa.int64())})
        g = t.group_by(["user_id", "day"]).aggregate([])
        return g.append_column("pkey", pa.array(bucket_of_ints(
            g["user_id"].to_numpy(zero_copy_only=False), nb)))

    def streaks(g: pa.Table) -> pa.Table:
        t = g.group_by(["user_id", "day"]).aggregate([])
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        day = t["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        n = len(uid)
        idx = np.arange(n)
        new_u = np.empty(n, bool)
        new_u[:1] = True
        new_u[1:] = uid[1:] != uid[:-1]
        ustart = np.maximum.accumulate(np.where(new_u, idx, 0))
        rank_in_user = idx - ustart  # 0-based, days unique per user
        island = day - rank_in_user  # constant within a consecutive run
        new_run = np.empty(n, bool)
        new_run[:1] = True
        new_run[1:] = new_u[1:] | (island[1:] != island[:-1])
        rstart = np.maximum.accumulate(np.where(new_run, idx, 0))
        run_len = idx - rstart + 1
        # longest streak per user = max run_len; active days = count
        s = pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "run_len": pa.array(run_len, pa.int64()),
            "one": pa.array(np.ones(n, np.int64))})
        a = s.group_by("user_id").aggregate(
            [("run_len", "max"), ("one", "sum")])
        return pa.table({
            "user_id": a["user_id"],
            "active_days": pc.cast(a["one_sum"], pa.int64()),
            "longest_streak": pc.cast(a["run_len_max"], pa.int64())})

    return _read(sf_dir, "events", ["user_id", "ts"]) \
        .map_batches(distinct_local, batch_format="pyarrow") \
        .groupby("pkey").map_groups(streaks, batch_format="pyarrow")


def q_customer_order_gaps(sf_dir: str) -> "ray.data.Dataset":
    """Inter-order gaps per customer: total days between consecutive
    orders (ordered by date then orderkey) plus the order count — the
    LAG/diff pattern as exact integers (avg gap = total/(n-1) left
    rational). One hash(customer) shuffle; per-bucket one lexsort and one
    masked diff answer every customer at once."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)
    us_per_day = np.int64(86_400_000_000)

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table({
            "o_custkey": b["o_custkey"],
            "day": pa.array(
                pc.cast(b["o_orderdate"], pa.int64())
                .to_numpy(zero_copy_only=False) // us_per_day, pa.int64()),
            "o_orderkey": b["o_orderkey"]})
        return t.append_column("pkey", pa.array(bucket_of_ints(
            t["o_custkey"].to_numpy(zero_copy_only=False), nb)))

    def gaps(g: pa.Table) -> pa.Table:
        ck = g["o_custkey"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        ok = g["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, day, ck))
        ck, day = ck[order], day[order]
        n = len(ck)
        same = np.zeros(n, bool)
        same[1:] = ck[1:] == ck[:-1]
        diff = np.zeros(n, np.int64)
        diff[1:] = day[1:] - day[:-1]
        t = pa.table({
            "o_custkey": pa.array(ck, pa.int64()),
            "gap": pa.array(np.where(same, diff, 0), pa.int64()),
            "one": pa.array(np.ones(n, np.int64))})
        a = t.group_by("o_custkey").aggregate(
            [("gap", "sum"), ("one", "sum")])
        return pa.table({
            "o_custkey": a["o_custkey"],
            "total_gap_days": pc.cast(a["gap_sum"], pa.int64()),
            "n_orders": pc.cast(a["one_sum"], pa.int64())})

    return _read(sf_dir, "orders",
                 ["o_custkey", "o_orderdate", "o_orderkey"]) \
        .map_batches(prep, batch_format="pyarrow") \
        .groupby("pkey").map_groups(gaps, batch_format="pyarrow")


def q_table_audit(sf_dir: str) -> "ray.data.Dataset":
    """Data-quality audit (expectations report): per audited lineitem
    column, one row with null count, integer min/max (cents for prices)
    and row count. Mergeable (n_null, min, max, n) partials per batch —
    the audit of a 100-TB table exchanges #columns rows per block."""
    cols = [("l_quantity", 1), ("l_extendedprice", 100),
            ("l_discount", 100), ("l_tax", 100)]

    def partial(b: pa.Table) -> pa.Table:
        names, nn, mn, mx, n = [], [], [], [], []
        for c, scale in cols:
            arr = b[c]
            v = np.floor(arr.to_numpy(zero_copy_only=False)
                         .astype(np.float64) * scale + 0.5).astype(np.int64)
            names.append(c)
            nn.append(int(arr.null_count))
            mn.append(int(v.min()) if len(v) else np.iinfo(np.int64).max)
            mx.append(int(v.max()) if len(v) else np.iinfo(np.int64).min)
            n.append(len(v))
        return pa.table({"column": pa.array(names, pa.string()),
                         "n_null": pa.array(nn, pa.int64()),
                         "min_q": pa.array(mn, pa.int64()),
                         "max_q": pa.array(mx, pa.int64()),
                         "n_rows": pa.array(n, pa.int64())})

    def merge(b: pa.Table) -> pa.Table:
        g = b.group_by("column").aggregate(
            [("n_null", "sum"), ("min_q", "min"), ("max_q", "max"),
             ("n_rows", "sum")])
        return pa.table({"column": g["column"],
                         "n_null": pc.cast(g["n_null_sum"], pa.int64()),
                         "min_q": pc.cast(g["min_q_min"], pa.int64()),
                         "max_q": pc.cast(g["max_q_max"], pa.int64()),
                         "n_rows": pc.cast(g["n_rows_sum"], pa.int64())})

    return _read(sf_dir, "lineitem", [c for c, _ in cols]) \
        .map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(merge, batch_format="pyarrow")


def q_dataset_split(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic train/val/test split (80/10/10 by md5(doc_id) bucket
    mod 100) with per-(split, lang) counts — the reproducible-split
    primitive every training pipeline needs. Stateless assignment, then a
    combiner-first count; exchange ∝ 3 x langs per batch."""
    import hashlib as _hl

    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        hb = np.fromiter(
            (int(_hl.md5(str(i).encode()).hexdigest()[:8], 16) % 100
             for i in ids), np.int64, len(ids))
        split = np.where(hb < 80, "train", np.where(hb < 90, "val", "test"))
        t = pa.table({"split": pa.array(split, pa.string()),
                      "lang": b["lang"],
                      "n_docs": pa.array(np.ones(len(ids), np.int64)),
                      "sum_chars": pc.cast(b["n_chars"], pa.int64())})
        g = t.group_by(["split", "lang"]).aggregate(
            [("n_docs", "sum"), ("sum_chars", "sum")])
        return pa.table({"split": g["split"], "lang": g["lang"],
                         "n_docs": pc.cast(g["n_docs_sum"], pa.int64()),
                         "sum_chars": pc.cast(g["sum_chars_sum"],
                                              pa.int64())})

    return bucketed_group_sum_multi(
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow"),
        ["split", "lang"], ["n_docs", "sum_chars"])


def q_split_no_leakage(sf_dir: str) -> "ray.data.Dataset":
    """Leakage-FREE train/val/test split — the fix for what split_leakage
    audits: every doc is assigned the md5 bucket of its near-dup CLUSTER
    REPRESENTATIVE (docs outside any cluster are their own rep), so a
    near-dup pair can never straddle splits. Composition: min-label
    clusters (q_dedup_clusters) co-bucket-LEFT-joined to documents, then
    the stateless split + combiner-first rollup — same output shape as
    dataset_split. Entirely SQL-expressible (recursive-CTE clusters +
    LEFT JOIN + md5 split), so the whole composition is hash-gated."""
    import hashlib as _hl

    from ..functions.agg import bucketed_group_sum_multi
    from ..functions.joins import hash_join

    clusters = q_dedup_clusters(sf_dir)
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    j = hash_join(
        docs, clusters, on="doc_id", how="left",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("lang", pa.string()),
                               ("n_chars", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("cluster_rep", pa.int64())]))

    def partial(b: pa.Table) -> pa.Table:
        rep = pc.coalesce(b["cluster_rep"], b["doc_id"]).to_pylist()
        hb = np.fromiter(
            (int(_hl.md5(str(r).encode()).hexdigest()[:8], 16) % 100
             for r in rep), np.int64, len(rep))
        split = np.where(hb < 80, "train", np.where(hb < 90, "val", "test"))
        t = pa.table({"split": pa.array(split, pa.string()),
                      "lang": b["lang"],
                      "n_docs": pa.array(np.ones(len(rep), np.int64)),
                      "sum_chars": pc.cast(b["n_chars"], pa.int64())})
        g = t.group_by(["split", "lang"]).aggregate(
            [("n_docs", "sum"), ("sum_chars", "sum")])
        return pa.table({"split": g["split"], "lang": g["lang"],
                         "n_docs": pc.cast(g["n_docs_sum"], pa.int64()),
                         "sum_chars": pc.cast(g["sum_chars_sum"],
                                              pa.int64())})

    return bucketed_group_sum_multi(
        j.map_batches(partial, batch_format="pyarrow"),
        ["split", "lang"], ["n_docs", "sum_chars"])


def q_fk_orphans(sf_dir: str) -> "ray.data.Dataset":
    """Referential-integrity audit: orphan counts for the two fact FKs
    (orders.o_custkey -> customer, lineitem.l_orderkey -> orders) via the
    distributed anti semi-join. Each anti-join's output reduces to per-batch
    (relation, n) count partials INSIDE the dataset; a zero-row seed per
    relation guarantees both rows exist, and one union + tiny groupby-sum
    executes BOTH anti-joins in a single concurrent run — no serial
    driver-blocking .count() pair (round-3 verdict fix). The audit's
    exchange is the anti-join's (key, tag) hop, never full rows."""
    from ..functions.joins import semi_join

    def count_rows(tag: str):
        def f(b: pa.Table) -> pa.Table:
            return pa.table({
                "relation": pa.array([tag], pa.string()),
                "n": pa.array([b.num_rows], pa.int64())})
        return f

    orphan_orders = semi_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        _read(sf_dir, "customer", ["c_custkey"]),
        left_on="o_custkey", keep_on="c_custkey", anti=True) \
        .map_batches(count_rows("orders->customer"), batch_format="pyarrow")
    orphan_lines = semi_join(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"]),
        _read(sf_dir, "orders", ["o_orderkey"]),
        left_on="l_orderkey", keep_on="o_orderkey", anti=True) \
        .map_batches(count_rows("lineitem->orders"), batch_format="pyarrow")
    # ONE execution runs both anti-joins concurrently; the count partials
    # (a handful of (relation, n) rows) reduce on the driver — a groupby
    # here would cost a full sort shuffle for a 2-row answer
    totals = {"lineitem->orders": 0, "orders->customer": 0}
    for r in orphan_orders.union(orphan_lines).take_all():
        totals[r["relation"]] += int(r["n"])
    return ray.data.from_arrow(pa.table({
        "relation": pa.array(sorted(totals), pa.string()),
        "n_orphans": pa.array([totals[k] for k in sorted(totals)],
                              pa.int64())}))


def q_weighted_sample_n(sf_dir: str) -> "ray.data.Dataset":
    """Efraimidis-Spirakis weighted sampling without replacement (exact-N):
    the 50 docs with the largest ln(u)/weight where u = (md5_32+1)/2^32
    and weight = n_chars — longer docs proportionally likelier, selection
    deterministic and mergeable (per-batch local top-50, one-block final).
    The sort key is the identical float64 expression on both sides, so the
    top-50 set hash-matches; the key itself stays out of the output."""
    import hashlib as _hl

    n = 50

    def local_topn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        h32 = np.fromiter(
            (int(_hl.md5(str(i).encode()).hexdigest()[:8], 16)
             for i in ids), np.int64, len(ids))
        w = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        k = np.log((h32 + 1) / 4294967296.0) / w
        order = np.lexsort((np.asarray(ids, np.int64), -k))[:n]
        return pa.table({
            "doc_id": pa.array(np.asarray(ids, np.int64)[order], pa.int64()),
            "n_chars": pa.array(
                b["n_chars"].to_numpy(zero_copy_only=False)[order],
                pa.int64())})

    return _read(sf_dir, "documents", ["doc_id", "n_chars"]) \
        .map_batches(local_topn, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(local_topn, batch_format="pyarrow")


_BM25_TERMS = ("table", "merge", "fast")


def q_bm25_topk(sf_dir: str) -> "ray.data.Dataset":
    """Distributed BM25 ranking (k1=1.2, b=0.75) for a fixed query, as
    EXACT INTEGERS: with tf, dl, N, total all ints, the per-term score
    reduces to the integer floor division
        (idf_micro * 22*tf*total) // (10*total*tf + 3*total + 9*dl*N)
    (22/10/3/9 absorb k1=6/5, b=3/4); idf_micro quantizes the one float op
    (ln) identically on both sides. Pass 1 reduces corpus stats (N, total
    tokens, per-term df) to a handful of broadcast ints; pass 2 scores
    per batch vectorized and keeps a local top-50."""
    split_args = dict(batch_format="pyarrow")

    def toks(b: pa.Table):
        txt = pc.utf8_lower(b["text"].combine_chunks())
        trimmed = pc.replace_substring_regex(txt, r"^\s+|\s+$", "")
        split = pc.split_pattern_regex(trimmed, r"\s+")
        return split

    def stats(b: pa.Table) -> pa.Table:
        split = toks(b)
        dl = pc.list_value_length(split).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = pc.list_flatten(split)
        parents = pc.list_parent_indices(split) \
            .to_numpy(zero_copy_only=False)
        out = {"n": pa.array([np.int64(len(dl))]),
               "total": pa.array([dl.sum()], pa.int64())}
        for t in _BM25_TERMS:
            m = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(parents[m], minlength=len(dl))
            out[f"df_{t}"] = pa.array([np.int64((tf > 0).sum())])
        return pa.table(out)

    st = _read(sf_dir, "documents", ["text"]) \
        .map_batches(stats, **split_args).to_pandas().sum()
    n_docs = np.int64(st["n"])
    total = np.int64(st["total"])
    idf = {}
    for t in _BM25_TERMS:
        df = np.float64(st[f"df_{t}"])
        idf[t] = np.int64(np.floor(
            1e6 * np.log(1 + (n_docs - df + 0.5) / (df + 0.5)) + 0.5))

    k = 50

    def score(b: pa.Table) -> pa.Table:
        split = toks(b)
        dl = pc.list_value_length(split).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = pc.list_flatten(split)
        parents = pc.list_parent_indices(split) \
            .to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sc = np.zeros(len(dl), np.int64)
        hit = np.zeros(len(dl), bool)
        den_base = 3 * total + 9 * dl * n_docs
        for t in _BM25_TERMS:
            m = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(parents[m], minlength=len(dl)) \
                .astype(np.int64)
            has = tf > 0
            hit |= has
            num = idf[t] * 22 * tf * total
            den = 10 * total * tf + den_base
            sc += np.where(has, num // den, 0)
        ids, sc = ids[hit], sc[hit]
        order = np.lexsort((ids, -sc))[:k]
        return pa.table({"doc_id": pa.array(ids[order], pa.int64()),
                         "score_micro": pa.array(sc[order], pa.int64())})

    def final(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sc = b["score_micro"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sc))[:k]
        return pa.table({"doc_id": pa.array(ids[order], pa.int64()),
                         "score_micro": pa.array(sc[order], pa.int64())})

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(score, **split_args) \
        .repartition(1).map_batches(final, **split_args)


def q_price_band_pairs(sf_dir: str) -> "ray.data.Dataset":
    """Distributed banded self-join (non-equi |a-b| < band with BOTH sides
    large): part pairs whose retail prices differ by under $1. Each part
    is emitted to its dollar block and the one below (exact cover of the
    band predicate); a pair materializes only in the block owning its
    SMALLER price (ties: smaller partkey side), so each pair is produced
    exactly once with no dedup exchange — the numeric analog of
    fuzzy_pairs' length blocking. In-block matching is one lexsort +
    searchsorted window expansion, fully vectorized. Scale caveat: output
    is inherently quadratic in per-block value density — at crawl scale,
    shrink the band or pre-aggregate to distinct values (as fuzzy_pairs
    does) before pairing."""
    band = 100  # cents

    def emit(b: pa.Table) -> pa.Table:
        key = b["p_partkey"].to_numpy(zero_copy_only=False)
        cents = _cents(b["p_retailprice"].to_numpy(zero_copy_only=False))
        blk = cents // band
        return pa.table({
            "p_partkey": pa.array(np.concatenate([key, key]), pa.int64()),
            "cents": pa.array(np.concatenate([cents, cents]), pa.int64()),
            "blk": pa.array(np.concatenate([blk, blk - 1]), pa.int64())})

    def pairs(g: pa.Table) -> pa.Table:
        blk = int(g["blk"][0].as_py())
        key = g["p_partkey"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, cents))
        key, cents = key[order], cents[order]
        # anchors: elements whose cents natively lie in this block (the
        # pair's SMALLER price owns it; equal-cents pairs are owned once
        # because the sort puts the smaller partkey first)
        anchors = np.nonzero(cents // band == blk)[0]
        hi = np.searchsorted(cents, cents[anchors] + band, side="left")
        cnt = hi - (anchors + 1)
        cnt = np.maximum(cnt, 0)
        rep_i = np.repeat(anchors, cnt)
        offs = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        rep_j = np.repeat(anchors + 1, cnt) + offs
        a, b2 = key[rep_i], key[rep_j]
        return pa.table({
            "part_a": pa.array(np.minimum(a, b2), pa.int64()),
            "part_b": pa.array(np.maximum(a, b2), pa.int64()),
            "diff_cents": pa.array(cents[rep_j] - cents[rep_i],
                                   pa.int64())})

    return _read(sf_dir, "part", ["p_partkey", "p_retailprice"]) \
        .map_batches(emit, batch_format="pyarrow") \
        .groupby("blk").map_groups(pairs, batch_format="pyarrow")


def q_activity_feed(sf_dir: str) -> "ray.data.Dataset":
    """Heterogeneous-source union (activity feed): purchases and orders
    harmonized to one (ts_us, kind, entity_id, cents) schema and unioned —
    Ray Data's union is a zero-copy block concatenation, so mixing N
    sources costs nothing beyond their own reads."""
    def from_events(b: pa.Table) -> pa.Table:
        return pa.table({
            "ts_us": pc.cast(b["ts"], pa.int64()),
            "kind": pa.array(["event"] * b.num_rows, pa.string()),
            "entity_id": b["event_id"],
            "cents": pa.array(
                _cents(b["value"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    def from_orders(b: pa.Table) -> pa.Table:
        return pa.table({
            "ts_us": pc.cast(b["o_orderdate"], pa.int64()),
            "kind": pa.array(["order"] * b.num_rows, pa.string()),
            "entity_id": b["o_orderkey"],
            "cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    ev = _read(sf_dir, "events", ["ts", "event_id", "event_type", "value"]) \
        .filter(expr="event_type == 'purchase'") \
        .map_batches(from_events, batch_format="pyarrow")
    od = _read(sf_dir, "orders",
               ["o_orderdate", "o_orderkey", "o_totalprice"]) \
        .map_batches(from_orders, batch_format="pyarrow")
    return ev.union(od)


def q_lang_dict_encode(sf_dir: str) -> "ray.data.Dataset":
    """Dictionary encoding (categorical -> dense id): every doc's language
    replaced by its alphabetical dense rank. The dictionary is a distinct
    pass reduced to a tiny broadcast map; the encode is a stateless
    vectorized lookup — the feature-store categorical primitive."""
    langs = sorted(r["lang"] for r in _read(sf_dir, "documents", ["lang"])
                   .groupby("lang").count().select_columns(["lang"])
                   .take_all())
    lut = {l: i + 1 for i, l in enumerate(langs)}

    def encode(b: pa.Table) -> pa.Table:
        ids = np.fromiter((lut[l] for l in b["lang"].to_pylist()),
                          np.int64, b.num_rows)
        return pa.table({"doc_id": b["doc_id"],
                         "lang_id": pa.array(ids, pa.int64())})

    return _read(sf_dir, "documents", ["doc_id", "lang"]) \
        .map_batches(encode, batch_format="pyarrow")


def q_rolling_active_users(sf_dir: str) -> "ray.data.Dataset":
    """Rolling 7-day distinct active users per day (windowed COUNT
    DISTINCT — not a cumsum, distinct doesn't difference): each distinct
    (user, day) pair is EXPANDED to the 7 window-end days it feeds, then
    one bucketed distinct-and-count on (window_day). Exchange = 7 x
    distinct pairs — bounded by activity, never event rows."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)
    us_per_day = np.int64(86_400_000_000)

    def expand(b: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": b["user_id"],
            "day": pa.array(
                pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
                // us_per_day, pa.int64())})
        g = t.group_by(["user_id", "day"]).aggregate([])
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        wday = (day[:, None] + np.arange(7)[None, :]).ravel()
        uid7 = np.repeat(uid, 7)
        out = pa.table({"day": pa.array(wday, pa.int64()),
                        "user_id": pa.array(uid7, pa.int64())})
        return out.append_column("pkey", pa.array(
            bucket_of_ints(wday, nb)))

    def count_distinct(g: pa.Table) -> pa.Table:
        d = g.group_by(["day", "user_id"]).aggregate([])
        t = pa.table({"day": d["day"],
                      "n": pa.array(np.ones(d.num_rows, np.int64))})
        a = t.group_by("day").aggregate([("n", "sum")])
        return pa.table({"day": a["day"],
                         "active_users_7d": pc.cast(a["n_sum"],
                                                    pa.int64())})

    return _read(sf_dir, "events", ["user_id", "ts"]) \
        .map_batches(expand, batch_format="pyarrow") \
        .groupby("pkey").map_groups(count_distinct, batch_format="pyarrow")


def q_late_ship_orders(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q4 shape — EXISTS with a cross-table inequality: orders (per
    priority) having any lineitem shipped >60 days after the order date.
    The EXISTS collapses algebraically to max(l_shipdate) per order — a
    combiner-first bucketed MAX — so the exchange ships one row per order,
    and the predicate evaluates after a co-bucketed join."""
    from ..functions.joins import hash_join
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)
    late_us = np.int64(60) * 86_400_000_000

    def ship_max_local(b: pa.Table) -> pa.Table:
        t = pa.table({"o_orderkey": b["l_orderkey"],
                      "ship_us": pc.cast(b["l_shipdate"], pa.int64())})
        g = t.group_by("o_orderkey").aggregate([("ship_us", "max")])
        out = pa.table({"o_orderkey": g["o_orderkey"],
                        "ship_us": pc.cast(g["ship_us_max"], pa.int64())})
        return out.append_column("pkey", pa.array(bucket_of_ints(
            out["o_orderkey"].to_numpy(zero_copy_only=False), nb)))

    def ship_max_merge(g: pa.Table) -> pa.Table:
        a = g.group_by("o_orderkey").aggregate([("ship_us", "max")])
        return pa.table({"o_orderkey": a["o_orderkey"],
                         "max_ship_us": pc.cast(a["ship_us_max"],
                                                pa.int64())})

    ship = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]) \
        .map_batches(ship_max_local, batch_format="pyarrow") \
        .groupby("pkey").map_groups(ship_max_merge, batch_format="pyarrow")

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(lambda b: pa.table({
            "o_orderkey": b["o_orderkey"],
            "odate_us": pc.cast(b["o_orderdate"], pa.int64()),
            "o_orderpriority": b["o_orderpriority"]}),
            batch_format="pyarrow")

    j = hash_join(
        ship, orders, on="o_orderkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("max_ship_us", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("odate_us", pa.int64()),
                                ("o_orderpriority", pa.string())]))

    def count_late(b: pa.Table) -> pa.Table:
        late = b["max_ship_us"].to_numpy(zero_copy_only=False) > \
            b["odate_us"].to_numpy(zero_copy_only=False) + late_us
        t = pa.table({"o_orderpriority": b["o_orderpriority"],
                      "n_late": pa.array(late.astype(np.int64), pa.int64())})
        g = t.group_by("o_orderpriority").aggregate([("n_late", "sum")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "n_late": pc.cast(g["n_late_sum"], pa.int64())})

    from ..functions.agg import bucketed_group_sum_multi
    return bucketed_group_sum_multi(
        j.map_batches(count_late, batch_format="pyarrow"),
        ["o_orderpriority"], ["n_late"]) \
        .filter(expr="n_late > 0")


def q_doc_sample_n(sf_dir: str) -> "ray.data.Dataset":
    """EXACT-N deterministic sample (reservoir twin): the 100 docs with the
    smallest md5(doc_id) — a stable pseudo-random draw. Plan: per-batch
    LOCAL top-100 (partial top-k, no global sort shuffle — candidate
    volume is 100 x #batches, not corpus size), then one single-block
    final top-100."""
    import hashlib as _hl

    n = 100

    def local_topn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        h = [_hl.md5(str(i).encode()).hexdigest() for i in ids]
        t = pa.table({"doc_id": b["doc_id"],
                      "h": pa.array(h, pa.string())}) \
            .sort_by([("h", "ascending"), ("doc_id", "ascending")])
        return t.slice(0, n)

    def final_topn(b: pa.Table) -> pa.Table:
        return b.sort_by([("h", "ascending"),
                          ("doc_id", "ascending")]).slice(0, n)

    return _read(sf_dir, "documents", ["doc_id"]) \
        .map_batches(local_topn, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(final_topn, batch_format="pyarrow", batch_size=None)


def q_length_variance(sf_dir: str) -> "ray.data.Dataset":
    """Integer-exact dispersion moments per language: n, sum, sum-of-
    squares, and the variance NUMERATOR n*sumsq - sum^2 (population
    variance = num / n^2) — all int64, so the combiner-first distributed
    sum is associative and hash-exact; no float division on either side."""
    from ..functions.agg import bucketed_group_sum_multi

    def partial(b: pa.Table) -> pa.Table:
        v = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"lang": b["lang"],
                      "n_docs": pa.array(np.ones(len(v), np.int64)),
                      "sum_len": pa.array(v, pa.int64()),
                      "sumsq_len": pa.array(v * v, pa.int64())})
        g = t.group_by("lang").aggregate(
            [("n_docs", "sum"), ("sum_len", "sum"), ("sumsq_len", "sum")])
        return pa.table({"lang": g["lang"],
                         **{c: pc.cast(g[f"{c}_sum"], pa.int64())
                            for c in ("n_docs", "sum_len", "sumsq_len")}})

    agg = bucketed_group_sum_multi(
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow"),
        ["lang"], ["n_docs", "sum_len", "sumsq_len"])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n_docs"].to_numpy(zero_copy_only=False)
        s = b["sum_len"].to_numpy(zero_copy_only=False)
        ss = b["sumsq_len"].to_numpy(zero_copy_only=False)
        return b.append_column("var_num", pa.array(n * ss - s * s, pa.int64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def q_quality_weighted_sample(sf_dir: str) -> "ray.data.Dataset":
    """Probability-proportional-to-quality sampling (corpus mixing): each
    doc survives with probability = its alpha-character ratio, decided by
    the deterministic md5 membership hash compared as an EXACT RATIONAL
    (h32 * n_chars < n_alpha * 2^32 — products bounded < 2^63, pure int64,
    no float on either side). Zero shuffle; stateless map."""
    import hashlib as _hl

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.quality_stats_batch, batch_format="pyarrow")

    def keep(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        h32 = np.array([int(_hl.md5(str(i).encode()).hexdigest()[:8], 16)
                        for i in ids], dtype=np.int64)
        n_chars = b["n_chars"].to_numpy(zero_copy_only=False)
        n_alpha = b["n_alpha"].to_numpy(zero_copy_only=False)
        mask = h32 * n_chars < n_alpha * (np.int64(1) << 32)
        return b.select(["doc_id", "n_chars", "n_alpha"]) \
            .filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def q_source_cap(sf_dir: str) -> "ray.data.Dataset":
    """Per-source document cap (domain throttling, the RefinedWeb/C4 move
    against boilerplate-heavy hosts): keep at most K docs per source, chosen
    deterministically by md5(doc_id) order so the survivors are a stable
    pseudo-random sample. One shuffle on hash(source); in-bucket the rank
    is an Arrow sort + cumsum segment offset — no per-group calls."""
    import hashlib as _hl
    from ..sharding import auto_buckets, bucket_of_strs

    cap = 15  # < docs-per-source at every sf, so the throttle always bites
    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    num_buckets = auto_buckets(ds.count(), rows_per_bucket=65536)

    def add_keys(b: pa.Table) -> pa.Table:
        srcs = b["source"].to_pylist()
        ids = b["doc_id"].to_pylist()
        h = [_hl.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table({
            "doc_id": b["doc_id"], "source": b["source"],
            "h": pa.array(h, pa.string()),
            "pkey": pa.array(bucket_of_strs(srcs, num_buckets), pa.int64())})

    def per_bucket(g: pa.Table) -> pa.Table:
        t = g.sort_by([("source", "ascending"), ("h", "ascending"),
                       ("doc_id", "ascending")])
        n = t.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "source": pa.array([], pa.string())})
        src = np.asarray(t["source"].to_pylist(), dtype=object)
        new_src = np.empty(n, dtype=bool)
        new_src[0] = True
        new_src[1:] = src[1:] != src[:-1]
        idx = np.arange(n, dtype=np.int64)
        start_of = np.maximum.accumulate(np.where(new_src, idx, 0))
        rank = idx - start_of  # 0-based rank within source
        return t.filter(pa.array(rank < cap)).select(["doc_id", "source"])

    return ds.map_batches(add_keys, batch_format="pyarrow") \
        .groupby("pkey").map_groups(per_bucket, batch_format="pyarrow")


def q_doc_length_rank(sf_dir: str) -> "ray.data.Dataset":
    """Global ordering without a global sort: every document's exact rank
    (and ntile quartile) by length via the broadcast-offset zipWithIndex
    (functions/window.global_rank). Reads ONLY (doc_id, n_chars)."""
    from ..functions.window import global_rank
    return global_rank(_read(sf_dir, "documents", ["doc_id", "n_chars"]),
                       key="n_chars", tie_col="doc_id", descending=True,
                       n_tiles=4)


def q_doc_rank_dist(sf_dir: str) -> "ray.data.Dataset":
    """The DISTRIBUTED-offsets leg of global_rank under a hash gate: rank
    on a per-doc-distinct composite key (n_chars*1e6 + doc_id — distinct
    count == row count, the exact case the driver histogram must NOT
    hold), with max_driver_keys forced low so the value-range-bucket path
    runs at every sf. Driver state: num_buckets scalars, never the
    per-key histogram (functions/window._global_rank_distributed)."""
    from ..functions.window import global_rank

    def key_batch(b: pa.Table) -> pa.Table:
        n = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"len_key": pa.array(n * 1_000_000 + d, pa.int64()),
                         "doc_id": b["doc_id"]})

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"]) \
        .map_batches(key_batch, batch_format="pyarrow")
    return global_rank(ds, key="len_key", tie_col="doc_id",
                       descending=False, max_driver_keys=64)


def q_repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    """Gopher-style repetition signals (top-token share, duplicate 2-/3-gram
    counts) + a fixed-threshold repetition flag, exact-rational compares."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.repetition_stats_batch, batch_format="pyarrow")


def q_pii_redact(sf_dir: str) -> "ray.data.Dataset":
    """PII scrub over the corpus (email/SSN/IPv4/phone presets, sequential
    RE2 passes). This corpus carries no PII so the gate verifies exact
    pass-through + zero counts; the discriminative cases (synthetic PII)
    live in tests/test_functions.py::TestRedact."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.redact_batch, batch_format="pyarrow")


def q_redact_numbers(sf_dir: str) -> "ray.data.Dataset":
    """Digit-run redaction over events.props — same redaction machinery as
    q_pii_redact but with non-zero match counts on this corpus."""
    return _read(sf_dir, "events", ["event_id", "props"]).map_batches(
        lambda b: T.redact_batch(b, col="props",
                                 patterns=[(r"\d+", "<NUM>")],
                                 out_col="red_props"),
        batch_format="pyarrow")


def q_props_extract(sf_dir: str) -> "ray.data.Dataset":
    """Schema-on-read field extraction: pull the integer 'k' field out of
    the JSON-ish props string with one vectorized RE2 pass per batch."""
    return _read(sf_dir, "events", ["event_id", "props"]).map_batches(
        lambda b: T.extract_int_field_batch(
            b, "props", r'"k": (?P<k>\d+)', "k"),
        batch_format="pyarrow")


def q_inverted_index(sf_dir: str) -> "ray.data.Dataset":
    return T.inverted_index(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_doc_top_terms(sf_dir: str) -> "ray.data.Dataset":
    """TF-IDF-style top-3 terms per document (relevance = tf/df, an IEEE
    division — bit-reproducible vs the SQL twin, unlike ln-based idf)."""
    return T.doc_top_terms(_read(sf_dir, "documents", ["doc_id", "text"]),
                           k=3)


def q_top_terms(sf_dir: str) -> "ray.data.Dataset":
    """Global top-25 terms by total frequency (deterministic ties by
    token): the heavy-hitters read path over the inverted index — a
    bucketed aggregate followed by a tiny global sort+limit."""
    idx = T.inverted_index(_read(sf_dir, "documents", ["doc_id", "text"]))
    return idx.select_columns(["token", "tf", "df"]) \
        .sort(["tf", "token"], descending=[True, False]).limit(25)


# ---------------------------------------------------------------- dedup ops

def q_exact_dedup(sf_dir: str) -> "ray.data.Dataset":
    return D.exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_chunk_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Sub-document dedup: every distinct 10-token chunk survives only at
    its first (doc_id, chunk_idx) occurrence; docs are reassembled from
    their surviving chunks."""
    return D.chunk_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                         chunk_tokens=10)


def q_jaccard_pairs(sf_dir: str) -> "ray.data.Dataset":
    # df_sketch_bits defaults to 20: the bounded DF sketch IS the exercised
    # path (output identical to the exact dict by construction)
    return D.jaccard_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                           threshold_num=3, threshold_den=5)


def _ngram_pairs_cached(sf_dir: str,
                        fresh: bool = False) -> "ray.data.Dataset":
    """Materialized 3-gram Jaccard pair Dataset: q_ngram_jaccard_pairs
    builds it, and q_dedup_clusters, q_pagerank_dups, q_corpus_clean and
    q_corpus_train_ready consume the SAME pair set — pair generation is
    the suite's most expensive stage, so it runs once per session."""
    return _session_memo("ngram_pairs", sf_dir, lambda: D.jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold_num=1, threshold_den=2, shingle_k=3).materialize(), fresh)


def q_ngram_jaccard_pairs(sf_dir: str) -> "ray.data.Dataset":
    """3-gram shingle Jaccard >= 1/2, exact via prefix filter."""
    return _ngram_pairs_cached(sf_dir, fresh=True)


@functools.lru_cache(maxsize=1 << 20)
def _is_incoming(doc_id: int) -> bool:
    """The md5 incremental-ingest split shared with q_incremental_dedup:
    ~1/4 of docs are the 'incoming' daily batch, the rest the index.
    Memoized — the candidate pair_filter evaluates it per candidate
    endpoint and hot docs recur across prefix keys."""
    import hashlib as _hl

    return _hl.md5(str(int(doc_id)).encode()).hexdigest()[0] in "0123"


def q_incremental_neardup(sf_dir: str) -> "ray.data.Dataset":
    """Incremental NEAR-dup detection — incremental_dedup's fuzzy sibling:
    for each md5-split 'incoming' doc, its best 3-gram-Jaccard >= 1/2
    match in the EXISTING index partition (max exact rational Jaccard,
    ties by n_inter desc then lowest base id), or no row if clean. The
    candidate stage verifies ONLY increment-vs-base pairs
    (jaccard_pairs(pair_filter=...) drops in-set candidates before the
    token-set hops) — at daily-crawl scale base-vs-base work is the
    dominant waste this operator exists to avoid. Output:
    (doc_id, dup_of, n_inter, n_union)."""
    from ..functions import dedup as D

    def cross(a: int, b: int) -> bool:
        return _is_incoming(a) != _is_incoming(b)

    pairs = D.jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold_num=1, threshold_den=2, shingle_k=3, pair_filter=cross)

    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)

    def orient(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        a_inc = np.fromiter((_is_incoming(x) for x in a), bool, len(a))
        new = np.where(a_inc, a, c)
        base = np.where(a_inc, c, a)
        t = pa.table({
            "doc_id": pa.array(new, pa.int64()),
            "dup_of": pa.array(base, pa.int64()),
            "n_inter": pc.cast(b["n_inter"], pa.int64()),
            "n_union": pc.cast(b["n_union"], pa.int64())})
        return t.append_column("pkey", pa.array(
            bucket_of_ints(new, nb), pa.int64()))

    def best(g: pa.Table) -> pa.Table:
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        dup = g["dup_of"].to_numpy(zero_copy_only=False)
        ni = g["n_inter"].to_numpy(zero_copy_only=False).astype(np.int64)
        nu = g["n_union"].to_numpy(zero_copy_only=False).astype(np.int64)
        # exact-rational order via float64 is safe here (see SQL twin
        # note); explicit tie keys handle rational-equal ratios
        ratio = ni / nu
        order = np.lexsort((dup, -ni, -ratio, did))
        did, dup, ni, nu = did[order], dup[order], ni[order], nu[order]
        first = np.empty(len(did), bool)
        if len(did):
            first[0] = True
            first[1:] = did[1:] != did[:-1]
        return pa.table({
            "doc_id": pa.array(did[first], pa.int64()),
            "dup_of": pa.array(dup[first], pa.int64()),
            "n_inter": pa.array(ni[first], pa.int64()),
            "n_union": pa.array(nu[first], pa.int64())})

    return pairs.map_batches(orient, batch_format="pyarrow") \
        .groupby("pkey").map_groups(best, batch_format="pyarrow")


def q_minhash_pairs(sf_dir: str) -> "ray.data.Dataset":
    # driver twin: same MinHasher signatures, banding replayed with plain
    # dict buckets single-process (pipelines/oracle_dump.py) — gates the
    # distributed band exchange end to end
    from . import oracle_dump as OD

    OD.dump("minhash_pairs",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.minhash_pairs_expected(sf_dir))
    return D.minhash_lsh_pairs(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_simhash_pairs(sf_dir: str) -> "ray.data.Dataset":
    # driver twin: ALL-PAIRS Hamming scan over the same signatures — the
    # 4x16 banding is pigeonhole-guaranteed to match it at max_hamming=3
    from . import oracle_dump as OD

    OD.dump("simhash_pairs",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.simhash_pairs_expected(sf_dir))
    return D.simhash_pairs(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_embedding_neardup(sf_dir: str) -> "ray.data.Dataset":
    # threshold picked for the synthetic corpus (random 64-dim vectors: max
    # pairwise cosine ~0.48) so the result is non-empty at every sf
    return D.embedding_neardup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.4)


def q_embedding_neardup_lsh(sf_dir: str) -> "ray.data.Dataset":
    """Scale-path near-dup by embedding: sign-LSH banding + in-bucket exact
    verify. Driver twin: the seeded hyperplane banding replayed
    single-process with dict buckets (pipelines/oracle_dump.py); the exact
    all-pairs variant (q_embedding_neardup) additionally stays as the
    SQL-checked small-corpus twin."""
    from . import oracle_dump as OD

    OD.dump("embedding_neardup_lsh",
            OD.file_fingerprint(os.path.join(sf_dir, "embeddings.parquet")),
            lambda: OD.embedding_neardup_lsh_expected(sf_dir))
    return D.embedding_neardup_lsh_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.4)


def q_dedup_clusters(sf_dir: str) -> "ray.data.Dataset":
    """Near-dup clusters: distributed min-label propagation over the 3-gram
    Jaccard pairs (pair data never collected to the driver; driver union-find
    remains the unit-test oracle). Output (doc_id, cluster_rep) for every doc
    that belongs to a cluster."""
    pairs = _ngram_pairs_cached(sf_dir)
    return D.cluster_pairs_distributed(pairs.select_columns(["doc_a", "doc_b"]))


def q_pagerank_dups(sf_dir: str) -> "ray.data.Dataset":
    """Integer-exact distributed PageRank over the 3-gram near-dup pair
    graph (fixed-point arithmetic -> bit-identical to the single-machine
    reference at any bucket/worker count; see functions/graph.py). Central
    docs in a duplication cluster score high — a dedup-representative
    selection signal. SQL-gated: the fixed 8-iteration integer recurrence
    unrolls as chained DuckDB CTEs over the same exact pair SQL (see the
    ORACLE_SQL["pagerank_dups"] construction); pytest additionally gates
    bit-equality of the distributed path vs the single-machine reference."""
    from ..functions.graph import pagerank

    pairs = _ngram_pairs_cached(sf_dir)
    return pagerank(pairs.select_columns(["doc_a", "doc_b"]), n_iters=8)


def q_corpus_clean(sf_dir: str) -> "ray.data.Dataset":
    """The canonical training-data cleaning flow as ONE composed pipeline:
    quality gate (length / token / alpha-ratio thresholds) + exact-dedup
    keep-list (only the min-doc_id copy of duplicated content survives).
    Output: the surviving doc_ids with their quality signals — fully
    SQL-expressible, so the whole composition is oracle-checked.

    The keep-list is applied as a co-bucketed SEMI-JOIN on doc_id
    (functions/joins.semi_join): keep-list cardinality ~ #distinct docs, so
    it must never be collected to the driver or broadcast as a Python set —
    both sides shuffle once on the bucketed key instead."""
    from ..functions.joins import semi_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()  # metadata-only
    stats = docs.map_batches(T.quality_stats_batch, batch_format="pyarrow")

    def gate(batch: pa.Table) -> pa.Table:
        n_chars = batch["n_chars"].to_numpy(zero_copy_only=False)
        n_tokens = batch["n_tokens"].to_numpy(zero_copy_only=False)
        n_alpha = batch["n_alpha"].to_numpy(zero_copy_only=False)
        mask = (
            (n_chars >= 100) & (n_tokens >= 20)
            # alpha_ratio >= 0.6 as an exact integer comparison
            & (5 * n_alpha >= 3 * n_chars)
        )
        return batch.filter(pa.array(mask))

    gated = stats.map_batches(gate, batch_format="pyarrow")
    keep = D.exact_dedup(docs).select_columns(["keep_id"])
    stats_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_chars", pa.int64()),
        ("n_tokens", pa.int64()), ("n_alpha", pa.int64()),
        ("n_stop", pa.int64()),
    ])
    return semi_join(gated, keep, left_on="doc_id", keep_on="keep_id",
                     size_hint=n_docs, left_schema=stats_schema)


def q_main_content(sf_dir: str) -> "ray.data.Dataset":
    """North-rule main-content extraction (HTML boilerplate strip / DOM
    heuristics): deterministic HTML is constructed per document from its
    token stream (a link-farm nav block, the body paragraph, a short
    footer) IDENTICALLY in Ray and SQL, then block-level link-density
    heuristics keep only the main content (functions/boilerplate.py spec).
    The nav block dies of link density, the footer of min length — the
    oracle checks the whole strip, not just a pass-through."""
    from ..functions.boilerplate import extract_main_content_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def build_html(batch: pa.Table) -> pa.Table:
        split, empty = T._tokens_list(batch["text"].combine_chunks())
        toks_py = split.to_pylist()
        empties = empty.to_pylist()
        htmls = []
        for toks, e in zip(toks_py, empties):
            toks = [] if e else (toks or [])
            nav = " ".join(f'<a href="#">{w}</a>' for w in toks[:10])
            body = " ".join(toks[10:])
            htmls.append(f"<div>{nav}</div><p>{body}</p><div>ok</div>")
        return pa.table({
            "doc_id": batch["doc_id"],
            "html": pa.array(htmls, pa.string()),
        })

    return ds.map_batches(build_html, batch_format="pyarrow") \
        .map_batches(extract_main_content_batch, batch_format="pyarrow")


def q_pdf_extract(sf_dir: str) -> "ray.data.Dataset":
    """North-rule PDF/layout parse: each document's token stream is rendered
    into REAL PDF bytes (valid xref, FlateDecode content streams, Tj/TJ/Tm
    text operators, two-column multi-page grid, lines emitted in a shuffled
    order), then the parser inflates the streams, tokenizes the operators
    and reconstructs reading order from the PARSED coordinates
    (functions/pdf.py spec). The oracle recomputes the text join plus the
    line/page counts and coordinate sums in closed form — a wrong inflate,
    string-unescape, matrix track or ordering breaks the hash."""
    from ..functions.pdf import build_pdf_batch, extract_pdf_text_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(build_pdf_batch, batch_format="pyarrow") \
        .map_batches(extract_pdf_text_batch, batch_format="pyarrow")


def q_dom_main(sf_dir: str) -> "ray.data.Dataset":
    """North-rule DOM heuristics: deterministic HTML (link-farm nav, a
    two-paragraph content div, a link-only footer) is parsed into a REAL
    tag tree; per-element visible/anchor text lengths score every candidate
    container (2*tlen - 6*alen, Readability-style) and the winner's text is
    emitted (functions/dom.py spec). By construction the content div beats
    <body> strictly (the nav/footer anchors tax it), so the oracle can
    verify winner score, element counts and the exact extracted text."""
    from ..functions.dom import extract_dom_main_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def build_html(batch: pa.Table) -> pa.Table:
        split, empty = T._tokens_list(batch["text"].combine_chunks())
        toks_py = split.to_pylist()
        empties = empty.to_pylist()
        htmls = []
        for toks, e in zip(toks_py, empties):
            toks = [] if e else (toks or [])
            nav = " ".join(f'<a href="#">{w}</a>' for w in toks[:10])
            rest = toks[10:]
            h = (len(rest) + 1) // 2
            p1, p2 = " ".join(rest[:h]), " ".join(rest[h:])
            htmls.append(
                f'<html><body><nav>{nav}</nav>'
                f'<div class="content"><p>{p1}</p><p>{p2}</p></div>'
                f'<footer><a href="/">home</a></footer></body></html>')
        return pa.table({
            "doc_id": batch["doc_id"],
            "html": pa.array(htmls, pa.string()),
        })

    return ds.map_batches(build_html, batch_format="pyarrow") \
        .map_batches(extract_dom_main_batch, batch_format="pyarrow")


def q_substring_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Exact duplicated-substring detection (Lee et al. 2022 shape): every
    40-char window is rolling-hashed (one vectorized byte pass per batch),
    candidates pre-aggregated per (hash, doc) on the map side, bucketed by
    hash, and windows whose content appears in >= 2 distinct documents are
    counted back per document. The SQL twin compares REAL substrings — a
    hash that merged two different windows would break the gate."""
    from ..functions.contamination import substring_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return substring_dedup(ds, k=40)


def q_phrase_search(sf_dir: str) -> "ray.data.Dataset":
    """Positional phrase search: count exact occurrences of a 3-token
    phrase per document and keep matching docs. The probe phrase is the
    first 3 tokens of doc 0 — BOTH sides derive it from the data (the Ray
    side reads one row driver-side; the SQL twin uses a scalar subquery),
    so the gate checks the positional scan, not a hardcoded constant."""
    import pyarrow.parquet as _pq

    from ..functions.textstats import phrase_count_batch

    t0 = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "=", 0)])
    phrase = (t0["text"][0].as_py() or "").split()[:3]

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def scan(batch: pa.Table) -> pa.Table:
        out = phrase_count_batch(batch, phrase)
        return out.filter(pc.greater(out["n_matches"], 0))

    return ds.map_batches(scan, batch_format="pyarrow")


def q_split_leakage(sf_dir: str) -> "ray.data.Dataset":
    """Train/test leakage audit: how many near-duplicate pairs (the 3-gram
    Jaccard >= 1/2 set, reused from the memoized pair Dataset) cross the
    deterministic 80/10/10 split (same md5 split as dataset_split). A
    cross-split near-dup pair IS evaluation leakage — this is the check a
    training pipeline runs after splitting. Combiner-first: per-batch
    (split_a, split_b) counts, then a tiny groupby."""
    import hashlib as _hl

    pairs = _ngram_pairs_cached(sf_dir)

    def classify(b: pa.Table) -> pa.Table:
        def split_of(ids):
            hb = np.fromiter(
                (int(_hl.md5(str(i).encode()).hexdigest()[:8], 16) % 100
                 for i in ids), np.int64, len(ids))
            return np.where(hb < 80, "train",
                            np.where(hb < 90, "val", "test"))
        sa = split_of(b["doc_a"].to_pylist())
        sb = split_of(b["doc_b"].to_pylist())
        t = pa.table({
            "split_a": pa.array(sa, pa.string()),
            "split_b": pa.array(sb, pa.string()),
            "n_pairs": pa.array(np.ones(len(sa), np.int64)),
            "n_cross": pa.array((sa != sb).astype(np.int64)),
        })
        g = t.group_by(["split_a", "split_b"]).aggregate(
            [("n_pairs", "sum"), ("n_cross", "sum")])
        return pa.table({
            "split_a": g["split_a"], "split_b": g["split_b"],
            "n_pairs": pc.cast(g["n_pairs_sum"], pa.int64()),
            "n_cross": pc.cast(g["n_cross_sum"], pa.int64()),
        })

    def merge(g: pa.Table) -> pa.Table:
        t = g.group_by(["split_a", "split_b"]).aggregate(
            [("n_pairs", "sum"), ("n_cross", "sum")])
        return pa.table({
            "split_a": t["split_a"], "split_b": t["split_b"],
            "n_pairs": pc.cast(t["n_pairs_sum"], pa.int64()),
            "n_cross": pc.cast(t["n_cross_sum"], pa.int64()),
        })

    # <=9 (split_a, split_b) groups: one-block final merge is exact and flat
    return pairs.map_batches(classify, batch_format="pyarrow") \
        .repartition(1).map_batches(merge, batch_format="pyarrow")


def q_corpus_train_ready(sf_dir: str) -> "ray.data.Dataset":
    """The FULL training-data cleaning composition, end-to-end distributed
    and end-to-end SQL-verified: quality gate -> exact-dedup keep-list
    (semi-join) -> NEAR-dup removal (3-gram Jaccard pairs -> distributed
    min-label clusters -> anti-join against non-representative members).
    Output: surviving doc_ids with quality signals. Every stage is the same
    operator the standalone queries use; nothing is collected to the driver
    (keep-list and cluster members travel as datasets through
    semi_join/anti)."""
    from ..functions.joins import semi_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()  # metadata-only
    stats = docs.map_batches(T.quality_stats_batch, batch_format="pyarrow")

    def gate(batch: pa.Table) -> pa.Table:
        n_chars = batch["n_chars"].to_numpy(zero_copy_only=False)
        n_tokens = batch["n_tokens"].to_numpy(zero_copy_only=False)
        n_alpha = batch["n_alpha"].to_numpy(zero_copy_only=False)
        mask = ((n_chars >= 100) & (n_tokens >= 20)
                & (5 * n_alpha >= 3 * n_chars))
        return batch.filter(pa.array(mask))

    stats_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_chars", pa.int64()),
        ("n_tokens", pa.int64()), ("n_alpha", pa.int64()),
        ("n_stop", pa.int64()),
    ])
    gated = stats.map_batches(gate, batch_format="pyarrow")

    exact_keep = D.exact_dedup(docs).select_columns(["keep_id"])
    surviving = semi_join(gated, exact_keep, left_on="doc_id",
                          keep_on="keep_id", size_hint=n_docs,
                          left_schema=stats_schema)

    pairs = _ngram_pairs_cached(sf_dir)  # same pair set as q_dedup_clusters
    clusters = D.cluster_pairs_distributed(
        pairs.select_columns(["doc_a", "doc_b"]))
    non_rep = clusters.filter(expr="doc_id != cluster_rep") \
        .select_columns(["doc_id"])

    def rename_member(b: pa.Table) -> pa.Table:
        return pa.table({"member_id": pc.cast(b["doc_id"], pa.int64())})

    return semi_join(surviving,
                     non_rep.map_batches(rename_member, batch_format="pyarrow"),
                     left_on="doc_id", keep_on="member_id", anti=True,
                     size_hint=n_docs, left_schema=stats_schema)


def q_decontaminate(sf_dir: str) -> "ray.data.Dataset":
    """Benchmark decontamination over the documents table: the md5-split
    eval sixteenth (same split as doc_sample) is the held-out set; every
    train doc reports how many distinct 5-gram shingles it shares with any
    eval doc (0 = clean). k=5 is scaled to the synthetic docs; the operator
    default is the 13-gram filter training pipelines use."""
    return D.decontaminate(_read(sf_dir, "documents", ["doc_id", "text"]),
                           shingle_k=5)


# ---------------------------------------------------------------- similarity

def q_knn_bruteforce(sf_dir: str) -> "ray.data.Dataset":
    return S.knn_bruteforce(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                            n_queries=4, k=10)


def q_knn_int8(sf_dir: str) -> "ray.data.Dataset":
    """Int8-quantized ANN (functions/similarity.knn_int8): global |max|
    scalar broadcast, floor(x/m*127+0.5) quantization replayed bit-for-bit
    by the DuckDB twin, int64 dot-product scores — the 4x-memory embedding
    search path, fully hash-gated."""
    return S.knn_int8(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                      n_queries=8, k=10)


def q_knn_ivf(sf_dir: str) -> "ray.data.Dataset":
    """IVF-flat ANN with a materialized list_id-partitioned index: the
    build-once layout is cached per (sf, embeddings fingerprint) under /tmp
    and queries read ONLY the probed partition dirs (the production shape:
    index once, probe many). Hash-gated against a single-process flat
    replay of the whole path (pipelines/oracle_dump.knn_ivf_expected) —
    sample, fit, assign, probe, top-k with 1e-6 score quantization; the
    pruned-read property and exhaustive-probe recall are pytest-gated."""
    import hashlib as _hl

    from . import oracle_dump as OD

    src = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(src)
    # "v2": assignment scores quantized to 1e-6 before argmax (dump parity)
    fp = _hl.md5(f"v2:{os.path.normpath(src)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode()).hexdigest()[:12]
    OD.dump("knn_ivf", "v2|" + OD.file_fingerprint(src),
            lambda: OD.knn_ivf_expected(sf_dir))
    return S.knn_ivf(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                     n_queries=4, k=10,
                     index_dir=os.path.join("/tmp/dpray_ivf", fp))


def q_knn_pq(sf_dir: str) -> "ray.data.Dataset":
    """Product-quantization ANN (Jegou et al. 2011): codebooks fit on the
    distributed hash-sample, corpus encoded ONCE to 8 uint8 codes/vector
    (32x compression) on an actor pool, per-query ADC scans the CODE table
    only — at 10^12 rows the query pass reads m bytes/vector, not the
    float embeddings. Hash-gated against a flat single-process replay of
    sample/fit/encode/ADC/top-k (oracle_dump.knn_pq_expected) that shares
    the pure kernels (_pq_fit/pq_encode/pq_adc_scores), plus a
    recall-vs-bruteforce pytest."""
    from . import oracle_dump as OD

    src = os.path.join(sf_dir, "embeddings.parquet")
    OD.dump("knn_pq", OD.file_fingerprint(src),
            lambda: OD.knn_pq_expected(sf_dir))
    return S.knn_pq(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                    n_queries=4, k=10)


def q_knn_ivfpq(sf_dir: str) -> "ray.data.Dataset":
    """IVF-PQ ANN (the FAISS IVFADC composition, Jegou et al. 2011 §V):
    residual PQ codes materialized inside a list_id-partitioned layout, so
    a query reads ONLY the probed partitions AND those bytes are 8 uint8
    codes/vector — the two scale levers (pruned I/O x 32x compression)
    stacked. score = q·c_list + ADC(q, residual). Hash-gated against a
    flat single-process replay of the whole path
    (oracle_dump.knn_ivfpq_expected) sharing the pure kernels
    (_kmeans_fit/_pq_fit/pq_encode/pq_adc_scores), plus recall and
    pruned-read pytests. Index cached per (sf, embeddings fingerprint)
    under /tmp — build once, probe many."""
    import hashlib as _hl

    from . import oracle_dump as OD

    src = os.path.join(sf_dir, "embeddings.parquet")
    OD.dump("knn_ivfpq", OD.file_fingerprint(src),
            lambda: OD.knn_ivfpq_expected(sf_dir))
    return S.knn_ivfpq(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                       n_queries=4, k=10,
                       index_dir=os.path.join("/tmp/dpray_ivfpq",
                                              _dir_key(src)))


def q_bitext_mine(sf_dir: str) -> "ray.data.Dataset":
    """Margin-based bitext mining over the embedding table: label-0 vectors
    are the source side, label-1 the target side; best/second-best matches
    by the EXACT int8 dot path with the absolute margin reported
    (functions/similarity.bitext_mine). The DuckDB twin replays the same
    quantization + row_number ranking, so the full margin arithmetic is
    hash-gated."""
    return S.bitext_mine(
        _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        src_label=0, tgt_label=1)


def q_url_canonical_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Crawl-side URL canonicalization + dedup-by-canonical-URL: each doc
    synthesizes a NOISY url (case-jittered host, default port, utm_*
    tracking params, shuffled param order, trailing slash, fragment —
    variant keyed on doc_id % 4), the REAL canonicalizer
    (functions/urls.canonicalize_url) normalizes it, and docs group by the
    canonical key keeping count + min doc_id. The DuckDB twin derives the
    canonical form LOGICALLY from (source, doc_id), so the hash gate
    verifies the parse/normalize, not a pass-through."""
    from ..functions.urls import canonicalize_url

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def canon(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        srcs = batch["source"].to_pylist()
        urls = []
        for did, src in zip(ids, srcs):
            k = int(did) % 50
            v = int(did) % 4
            if v == 0:
                u = f"https://www.example.com/{src}/{k}?utm_source=feed&b=2&a=1"
            elif v == 1:
                u = f"HTTPS://EXAMPLE.COM:443/{src}/{k}/?a=1&b=2"
            elif v == 2:
                u = f"https://Example.Com/{src}/{k}?b=2&utm_campaign=x&a=1#frag"
            else:
                u = f"https://www.example.com:443/{src}/{k}?a=1&b=2"
            urls.append(canonicalize_url(u))
        t = pa.table({
            "canonical_url": pa.array(urls, pa.string()),
            "doc_id": pa.array(ids.astype(np.int64), pa.int64())})
        return t.group_by("canonical_url").aggregate(
            [("doc_id", "count"), ("doc_id", "min")]).rename_columns(
            ["canonical_url", "n", "mn"])

    agg = ds.map_batches(canon, batch_format="pyarrow") \
        .groupby("canonical_url").aggregate(
            Sum("n", alias_name="n_docs"),
            ray.data.aggregate.Min("mn", alias_name="min_doc_id"))

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "canonical_url": b["canonical_url"],
            "n_docs": pc.cast(b["n_docs"], pa.int64()),
            "min_doc_id": pc.cast(b["min_doc_id"], pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow")


def q_kmeans_clusters(sf_dir: str) -> "ray.data.Dataset":
    """Distributed k-means over the embedding table (the clustering pass a
    semantic-dedup / data-mixing pipeline runs): integer fixed-point Lloyd
    iterations with broadcast centroids and k-row combiner partials per
    batch (functions/clustering.kmeans_int). Bit-deterministic at any
    parallelism, so the driver twin is an oracle DUMP of the identical
    single-process loop — an iterative algorithm with a full
    rows+schema+hash gate."""
    from ..functions.clustering import kmeans_int
    from . import oracle_dump as OD

    OD.dump("kmeans_clusters",
            OD.file_fingerprint(os.path.join(sf_dir, "embeddings.parquet")),
            lambda: OD.kmeans_expected(sf_dir))
    return kmeans_int(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=8, iters=5)


def q_semdedup(sf_dir: str) -> "ray.data.Dataset":
    """Semantic dedup (SemDeDup, arXiv:2303.09540): cluster the embedding
    column with the integer-exact k-means, then one
    groupby(cluster).map_groups pass drops within-cluster rows whose cosine
    to an already-kept row is >= 0.4 (ascending-vec_id greedy keep). The
    iterative + greedy shape is not SQL, so the driver twin is an oracle
    DUMP of the identical single-process replay
    (functions/clustering.semdedup_reference)."""
    from ..functions.clustering import semdedup_int
    from . import oracle_dump as OD

    OD.dump("semdedup",
            OD.file_fingerprint(os.path.join(sf_dir, "embeddings.parquet")),
            lambda: OD.semdedup_expected(sf_dir))
    return semdedup_int(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=8, iters=5, tau_micro=400_000)


def q_pca_project(sf_dir: str) -> "ray.data.Dataset":
    """Distributed PCA of the embedding table (the pre-ANN dimensionality
    reduction): exact-int64 scatter-matrix combiner partials, one driver
    eigh, broadcast top-4 eigenvectors, row-local projection
    (functions/clustering.pca_project_int). The eigendecomposition makes
    it non-SQL, so the driver twin is an oracle DUMP of the identical
    single-process replay."""
    from ..functions.clustering import pca_project_int
    from . import oracle_dump as OD

    OD.dump("pca_project",
            OD.file_fingerprint(os.path.join(sf_dir, "embeddings.parquet")),
            lambda: OD.pca_project_expected(sf_dir))
    return pca_project_int(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), k=4)


def q_quality_classifier(sf_dir: str) -> "ray.data.Dataset":
    """Model-based quality filtering (the fastText-classifier gate of
    CCNet/RefinedWeb-style pipelines) as a deterministic integer linear
    head over the quality_stats features: logit_micro =
    800*alpha_ratio_milli + 1200*stop_ratio_milli + 500*min(n_tokens, 512)
    - 600000, with ratios as exact integer floor divisions — swap the fixed
    weights for trained ones and the plan is identical (stateless
    vectorized map, zero shuffle). Output: (doc_id, logit_micro, keep)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.quality_stats_batch, batch_format="pyarrow")

    def head(b: pa.Table) -> pa.Table:
        n_chars = b["n_chars"].to_numpy(zero_copy_only=False)
        n_tokens = b["n_tokens"].to_numpy(zero_copy_only=False)
        n_alpha = b["n_alpha"].to_numpy(zero_copy_only=False)
        n_stop = b["n_stop"].to_numpy(zero_copy_only=False)
        alpha_milli = (1000 * n_alpha) // np.maximum(n_chars, 1)
        stop_milli = (1000 * n_stop) // np.maximum(n_tokens, 1)
        logit = (800 * alpha_milli + 1200 * stop_milli
                 + 500 * np.minimum(n_tokens, 512) - 600000)
        return pa.table({
            "doc_id": b["doc_id"],
            "logit_micro": pa.array(logit.astype(np.int64), pa.int64()),
            "keep": pa.array((logit > 0).astype(np.int64), pa.int64())})

    return ds.map_batches(head, batch_format="pyarrow")


def q_span_merge(sf_dir: str) -> "ray.data.Dataset":
    """Interval-union merging of per-doc annotation spans (the operator a
    PII/redaction/labeling pipeline runs before applying spans): each doc
    synthesizes min(n_tokens, 20) deterministic [start, end) spans, and
    overlapping spans merge per doc into islands — fully vectorized over
    the batch with ONE lexsort + per-doc-offset running max (no per-doc
    Python loop, no shuffle: merging is doc-local). Output:
    (doc_id, n_spans, n_merged, covered_len)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def merge(b: pa.Table) -> pa.Table:
        split, empty = T._tokens_list(b["text"].combine_chunks())
        n_tok = pc.if_else(empty, pa.scalar(0, pa.int32()),
                           pc.cast(pc.list_value_length(split), pa.int32())) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.minimum(n_tok, 20)
        sel = k > 0
        ids_s, k_s = ids[sel], k[sel]
        if len(ids_s) == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_spans": pa.array([], pa.int64()),
                "n_merged": pa.array([], pa.int64()),
                "covered_len": pa.array([], pa.int64())})
        d_idx = np.repeat(np.arange(len(ids_s)), k_s)
        i = np.concatenate([np.arange(x) for x in k_s])
        did = ids_s[d_idx]
        st = (did * 7 + i * 13) % 200
        en = st + 5 + (i * 11) % 17
        # per-doc offset makes one global running max valid across docs
        off = d_idx * 1000
        order = np.lexsort((en, st, d_idx))
        st2, en2 = st[order] + off[order], en[order] + off[order]
        prev_max = np.empty(len(st2), np.int64)
        prev_max[0] = -1
        np.maximum.accumulate(en2[:-1], out=prev_max[1:])
        isl = st2 > prev_max
        isl_starts = np.flatnonzero(isl)
        run_max = np.maximum.accumulate(en2)
        isl_ends = np.append(isl_starts[1:], len(st2)) - 1
        covered_per_isl = run_max[isl_ends] - st2[isl_starts]
        isl_doc = d_idx[order][isl_starts]
        n_merged = np.bincount(isl_doc, minlength=len(ids_s))
        covered = np.bincount(isl_doc, weights=covered_per_isl,
                              minlength=len(ids_s)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids_s, pa.int64()),
            "n_spans": pa.array(k_s, pa.int64()),
            "n_merged": pa.array(n_merged.astype(np.int64), pa.int64()),
            "covered_len": pa.array(covered, pa.int64())})

    return ds.map_batches(merge, batch_format="pyarrow")


# ---------------------------------------------------------------- multimodal

def _media_ds(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic synthetic media table (no codec libs in this container;
    FakeCodec decodes seeded arrays — see stages/multimodal.py)."""
    from ..stages.multimodal import synth_media_table
    n = max(30, int(3000 * _sf_of_dir(sf_dir)))
    return ray.data.from_arrow(synth_media_table(n_assets=n, seed=5))


def _sf_of_dir(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.01


def q_image_features(sf_dir: str) -> "ray.data.Dataset":
    import hashlib as _hl
    from ..stages.multimodal import build_media_pipeline
    from . import oracle_dump as OD

    _sf = _sf_of_dir(sf_dir)
    OD.dump("image_features",
            f"media:v1:n{max(30, int(3000 * _sf))}:seed5:feat",
            lambda: OD.image_features_expected(_sf))
    ds = build_media_pipeline(_media_ds(sf_dir), "image")

    def scalarize(b: pa.Table) -> pa.Table:
        # histogram list -> stable digest (scalar columns only for the
        # driver's value-hash compare)
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

    return ds.map_batches(scalarize, batch_format="pyarrow")


def q_codec_matrix(sf_dir: str) -> "ray.data.Dataset":
    """Cross-format codec matrix as a DISTRIBUTED stage: real encoded
    payloads in every lossless image format this build decodes (PNG x2
    filter modes, BMP, TIFF none/PackBits, GIF, WebP-VP8L x2 transform
    modes) plus BOTH JPEG scan modes flow through the AutoCodec actor
    pool and reduce to per-asset pixel digests. For the lossless rows the
    oracle-dump twin computes the SAME digests from the source pixel
    arrays with NO codec involved (decoder == encoder-input, bit-exact);
    for the JPEG rows the twin decodes the BASELINE bytes while the
    distributed side decodes progressive bytes, pinning the two scan
    machineries against each other
    (stages/multimodal.py:ImageDecodeDigestStage)."""
    from ..stages.multimodal import (
        ImageDecodeDigestStage, synth_codec_matrix_table)
    from . import oracle_dump as OD

    n = max(24, int(2400 * _sf_of_dir(sf_dir)))
    OD.dump("codec_matrix", f"cmatrix:v4:n{n}:seed9",
            lambda: OD.codec_matrix_expected(n))
    ds = ray.data.from_arrow(synth_codec_matrix_table(n_assets=n, seed=9))
    return ds.map_batches(ImageDecodeDigestStage, batch_format="pyarrow",
                          batch_size=8, concurrency=(1, 4))


def q_image_phash_pairs(sf_dir: str) -> "ray.data.Dataset":
    """Perceptual (aHash) image near-dup pairs: actor-pool decode+hash
    stage feeding the SAME banded Hamming exchange as text simhash
    (dedup.hamming_sig_pairs). The corpus plants exact-payload duplicate
    assets under new ids so the expected pairs are deterministic. Driver
    twin: single-process aHash + all-pairs Hamming dump
    (pipelines/oracle_dump.py) — gates the actor-pool decode AND that the
    banded exchange recovers exactly the all-pairs answer (guaranteed for
    max_hamming=3 with 4x16 bands); pytest additionally proves recovery."""
    from ..stages.multimodal import image_phash_pairs
    from . import oracle_dump as OD

    n_assets = max(30, int(3000 * _sf_of_dir(sf_dir)))
    media = _phash_media_table(n_assets)
    OD.dump("image_phash_pairs", f"phash:v1:n{n_assets}:seed5",
            lambda: OD.image_phash_pairs_expected(media))
    return image_phash_pairs(ray.data.from_arrow(media))


def _phash_media_table(n_assets: int) -> pa.Table:
    """Deterministic media table with planted exact-payload duplicates:
    every 10th asset re-emitted under a shifted id (same payload + meta ->
    identical decode -> Hamming 0). Shared by the Ray query and its
    single-process oracle dump."""
    from ..stages.multimodal import synth_media_table

    base = synth_media_table(n_assets=n_assets, seed=5)
    idx = [i for i in range(base.num_rows) if i % 10 == 0]
    dup = base.take(idx)
    dup = dup.set_column(
        0, "asset_id",
        pa.array([f"asset-{90000 + i:05d}" for i in idx], pa.string()))
    return pa.concat_tables([base, dup])


def _dump_media_twin(name: str, sf_dir: str, kind: str, stage_name: str):
    """Oracle-dump twin for the multimodal feature queries: the same stage
    class called once single-process on the deterministic synth table (all
    metrics are milli-quantized ints). Fingerprinted on (n_assets, seed)."""
    from ..stages import multimodal as MM
    from . import oracle_dump as OD

    sf = _sf_of_dir(sf_dir)
    n = max(30, int(3000 * sf))
    OD.dump(name, f"media:v1:n{n}:seed5:{stage_name}",
            lambda: OD.media_stage_expected(
                sf, kind, getattr(MM, stage_name)))


def q_video_framesample(sf_dir: str) -> "ray.data.Dataset":
    from ..stages.multimodal import build_media_pipeline

    _dump_media_twin("video_framesample", sf_dir, "video",
                     "VideoFrameSampleStage")
    return build_media_pipeline(_media_ds(sf_dir), "video")


def q_audio_spectral(sf_dir: str) -> "ray.data.Dataset":
    """FFT spectral features per audio asset (dominant bin + centroid):
    real numpy DSP on the actor pool. Driver twin: single-process stage
    dump; pytest additionally feeds encoded sine waves through the REAL
    PCM-WAV codec and checks the dominant bin lands on the sine's
    frequency."""
    from ..stages.multimodal import build_media_pipeline

    _dump_media_twin("audio_spectral", sf_dir, "audio",
                     "AudioSpectralStage")
    return build_media_pipeline(_media_ds(sf_dir), "audio_spectral")


def q_image_edges(sf_dir: str) -> "ray.data.Dataset":
    """Sobel edge density per image asset (mean gradient + edge fraction):
    real CV in pure numpy on the actor pool. Driver twin: single-process
    stage dump; pytest additionally feeds synthetic stripe/flat images
    through the REAL BMP codec and checks the known gradient responses."""
    from ..stages.multimodal import build_media_pipeline

    _dump_media_twin("image_edges", sf_dir, "image", "ImageEdgeStage")
    return build_media_pipeline(_media_ds(sf_dir), "image_edges")


def q_video_motion(sf_dir: str) -> "ray.data.Dataset":
    """Motion energy per video asset (mean |luma diff| between sampled
    frames). Driver twin: single-process stage dump; pytest drives static
    vs moving synthetic rgb24 clips through the REAL raw codec."""
    from ..stages.multimodal import build_media_pipeline

    _dump_media_twin("video_motion", sf_dir, "video", "VideoMotionStage")
    return build_media_pipeline(_media_ds(sf_dir), "video_motion")


def q_audio_features(sf_dir: str) -> "ray.data.Dataset":
    from ..stages.multimodal import build_media_pipeline

    _dump_media_twin("audio_features", sf_dir, "audio", "AudioFeatureStage")
    return build_media_pipeline(_media_ds(sf_dir), "audio")


def q_doc_sample(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic content-hash sampling (~1/8): keep docs whose md5(doc_id)
    hex starts with 0 or 1 — reproducible across engines and runs, unlike
    RNG sampling, so train/eval splits are stable under re-execution."""
    import hashlib as _hl
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        mask = [(_hl.md5(str(i).encode()).hexdigest()[0] in "01") for i in ids]
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def q_lang_balanced_sample(sf_dir: str) -> "ray.data.Dataset":
    """Stratified (language-balanced) deterministic sampling: per-language
    keep rate = min(1, C / n_lang), so dominant languages are downsampled
    toward ~C docs each — the corpus-rebalancing shape. The per-lang counts
    are a 5-row aggregate broadcast into a zero-shuffle filter; membership
    is md5-hash based and the threshold compare is EXACT RATIONAL
    (n_lang * hash32 < C * 2^32 — no float division on either side)."""
    import hashlib as _hl

    target = 30  # ~docs per language after rebalancing
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    counts = {r["lang"]: r["n_docs"]
              for r in q_lang_stats(sf_dir).select_columns(
                  ["lang", "n_docs"]).take_all()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        mask = []
        for i, lg in zip(ids, langs):
            h32 = int(_hl.md5(str(i).encode()).hexdigest()[:8], 16)
            n = counts.get(lg, 0)
            mask.append(n * h32 < target * (1 << 32))
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def q_event_heavy_hitters(sf_dir: str) -> "ray.data.Dataset":
    """Approximate top-10 users by event volume via a mergeable Count-Min
    sketch: COUNTS only ever move as sketch cells (merged size depth*width
    regardless of input); candidates are the deduplicated distinct ids
    (candidates="all", partition-independent), so the answer is a pure
    function of the value multiset and hash-gates against a single-process
    sketch replay (pipelines/oracle_dump.event_heavy_hitters_expected).
    The pytest gate separately proves no-undercount and top-k recall."""
    from ..functions.sketches import cms_heavy_hitters
    from . import oracle_dump as OD

    OD.dump("event_heavy_hitters",
            OD.file_fingerprint(os.path.join(sf_dir, "events.parquet")),
            lambda: OD.event_heavy_hitters_expected(sf_dir))
    return cms_heavy_hitters(_read(sf_dir, "events", ["user_id"]),
                             "user_id", k=10)


def q_event_users_hll(sf_dir: str) -> "ray.data.Dataset":
    """Approximate distinct users per event type via mergeable HyperLogLog
    sketches (p=12, ~1.6% expected error) — the bounded-shuffle twin of
    events_rollup's exact n_users leg. DuckDB's HLL uses a different hash,
    so the driver twin is a single-process dump of the same register math
    (max-mergeable -> partition-independent); the pytest gate additionally
    compares against the exact count within tolerance."""
    from ..functions.sketches import hll_group_distinct
    from . import oracle_dump as OD

    OD.dump("event_users_hll",
            OD.file_fingerprint(os.path.join(sf_dir, "events.parquet")),
            lambda: OD.event_users_hll_expected(sf_dir))
    return hll_group_distinct(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        keys=["event_type"], value="user_id", p=12)


def q_lang_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-language rollup over documents (count + exact char sum)."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch["lang"],
            "n_chars": pc.cast(batch["n_chars"], pa.int64()),
        }).group_by("lang").aggregate([("n_chars", "sum"), ("n_chars", "count")])

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("lang").aggregate(Sum("n_chars_sum"), Sum("n_chars_count")))
    return agg.map_batches(lambda b: pa.table({
        "lang": b["lang"],
        "sum_chars": pc.cast(b["sum(n_chars_sum)"], pa.int64()),
        "n_docs": pc.cast(b["sum(n_chars_count)"], pa.int64()),
    }), batch_format="pyarrow")


def q_low_order_customers(sf_dir: str) -> "ray.data.Dataset":
    """Left-join null handling via the co-bucketed hash join: customers
    left-joined to per-customer order counts; unmatched customers count 0;
    keep those with <= 5 orders (non-empty at every sf, unlike a pure
    anti-join whose empty result cannot carry a schema through conversion)."""
    from ..functions.agg import bucketed_group_sum
    from ..functions.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"c_custkey": batch["o_custkey"]}) \
            .group_by("c_custkey").aggregate([("c_custkey", "count")])
        return pa.table({
            "c_custkey": t["c_custkey"],
            "n_orders": pc.cast(t["c_custkey_count"], pa.int64()),
        })

    cust = _read(sf_dir, "customer", ["c_custkey"])
    n_cust = cust.count()  # metadata-only on a fresh read
    counts = bucketed_group_sum(
        orders.map_batches(partial, batch_format="pyarrow"),
        key="c_custkey", cols=["n_orders"], size_hint=n_cust)
    joined = hash_join(
        cust, counts, on="c_custkey", how="left", size_hint=n_cust,
        left_schema=pa.schema([("c_custkey", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("n_orders", pa.int64())]))

    def finalize(b: pa.Table) -> pa.Table:
        # Arrow-native null handling: unmatched customers count 0 orders
        n = pc.fill_null(pc.cast(b["n_orders"].combine_chunks(), pa.int64()), 0)
        t = pa.table({
            "c_custkey": pc.cast(b["c_custkey"].combine_chunks(), pa.int64()),
            "n_orders": n,
        })
        return t.filter(pc.less_equal(n, 5))

    return joined.map_batches(finalize, batch_format="pyarrow")


def q_customers_no_big_orders(sf_dir: str) -> "ray.data.Dataset":
    """True ANTI-join via the co-bucketed semi_join(anti=True): customers
    with NO high-value order (o_totalprice > 3000.00 = 300000 cents) — both
    sides shuffle once on the bucketed customer key; no driver-side key set,
    no broadcast. (The driver corpus gives every customer at least one
    order, so a plain no-orders anti-join would be empty and lose its schema
    through the compare — the price predicate keeps the result non-empty at
    every sf.)"""
    from ..functions.joins import semi_join

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    big = orders.filter(expr="o_totalprice > 300000.0") \
        .select_columns(["o_custkey"])
    return semi_join(
        cust, big, left_on="c_custkey", keep_on="o_custkey", anti=True,
        size_hint=cust.count(),
        left_schema=pa.schema([("c_custkey", pa.int64())]))


def q_nation_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Three-way join rollup (TPC-H-Q5 shape): orders pre-aggregated per
    customer (bucketed combiner), co-bucketed hash join to customer for the
    nation key, tiny groupby(n_nationkey) merge, then the 25-row nation
    table attached via broadcast. One big shuffle (the join); everything
    after it is aggregate-sized."""
    from ..functions.agg import bucketed_group_sum
    from ..functions.joins import hash_join

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    names_ref = ray.put(dict(zip(nation["n_nationkey"].astype(int),
                                 nation["n_name"])))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    n_cust = cust.count()  # metadata-only

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "c_custkey": batch["o_custkey"],
            "revenue_cents": pa.array(
                _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64()),
        }).group_by("c_custkey").aggregate(
            [("revenue_cents", "sum"), ("revenue_cents", "count")])
        return pa.table({
            "c_custkey": t["c_custkey"],
            "revenue_cents": t["revenue_cents_sum"],
            "n_orders": pc.cast(t["revenue_cents_count"], pa.int64()),
        })

    per_cust = bucketed_group_sum(
        orders.map_batches(partial, batch_format="pyarrow"),
        key="c_custkey", cols=["revenue_cents", "n_orders"], size_hint=n_cust)

    def cast_cust(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(b["c_custkey"], pa.int64()),
            "c_nationkey": pc.cast(b["c_nationkey"], pa.int64()),
        })

    joined = hash_join(
        cust.map_batches(cast_cust, batch_format="pyarrow"), per_cust,
        on="c_custkey", how="inner", size_hint=n_cust,
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_nationkey", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("revenue_cents", pa.int64()),
                                ("n_orders", pa.int64())]))

    def partial_nation(b: pa.Table) -> pa.Table:
        return b.select(["c_nationkey", "revenue_cents", "n_orders"]) \
            .group_by("c_nationkey").aggregate(
                [("revenue_cents", "sum"), ("n_orders", "sum")])

    agg = (joined.map_batches(partial_nation, batch_format="pyarrow")
           .groupby("c_nationkey")
           .aggregate(Sum("revenue_cents_sum"), Sum("n_orders_sum")))

    def finalize(b: pa.Table) -> pa.Table:
        names = ray.get(names_ref)
        keys = b["c_nationkey"].to_pylist()
        return pa.table({
            "n_name": pa.array([names[int(k)] for k in keys], pa.string()),
            "revenue_cents": pc.cast(b["sum(revenue_cents_sum)"], pa.int64()),
            "n_orders": pc.cast(b["sum(n_orders_sum)"], pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------- relational / agg ops

def q_pricing_summary(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H-Q1-style rollup with exact integer partial aggregation."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        ep_cents = _cents(batch["l_extendedprice"].to_numpy(zero_copy_only=False))
        disc_pct = _cents(batch["l_discount"].to_numpy(zero_copy_only=False))
        qty = np.rint(batch["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty": pa.array(qty, pa.int64()),
            "base_cents": pa.array(ep_cents, pa.int64()),
            "disc_micro": pa.array(ep_cents * (100 - disc_pct), pa.int64()),
        })
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_cents", "sum"), ("disc_micro", "sum"),
             ("qty", "count")])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("qty_sum"), Sum("base_cents_sum"),
                   Sum("disc_micro_sum"), Sum("qty_count"))
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "sum_qty": pc.cast(b["sum(qty_sum)"], pa.int64()),
            "sum_base_cents": pc.cast(b["sum(base_cents_sum)"], pa.int64()),
            "sum_disc_micro": pc.cast(b["sum(disc_micro_sum)"], pa.int64()),
            "count_order": pc.cast(b["sum(qty_count)"], pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_lang_length_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Continuous (interpolated) length quantiles per language — the
    quantile_cont twin of the histogram-merge plan; interpolation arithmetic
    reproduces DuckDB bit-for-bit (see grouped_quantile_cont)."""
    from ..functions.agg import grouped_quantile_cont

    return grouped_quantile_cont(
        _read(sf_dir, "documents", ["lang", "n_chars"]),
        keys=["lang"], value="n_chars", qs=[0.25, 0.5, 0.75],
        q_names=["q25", "q50", "q75"])


def q_nfc_normalize(sf_dir: str) -> "ray.data.Dataset":
    """Unicode NFC canonical composition (pre-tokenization normalization);
    DuckDB nfc_normalize twin probed byte-equal on composed/decomposed/
    ligature inputs."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.nfc_normalize_batch, batch_format="pyarrow")


def q_compression_ratio(sf_dir: str) -> "ray.data.Dataset":
    """Deflate-compressibility quality signal (cheap perplexity proxy):
    per-doc raw vs zlib byte lengths, raw integers. SQL has no deflate, so
    the driver twin is a single-process dump of the same zlib pass;
    determinism + ordering additionally pytest-gated."""
    from . import oracle_dump as OD

    OD.dump("compression_ratio",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.compression_ratio_expected(sf_dir))
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.compression_ratio_batch, batch_format="pyarrow")


def q_length_mad(sf_dir: str) -> "ray.data.Dataset":
    """Robust dispersion: per-language median absolute deviation of doc
    length — TWO composed holistic aggregates (median, then median of
    absolute deviations). The per-lang medians are a 5-row result broadcast
    into the deviation map; both quantile passes are the value-histogram
    merge, so the composition stays integer-exact end to end."""
    from ..functions.agg import grouped_quantile_disc

    med = {r["lang"]: int(r["q50"]) for r in grouped_quantile_disc(
        _read(sf_dir, "documents", ["lang", "n_chars"]),
        ["lang"], "n_chars", [0.5]).take_all()}

    def absdev(b: pa.Table) -> pa.Table:
        langs = b["lang"].to_pylist()
        m = np.array([med[lg] for lg in langs], dtype=np.int64)
        n = b["n_chars"].to_numpy(zero_copy_only=False)
        return pa.table({"lang": b["lang"],
                         "dev": pa.array(np.abs(n - m), pa.int64())})

    return grouped_quantile_disc(
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .map_batches(absdev, batch_format="pyarrow"),
        ["lang"], "dev", [0.5], q_names=["mad"])


def q_price_quantiles_approx(sf_dir: str) -> "ray.data.Dataset":
    """Bounded-state approximate quantiles over NEAR-UNIQUE values
    (extendedprice cents per returnflag) — the scale companion to the exact
    histogram op: per-group state is O(64*2^s) log-bin cells no matter how
    many distinct prices exist. Estimates are bin lower bounds within 2^-5
    relative error by construction and sum-mergeable, so the driver twin is
    a single-process dump of the same integer binning; the pytest gate
    additionally proves the bound and shuffle-width merge invariance."""
    from ..functions.agg import grouped_quantile_approx
    from . import oracle_dump as OD

    OD.dump("price_quantiles_approx",
            OD.file_fingerprint(os.path.join(sf_dir, "lineitem.parquet")),
            lambda: OD.price_quantiles_approx_expected(sf_dir))

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "price_cents": pa.array(
                _cents(b["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    return grouped_quantile_approx(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        keys=["l_returnflag"], value="price_cents", qs=[0.5, 0.9, 0.99],
        q_names=["q50", "q90", "q99"])


def q_quantity_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Exact grouped quantile_disc of l_quantity per (returnflag,
    linestatus): holistic aggregate via the distributed value histogram —
    the combiner collapses the lineitem stream to (flag, status, qty)->cnt
    cells per batch (~50 distinct quantities x 6 groups), so the shuffle
    moves histogram cells, not rows."""
    from ..functions.agg import grouped_quantile_disc

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])

    def to_int(b: pa.Table) -> pa.Table:
        qty = np.rint(b["l_quantity"].to_numpy(zero_copy_only=False)) \
            .astype(np.int64)
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "l_linestatus": b["l_linestatus"],
                         "qty": pa.array(qty, pa.int64())})

    return grouped_quantile_disc(
        ds.map_batches(to_int, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"], value="qty",
        qs=[0.25, 0.5, 0.75, 0.95])


def q_customer_price_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Median + p90 of order price (cents) per customer — the
    high-cardinality-key path of grouped_quantile_disc: thousands of
    groups, near-unique values, so this exercises the bucketed shuffle and
    the vectorized multi-segment selection (one searchsorted answers every
    customer in a bucket)."""
    from ..functions.agg import grouped_quantile_disc

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
            "price_cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    return grouped_quantile_disc(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        keys=["o_custkey"], value="price_cents",
        qs=[0.5, 0.9], q_names=["median_cents", "p90_cents"],
        count_col="n_orders")


def q_revenue_rollup(sf_dir: str) -> "ray.data.Dataset":
    """GROUP BY ROLLUP(priority, status): subtotal and grand-total rows with
    'ALL' markers. The raw stream is aggregated ONCE at the finest level
    inside the combiner; the partial stream (~|priority|x|status| rows per
    input block, tiny at any scale) collapses to one block where all three
    levels re-aggregate locally — one Repartition exchange instead of
    three Sort exchanges of the same tiny rows (measured 2.5x on the
    bench; the CUBE twin q_cube_revenue shares the shape)."""
    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "o_orderpriority": b["o_orderpriority"],
            "o_orderstatus": b["o_orderstatus"],
            "cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})
        t = t.group_by(["o_orderpriority", "o_orderstatus"]).aggregate(
            [("cents", "sum"), ("cents", "count")])
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "o_orderstatus": t["o_orderstatus"],
            "revenue_cents": pc.cast(t["cents_sum"], pa.int64()),
            "n_orders": pc.cast(t["cents_count"], pa.int64())})

    def all_levels(b: pa.Table) -> pa.Table:
        outs = []
        for keep_prio, keep_status in ((True, True), (True, False),
                                       (False, False)):
            n = b.num_rows
            allc = pa.array(["ALL"] * n, pa.string())
            t = pa.table({
                "o_orderpriority": b["o_orderpriority"]
                if keep_prio else allc,
                "o_orderstatus": b["o_orderstatus"]
                if keep_status else allc,
                "revenue_cents": b["revenue_cents"],
                "n_orders": b["n_orders"]})
            g = t.group_by(["o_orderpriority", "o_orderstatus"]).aggregate(
                [("revenue_cents", "sum"), ("n_orders", "sum")])
            outs.append(pa.table({
                "o_orderpriority": g["o_orderpriority"],
                "o_orderstatus": g["o_orderstatus"],
                "revenue_cents": pc.cast(g["revenue_cents_sum"], pa.int64()),
                "n_orders": pc.cast(g["n_orders_sum"], pa.int64())}))
        return pa.concat_tables(outs)

    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(all_levels, batch_format="pyarrow")


def q_top_customers(sf_dir: str) -> pa.Table:
    """Top-10 customers by revenue, fully pruned: bucketed per-customer
    revenue merge -> global sort+limit(10) -> customer names fetched by
    FILTERING the dimension table on just those 10 keys. Nothing
    corpus-sized ever reaches the driver (the old variant broadcast the
    whole customer name table; at warehouse scale that table is not
    small)."""
    from ..functions.agg import bucketed_group_sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    n_cust_hint = _read(sf_dir, "customer", ["c_custkey"]).count()

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "o_custkey": batch["o_custkey"],
            "revenue_cents": pa.array(
                _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64()),
        }).group_by("o_custkey").aggregate(
            [("revenue_cents", "sum"), ("revenue_cents", "count")])
        return pa.table({
            "o_custkey": t["o_custkey"],
            "revenue_cents": t["revenue_cents_sum"],
            "n_orders": pc.cast(t["revenue_cents_count"], pa.int64()),
        })

    agg = bucketed_group_sum(
        orders.map_batches(partial, batch_format="pyarrow"),
        key="o_custkey", cols=["revenue_cents", "n_orders"],
        size_hint=n_cust_hint)
    top = agg.sort(["revenue_cents", "o_custkey"],
                   descending=[True, False]).limit(10).to_pandas()

    keys = list(map(int, top["o_custkey"]))
    key_set = pa.array(keys, pa.int64())

    def pick(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["c_custkey"].combine_chunks(),
                                 value_set=key_set))

    names = _read(sf_dir, "customer", ["c_custkey", "c_name"]) \
        .map_batches(pick, batch_format="pyarrow").to_pandas()
    name_of = dict(zip(names["c_custkey"], names["c_name"]))
    return pa.table({
        "c_custkey": pa.array(keys, pa.int64()),
        "c_name": pa.array([name_of[k] for k in keys], pa.string()),
        "revenue_cents": pa.array(top["revenue_cents"].astype("int64"), pa.int64()),
        "n_orders": pa.array(top["n_orders"].astype("int64"), pa.int64()),
    })


def q_order_revenue_join(sf_dir: str) -> "ray.data.Dataset":
    """Large-x-large co-bucketed hash join: lineitem pre-aggregated per order
    (per-batch combiner, then ONE bucketed merge — not a fine-key Ray
    aggregate, which sort-shuffles on 10^5+ distinct keys), then joined to
    orders on o_orderkey. Schemas are passed statically so the lazy aggregate
    is executed exactly once (Dataset.schema() would run it a second time).
    Output: (o_orderkey, o_custkey, lineitem_cents, n_lines)."""
    from ..functions.agg import bucketed_group_sum
    from ..functions.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    n_orders = orders.count()  # metadata-only on a fresh read

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "o_orderkey": batch["l_orderkey"],
            "lineitem_cents": pa.array(
                _cents(batch["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64()),
        }).group_by("o_orderkey").aggregate(
            [("lineitem_cents", "sum"), ("lineitem_cents", "count")])
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "lineitem_cents": t["lineitem_cents_sum"],
            "n_lines": pc.cast(t["lineitem_cents_count"], pa.int64()),
        })

    li_agg = bucketed_group_sum(
        li.map_batches(partial, batch_format="pyarrow"),
        key="o_orderkey", cols=["lineitem_cents", "n_lines"],
        size_hint=n_orders)
    li_schema = pa.schema([("o_orderkey", pa.int64()),
                           ("lineitem_cents", pa.int64()),
                           ("n_lines", pa.int64())])
    orders_schema = pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())])
    return hash_join(orders, li_agg, on="o_orderkey", how="inner",
                     size_hint=n_orders,
                     left_schema=orders_schema, right_schema=li_schema)


def q_events_rollup(sf_dir: str) -> "ray.data.Dataset":
    """Per-event-type rollup incl. an exact distinct-user count, with NO
    skewed shuffle: the old groupby(event_type).map_groups put every row of
    one event type in a single group — the classic all-to-one hot key.

    Two-stage shape instead:
    - n_events / sum_value_cents: per-batch partial group_by + one tiny
      groupby(event_type) Sum (combiner pattern, rows ~ #types per batch).
    - n_users: per-batch DISTINCT (event_type, user_id), bucketed on the
      pair hash -> in-bucket global distinct -> per-bucket partial counts ->
      tiny groupby(event_type) Sum. Shuffle volume ~ distinct pairs, spread
      over all buckets; no single reducer sees one event type's full rows.
    The two aggregate legs (each ~#event_types rows) are tag-unioned and
    summed in one final tiny groupby — nothing is collected to the driver."""
    import zlib

    from ..sharding import auto_buckets, bucket_of_ints

    n_rows = _read(sf_dir, "events", ["event_id"]).count()  # metadata-only
    num_buckets = auto_buckets(n_rows, rows_per_bucket=65536)

    metrics = _read(sf_dir, "events", ["event_type", "value"])

    def partial_metrics(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "event_type": batch["event_type"],
            "cents": pa.array(_cents(batch["value"].to_numpy(zero_copy_only=False)),
                              pa.int64()),
        }).group_by("event_type").aggregate([("cents", "sum"), ("cents", "count")])
        return pa.table({
            "event_type": t["event_type"],
            "n_events": pc.cast(t["cents_count"], pa.int64()),
            "sum_value_cents": pc.cast(t["cents_sum"], pa.int64()),
            "n_users": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
        })

    users = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial_pairs(batch: pa.Table) -> pa.Table:
        d = pa.table({
            "event_type": batch["event_type"],
            "user_id": pc.cast(batch["user_id"], pa.int64()),
        }).group_by(["event_type", "user_id"]).aggregate([])
        # crc once per DISTINCT event type (a handful), then take per row
        enc = pc.dictionary_encode(d["event_type"].combine_chunks())
        uniq_crc = np.array([zlib.crc32(s.encode())
                             for s in enc.dictionary.to_pylist()], dtype=np.int64)
        et_crc = uniq_crc[enc.indices.to_numpy(zero_copy_only=False)]
        uid = d["user_id"].to_numpy(zero_copy_only=False)
        pk = bucket_of_ints(uid * np.int64(1000003) + et_crc, num_buckets)
        return d.append_column("pkey", pa.array(pk, pa.int64()))

    def bucket_distinct_count(g: pa.Table) -> pa.Table:
        d = g.group_by(["event_type", "user_id"]).aggregate([])
        t = d.group_by("event_type").aggregate([("user_id", "count")])
        n = t.num_rows
        return pa.table({
            "event_type": t["event_type"],
            "n_events": pa.nulls(n, pa.int64()).fill_null(0),
            "sum_value_cents": pa.nulls(n, pa.int64()).fill_null(0),
            "n_users": pc.cast(t["user_id_count"], pa.int64()),
        })

    user_leg = (users.map_batches(partial_pairs, batch_format="pyarrow")
                .groupby("pkey").map_groups(bucket_distinct_count,
                                            batch_format="pyarrow"))
    metric_leg = metrics.map_batches(partial_metrics, batch_format="pyarrow")

    agg = (metric_leg.union(user_leg)
           .groupby("event_type")
           .aggregate(Sum("n_events"), Sum("sum_value_cents"), Sum("n_users")))
    return agg.map_batches(lambda b: pa.table({
        "event_type": b["event_type"],
        "n_events": pc.cast(b["sum(n_events)"], pa.int64()),
        "sum_value_cents": pc.cast(b["sum(sum_value_cents)"], pa.int64()),
        "n_users": pc.cast(b["sum(n_users)"], pa.int64()),
    }), batch_format="pyarrow")


def q_events_tumbling(sf_dir: str) -> "ray.data.Dataset":
    """Event-time tumbling window (1h) per event_type: the windowed-aggregate
    operator. Window assignment is a vectorized floor on the timestamp inside
    map_batches (no shuffle), partial-aggregated per batch, then one small
    groupby on (event_type, window)."""
    from ..functions.agg import bucketed_group_sum_multi

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    n_rows = _read(sf_dir, "events", ["event_id"]).count()  # metadata-only
    hour_us = np.int64(3600) * 1000000

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        win = (ts.astype(np.int64) // hour_us) * hour_us
        t = pa.table({
            "event_type": batch["event_type"],
            "window_us": pa.array(win, pa.int64()),
            "sum_value_cents": pa.array(
                _cents(batch["value"].to_numpy(zero_copy_only=False)), pa.int64()),
        }).group_by(["event_type", "window_us"]).aggregate(
            [("sum_value_cents", "sum"), ("sum_value_cents", "count")])
        return pa.table({
            "event_type": t["event_type"],
            "window_us": t["window_us"],
            "sum_value_cents": t["sum_value_cents_sum"],
            "n_events": pc.cast(t["sum_value_cents_count"], pa.int64()),
        })

    # (event_type, window) cardinality grows with the corpus time range ->
    # bucketed composite-key merge, not a fine-key Ray aggregate
    return bucketed_group_sum_multi(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type", "window_us"],
        cols=["sum_value_cents", "n_events"], size_hint=n_rows // 16)


def q_events_hopping(sf_dir: str) -> "ray.data.Dataset":
    """SLIDING (hopping) event-time window: 1h windows every 30min — each
    event lands in exactly two windows. Window assignment is a vectorized
    duplicate-and-shift inside map_batches (no shuffle), partials combine
    per batch, then one tiny groupby on (event_type, window) — the same
    combiner shape as the tumbling variant, with 2x the partial rows."""
    from ..functions.agg import bucketed_group_sum_multi

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    n_rows = _read(sf_dir, "events", ["event_id"]).count()  # metadata-only
    hop_us = np.int64(1800) * 1000000    # 30 min
    win_us = np.int64(3600) * 1000000    # 1 h

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        us = ts.astype(np.int64)
        first = (us // hop_us) * hop_us
        starts = np.concatenate([first, first - hop_us])
        et = pa.concat_arrays([batch["event_type"].combine_chunks()] * 2)
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False))
        cents2 = np.concatenate([cents, cents])
        keep = (np.concatenate([us, us]) - starts) < win_us  # always true; guard
        t = pa.table({
            "event_type": et,
            "window_us": pa.array(starts, pa.int64()),
            "sum_value_cents": pa.array(cents2, pa.int64()),
        }).filter(pa.array(keep)).group_by(["event_type", "window_us"]).aggregate(
            [("sum_value_cents", "sum"), ("sum_value_cents", "count")])
        return pa.table({
            "event_type": t["event_type"],
            "window_us": t["window_us"],
            "sum_value_cents": t["sum_value_cents_sum"],
            "n_events": pc.cast(t["sum_value_cents_count"], pa.int64()),
        })

    return bucketed_group_sum_multi(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type", "window_us"],
        cols=["sum_value_cents", "n_events"], size_hint=n_rows // 8)


def q_next_purchase(sf_dir: str) -> "ray.data.Dataset":
    """FORWARD as-of join: each click matched to the user's NEXT purchase
    at-or-after it (time-to-conversion shape) — the backward asof machinery
    run on negated sort timestamps, same single co-bucketed shuffle."""
    from ..functions.temporal import asof_join

    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    left = _read(sf_dir, "events", cols).filter(
        expr="event_type == 'click'")
    right = _read(sf_dir, "events", cols).filter(
        expr="event_type == 'purchase'")
    j = asof_join(left, right, key="user_id", ts="ts",
                  left_cols=["event_id"],
                  right_cols={"purchase_event_id": "event_id",
                              "purchase_ts": "ts"},
                  tiebreak="event_id", direction="forward")

    def finalize(b: pa.Table) -> pa.Table:
        pe = pc.fill_null(pc.cast(b["purchase_event_id"], pa.int64()), -1)
        has = pc.greater_equal(pe, 0)
        lts = pc.cast(b["ts"], pa.int64())
        pts = pc.cast(b["purchase_ts"], pa.int64())
        wait = pc.if_else(has, pc.subtract(pts, lts),
                          pa.scalar(-1, pa.int64()))
        return pa.table({
            "event_id": pc.cast(b["event_id"], pa.int64()),
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts": b["ts"],
            "purchase_event_id": pe,
            "wait_us": pc.cast(wait, pa.int64()),
        })

    return j.map_batches(finalize, batch_format="pyarrow")


def q_user_rolling_value(sf_dir: str) -> "ray.data.Dataset":
    """Moving-window aggregate: per user, the 3-row rolling sum of event
    value cents ordered by (ts, event_id) — SQL ROWS BETWEEN 2 PRECEDING.
    One shuffle on hash(user); the window is a cumsum difference with the
    lag index clamped at each partition head (functions/window.py)."""
    from ..functions.window import rolling_sum

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "ts": b["ts"],
            "cents": pa.array(
                _cents(b["value"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]) \
        .map_batches(prep, batch_format="pyarrow")
    return rolling_sum(ds, key="user_id", order_cols=["ts", "event_id"],
                       sum_col="cents", window_rows=3)


def q_click_attribution(sf_dir: str) -> "ray.data.Dataset":
    """Backward as-of join: each click attributed to the user's most recent
    purchase at-or-before it (DuckDB ASOF JOIN semantics, ties broken by
    max purchase event_id). Both sides co-bucketed on hash(user_id) in one
    shuffle; the in-bucket matcher is a single vectorized forward-fill —
    see functions/temporal.py. No-match rows keep -1 sentinels so every
    output column stays non-null BIGINT (nullable ints degrade to float64
    through to_pandas and wobble the driver's hash)."""
    from ..functions.temporal import asof_join

    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    left = _read(sf_dir, "events", cols).filter(
        expr="event_type == 'click'")
    right = _read(sf_dir, "events", cols).filter(
        expr="event_type == 'purchase'")
    j = asof_join(left, right, key="user_id", ts="ts",
                  left_cols=["event_id"],
                  right_cols={"purchase_event_id": "event_id",
                              "purchase_ts": "ts",
                              "purchase_value": "value"},
                  tiebreak="event_id")

    def finalize(b: pa.Table) -> pa.Table:
        pe = pc.fill_null(pc.cast(b["purchase_event_id"], pa.int64()), -1)
        has = pc.greater_equal(pe, 0)
        has_np = has.combine_chunks().to_numpy(zero_copy_only=False)
        lts = pc.cast(b["ts"], pa.int64())
        pts = pc.cast(b["purchase_ts"], pa.int64())
        gap = pc.if_else(has, pc.subtract(lts, pts),
                         pa.scalar(-1, pa.int64()))
        v = pc.fill_null(b["purchase_value"], 0.0) \
            .combine_chunks().to_numpy(zero_copy_only=False)
        cents = np.where(has_np, _cents(v), -1)
        return pa.table({
            "event_id": pc.cast(b["event_id"], pa.int64()),
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts": b["ts"],
            "purchase_event_id": pe,
            "purchase_cents": pa.array(cents, pa.int64()),
            "gap_us": pc.cast(gap, pa.int64()),
        })

    return j.map_batches(finalize, batch_format="pyarrow")


def q_customer_running_revenue(sf_dir: str) -> "ray.data.Dataset":
    """SUM OVER (PARTITION BY customer ORDER BY date, orderkey) + lag():
    running revenue and previous-order gap per customer. Total order is
    (o_orderdate, o_orderkey) — unique, so the SQL default RANGE frame
    equals this operator's ROWS semantics (see functions/window.py)."""
    from ..functions.window import running_sum_lag

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey",
                                  "o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
            "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
            "o_orderdate": b["o_orderdate"],
            "date_us": pc.cast(b["o_orderdate"], pa.int64()),
            "cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    w = running_sum_lag(ds.map_batches(prep, batch_format="pyarrow"),
                        key="o_custkey",
                        order_cols=["date_us", "o_orderkey"],
                        sum_col="cents",
                        lag_cols=["o_orderkey", "date_us"])

    def finalize(b: pa.Table) -> pa.Table:
        prev_dt = b["prev_date_us"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        dt = b["date_us"].combine_chunks().to_numpy(zero_copy_only=False)
        gap = np.where(prev_dt >= 0, dt - prev_dt, -1)
        return pa.table({
            "o_custkey": b["o_custkey"], "o_orderkey": b["o_orderkey"],
            "o_orderdate": b["o_orderdate"], "cents": b["cents"],
            "running_cents": b["running_cents"],
            "prev_orderkey": b["prev_o_orderkey"],
            "gap_us": pa.array(gap, pa.int64())})

    return w.map_batches(finalize, batch_format="pyarrow")


# price bands in cents — deliberately OVERLAPPING so the range join's
# multi-match semantics are exercised; the SQL twin is generated from this
# same constant so the two sides cannot drift
_PRICE_BANDS = [(0, 0, 10_000_000),
                (1, 5_000_000, 20_000_000),
                (2, 15_000_000, 60_000_000),
                (3, 0, 60_000_000)]


def q_order_price_bands(sf_dir: str) -> "ray.data.Dataset":
    """Range (interval) join: orders against overlapping price bands.
    Broadcast interval side, streamed point side, searchsorted matcher —
    see functions/temporal.py:range_join_broadcast."""
    from ..functions.temporal import range_join_broadcast

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
            "cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    bands = pa.table({
        "band_id": pa.array([b[0] for b in _PRICE_BANDS], pa.int64()),
        "lo": pa.array([b[1] for b in _PRICE_BANDS], pa.int64()),
        "hi": pa.array([b[2] for b in _PRICE_BANDS], pa.int64())})
    return range_join_broadcast(
        ds.map_batches(to_cents, batch_format="pyarrow"), bands,
        value="cents", interval_cols=["band_id"])


def q_top_orders_per_customer(sf_dir: str) -> "ray.data.Dataset":
    """Per-group top-k (the window-function `row_number() <= 3` shape): the
    3 highest-value orders per customer. One bucketed shuffle on the
    customer key; inside each bucket a single vectorized sort + grouped
    head(3). Deterministic total order: (custkey, -price, orderkey)."""
    from ..sharding import auto_buckets, bucket_of_ints

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    num_buckets = auto_buckets(ds.count(), rows_per_bucket=65536)

    def add_pkey(b: pa.Table) -> pa.Table:
        k = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "o_custkey": pa.array(k, pa.int64()),
            "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
            "total_cents": pa.array(
                _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64()),
            "pkey": pa.array(bucket_of_ints(k, num_buckets), pa.int64()),
        })

    def topk(g: pa.Table) -> pa.Table:
        # Arrow-native: one multi-key sort, then numpy segment boundaries —
        # no Arrow->pandas->Arrow round-trip in the reducer
        t = g.sort_by([("o_custkey", "ascending"),
                       ("total_cents", "descending"),
                       ("o_orderkey", "ascending")])
        k = t["o_custkey"].to_numpy(zero_copy_only=False)
        n = len(k)
        if n == 0:
            return pa.table({
                "o_custkey": pa.array([], pa.int64()),
                "o_orderkey": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "total_cents": pa.array([], pa.int64()),
            })
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = k[1:] != k[:-1]
        starts = np.where(new)[0]
        sizes = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes) + 1
        mask = rank <= 3
        tt = t.filter(pa.array(mask))
        return pa.table({
            "o_custkey": tt["o_custkey"],
            "o_orderkey": tt["o_orderkey"],
            "rank": pa.array(rank[mask], pa.int64()),
            "total_cents": tt["total_cents"],
        })

    return ds.map_batches(add_pkey, batch_format="pyarrow") \
        .groupby("pkey").map_groups(topk, batch_format="pyarrow")


def q_sessionize(sf_dir: str) -> "ray.data.Dataset":
    """Windowed/stateful streaming analog: 30-minute-gap sessionization.

    One bucketed shuffle on hash(user_id) (a direct groupby(user_id) pays
    Ray's per-group cost x millions of users); inside each bucket the
    session assignment is ONE vectorized pass over all users: sort by
    (user_id, ts, event_id), break sessions on user change OR gap, number
    sessions per user by global-cumsum minus per-user offset, then a single
    grouped aggregate. The partitioning assumption (one user's events fit
    one bucket slice) is unchanged."""
    from ..sharding import auto_buckets, bucket_of_ints

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    num_buckets = auto_buckets(ds.count(), rows_per_bucket=65536)
    gap_us = np.int64(30 * 60) * 1000000

    def add_pkey(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column(
            "pkey", pa.array(bucket_of_ints(uid, num_buckets), pa.int64()))

    def per_bucket(g: pa.Table) -> pa.Table:
        # Arrow-native sort + numpy segment reduction: sessions are
        # CONTIGUOUS runs after the (user, ts, event) sort, so every
        # aggregate is a boundary-index expression — no pandas round-trip
        t = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        n = len(uid)
        if n == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "session_id": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "duration_us": pa.array([], pa.int64()),
            })
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = (ts[1:] - ts[:-1]) > gap_us
        new_s = new_user | brk
        cs = np.cumsum(new_s)
        # session_id restarts at 1 per user: subtract the cumsum just
        # before each user's first row
        user_start = np.maximum.accumulate(np.where(new_user, cs - 1, 0))
        sess = cs - user_start
        starts = np.where(new_s)[0]
        ends = np.append(starts[1:], n) - 1
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "session_id": pa.array(sess[starts], pa.int64()),
            "n_events": pa.array(np.diff(np.append(starts, n)), pa.int64()),
            "duration_us": pa.array(ts[ends] - ts[starts], pa.int64()),
        })

    return ds.map_batches(add_pkey, batch_format="pyarrow") \
        .groupby("pkey").map_groups(per_bucket, batch_format="pyarrow")


def q_token_count_bpe(sf_dir: str) -> "ray.data.Dataset":
    """BPE-ish subword chunk count: RE2 pattern (letter runs / digit runs /
    punct runs, optional leading space) applied identically by pyarrow and
    DuckDB — both are RE2, so parity is exact."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pattern = r" ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"

    def count(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"].combine_chunks(), pattern)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bpe_tokens": pc.cast(n, pa.int64()),
        })

    return ds.map_batches(count, batch_format="pyarrow")


# --------------------------------------- extraction pure-operator parity ops

def _lineitem_words(sf_dir: str) -> "ray.data.Dataset":
    """Synthetic per-"document" word stream derived from lineitem: one word
    per line item, grouped by order — the F2 words-table contract over
    driver data (doc = l_orderkey, reading position = l_linenumber)."""
    return _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey",
                  "l_returnflag"])


def q_raw_text_join(sf_dir: str) -> "ray.data.Dataset":
    """M13/G1 parity: per-document ' '-join of word texts in order.
    Bucketed shuffle (data-sized width) + vectorized in-bucket grouping."""
    from ..sharding import auto_buckets, bucket_of_ints

    ds = _lineitem_words(sf_dir)
    num_buckets = auto_buckets(ds.count(), rows_per_bucket=65536)

    def add_word(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        text = [f"{rf}{int(p) % 97}" for rf, p in
                zip(batch["l_returnflag"].to_pylist(), pk)]
        return pa.table({
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_linenumber": pa.array(ln, pa.int64()),
            "word": pa.array(text, pa.string()),
            "pkey": pa.array(bucket_of_ints(ok.astype(np.int64), num_buckets),
                             pa.int64()),
        })

    def join_in_bucket(g: pa.Table) -> pa.Table:
        # (orderkey, linenumber) is NOT unique in the corpus: tie-break on the
        # word text so both engines produce one deterministic total order.
        # Arrow-native sort; the per-group ' '.join walks segment slices.
        t = g.sort_by([("l_orderkey", "ascending"),
                       ("l_linenumber", "ascending"), ("word", "ascending")])
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        n = len(ok)
        if n == 0:
            return pa.table({
                "l_orderkey": pa.array([], pa.int64()),
                "raw_text": pa.array([], pa.string()),
            })
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = ok[1:] != ok[:-1]
        starts = np.where(new)[0]
        bounds = np.append(starts, n)
        words = t["word"].to_pylist()
        texts = [" ".join(words[bounds[i]:bounds[i + 1]])
                 for i in range(len(starts))]
        return pa.table({
            "l_orderkey": pa.array(ok[starts], pa.int64()),
            "raw_text": pa.array(texts, pa.string()),
        })

    return ds.map_batches(add_word, batch_format="pyarrow") \
        .groupby("pkey").map_groups(join_in_bucket, batch_format="pyarrow")


def q_vendor_topk(sf_dir: str) -> "ray.data.Dataset":
    """M20/G2/G3/O1 parity: per-document vendor = join of the top-3 words by
    (y0, position); integerized avg confidence (sum_milli + n) and union box.
    Bucketed shuffle width derives from data size."""
    from ..sharding import auto_buckets, bucket_of_ints

    ds = _lineitem_words(sf_dir)
    num_buckets = auto_buckets(ds.count(), rows_per_bucket=65536)

    def add_geom(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_linenumber": pa.array(ln, pa.int64()),
            "word": pa.array([f"{rf}{int(p) % 97}" for rf, p in
                              zip(batch["l_returnflag"].to_pylist(), pk)],
                             pa.string()),
            "y0": pa.array((sk * 13) % 600, pa.int64()),
            "x0": pa.array(pk % 400, pa.int64()),
            "conf_milli": pa.array(500 + (pk % 500), pa.int64()),
            "pkey": pa.array(bucket_of_ints(ok.astype(np.int64), num_buckets),
                             pa.int64()),
        })

    def topk_in_bucket(g: pa.Table) -> pa.Table:
        # full deterministic total order: duplicate (orderkey, linenumber)
        # rows exist, so break ties on word/conf/x0 (identical rows commute).
        # Arrow-native sort; head(3) + aggregates via numpy segment ops.
        t = g.sort_by([("l_orderkey", "ascending"), ("y0", "ascending"),
                       ("l_linenumber", "ascending"), ("word", "ascending"),
                       ("conf_milli", "ascending"), ("x0", "ascending")])
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        n = len(ok)
        if n == 0:
            return pa.table({
                "l_orderkey": pa.array([], pa.int64()),
                "vendor": pa.array([], pa.string()),
                "sum_conf_milli": pa.array([], pa.int64()),
                "n_words": pa.array([], pa.int64()),
                "x0": pa.array([], pa.int64()),
                "y0": pa.array([], pa.int64()),
            })
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = ok[1:] != ok[:-1]
        starts = np.where(new)[0]
        sizes = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
        mask = rank < 3
        okm = ok[mask]
        conf = t["conf_milli"].to_numpy(zero_copy_only=False)[mask]
        x0 = t["x0"].to_numpy(zero_copy_only=False)[mask]
        y0 = t["y0"].to_numpy(zero_copy_only=False)[mask]
        words = t["word"].filter(pa.array(mask)).to_pylist()
        m = len(okm)
        new2 = np.empty(m, dtype=bool)
        new2[0] = True
        new2[1:] = okm[1:] != okm[:-1]
        s2 = np.where(new2)[0]
        b2 = np.append(s2, m)
        return pa.table({
            "l_orderkey": pa.array(okm[s2], pa.int64()),
            "vendor": pa.array(
                [" ".join(words[b2[i]:b2[i + 1]]) for i in range(len(s2))],
                pa.string()),
            "sum_conf_milli": pa.array(np.add.reduceat(conf, s2), pa.int64()),
            "n_words": pa.array(np.diff(b2), pa.int64()),
            "x0": pa.array(np.minimum.reduceat(x0, s2), pa.int64()),
            "y0": pa.array(np.minimum.reduceat(y0, s2), pa.int64()),
        })

    return ds.map_batches(add_geom, batch_format="pyarrow") \
        .groupby("pkey").map_groups(topk_in_bucket, batch_format="pyarrow")


def q_normalize_boxes(sf_dir: str) -> "ray.data.Dataset":
    """M12 box normalization (x*1000/dim, trunc, clamp) over synthetic pixel
    boxes derived from lineitem columns; 400x600 page like the reference
    fixtures (receipt_processor.py:262-299)."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

    def norm(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        x0 = pk % 300
        y0 = sk % 500
        x1 = x0 + 1 + (ln * 37) % 100
        y1 = y0 + 20

        def n(v, dim):
            return np.clip(np.trunc(v.astype(np.float64) * 1000 / dim), 0, 1000).astype(np.int64)

        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "l_linenumber": pa.array(ln, pa.int64()),
            "nx0": pa.array(n(x0, 400), pa.int64()),
            "ny0": pa.array(n(y0, 600), pa.int64()),
            "nx1": pa.array(n(x1, 400), pa.int64()),
            "ny1": pa.array(n(y1, 600), pa.int64()),
        })

    return ds.map_batches(norm, batch_format="pyarrow")


def _comma_group_dollars(d: np.ndarray) -> pa.Array:
    """Thousands-separated integer rendering (SQL format('{:,}', x)) as pure
    Arrow kernels: up to three 10^3 groups (covers any TPC-H totalprice),
    low groups zero-padded with utf8_lpad, joined by ','."""
    lo = pa.array(d % 1000, pa.int64())
    mid = pa.array((d // 1000) % 1000, pa.int64())
    hi = pa.array(d // 1_000_000, pa.int64())
    s_lo_pad = pc.utf8_lpad(pc.cast(lo, pa.string()), 3, "0")
    s_mid_pad = pc.utf8_lpad(pc.cast(mid, pa.string()), 3, "0")
    one = pc.cast(lo, pa.string())
    two = pc.binary_join_element_wise(pc.cast(mid, pa.string()), s_lo_pad, ",")
    three = pc.binary_join_element_wise(
        pc.cast(hi, pa.string()), s_mid_pad, s_lo_pad, ",")
    has_m = pa.array(d >= 1_000_000)
    has_k = pa.array(d >= 1000)
    return pc.if_else(has_m, three, pc.if_else(has_k, two, one))


def q_extract_amount(sf_dir: str) -> "ray.data.Dataset":
    """M14 amount regex over formatted money strings built from orders —
    all-Arrow (SURVEY M14's pc.extract_regex + binary_join_element_wise
    plan): the money string is assembled by Arrow string kernels, the
    amount captured by RE2 extract_regex, commas stripped by
    replace_substring. No pandas container, no per-row Python."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def ex(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        frac = pc.utf8_lpad(
            pc.cast(pa.array(cents % 100, pa.int64()), pa.string()), 2, "0")
        txt = pc.binary_join_element_wise(
            pa.scalar("Total: $"), _comma_group_dollars(cents // 100),
            pa.scalar("."), frac, "")
        amt = pc.struct_field(
            pc.extract_regex(
                txt, r"\$?\s*(?P<amt>\d{1,3}(?:,\d{3})*(?:\.\d{2})?)"),
            "amt")
        return pa.table({
            "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
            "amount_str": pc.replace_substring(amt, ",", ""),
        })

    return ds.map_batches(ex, batch_format="pyarrow")


def q_extract_date(sf_dir: str) -> "ray.data.Dataset":
    """M15 strptime-chain date normalization; odd orderkeys get d/m/Y strings
    so the chain's m/d-before-d/m ordering quirk is exercised both ways.
    The date strings are built with Arrow strftime; only the strptime chain
    itself stays per-row Python (its try-order IS the operator, M15)."""
    from ..oracle.fields import extract_date_iso
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def ex(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch["o_orderkey"], pa.int64())
        even = pc.equal(pc.bit_wise_and(keys, 1), 0)
        ts = pc.cast(batch["o_orderdate"], pa.timestamp("us"))
        s = pc.if_else(even, pc.strftime(ts, "%m/%d/%Y"),
                       pc.strftime(ts, "%d/%m/%Y"))
        return pa.table({
            "o_orderkey": keys,
            "date_iso": pa.array([extract_date_iso(x) for x in s.to_pylist()],
                                 pa.string()),
        })

    return ds.map_batches(ex, batch_format="pyarrow")


def q_detect_currency(sf_dir: str) -> "ray.data.Dataset":
    """M19 currency detection over constructed customer strings."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def ex(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        names = batch["c_name"].to_pylist()
        suffix = np.select(
            [keys % 4 == 0, keys % 4 == 1, keys % 4 == 2],
            [" paid $10", " paid €10", " paid £10"], " paid 10")
        s = pa.array([n + x for n, x in zip(names, suffix)], pa.string())
        cur = pc.if_else(
            pc.match_substring(s, "$"), pa.scalar("USD"),
            pc.if_else(pc.match_substring(s, "€"), pa.scalar("EUR"),
                       pc.if_else(pc.match_substring(s, "£"), pa.scalar("GBP"),
                                  pa.scalar(None, pa.string()))))
        return pa.table({
            "c_custkey": pa.array(keys.astype(np.int64), pa.int64()),
            "currency": cur,
        })

    return ds.map_batches(ex, batch_format="pyarrow")


def q_verify_totals(sf_dir: str) -> "ray.data.Dataset":
    """M24 totals verification with cent-integer arithmetic over lineitem."""
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice", "l_tax"])

    def ver(batch: pa.Table) -> pa.Table:
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        tax = batch["l_tax"].to_numpy(zero_copy_only=False)
        sub_c = _cents(ep)
        tax_c = _cents(ep * tax)
        tot_c = _cents(ep * (1 + tax))
        ok = np.abs(sub_c + tax_c - tot_c) <= 2
        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "l_linenumber": pc.cast(batch["l_linenumber"], pa.int64()),
            "verified": pa.array(ok, pa.bool_()),
        })

    return ds.map_batches(ver, batch_format="pyarrow")


# ---------------------------------------------------------------- oracle SQL

_NORM_SQL = r"""
  trim(regexp_replace(
    replace(replace(replace(replace(replace(replace(
      regexp_replace(regexp_replace(regexp_replace({col},
        '(?is)<script\b[^>]*>.*?</script\s*>', ' ', 'g'),
        '(?is)<style\b[^>]*>.*?</style\s*>', ' ', 'g'),
        '<[^>]+>', ' ', 'g'),
      '&lt;', '<'), '&gt;', '>'), '&quot;', '"'), '&#39;', ''''),
      '&nbsp;', ' '), '&amp;', '&'),
    '\s+', ' ', 'g'))
"""

_STOPLIST_SQL = "[" + ",".join(f"'{w}'" for w in T.STOPWORDS) + "]"

ORACLE_SQL: Dict[str, str] = {
    "normalize_text": f"SELECT doc_id, {_NORM_SQL.format(col='text')} AS norm_text FROM documents",
    "token_count": r"""
        SELECT doc_id,
          CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = '' THEN 0
               ELSE len(regexp_split_to_array(regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'))
          END::BIGINT AS n_tokens
        FROM documents""",
    "quality_stats": rf"""
        WITH t AS (
          SELECT doc_id, text, regexp_replace(text, '^\s+|\s+$', '', 'g') AS tt FROM documents
        ), tok AS (
          SELECT doc_id, text,
            CASE WHEN tt = '' THEN CAST([] AS VARCHAR[])
                 ELSE regexp_split_to_array(tt, '\s+') END AS toks
          FROM t)
        SELECT doc_id,
          length(text)::BIGINT AS n_chars,
          len(toks)::BIGINT AS n_tokens,
          length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::BIGINT AS n_alpha,
          len(list_filter(toks, x -> list_contains({_STOPLIST_SQL}, lower(x))))::BIGINT AS n_stop
        FROM tok""",
    "fingerprint": f"SELECT doc_id, md5({_NORM_SQL.format(col='text')}) AS fingerprint FROM documents",
    "exact_dedup": """
        SELECT md5(text) AS text_hash, min(doc_id) AS keep_id, count(*)::BIGINT AS n_dups
        FROM documents GROUP BY text""",
    "length_outliers": """
        SELECT doc_id, n_chars FROM documents
        WHERE n_chars > (SELECT quantile_disc(n_chars, 0.99) FROM documents)""",
    "retention": """
        WITH d AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS day
                   FROM events),
        f AS (SELECT user_id, min(day) AS cohort FROM d GROUP BY user_id)
        SELECT f.cohort AS cohort_day,
               date_diff('day', f.cohort, d.day)::BIGINT AS day_offset,
               count(*)::BIGINT AS n_users
        FROM d JOIN f USING (user_id) GROUP BY 1, 2""",
    "user_activity_full": """
        WITH c AS (SELECT user_id, count(*)::BIGINT AS n_click
                   FROM events WHERE event_type = 'click' GROUP BY user_id),
             p AS (SELECT user_id, count(*)::BIGINT AS n_purchase
                   FROM events WHERE event_type = 'purchase' GROUP BY user_id)
        SELECT coalesce(c.user_id, p.user_id) AS user_id,
               coalesce(n_click, 0)::BIGINT AS n_click,
               coalesce(n_purchase, 0)::BIGINT AS n_purchase
        FROM c FULL OUTER JOIN p ON c.user_id = p.user_id""",
    "funnel": """
        WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
                   WHERE event_type = 'view' GROUP BY user_id),
             c AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
                   JOIN v ON e.user_id = v.user_id
                   WHERE e.event_type = 'click' AND e.ts >= v.t1
                   GROUP BY e.user_id),
             p AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
                   JOIN c ON e.user_id = c.user_id
                   WHERE e.event_type = 'purchase' AND e.ts >= c.t2
                   GROUP BY e.user_id)
        SELECT u.user_id,
               (CASE WHEN v.user_id IS NOT NULL THEN 1 ELSE 0 END
                + CASE WHEN c.user_id IS NOT NULL THEN 1 ELSE 0 END
                + CASE WHEN p.user_id IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
                 AS funnel_depth
        FROM (SELECT DISTINCT user_id FROM events) u
        LEFT JOIN v ON u.user_id = v.user_id
        LEFT JOIN c ON u.user_id = c.user_id
        LEFT JOIN p ON u.user_id = p.user_id""",
    "label_centroids": """
        SELECT CAST(label AS BIGINT) AS label, i AS dim,
               sum(CAST(sign(x) * floor(abs(x * 1000000) + 0.5)
                        AS BIGINT))::BIGINT AS sum_q,
               count(*)::BIGINT AS n_vecs
        FROM (SELECT label, i, CAST(embedding[i] AS DOUBLE) AS x
              FROM embeddings,
                   unnest(generate_series(1, len(embedding))) AS t(i))
        GROUP BY label, i""",
    "label_scatter": """
        SELECT label, dim, sum(q * q)::BIGINT AS sum_q2
        FROM (SELECT CAST(label AS BIGINT) AS label, i AS dim,
                     CAST(floor(abs(CAST(embedding[i] AS DOUBLE) * 1000000)
                                + 0.5) AS BIGINT) AS q
              FROM embeddings,
                   unnest(generate_series(1, len(embedding))) AS t(i))
        GROUP BY label, dim""",
    "grouped_comoments": """
        SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n_rows,
               sum(x)::BIGINT AS sum_x, sum(y)::BIGINT AS sum_y,
               sum(x * x)::BIGINT AS sum_xx, sum(x * y)::BIGINT AS sum_xy,
               sum(y * y)::BIGINT AS sum_yy
        FROM (SELECT l_returnflag, l_linestatus,
                     CAST(floor(l_quantity + 0.5) AS BIGINT) AS x,
                     CAST(floor(l_extendedprice + 0.5) AS BIGINT) AS y
              FROM lineitem)
        GROUP BY l_returnflag, l_linestatus""",
    "zscore_outliers": """
        WITH m AS (SELECT count(*)::BIGINT AS n, sum(n_chars)::BIGINT AS s,
                          sum(n_chars * n_chars)::BIGINT AS q
                   FROM documents)
        SELECT d.doc_id, d.n_chars::BIGINT AS n_chars,
               (CASE WHEN (m.n * d.n_chars - m.s) * (m.n * d.n_chars - m.s)
                          > 4 * (m.n * m.q - m.s * m.s)
                     THEN 1 ELSE 0 END)::BIGINT AS is_outlier
        FROM documents d, m""",
    "forecast_revenue": """
        SELECT sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * CAST(round(l_discount * 100) AS BIGINT))::BIGINT
                 AS revenue_micro,
               count(*)::BIGINT AS n_rows
        FROM lineitem
        WHERE l_shipdate >= DATE '1996-01-01'
          AND l_shipdate < DATE '1997-01-01'
          AND l_discount >= 0.0295 AND l_discount <= 0.0705
          AND l_quantity < 24""",
    "large_orders": """
        SELECT b.o_orderkey, b.total_qty, o.o_custkey,
               CAST(round(o.o_totalprice * 100) AS BIGINT) AS o_total_cents
        FROM (SELECT l_orderkey AS o_orderkey,
                     sum(CAST(floor(l_quantity + 0.5) AS BIGINT))::BIGINT
                       AS total_qty
              FROM lineitem GROUP BY 1) b
        JOIN orders o ON b.o_orderkey = o.o_orderkey
        WHERE b.total_qty > 250""",
    "purchasers_minus_errors": """
        SELECT user_id FROM events
        WHERE event_type = 'purchase' AND value > 150.0
        EXCEPT
        SELECT user_id FROM events
        WHERE event_type = 'error' AND value > 150.0""",
    "purchase_and_click_users": """
        SELECT user_id FROM events WHERE event_type = 'purchase'
        INTERSECT
        SELECT user_id FROM events WHERE event_type = 'click'""",
    "priority_region_matrix": """
        WITH cnt AS (
          SELECT r.r_name, o.o_orderpriority, count(*)::BIGINT AS n
          FROM orders o
          JOIN customer c ON o.o_custkey = c.c_custkey
          JOIN nation n ON c.c_nationkey = n.n_nationkey
          JOIN region r ON n.n_regionkey = r.r_regionkey
          GROUP BY 1, 2),
        dims AS (
          SELECT rn.r_name, pr.o_orderpriority
          FROM (SELECT DISTINCT r_name FROM cnt) rn
          CROSS JOIN (SELECT DISTINCT o_orderpriority FROM cnt) pr)
        SELECT d.r_name, d.o_orderpriority,
               COALESCE(c.n, 0)::BIGINT AS n_orders
        FROM dims d
        LEFT JOIN cnt c ON d.r_name = c.r_name
                       AND d.o_orderpriority = c.o_orderpriority""",
    "event_unpivot": """
        SELECT user_id, event_type, count(*)::BIGINT AS n
        FROM events GROUP BY user_id, event_type""",
    "cube_revenue": """
        SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
               COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
               sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT
                 AS revenue_cents,
               count(*)::BIGINT AS n_orders
        FROM orders GROUP BY CUBE(o_orderpriority, o_orderstatus)""",
    "fuzzy_name_pairs": """
        WITH d AS (SELECT DISTINCT p_name FROM part)
        SELECT a.p_name AS name_a, b.p_name AS name_b,
               levenshtein(a.p_name, b.p_name)::BIGINT AS dist
        FROM d a JOIN d b
          ON a.p_name < b.p_name
         AND abs(length(a.p_name) - length(b.p_name)) <= 2
        WHERE levenshtein(a.p_name, b.p_name) <= 3""",
    "winsorized_revenue": """
        WITH c AS (SELECT o_orderpriority,
                          CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                   FROM orders),
        q AS (SELECT o_orderpriority,
                     quantile_disc(cents, 0.05) AS lo,
                     quantile_disc(cents, 0.95) AS hi
              FROM c GROUP BY 1)
        SELECT c.o_orderpriority,
               sum(CASE WHEN cents < lo THEN lo
                        WHEN cents > hi THEN hi
                        ELSE cents END)::BIGINT AS wins_cents,
               count(*)::BIGINT AS n_orders
        FROM c JOIN q USING (o_orderpriority)
        GROUP BY c.o_orderpriority""",
    "nation_customer_rank": """
        SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, c_custkey,
               CAST(round(c_acctbal * 100) AS BIGINT) AS bal_cents,
               row_number() OVER w1 AS rn,
               rank() OVER w2 AS rnk,
               dense_rank() OVER w2 AS dense_rnk
        FROM customer
        WINDOW w1 AS (PARTITION BY c_nationkey
                      ORDER BY CAST(round(c_acctbal * 100) AS BIGINT) DESC,
                               c_custkey),
               w2 AS (PARTITION BY c_nationkey
                      ORDER BY CAST(round(c_acctbal * 100) AS BIGINT)
                               DESC)""",
    "latest_event_per_user": """
        SELECT user_id,
               CAST(date_diff('microsecond', TIMESTAMP '1970-01-01', ts)
                    AS BIGINT) AS ts_us,
               event_id, event_type,
               CAST(round(value * 100) AS BIGINT) AS value_cents
        FROM (SELECT *, row_number() OVER (
                  PARTITION BY user_id
                  ORDER BY ts DESC, event_id DESC) AS rn
              FROM events)
        WHERE rn = 1""",
    "char_trigram_topk": """
        WITH g AS (
          SELECT lang, substr(text, i, 3) AS gram, count(*)::BIGINT AS n
          FROM documents,
               unnest(generate_series(1, length(text) - 2)) AS t(i)
          GROUP BY 1, 2),
        r AS (SELECT lang, gram, n, row_number() OVER (
                  PARTITION BY lang ORDER BY n DESC, gram) AS rn
              FROM g)
        SELECT lang, gram, n, rn FROM r WHERE rn <= 20""",
    "qty_discount_histogram": """
        SELECT CAST(floor(l_quantity + 0.5) AS BIGINT) AS qty_bin,
               CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS disc_pct,
               count(*)::BIGINT AS n_rows,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT
                 AS cents
        FROM lineitem GROUP BY 1, 2""",
    "user_growth_daily": """
        WITH f AS (SELECT user_id, min(date_trunc('day', ts)) AS d
                   FROM events GROUP BY 1),
        c AS (SELECT CAST(date_diff('day', TIMESTAMP '1970-01-01', d)
                          AS BIGINT) AS day,
                     count(*)::BIGINT AS new_users
              FROM f GROUP BY 1)
        SELECT day, new_users,
               CAST(sum(new_users) OVER (ORDER BY day) AS BIGINT)
                 AS cum_users
        FROM c""",
    "purchase_ohlc_hourly": """
        WITH p AS (SELECT date_trunc('hour', ts) AS h, ts, event_id,
                          CAST(round(value * 100) AS BIGINT) AS cents
                   FROM events WHERE event_type = 'purchase'),
        w AS (SELECT h, cents,
                     row_number() OVER (PARTITION BY h
                                        ORDER BY ts, event_id) AS rn_a,
                     row_number() OVER (PARTITION BY h
                                        ORDER BY ts DESC, event_id DESC)
                       AS rn_d
              FROM p)
        SELECT CAST(date_diff('hour', TIMESTAMP '1970-01-01', h) AS BIGINT)
                 AS hour,
               max(CASE WHEN rn_a = 1 THEN cents END)::BIGINT AS open_cents,
               max(CASE WHEN rn_d = 1 THEN cents END)::BIGINT
                 AS close_cents,
               max(cents)::BIGINT AS high_cents,
               min(cents)::BIGINT AS low_cents,
               count(*)::BIGINT AS n_trades
        FROM w GROUP BY h""",
    "cluster_canonical": """
        WITH clusters AS ({CLUSTERS}),
        j AS (SELECT c.cluster_rep, c.doc_id, d.n_chars
              FROM clusters c JOIN documents d ON c.doc_id = d.doc_id),
        r AS (SELECT cluster_rep, doc_id, n_chars,
                     row_number() OVER (PARTITION BY cluster_rep
                                        ORDER BY n_chars DESC, doc_id)
                       AS rn,
                     count(*) OVER (PARTITION BY cluster_rep) AS sz
              FROM j)
        SELECT cluster_rep, doc_id AS canonical_doc, n_chars,
               sz::BIGINT AS cluster_size
        FROM r WHERE rn = 1""",
    "lang_sample_n": """
        SELECT lang, doc_id, h FROM (
          SELECT lang, doc_id, md5(CAST(doc_id AS VARCHAR)) AS h,
                 row_number() OVER (
                     PARTITION BY lang
                     ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
          FROM documents) WHERE rn <= 20""",
    "lang_sources_concat": """
        SELECT lang, string_agg(source, ',' ORDER BY source) AS sources,
               count(*)::BIGINT AS n_sources
        FROM (SELECT DISTINCT lang, source FROM documents)
        GROUP BY lang""",
    "monthly_revenue": """
        SELECT CAST(date_diff('month', TIMESTAMP '1970-01-01', o_orderdate)
                    AS BIGINT) AS month,
               count(*)::BIGINT AS n_orders,
               sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT
                 AS revenue_cents
        FROM orders GROUP BY 1""",
    "events_dow_hour": """
        SELECT ((us // 86400000000) + 3) % 7 AS dow,
               (us // 3600000000) % 24 AS hod,
               count(*)::BIGINT AS n_events
        FROM (SELECT CAST(date_diff('microsecond', TIMESTAMP '1970-01-01',
                                    ts) AS BIGINT) AS us FROM events)
        GROUP BY 1, 2""",
    "small_quantity_revenue": """
        WITH m AS (SELECT l_partkey, count(*)::BIGINT AS n_part,
                          sum(CAST(floor(l_quantity + 0.5) AS BIGINT))
                            ::BIGINT AS sum_qty
                   FROM lineitem GROUP BY 1)
        SELECT sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT
                 AS revenue_cents,
               count(*)::BIGINT AS n_rows
        FROM lineitem l JOIN m ON l.l_partkey = m.l_partkey
        WHERE 5 * CAST(floor(l_quantity + 0.5) AS BIGINT) * m.n_part
              < m.sum_qty""",
    "brand_type_share": """
        WITH f AS (SELECT p.p_type, p.p_brand,
                          sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                            ::BIGINT AS brand_cents
                   FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
                   GROUP BY 1, 2)
        SELECT p_type, p_brand, brand_cents,
               CAST(sum(brand_cents) OVER (PARTITION BY p_type) AS BIGINT)
                 AS type_cents
        FROM f""",
    "late_ship_orders": """
        SELECT o_orderpriority, count(*)::BIGINT AS n_late
        FROM orders o
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_shipdate > o.o_orderdate
                                           + INTERVAL 60 DAY)
        GROUP BY o_orderpriority""",
    "rolling_active_users": """
        WITH d AS (SELECT DISTINCT user_id,
                          CAST(date_diff('day', TIMESTAMP '1970-01-01',
                                         date_trunc('day', ts)) AS BIGINT)
                            AS day
                   FROM events),
        w AS (SELECT user_id, day + o AS day
              FROM d, unnest(generate_series(0, 6)) AS t(o))
        SELECT day, count(DISTINCT user_id)::BIGINT AS active_users_7d
        FROM w GROUP BY day""",
    "activity_streaks": """
        WITH d AS (SELECT DISTINCT user_id,
                          CAST(date_diff('day', TIMESTAMP '1970-01-01',
                                         date_trunc('day', ts)) AS BIGINT)
                            AS day
                   FROM events),
        r AS (SELECT user_id, day,
                     day - row_number() OVER (PARTITION BY user_id
                                              ORDER BY day) AS island
              FROM d),
        runs AS (SELECT user_id, island, count(*)::BIGINT AS run_len
                 FROM r GROUP BY 1, 2)
        SELECT user_id, sum(run_len)::BIGINT AS active_days,
               max(run_len)::BIGINT AS longest_streak
        FROM runs GROUP BY user_id""",
    "customer_order_gaps": """
        WITH o AS (SELECT o_custkey,
                          CAST(date_diff('day', TIMESTAMP '1970-01-01',
                                         date_trunc('day', o_orderdate))
                               AS BIGINT) AS day,
                          o_orderkey
                   FROM orders),
        l AS (SELECT o_custkey, day,
                     lag(day) OVER (PARTITION BY o_custkey
                                    ORDER BY day, o_orderkey) AS prev
              FROM o)
        SELECT o_custkey,
               COALESCE(sum(day - prev), 0)::BIGINT AS total_gap_days,
               count(*)::BIGINT AS n_orders
        FROM l GROUP BY o_custkey""",
    "table_audit": """
        SELECT * FROM (
          SELECT 'l_quantity' AS column,
                 (count(*) - count(l_quantity))::BIGINT AS n_null,
                 min(CAST(floor(l_quantity * 1 + 0.5) AS BIGINT)) AS min_q,
                 max(CAST(floor(l_quantity * 1 + 0.5) AS BIGINT)) AS max_q,
                 count(l_quantity)::BIGINT AS n_rows
          FROM lineitem
          UNION ALL
          SELECT 'l_extendedprice',
                 (count(*) - count(l_extendedprice))::BIGINT,
                 min(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)),
                 max(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)),
                 count(l_extendedprice)::BIGINT
          FROM lineitem
          UNION ALL
          SELECT 'l_discount', (count(*) - count(l_discount))::BIGINT,
                 min(CAST(floor(l_discount * 100 + 0.5) AS BIGINT)),
                 max(CAST(floor(l_discount * 100 + 0.5) AS BIGINT)),
                 count(l_discount)::BIGINT
          FROM lineitem
          UNION ALL
          SELECT 'l_tax', (count(*) - count(l_tax))::BIGINT,
                 min(CAST(floor(l_tax * 100 + 0.5) AS BIGINT)),
                 max(CAST(floor(l_tax * 100 + 0.5) AS BIGINT)),
                 count(l_tax)::BIGINT
          FROM lineitem)""",
    "dataset_split": """
        SELECT CASE WHEN hb < 80 THEN 'train'
                    WHEN hb < 90 THEN 'val' ELSE 'test' END AS split,
               lang, count(*)::BIGINT AS n_docs,
               sum(n_chars)::BIGINT AS sum_chars
        FROM (SELECT lang, n_chars,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                          1, 8))::BIGINT % 100 AS BIGINT)
                       AS hb
              FROM documents)
        GROUP BY 1, 2""",
    "fk_orphans": """
        SELECT * FROM (
          SELECT 'lineitem->orders' AS relation,
                 (SELECT count(*) FROM lineitem l WHERE NOT EXISTS
                   (SELECT 1 FROM orders o
                    WHERE o.o_orderkey = l.l_orderkey))::BIGINT
                   AS n_orphans
          UNION ALL
          SELECT 'orders->customer',
                 (SELECT count(*) FROM orders o WHERE NOT EXISTS
                   (SELECT 1 FROM customer c
                    WHERE c.c_custkey = o.o_custkey))::BIGINT)""",
    "weighted_sample_n": """
        SELECT doc_id, n_chars::BIGINT AS n_chars
        FROM (SELECT doc_id, n_chars,
                     ln((('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                         1, 8))::BIGINT + 1)
                        / 4294967296.0) / n_chars AS k
              FROM documents)
        ORDER BY k DESC, doc_id LIMIT 50""",
    "bm25_topk": r"""
        WITH tok AS (SELECT doc_id, unnest(regexp_split_to_array(
                       lower(regexp_replace(text, '^\s+|\s+$', '', 'g')),
                       '\s+')) AS w
                     FROM documents),
        dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM tok GROUP BY 1),
        tot AS (SELECT sum(dl)::BIGINT AS total, count(*)::BIGINT AS n
                FROM dl),
        df AS (SELECT w, count(DISTINCT doc_id)::BIGINT AS df FROM tok
               WHERE w IN ('table', 'merge', 'fast') GROUP BY 1),
        idf AS (SELECT w, CAST(floor(1000000 * ln(1 + (tot.n - df.df + 0.5)
                           / (df.df + 0.5)) + 0.5) AS BIGINT) AS idf_micro
                FROM df, tot),
        tf AS (SELECT doc_id, w, count(*)::BIGINT AS tf FROM tok
               WHERE w IN ('table', 'merge', 'fast') GROUP BY 1, 2),
        sc AS (SELECT tf.doc_id,
                      sum((idf.idf_micro * 22 * tf.tf * tot.total)
                          // (10 * tot.total * tf.tf + 3 * tot.total
                              + 9 * dl.dl * tot.n))::BIGINT AS score_micro
               FROM tf
               JOIN idf USING (w) JOIN dl USING (doc_id), tot
               GROUP BY 1)
        SELECT doc_id, score_micro FROM sc
        ORDER BY score_micro DESC, doc_id LIMIT 50""",
    "price_band_pairs": """
        WITH p AS (SELECT p_partkey,
                          CAST(round(p_retailprice * 100) AS BIGINT)
                            AS cents
                   FROM part)
        SELECT least(a.p_partkey, b.p_partkey) AS part_a,
               greatest(a.p_partkey, b.p_partkey) AS part_b,
               abs(a.cents - b.cents)::BIGINT AS diff_cents
        FROM p a JOIN p b
          ON (a.cents < b.cents
              OR (a.cents = b.cents AND a.p_partkey < b.p_partkey))
         AND b.cents - a.cents < 100""",
    "activity_feed": """
        SELECT CAST(date_diff('microsecond', TIMESTAMP '1970-01-01', ts)
                    AS BIGINT) AS ts_us,
               'event' AS kind, event_id AS entity_id,
               CAST(round(value * 100) AS BIGINT) AS cents
        FROM events WHERE event_type = 'purchase'
        UNION ALL
        SELECT CAST(date_diff('microsecond', TIMESTAMP '1970-01-01',
                              o_orderdate) AS BIGINT),
               'order', o_orderkey,
               CAST(round(o_totalprice * 100) AS BIGINT)
        FROM orders""",
    "lang_dict_encode": """
        SELECT d.doc_id,
               CAST(dense_rank() OVER (ORDER BY d.lang) AS BIGINT)
                 AS lang_id
        FROM documents d""",
    "doc_sample_n": """
        SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS h FROM documents
        ORDER BY h, doc_id LIMIT 100""",
    "length_variance": """
        SELECT lang, count(*)::BIGINT AS n_docs,
               sum(n_chars)::BIGINT AS sum_len,
               sum(n_chars * n_chars)::BIGINT AS sumsq_len,
               (count(*) * sum(n_chars * n_chars)
                - sum(n_chars) * sum(n_chars))::BIGINT AS var_num
        FROM documents GROUP BY lang""",
    "quality_weighted_sample": r"""
        SELECT doc_id, length(text)::BIGINT AS n_chars,
               length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::BIGINT
                 AS n_alpha
        FROM documents
        WHERE ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT
                * length(text)
              < length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                * 4294967296""",
    "source_cap": """
        SELECT doc_id, source FROM (
          SELECT doc_id, source,
                 row_number() OVER (PARTITION BY source
                     ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
          FROM documents) WHERE rn <= 15""",
    "event_pivot": """
        SELECT user_id,
          sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT AS n_click,
          sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::BIGINT AS n_error,
          sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT AS n_purchase,
          sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)::BIGINT AS n_signup,
          sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT AS n_view,
          sum(CASE WHEN event_type = 'purchase'
                   THEN CAST(round(value * 100) AS BIGINT) ELSE 0 END
             )::BIGINT AS purchase_cents
        FROM events GROUP BY user_id""",
    "doc_length_rank": """
        SELECT n_chars, doc_id,
               row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rnk,
               ntile(4) OVER (ORDER BY n_chars DESC, doc_id) AS quartile
        FROM documents""",
    "doc_rank_dist": """
        SELECT (n_chars * 1000000 + doc_id) AS len_key, doc_id,
               row_number() OVER (
                   ORDER BY n_chars * 1000000 + doc_id, doc_id) AS rnk
        FROM documents""",
    "repetition_stats": r"""
        WITH base AS (
          SELECT doc_id, regexp_replace(text,'^\s+|\s+$','','g') AS tt
          FROM documents
        ), toks AS (
          SELECT doc_id,
                 CASE WHEN tt = '' THEN CAST([] AS VARCHAR[])
                      ELSE regexp_split_to_array(tt, '\s+') END AS t
          FROM base
        ), tok_counts AS (
          SELECT doc_id, w, count(*) AS c
          FROM (SELECT doc_id, unnest(t) AS w FROM toks) GROUP BY doc_id, w
        ), per_doc AS (
          SELECT doc_id, sum(c) AS n_tokens, count(*) AS n_distinct,
                 max(c) AS top_count
          FROM tok_counts GROUP BY doc_id
        ), g2_stats AS (
          SELECT doc_id, count(*) AS n2, count(DISTINCT w) AS d2
          FROM (SELECT doc_id, unnest(list_filter(
                  list_transform(t, (x,i) -> x || ' ' || t[i+1]),
                  x -> x IS NOT NULL)) AS w FROM toks)
          GROUP BY doc_id
        ), g3_stats AS (
          SELECT doc_id, count(*) AS n3, count(DISTINCT w) AS d3
          FROM (SELECT doc_id, unnest(list_filter(
                  list_transform(t, (x,i) -> x || ' ' || t[i+1] || ' ' || t[i+2]),
                  x -> x IS NOT NULL)) AS w FROM toks)
          GROUP BY doc_id
        )
        SELECT b.doc_id,
          coalesce(p.n_tokens, 0)::BIGINT AS n_tokens,
          coalesce(p.n_distinct, 0)::BIGINT AS n_distinct,
          coalesce(p.top_count, 0)::BIGINT AS top_count,
          coalesce(g2.n2, 0)::BIGINT AS n_2grams,
          (coalesce(g2.n2, 0) - coalesce(g2.d2, 0))::BIGINT AS n_dup_2grams,
          coalesce(g3.n3, 0)::BIGINT AS n_3grams,
          (coalesce(g3.n3, 0) - coalesce(g3.d3, 0))::BIGINT AS n_dup_3grams,
          (coalesce(p.n_tokens, 0) >= 20 AND (
             10 * coalesce(p.top_count, 0) > 3 * coalesce(p.n_tokens, 0)
             OR 10 * (coalesce(g2.n2, 0) - coalesce(g2.d2, 0)) > 2 * coalesce(g2.n2, 0)
             OR 100 * (coalesce(g3.n3, 0) - coalesce(g3.d3, 0)) > 18 * coalesce(g3.n3, 0)
          )) AS flag_repetitive
        FROM base b
        LEFT JOIN per_doc p USING (doc_id)
        LEFT JOIN g2_stats g2 USING (doc_id)
        LEFT JOIN g3_stats g3 USING (doc_id)""",
    "pii_redact": r"""
        WITH s1 AS (
          SELECT doc_id,
            len(regexp_extract_all(text,
              '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS c1,
            regexp_replace(text,
              '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
              '<EMAIL>', 'g') AS t
          FROM documents
        ), s2 AS (
          SELECT doc_id, c1,
            len(regexp_extract_all(t, '\b\d{3}-\d{2}-\d{4}\b')) AS c2,
            regexp_replace(t, '\b\d{3}-\d{2}-\d{4}\b', '<SSN>', 'g') AS t
          FROM s1
        ), s3 AS (
          SELECT doc_id, c1, c2,
            len(regexp_extract_all(t,
              '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS c3,
            regexp_replace(t, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
              '<IP>', 'g') AS t
          FROM s2
        ), s4 AS (
          SELECT doc_id, c1, c2, c3,
            len(regexp_extract_all(t,
              '\+?\d{1,2}[- ]?\(?\d{3}\)?[- ]?\d{3}[- ]?\d{4}')) AS c4,
            regexp_replace(t, '\+?\d{1,2}[- ]?\(?\d{3}\)?[- ]?\d{3}[- ]?\d{4}',
              '<PHONE>', 'g') AS t
          FROM s3
        )
        SELECT doc_id, t AS red_text,
               (c1 + c2 + c3 + c4)::BIGINT AS n_redactions
        FROM s4""",
    "redact_numbers": r"""
        SELECT event_id,
               regexp_replace(props, '\d+', '<NUM>', 'g') AS red_props,
               len(regexp_extract_all(props, '\d+'))::BIGINT AS n_redactions
        FROM events""",
    "props_extract": r"""
        SELECT event_id,
               CAST(NULLIF(regexp_extract(props, '"k": (\d+)', 1), '')
                    AS BIGINT) AS k
        FROM events""",
    "chunk_dedup": r"""
        WITH toks AS (
          SELECT doc_id, regexp_split_to_array(
            regexp_replace(text,'^\s+|\s+$','','g'), '\s+') AS t
          FROM documents
        ), chunks AS (
          SELECT doc_id, CAST(i AS BIGINT) AS chunk_idx,
                 array_to_string(t[i*10+1 : i*10+10], ' ') AS chunk
          FROM toks, UNNEST(range(CAST(ceil(len(t)/10.0) AS BIGINT))) AS u(i)
        ), ranked AS (
          SELECT doc_id, chunk_idx, chunk,
                 row_number() OVER (PARTITION BY chunk
                                    ORDER BY doc_id, chunk_idx) AS rn
          FROM chunks
        )
        SELECT doc_id,
               coalesce(string_agg(CASE WHEN rn=1 THEN chunk END, ' '
                                   ORDER BY chunk_idx), '') AS clean_text,
               count(*)::BIGINT AS n_chunks,
               sum(CASE WHEN rn=1 THEN 1 ELSE 0 END)::BIGINT AS n_kept
        FROM ranked GROUP BY doc_id""",
    "jaccard_pairs": r"""
        WITH tok AS (
          SELECT doc_id, unnest(list_distinct(regexp_split_to_array(
            lower(regexp_replace(text, '^\s+|\s+$', '', 'g')), '\s+'))) AS w
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), sizes AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS c
          FROM tok a JOIN tok b ON a.w = b.w AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
        SELECT doc_a, doc_b, c::BIGINT AS n_inter, (sa.n + sb.n - c)::BIGINT AS n_union
        FROM inter
        JOIN sizes sa ON doc_a = sa.doc_id JOIN sizes sb ON doc_b = sb.doc_id
        WHERE 5 * c >= 3 * (sa.n + sb.n - c)""",
    "corpus_clean": rf"""
        WITH t AS (
          SELECT doc_id, text, regexp_replace(text, '^\s+|\s+$', '', 'g') AS tt FROM documents
        ), tok AS (
          SELECT doc_id, text,
            CASE WHEN tt = '' THEN CAST([] AS VARCHAR[])
                 ELSE regexp_split_to_array(tt, '\s+') END AS toks
          FROM t
        ), q AS (
          SELECT doc_id,
            length(text)::BIGINT AS n_chars,
            len(toks)::BIGINT AS n_tokens,
            length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::BIGINT AS n_alpha,
            len(list_filter(toks, x -> list_contains({_STOPLIST_SQL}, lower(x))))::BIGINT AS n_stop
          FROM tok
        ), keep AS (SELECT min(doc_id) AS keep_id FROM documents GROUP BY text)
        SELECT q.* FROM q JOIN keep ON q.doc_id = keep.keep_id
        WHERE n_chars >= 100 AND n_tokens >= 20 AND 5 * n_alpha >= 3 * n_chars""",
    "ngram_jaccard_pairs": r"""
        WITH tok AS (
          SELECT doc_id, regexp_split_to_array(
            lower(regexp_replace(text, '^\s+|\s+$', '', 'g')), '\s+') AS toks
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), sh AS (
          SELECT doc_id, unnest(list_distinct(list_transform(
            range(1, len(toks) - 1),
            i -> toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2]))) AS w
          FROM tok WHERE len(toks) >= 3
        ), sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS c
          FROM sh a JOIN sh b ON a.w = b.w AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
        SELECT doc_a, doc_b, c::BIGINT AS n_inter, (sa.n + sb.n - c)::BIGINT AS n_union
        FROM inter
        JOIN sizes sa ON doc_a = sa.doc_id JOIN sizes sb ON doc_b = sb.doc_id
        WHERE 2 * c >= 1 * (sa.n + sb.n - c)""",
    "incremental_dedup": """
        SELECT i.doc_id, md5(i.text) AS text_hash
        FROM documents i
        WHERE substr(md5(CAST(i.doc_id AS VARCHAR)), 1, 1) IN ('0','1','2','3')
          AND NOT EXISTS (
            SELECT 1 FROM documents e
            WHERE substr(md5(CAST(e.doc_id AS VARCHAR)), 1, 1)
                    NOT IN ('0','1','2','3')
              AND md5(e.text) = md5(i.text))""",
    "bloom_prefilter": """
        SELECT o.o_orderkey, o.o_custkey FROM orders o
        WHERE EXISTS (SELECT 1 FROM customer c
                      WHERE c.c_custkey = o.o_custkey
                        AND round(c.c_acctbal * 100) > 500000)""",
    "line_flag_share": """
        WITH f AS (SELECT l_orderkey, l_returnflag,
                     sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT
                       AS flag_cents
                   FROM lineitem GROUP BY 1, 2)
        SELECT l.l_orderkey, l.l_returnflag, l.l_linenumber,
               CAST(round(l.l_extendedprice * 100) AS BIGINT) AS cents,
               f.flag_cents
        FROM lineitem l
        JOIN f ON l.l_orderkey = f.l_orderkey
              AND l.l_returnflag = f.l_returnflag""",
    "customer_nation": """
        SELECT c_custkey, c_nationkey, n_name
        FROM customer JOIN nation ON c_nationkey = n_nationkey""",
    "chunk_text": r"""
        WITH tok AS (
          SELECT doc_id, regexp_split_to_array(
            regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+') AS toks
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), c AS (
          SELECT doc_id, toks, len(toks)::BIGINT AS n FROM tok
        ), k AS (
          SELECT doc_id, toks, n,
                 unnest(generate_series(0, (n - 1) // 48)) AS chunk_id
          FROM c
        )
        SELECT doc_id, chunk_id::BIGINT AS chunk_id,
               array_to_string(list_slice(toks, chunk_id * 48 + 1,
                   least(n, chunk_id * 48 + 64)), ' ') AS chunk_text,
               (least(n, chunk_id * 48 + 64) - chunk_id * 48)::BIGINT
                 AS n_tokens
        FROM k""",
    "source_enrich": """
        SELECT d.doc_id, d.source, s.n_docs
        FROM documents d JOIN (
          SELECT source, count(*)::BIGINT AS n_docs
          FROM documents GROUP BY source) s ON d.source = s.source""",
    "pack_sequences": r"""
        WITH tok AS (
          SELECT doc_id,
            CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = '' THEN 0
                 ELSE len(regexp_split_to_array(
                          regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'))
            END::BIGINT AS n
          FROM documents
        ), c AS (
          SELECT doc_id, n,
                 (sum(n) OVER (ORDER BY doc_id) - n)::BIGINT AS before
          FROM tok
        ), b AS (
          SELECT doc_id, n, before,
                 unnest(generate_series(before // 512,
                                        (before + n - 1) // 512)) AS bin_id
          FROM c WHERE n > 0
        )
        SELECT doc_id, bin_id::BIGINT AS bin_id,
               greatest(0, bin_id * 512 - before)::BIGINT AS tok_start,
               least(n, (bin_id + 1) * 512 - before)::BIGINT AS tok_end
        FROM b""",
    "pack_shuffled": r"""
        WITH tok AS (
          SELECT doc_id,
            ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT
              AS sk,
            CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = '' THEN 0
                 ELSE len(regexp_split_to_array(
                          regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'))
            END::BIGINT AS n
          FROM documents
        ), c AS (
          SELECT doc_id, n, (sum(n) OVER (ORDER BY sk) - n)::BIGINT AS before
          FROM tok
        ), b AS (
          SELECT doc_id, n, before,
                 unnest(generate_series(before // 512,
                                        (before + n - 1) // 512)) AS bin_id
          FROM c WHERE n > 0
        )
        SELECT doc_id, bin_id::BIGINT AS bin_id,
               greatest(0, bin_id * 512 - before)::BIGINT AS tok_start,
               least(n, (bin_id + 1) * 512 - before)::BIGINT AS tok_end
        FROM b""",
    "source_lang_mode": """
        SELECT source, top_lang, n_docs FROM (
          SELECT source, lang AS top_lang, count(*)::BIGINT AS n_docs,
                 row_number() OVER (PARTITION BY source
                     ORDER BY count(*) DESC, lang) AS rn
          FROM documents GROUP BY source, lang) WHERE rn = 1""",
    "bigram_rarity": r"""
        WITH tok AS (
          SELECT doc_id, regexp_split_to_array(
            lower(regexp_replace(text, '^\s+|\s+$', '', 'g')), '\s+') AS toks
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), bg AS (
          SELECT doc_id, unnest(list_transform(range(1, len(toks)),
                 i -> toks[i] || ' ' || toks[i + 1])) AS bg
          FROM tok WHERE len(toks) >= 2
        ), freq AS (
          SELECT bg, count(*)::BIGINT AS f FROM bg GROUP BY bg
        )
        SELECT b.doc_id, count(*)::BIGINT AS n_bigrams,
               sum(f)::BIGINT AS sum_freq,
               sum(CASE WHEN f <= 2 THEN 1 ELSE 0 END)::BIGINT AS n_rare
        FROM bg b JOIN freq USING (bg) GROUP BY b.doc_id""",
    "decontaminate": r"""
        WITH tok AS (
          SELECT doc_id, regexp_split_to_array(
            lower(regexp_replace(text, '^\s+|\s+$', '', 'g')), '\s+') AS toks
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), sh AS (
          SELECT doc_id, unnest(list_distinct(list_transform(
            range(1, len(toks) - 3),
            i -> toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2]
                 || ' ' || toks[i + 3] || ' ' || toks[i + 4]))) AS w
          FROM tok WHERE len(toks) >= 5
        ), ev AS (
          SELECT DISTINCT w FROM sh
          WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) = '0'
        ), hits AS (
          SELECT s.doc_id, count(*) AS n
          FROM sh s JOIN ev ON s.w = ev.w
          WHERE substr(md5(CAST(s.doc_id AS VARCHAR)), 1, 1) <> '0'
          GROUP BY 1)
        SELECT d.doc_id, CAST(coalesce(h.n, 0) AS BIGINT) AS n_shared
        FROM documents d LEFT JOIN hits h USING (doc_id)
        WHERE substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 1) <> '0'""",
    "embedding_neardup": """
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                     CAST(b.embedding AS DOUBLE[])) >= 0.4""",
    "knn_bruteforce": """
        WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
                   FROM embeddings WHERE vec_id < 4),
        sims AS (
          SELECT q.qid, e.vec_id,
            round(list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])), 6) AS sim
          FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid),
        ranked AS (
          SELECT qid, vec_id, sim,
            row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
          FROM sims)
        SELECT qid, vec_id, rank::BIGINT AS rank, sim FROM ranked WHERE rank <= 10""",
    "pricing_summary": """
        SELECT l_returnflag, l_linestatus,
          CAST(round(sum(l_quantity)) AS BIGINT) AS sum_qty,
          CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
          CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS sum_disc_micro,
          count(*)::BIGINT AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus""",
    "inverted_index": r"""
        WITH tok AS (
          SELECT doc_id, unnest(regexp_split_to_array(
            lower(regexp_replace(text, '^\s+|\s+$', '', 'g')), '\s+')) AS w
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), per AS (
          SELECT w, doc_id, count(*) AS c FROM tok GROUP BY 1, 2)
        SELECT w AS token, count(*)::BIGINT AS df,
          CAST(sum(c) AS BIGINT) AS tf,
          md5(string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id))
            AS postings_md5
        FROM per GROUP BY w""",
    "doc_top_terms": r"""
        WITH tok AS (
          SELECT doc_id, unnest(regexp_split_to_array(
            lower(regexp_replace(text, '^\s+|\s+$', '', 'g')), '\s+')) AS w
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), per AS (
          SELECT w, doc_id, count(*) AS c FROM tok GROUP BY 1, 2
        ), wdf AS (
          SELECT w, count(*) AS df FROM per GROUP BY w
        ), ranked AS (
          SELECT per.doc_id, per.w, per.c, wdf.df,
            row_number() OVER (PARTITION BY per.doc_id
              ORDER BY CAST(per.c AS DOUBLE) / wdf.df DESC, per.w) AS rank
          FROM per JOIN wdf ON per.w = wdf.w)
        SELECT doc_id, rank::BIGINT AS rank, w AS token,
          c::BIGINT AS tf, df::BIGINT AS df
        FROM ranked WHERE rank <= 3""",
    "top_terms": r"""
        WITH tok AS (
          SELECT doc_id, unnest(regexp_split_to_array(
            lower(regexp_replace(text, '^\s+|\s+$', '', 'g')), '\s+')) AS w
          FROM documents
          WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
        ), per AS (
          SELECT w, doc_id, count(*) AS c FROM tok GROUP BY 1, 2)
        SELECT w AS token, CAST(sum(c) AS BIGINT) AS tf,
          count(*)::BIGINT AS df
        FROM per GROUP BY w
        ORDER BY tf DESC, token LIMIT 25""",
    "customer_running_revenue": """
        SELECT o_custkey::BIGINT AS o_custkey,
          o_orderkey::BIGINT AS o_orderkey, o_orderdate, cents,
          CAST(sum(cents) OVER w AS BIGINT) AS running_cents,
          COALESCE(lag(o_orderkey) OVER w, -1)::BIGINT AS prev_orderkey,
          COALESCE(date_diff('microsecond', lag(o_orderdate) OVER w,
                             o_orderdate), -1)::BIGINT AS gap_us
        FROM (SELECT o_custkey, o_orderkey, o_orderdate,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders)
        WINDOW w AS (PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey)""",
    "order_price_bands": (
        "WITH bands(band_id, lo, hi) AS (VALUES "
        + ", ".join(f"({b}, {lo}, {hi})" for b, lo, hi in _PRICE_BANDS)
        + """),
        pts AS (SELECT o_orderkey,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                FROM orders)
        SELECT o_orderkey::BIGINT AS o_orderkey, cents,
               band_id::BIGINT AS band_id
        FROM pts JOIN bands ON cents >= lo AND cents < hi"""),
    "user_rolling_value": """
        SELECT event_id, user_id, ts,
               CAST(round(value * 100) AS BIGINT) AS cents,
               sum(CAST(round(value * 100) AS BIGINT)) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)::BIGINT
                 AS rolling_cents
        FROM events""",
    "next_purchase": """
        WITH l AS (SELECT event_id, user_id, ts FROM events
                   WHERE event_type = 'click'),
        r0 AS (SELECT event_id, user_id, ts FROM events
               WHERE event_type = 'purchase'),
        r AS (SELECT * FROM (
                SELECT r0.*, row_number() OVER (
                  PARTITION BY user_id, ts ORDER BY event_id DESC) AS rn
                FROM r0) WHERE rn = 1)
        SELECT l.event_id::BIGINT AS event_id, l.user_id::BIGINT AS user_id,
          l.ts,
          COALESCE(r.event_id, -1)::BIGINT AS purchase_event_id,
          COALESCE(date_diff('microsecond', l.ts, r.ts), -1)::BIGINT AS wait_us
        FROM l ASOF LEFT JOIN r ON l.user_id = r.user_id AND r.ts >= l.ts""",
    "click_attribution": """
        WITH l AS (SELECT event_id, user_id, ts FROM events
                   WHERE event_type = 'click'),
        r0 AS (SELECT event_id, user_id, ts, value FROM events
               WHERE event_type = 'purchase'),
        r AS (SELECT * FROM (
                SELECT r0.*, row_number() OVER (
                  PARTITION BY user_id, ts ORDER BY event_id DESC) AS rn
                FROM r0) WHERE rn = 1)
        SELECT l.event_id::BIGINT AS event_id, l.user_id::BIGINT AS user_id,
          l.ts,
          COALESCE(r.event_id, -1)::BIGINT AS purchase_event_id,
          COALESCE(CAST(round(r.value * 100) AS BIGINT), -1) AS purchase_cents,
          COALESCE(date_diff('microsecond', r.ts, l.ts), -1)::BIGINT AS gap_us
        FROM l ASOF LEFT JOIN r ON l.user_id = r.user_id AND r.ts <= l.ts""",
    "nfc_normalize": """
        SELECT doc_id, nfc_normalize(text) AS nfc_text FROM documents""",
    "length_mad": """
        WITH m AS (SELECT lang, quantile_disc(n_chars, 0.5) AS med
                   FROM documents GROUP BY lang)
        SELECT d.lang,
               quantile_disc(abs(d.n_chars - m.med), 0.5)::BIGINT AS mad,
               count(*)::BIGINT AS n_vals
        FROM documents d JOIN m ON d.lang = m.lang GROUP BY d.lang""",
    "lang_length_quantiles": """
        SELECT lang,
               quantile_cont(n_chars, 0.25) AS q25,
               quantile_cont(n_chars, 0.5)  AS q50,
               quantile_cont(n_chars, 0.75) AS q75,
               count(*)::BIGINT AS n_vals
        FROM documents GROUP BY lang""",
    "quantity_quantiles": """
        SELECT l_returnflag, l_linestatus,
          CAST(quantile_disc(qty, 0.25) AS BIGINT) AS q25,
          CAST(quantile_disc(qty, 0.5) AS BIGINT) AS q50,
          CAST(quantile_disc(qty, 0.75) AS BIGINT) AS q75,
          CAST(quantile_disc(qty, 0.95) AS BIGINT) AS q95,
          count(*)::BIGINT AS n_vals
        FROM (SELECT l_returnflag, l_linestatus,
                     CAST(round(l_quantity) AS BIGINT) AS qty FROM lineitem)
        GROUP BY l_returnflag, l_linestatus""",
    "customer_price_quantiles": """
        SELECT o_custkey::BIGINT AS o_custkey,
          CAST(quantile_disc(cents, 0.5) AS BIGINT) AS median_cents,
          CAST(quantile_disc(cents, 0.9) AS BIGINT) AS p90_cents,
          count(*)::BIGINT AS n_orders
        FROM (SELECT o_custkey,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders)
        GROUP BY o_custkey""",
    "revenue_rollup": """
        SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
               COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
          CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
            AS revenue_cents,
          count(*)::BIGINT AS n_orders
        FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)""",
    "top_customers": """
        SELECT c.c_custkey, c.c_name,
          CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents,
          count(*)::BIGINT AS n_orders
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_custkey, c.c_name
        ORDER BY revenue_cents DESC, c_custkey LIMIT 10""",
    "lang_balanced_sample": """
        WITH n AS (SELECT lang, count(*) AS n_lang FROM documents GROUP BY lang)
        SELECT d.doc_id, d.lang FROM documents d JOIN n ON d.lang = n.lang
        WHERE n.n_lang *
              ('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8))::BIGINT
              < 30 * 4294967296""",
    "doc_sample": """
        SELECT doc_id, lang FROM documents
        WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0', '1')""",
    "lang_stats": """
        SELECT lang, CAST(sum(n_chars) AS BIGINT) AS sum_chars,
               count(*)::BIGINT AS n_docs
        FROM documents GROUP BY lang""",
    "customers_no_big_orders": """
        SELECT c_custkey FROM customer c
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_totalprice > 300000.0)""",
    "nation_revenue": """
        SELECT n.n_name,
          CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
            AS revenue_cents,
          count(*)::BIGINT AS n_orders
        FROM orders o
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name""",
    "low_order_customers": """
        SELECT c.c_custkey, COALESCE(o.cnt, 0)::BIGINT AS n_orders
        FROM customer c
        LEFT JOIN (SELECT o_custkey, count(*) AS cnt FROM orders GROUP BY o_custkey) o
          ON o.o_custkey = c.c_custkey
        WHERE COALESCE(o.cnt, 0) <= 5""",
    "order_revenue_join": """
        SELECT o.o_orderkey, o.o_custkey,
          CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT)
            AS lineitem_cents,
          count(*)::BIGINT AS n_lines
        FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
        GROUP BY o.o_orderkey, o.o_custkey""",
    "events_rollup": """
        SELECT event_type, count(*)::BIGINT AS n_events,
          CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents,
          count(DISTINCT user_id)::BIGINT AS n_users
        FROM events GROUP BY event_type""",
    "events_tumbling": """
        SELECT event_type,
          CAST(date_diff('microsecond', TIMESTAMP '1970-01-01',
                         date_trunc('hour', ts)) AS BIGINT) AS window_us,
          CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents,
          count(*)::BIGINT AS n_events
        FROM events GROUP BY event_type, date_trunc('hour', ts)""",
    "dedup_clusters": """
        WITH pairs AS ({NGRAM_PAIRS}),
        sym AS (SELECT doc_a AS a, doc_b AS b FROM pairs
                UNION SELECT doc_b, doc_a FROM pairs),
        reach AS (
          WITH RECURSIVE r(n, m) AS (
            SELECT a, b FROM sym
            UNION
            SELECT r.n, s.b FROM r JOIN sym s ON r.m = s.a WHERE s.b <> r.n
          ) SELECT * FROM r)
        SELECT n AS doc_id, LEAST(n, MIN(m))::BIGINT AS cluster_rep
        FROM reach GROUP BY n""",
    "events_hopping": """
        WITH u AS (
          SELECT event_type,
            CAST(date_diff('microsecond', TIMESTAMP '1970-01-01', ts) AS BIGINT) AS us,
            CAST(round(value * 100) AS BIGINT) AS cents
          FROM events),
        w AS (
          SELECT event_type, (us // 1800000000) * 1800000000 AS window_us, cents FROM u
          UNION ALL
          SELECT event_type, (us // 1800000000) * 1800000000 - 1800000000, cents FROM u)
        SELECT event_type, window_us,
          CAST(sum(cents) AS BIGINT) AS sum_value_cents,
          count(*)::BIGINT AS n_events
        FROM w GROUP BY event_type, window_us""",
    "top_orders_per_customer": """
        WITH r AS (
          SELECT o_custkey, o_orderkey,
            CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents,
            row_number() OVER (PARTITION BY o_custkey
                               ORDER BY round(o_totalprice * 100) DESC,
                                        o_orderkey) AS rank
          FROM orders)
        SELECT o_custkey, o_orderkey, rank::BIGINT AS rank, total_cents
        FROM r WHERE rank <= 3""",
    "sessionize": """
        WITH o AS (
          SELECT user_id, event_id, ts,
            CASE WHEN lag(ts) OVER w IS NULL
                      OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                 THEN 1 ELSE 0 END AS new_s
          FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), s AS (
          SELECT user_id, ts,
            sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_id
          FROM o)
        SELECT user_id, session_id::BIGINT AS session_id,
          count(*)::BIGINT AS n_events,
          CAST(date_diff('microsecond', min(ts), max(ts)) AS BIGINT) AS duration_us
        FROM s GROUP BY user_id, session_id""",
    "token_count_bpe": r"""
        SELECT doc_id,
          len(regexp_extract_all(text, ' ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+'))::BIGINT
            AS n_bpe_tokens
        FROM documents""",
    "raw_text_join": """
        SELECT l_orderkey,
          string_agg(l_returnflag || CAST(l_partkey % 97 AS VARCHAR), ' '
                     ORDER BY l_linenumber,
                              l_returnflag || CAST(l_partkey % 97 AS VARCHAR))
            AS raw_text
        FROM lineitem GROUP BY l_orderkey""",
    "vendor_topk": """
        WITH w AS (
          SELECT l_orderkey, l_linenumber,
            l_returnflag || CAST(l_partkey % 97 AS VARCHAR) AS word,
            (l_suppkey * 13) % 600 AS y0,
            l_partkey % 400 AS x0,
            500 + (l_partkey % 500) AS conf_milli,
            row_number() OVER (PARTITION BY l_orderkey
                               ORDER BY (l_suppkey * 13) % 600, l_linenumber,
                                        l_returnflag || CAST(l_partkey % 97 AS VARCHAR),
                                        500 + (l_partkey % 500),
                                        l_partkey % 400) AS rn
          FROM lineitem)
        SELECT l_orderkey,
          string_agg(word, ' '
                     ORDER BY y0, l_linenumber, word, conf_milli, x0) AS vendor,
          CAST(sum(conf_milli) AS BIGINT) AS sum_conf_milli,
          count(*)::BIGINT AS n_words,
          CAST(min(x0) AS BIGINT) AS x0,
          CAST(min(y0) AS BIGINT) AS y0
        FROM w WHERE rn <= 3 GROUP BY l_orderkey""",
    "normalize_boxes": """
        SELECT l_orderkey, l_linenumber::BIGINT AS l_linenumber,
          LEAST(1000, GREATEST(0, CAST(floor(((l_partkey % 300) * 1000.0) / 400.0) AS BIGINT))) AS nx0,
          LEAST(1000, GREATEST(0, CAST(floor(((l_suppkey % 500) * 1000.0) / 600.0) AS BIGINT))) AS ny0,
          LEAST(1000, GREATEST(0, CAST(floor(((l_partkey % 300 + 1 + (l_linenumber * 37) % 100) * 1000.0) / 400.0) AS BIGINT))) AS nx1,
          LEAST(1000, GREATEST(0, CAST(floor(((l_suppkey % 500 + 20) * 1000.0) / 600.0) AS BIGINT))) AS ny1
        FROM lineitem""",
    "extract_amount": r"""
        WITH c AS (
          SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS cents
          FROM orders),
        s AS (
          SELECT o_orderkey,
            'Total: $' || format('{:,}', cents // 100) || '.' ||
            format('{:02d}', cents % 100) AS txt
          FROM c)
        SELECT o_orderkey,
          replace(NULLIF(regexp_extract(txt,
            '\$?\s*(\d{1,3}(?:,\d{3})*(?:\.\d{2})?)', 1), ''), ',', '') AS amount_str
        FROM s""",
    "extract_date": """
        WITH d AS (
          SELECT o_orderkey,
            CASE WHEN o_orderkey % 2 = 0 THEN strftime(o_orderdate, '%m/%d/%Y')
                 ELSE strftime(o_orderdate, '%d/%m/%Y') END AS s
          FROM orders)
        SELECT o_orderkey,
          strftime(COALESCE(try_strptime(s, '%m/%d/%Y'), try_strptime(s, '%d/%m/%Y')),
                   '%Y-%m-%d') AS date_iso
        FROM d""",
    "detect_currency": """
        WITH s AS (
          SELECT c_custkey, c_name ||
            CASE WHEN c_custkey % 4 = 0 THEN ' paid $10'
                 WHEN c_custkey % 4 = 1 THEN ' paid €10'
                 WHEN c_custkey % 4 = 2 THEN ' paid £10'
                 ELSE ' paid 10' END AS txt
          FROM customer)
        SELECT c_custkey,
          CASE WHEN contains(txt, '$') OR contains(txt, 'USD') THEN 'USD'
               WHEN contains(txt, '€') OR contains(txt, 'EUR') THEN 'EUR'
               WHEN contains(txt, '£') OR contains(txt, 'GBP') THEN 'GBP'
          END AS currency
        FROM s""",
    "verify_totals": """
        SELECT l_orderkey, l_linenumber::BIGINT AS l_linenumber,
          abs(CAST(round(l_extendedprice * 100) AS BIGINT)
              + CAST(round(l_extendedprice * l_tax * 100) AS BIGINT)
              - CAST(round(l_extendedprice * (1 + l_tax) * 100) AS BIGINT)) <= 2 AS verified
        FROM lineitem""",
}


# the clustering oracle reuses the pair-generation SQL verbatim (recursive
# transitive closure over the same exact pair set)
ORACLE_SQL["dedup_clusters"] = ORACLE_SQL["dedup_clusters"].replace(
    "{NGRAM_PAIRS}", ORACLE_SQL["ngram_jaccard_pairs"])
ORACLE_SQL["cluster_canonical"] = ORACLE_SQL["cluster_canonical"].replace(
    "{CLUSTERS}", ORACLE_SQL["dedup_clusters"])

# WARC ingestion twin: every output column is a pure function of the
# documents row the shard writer serialized, so DuckDB re-derives them
# without touching the shards — a hash match proves the byte round-trip.
ORACLE_SQL["warc_ingest"] = """
    SELECT doc_id,
      'https://example.org/' || source || '/' || doc_id AS target_uri,
      strlen(text)::BIGINT AS n_bytes,
      md5(text) AS payload_md5
    FROM documents"""

# negative-sampling twin: same md5 candidate order, same exclusion set
# (the knn_int8 SQL nests as a CTE — DuckDB allows WITH inside a CTE body,
# the same pattern dedup_clusters uses)
ORACLE_SQL["negative_samples"] = """
    WITH nn AS ({KNN}),
    ex AS (SELECT qid, vec_id FROM nn
           UNION SELECT DISTINCT qid, qid FROM nn),
    c AS (
      SELECT q.qid, e.vec_id,
             md5(q.qid || '|' || e.vec_id) AS k
      FROM (SELECT DISTINCT qid FROM nn) q, embeddings e
      WHERE NOT EXISTS (SELECT 1 FROM ex
                        WHERE ex.qid = q.qid AND ex.vec_id = e.vec_id)),
    r AS (SELECT qid, vec_id,
            row_number() OVER (PARTITION BY qid ORDER BY k) AS neg_rank
          FROM c)
    SELECT qid, neg_rank::BIGINT AS neg_rank, vec_id AS neg_id
    FROM r WHERE neg_rank <= 5"""

# quantile-binning twin: identical strictly-below tie rule via list_filter
ORACLE_SQL["price_bins"] = """
    WITH c AS (
      SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
      FROM lineitem),
    ed AS (
      SELECT [CAST(quantile_disc(cents, 0.1) AS BIGINT),
              CAST(quantile_disc(cents, 0.2) AS BIGINT),
              CAST(quantile_disc(cents, 0.3) AS BIGINT),
              CAST(quantile_disc(cents, 0.4) AS BIGINT),
              CAST(quantile_disc(cents, 0.5) AS BIGINT),
              CAST(quantile_disc(cents, 0.6) AS BIGINT),
              CAST(quantile_disc(cents, 0.7) AS BIGINT),
              CAST(quantile_disc(cents, 0.8) AS BIGINT),
              CAST(quantile_disc(cents, 0.9) AS BIGINT)] AS edges
      FROM c),
    b AS (
      SELECT cents,
        len(list_filter(edges, e -> e < cents))::BIGINT AS bin
      FROM c, ed)
    SELECT bin, count(*)::BIGINT AS n, sum(cents)::BIGINT AS sum_cents,
      min(cents)::BIGINT AS min_cents, max(cents)::BIGINT AS max_cents
    FROM b GROUP BY bin"""

# rendezvous-hash twin: argmax over md5 hex strings (128-bit — ties are
# impossible), 1-based list_position converted to the 0-based shard id
ORACLE_SQL["reshard_plan"] = """
    WITH h AS (
      SELECT doc_id,
        list_transform(range(0, 12),
          s -> md5(doc_id || '|' || s)) AS hs
      FROM documents)
    SELECT doc_id,
      (list_position(hs[1:8], list_aggregate(hs[1:8], 'max')) - 1)::BIGINT
        AS old_shard,
      (list_position(hs, list_aggregate(hs, 'max')) - 1)::BIGINT
        AS new_shard,
      list_position(hs[1:8], list_aggregate(hs[1:8], 'max'))
        <> list_position(hs, list_aggregate(hs, 'max')) AS moved
    FROM h"""

# CDC-compaction twin: latest-op-per-key with tombstone filtering
ORACLE_SQL["cdc_compact"] = """
    WITH o AS (
      SELECT user_id,
        CAST(date_diff('microsecond', TIMESTAMP '1970-01-01', ts)
             AS BIGINT) AS us,
        CASE WHEN event_type = 'error' THEN 1 ELSE 0 END AS is_del,
        CAST(round(value * 100) AS BIGINT) AS value_cents,
        row_number() OVER (PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
    SELECT user_id, value_cents, us AS updated_us
    FROM o WHERE rn = 1 AND is_del = 0"""

# shard-audit twin: the writer assigns doc_id % 8
ORACLE_SQL["warc_audit"] = """
    SELECT doc_id % 8 AS shard,
      count(*)::BIGINT AS n_records,
      sum(strlen(text))::BIGINT AS n_bytes,
      min(doc_id)::BIGINT AS min_doc_id,
      max(doc_id)::BIGINT AS max_doc_id
    FROM documents GROUP BY doc_id % 8"""

# watermark twin: the strictly-prior running max is exactly SQL's
# ROWS UNBOUNDED PRECEDING .. 1 PRECEDING window over arrival order
ORACLE_SQL["late_events"] = """
    WITH o AS (
      SELECT event_type,
        CAST(date_diff('microsecond', TIMESTAMP '1970-01-01', ts)
             AS BIGINT) AS us,
        max(CAST(date_diff('microsecond', TIMESTAMP '1970-01-01', ts)
                 AS BIGINT))
          OVER (ORDER BY event_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
      FROM events)
    SELECT event_type, count(*)::BIGINT AS n_events,
      sum(CASE WHEN wm IS NOT NULL AND us < wm - 300000000
               THEN 1 ELSE 0 END)::BIGINT AS n_late
    FROM o GROUP BY event_type"""

# crawl URL-parse twins: host/section/doc_id re-derived from documents
ORACLE_SQL["domain_stats"] = """
    SELECT 'example.org' AS host, source AS section,
      count(*)::BIGINT AS n_pages,
      sum(strlen(text))::BIGINT AS total_bytes,
      min(doc_id)::BIGINT AS min_doc_id
    FROM documents GROUP BY source"""
ORACLE_SQL["robots_filter"] = """
    SELECT doc_id,
      'https://example.org/' || source || '/' || doc_id AS target_uri,
      strlen(text)::BIGINT AS n_bytes
    FROM documents
    WHERE substr(md5(source), 1, 1) NOT IN ('0','1','2','3')"""

# end-to-end crawl-clean twin: corpus_clean's gate/dedup logic over the
# SAME text the WARC round-trip carries (lossless by the warc_ingest gate),
# plus the md5 fingerprint of the decoded payload
ORACLE_SQL["crawl_clean"] = r"""
    WITH t AS (
      SELECT doc_id, text,
             regexp_replace(text, '^\s+|\s+$', '', 'g') AS tt
      FROM documents
    ), tok AS (
      SELECT doc_id, text,
        CASE WHEN tt = '' THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(tt, '\s+') END AS toks
      FROM t
    ), q AS (
      SELECT doc_id, text,
        length(text)::BIGINT AS n_chars,
        len(toks)::BIGINT AS n_tokens,
        length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::BIGINT AS n_alpha
      FROM tok
    ), keep AS (SELECT min(doc_id) AS keep_id FROM documents GROUP BY text)
    SELECT q.doc_id, q.n_chars, q.n_tokens, md5(q.text) AS fingerprint
    FROM q JOIN keep ON q.doc_id = keep.keep_id
    WHERE n_chars >= 100 AND n_tokens >= 20 AND 5 * n_alpha >= 3 * n_chars"""

# nested-serialization twin: the ORDER BY inside string_agg replays the
# in-bucket total sort order, so the concatenated doc is byte-identical
ORACLE_SQL["orders_nested"] = """
    WITH it AS (
      SELECT l_orderkey,
        CAST(l_linenumber AS BIGINT) AS ln,
        l_partkey AS part,
        CAST(round(l_quantity) AS BIGINT) AS qty,
        CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
      FROM lineitem),
    agg AS (
      SELECT l_orderkey AS o_orderkey, count(*)::BIGINT AS n_items,
        string_agg('item ' || ln || ' part ' || part || ' qty ' || qty ||
                   ' price_cents ' || cents, ' ; '
                   ORDER BY ln, part, qty, cents) AS body
      FROM it GROUP BY l_orderkey)
    SELECT o.o_orderkey, a.n_items,
      'order ' || o.o_orderkey || ' status ' || o.o_orderstatus ||
      ' total_cents ' || CAST(round(o.o_totalprice * 100) AS BIGINT) ||
      ' | ' || a.body AS doc
    FROM orders o JOIN agg a ON o.o_orderkey = a.o_orderkey"""

# int8-ANN twin: identical float64 quantization expression (same operation
# order), then exact integer dot products via list_dot_product over integral
# doubles (< 2^53, exact); row_number replays the (score desc, vec_id) ties.
# The zero-maxabs fallback (all-zero corpus quantizes with divisor 1.0, not
# a NULL-producing 0-division) mirrors functions/similarity.knn_int8.
ORACLE_SQL["knn_int8"] = """
    WITH mm AS (
      SELECT CASE WHEN max(abs(u)) > 0 THEN CAST(max(abs(u)) AS DOUBLE)
                  ELSE 1.0 END AS m
      FROM (SELECT unnest(embedding) AS u FROM embeddings)),
    qt AS (
      SELECT vec_id, list_transform(
        embedding,
        x -> floor(CAST(x AS DOUBLE) / m * 127 + 0.5)) AS qv
      FROM embeddings, mm),
    s AS (
      SELECT q.vec_id AS qid, v.vec_id AS vec_id,
        CAST(list_dot_product(q.qv, v.qv) AS BIGINT) AS score
      FROM qt q JOIN qt v ON v.vec_id <> q.vec_id
      WHERE q.vec_id < 8),
    r AS (
      SELECT qid, vec_id, score,
        row_number() OVER (PARTITION BY qid
                           ORDER BY score DESC, vec_id) AS rank
      FROM s)
    SELECT qid, vec_id, rank::BIGINT AS rank, score
    FROM r WHERE rank <= 10"""
ORACLE_SQL["negative_samples"] = ORACLE_SQL["negative_samples"].replace(
    "{KNN}", ORACLE_SQL["knn_int8"])

# link-graph twin: edges derived logically from documents.text (anchor i of
# doc d targets (d + i) % 1000 with token i as anchor text) — the Ray side
# builds the HTML and regex-parses it back, so a hash match gates the parse
ORACLE_SQL["link_graph"] = r"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    e AS (
      SELECT doc_id AS src, u.x['dst'] AS dst_doc, u.x['w'] AS anchor
      FROM t, unnest(list_transform(
        range(1, least(10, len(toks)) + 1),
        i -> {'dst': (doc_id + i) % 1000, 'w': toks[i]})) AS u(x))
    SELECT dst_doc::BIGINT AS dst_doc,
           count(*)::BIGINT AS n_inlinks,
           count(DISTINCT src)::BIGINT AS n_src,
           min(anchor) AS min_anchor
    FROM e GROUP BY dst_doc"""

# triangle twin: same logical edge derivation, canonical undirected dedup,
# then the id-ordered three-way self-join; each triangle credits 3 corners
ORACLE_SQL["link_triangles"] = r"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    e0 AS (
      SELECT doc_id AS src, u.x AS dst
      FROM t, unnest(list_transform(
        range(1, least(10, len(toks)) + 1),
        i -> (doc_id + i) % 1000)) AS u(x)),
    ed AS (
      SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
      FROM e0 WHERE src <> dst),
    tri AS (
      SELECT e1.lo AS x, e1.hi AS y, e2.hi AS z
      FROM ed e1
      JOIN ed e2 ON e2.lo = e1.lo AND e2.hi > e1.hi
      JOIN ed e3 ON e3.lo = e1.hi AND e3.hi = e2.hi),
    n AS (
      SELECT x AS node FROM tri
      UNION ALL SELECT y FROM tri
      UNION ALL SELECT z FROM tri)
    SELECT node::BIGINT AS node, count(*)::BIGINT AS n_triangles
    FROM n GROUP BY node"""

# PageRank twin: the recurrence is fixed-point int64 arithmetic with a FIXED
# iteration count (functions/graph.py docstring), so the "iterative, not
# SQL-expressible" framing is actually wrong for a known n_iters — unroll the
# 8 iterations as chained CTEs doing the same integer steps:
#   contrib[dst] = sum(score[src] // deg[src]);
#   score' = (SCALE - d) + (d * contrib) // SCALE
# over the symmetrized exact 3-gram pair graph (pair SQL reused verbatim).
_PR_ITER = """s{k} AS (
      SELECT d.node,
             CAST((1000000 - 850000)
                  + (850000 * c.contrib) // 1000000 AS BIGINT) AS score,
             d.deg
      FROM (SELECT e.dst AS node, sum(s.score // s.deg) AS contrib
            FROM sym e JOIN s{p} s ON e.src = s.node GROUP BY e.dst) c
      JOIN deg d ON d.node = c.node)"""


def _pagerank_sql(pairs_sql: str, n_iters: int = 8) -> str:
    """Unrolled fixed-point PageRank CTE chain over a (doc_a, doc_b) pair
    query — the reusable SQL twin of functions/graph.pagerank."""
    return (
        "WITH pairs AS ({PAIRS}),\n"
        "sym AS (SELECT doc_a AS src, doc_b AS dst FROM pairs\n"
        "        UNION ALL SELECT doc_b AS src, doc_a AS dst FROM pairs),\n"
        "deg AS (SELECT src AS node, count(*)::BIGINT AS deg FROM sym"
        " GROUP BY src),\n"
        "s0 AS (SELECT node, CAST(1000000 AS BIGINT) AS score, deg"
        " FROM deg),\n"
        + ",\n".join(_PR_ITER.format(k=i, p=i - 1)
                     for i in range(1, n_iters + 1))
        + f"\nSELECT node::BIGINT AS node, score::BIGINT AS score_micro"
          f" FROM s{n_iters}"
    ).replace("{PAIRS}", pairs_sql)


ORACLE_SQL["pagerank_dups"] = _pagerank_sql(ORACLE_SQL["ngram_jaccard_pairs"])

# link-graph PageRank: the SAME unrolled recurrence over the regex-extracted
# outlink edges (co-citation/undirected interpretation; self-loops can't
# occur because 1 <= i <= 10 < 1000)
_LINK_EDGES_SQL = r"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents)
    SELECT doc_id AS doc_a, u.x AS doc_b
    FROM t, unnest(list_transform(
      range(1, least(10, len(toks)) + 1),
      i -> (doc_id + i) % 1000)) AS u(x)"""
ORACLE_SQL["link_pagerank"] = _pagerank_sql(_LINK_EDGES_SQL)

# main-content extraction twin: same construction + block/link-density spec
# as functions/boilerplate.py (BLOCK_TAG_PATTERN / ANCHOR_PATTERN /
# MIN_BLOCK_CHARS), normalize chain shared via _NORM_SQL
_KEEP_LAMBDA = "(x, i) -> length(x) >= 50 AND 3 * linklen[i] <= length(x)"
ORACLE_SQL["main_content"] = rf"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    h AS (
      SELECT doc_id,
        '<div>' || coalesce(array_to_string(list_transform(list_slice(toks, 1, 10),
            w -> '<a href="#">' || w || '</a>'), ' '), '')
        || '</div><p>'
        || coalesce(array_to_string(list_slice(toks, 11, len(toks)), ' '), '')
        || '</p><div>ok</div>' AS html
      FROM t),
    b AS (
      SELECT doc_id, regexp_split_to_array(html,
        '(?i)</?(?:div|p|td|th|li|h[1-6]|table|section|article|header|footer|nav|br)[^>]*>')
        AS blocks
      FROM h),
    v AS (
      SELECT doc_id, blocks,
        list_transform(blocks, x -> {_NORM_SQL.format(col='x')}) AS vis,
        list_transform(blocks, x -> coalesce(list_sum(list_transform(
          regexp_extract_all(x, '(?is)<a(?:[ \t\n\f\r][^>]*)?>(.*?)</a>', 1),
          y -> length(y))), 0)) AS linklen
      FROM b)
    SELECT doc_id,
      -- array_to_string([]) is NULL in DuckDB, engine emits ''
      coalesce(array_to_string(list_filter(vis, {_KEEP_LAMBDA}), ' '), '')
        AS main_text,
      len(blocks)::BIGINT AS n_blocks,
      len(list_filter(vis, {_KEEP_LAMBDA}))::BIGINT AS n_kept
    FROM v"""

# PDF/layout-parse twin: functions/pdf.py's grid spec in closed form
# (TOKENS_PER_LINE=8, ROWS_PER_COL=45 -> 90 lines/page, x = 72 + 234*col,
# y = 720 - 14*row); pdf_text round-trips to the token join
ORACLE_SQL["pdf_extract"] = r"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    l AS (SELECT doc_id, toks, (len(toks) + 7) // 8 AS n_lines FROM t)
    SELECT doc_id,
      coalesce(array_to_string(toks, ' '), '') AS pdf_text,
      n_lines::BIGINT AS n_lines,
      greatest(1, (n_lines + 89) // 90)::BIGINT AS n_pages,
      coalesce(list_sum(list_transform(generate_series(0, n_lines - 1),
        i -> 72 + 234 * ((i % 90) // 45))), 0)::BIGINT AS xsum,
      coalesce(list_sum(list_transform(generate_series(0, n_lines - 1),
        i -> 720 - 14 * (i % 45))), 0)::BIGINT AS ysum
    FROM l"""

# DOM-heuristics twin: with the q_dom_main construction the content <div>
# wins strictly (proof in the docstring), so winner text/score and the
# parse's element counts are closed-form: n_elements = html, body, nav,
# min(10,n) nav anchors, div, p, p, footer, footer anchor = 8 + min(10,n)
ORACLE_SQL["dom_main"] = r"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    m AS (SELECT doc_id, toks,
            coalesce(array_to_string(
              list_slice(toks, 11, len(toks)), ' '), '') AS main_text
          FROM t)
    SELECT doc_id, main_text,
      CAST(2 * length(main_text) AS BIGINT) AS score,
      'div' AS winner_tag,
      (8 + least(10, len(toks)))::BIGINT AS n_elements,
      CAST(2 AS BIGINT) AS n_candidates
    FROM m"""

# substring-dedup twin: real substrings where the engine uses 64-bit
# rolling hashes (collision tradeoff documented in functions/contamination)
ORACLE_SQL["substring_dedup"] = r"""
    WITH g AS (
      SELECT doc_id, unnest(list_transform(
        generate_series(1, greatest(0, length(text) - 39)),
        i -> substr(text, i, 40))) AS kg
      FROM documents),
    d AS (SELECT kg FROM g GROUP BY kg
          HAVING count(DISTINCT doc_id) >= 2),
    per AS (SELECT g.doc_id, count(*) AS n_dup
            FROM g JOIN d USING (kg) GROUP BY g.doc_id)
    SELECT doc.doc_id,
      greatest(0, length(doc.text) - 39)::BIGINT AS n_kgrams,
      coalesce(per.n_dup, 0)::BIGINT AS n_dup
    FROM documents doc LEFT JOIN per ON doc.doc_id = per.doc_id"""

# phrase-search twin: the probe phrase is doc 0's first 3 tokens on both
# sides (scalar subqueries here, a driver-side one-row read in the engine)
ORACLE_SQL["phrase_search"] = r"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    p AS (SELECT toks[1] AS p1, toks[2] AS p2, toks[3] AS p3
          FROM t WHERE doc_id = 0),
    m AS (
      SELECT t.doc_id,
        len(list_filter(generate_series(1, len(toks) - 2),
          i -> toks[i] = p.p1 AND toks[i+1] = p.p2 AND toks[i+2] = p.p3))
          ::BIGINT AS n_matches
      FROM t, p)
    SELECT doc_id, n_matches FROM m WHERE n_matches > 0"""

# split-leakage twin: the ngram pair SQL composed with the md5 split
# (same {NGRAM_PAIRS} substitution as dedup_clusters)
ORACLE_SQL["split_leakage"] = """
    WITH pairs AS ({NGRAM_PAIRS}),
    s AS (
      SELECT doc_a, doc_b,
        CASE WHEN ha < 80 THEN 'train' WHEN ha < 90 THEN 'val'
             ELSE 'test' END AS split_a,
        CASE WHEN hb < 80 THEN 'train' WHEN hb < 90 THEN 'val'
             ELSE 'test' END AS split_b
      FROM (SELECT doc_a, doc_b,
              ('0x' || substr(md5(CAST(doc_a AS VARCHAR)), 1, 8))::BIGINT
                % 100 AS ha,
              ('0x' || substr(md5(CAST(doc_b AS VARCHAR)), 1, 8))::BIGINT
                % 100 AS hb
            FROM pairs))
    SELECT split_a, split_b,
      count(*)::BIGINT AS n_pairs,
      sum(CASE WHEN split_a <> split_b THEN 1 ELSE 0 END)::BIGINT AS n_cross
    FROM s GROUP BY split_a, split_b""".replace(
    "{NGRAM_PAIRS}", ORACLE_SQL["ngram_jaccard_pairs"])

# incremental near-dup twin: the pair SQL filtered to cross-split pairs,
# oriented incoming->base, best match via row_number (double ratio order is
# exact here: distinct rationals a/b vs c/d with b,d <= 1e4 differ by
# >= 1e-8 >> double eps, and rational-EQUAL ratios fall to the explicit
# n_inter DESC, dup_of ASC tie keys mirrored on the Ray side)
ORACLE_SQL["incremental_neardup"] = """
    WITH pairs AS ({NGRAM_PAIRS}),
    o AS (
      SELECT CASE WHEN ia THEN doc_a ELSE doc_b END AS doc_id,
             CASE WHEN ia THEN doc_b ELSE doc_a END AS dup_of,
             n_inter, n_union
      FROM (SELECT doc_a, doc_b, n_inter, n_union,
              substr(md5(CAST(doc_a AS VARCHAR)), 1, 1)
                IN ('0','1','2','3') AS ia,
              substr(md5(CAST(doc_b AS VARCHAR)), 1, 1)
                IN ('0','1','2','3') AS ib
            FROM pairs)
      WHERE ia <> ib),
    r AS (
      SELECT *, row_number() OVER (
        PARTITION BY doc_id
        ORDER BY n_inter * 1.0 / n_union DESC, n_inter DESC, dup_of ASC)
        AS rk
      FROM o)
    SELECT doc_id::BIGINT AS doc_id, dup_of::BIGINT AS dup_of,
           n_inter::BIGINT AS n_inter, n_union::BIGINT AS n_union
    FROM r WHERE rk = 1""".replace(
    "{NGRAM_PAIRS}", ORACLE_SQL["ngram_jaccard_pairs"])

# leakage-free split twin: recursive-CTE cluster reps LEFT-joined to
# documents, md5 split on the rep (docs outside a cluster are their own rep)
ORACLE_SQL["split_no_leakage"] = """
    WITH pairs AS ({NGRAM_PAIRS}),
    sym AS (SELECT doc_a AS a, doc_b AS b FROM pairs
            UNION SELECT doc_b, doc_a FROM pairs),
    reach AS (
      WITH RECURSIVE r(n, m) AS (
        SELECT a, b FROM sym
        UNION
        SELECT r.n, s.b FROM r JOIN sym s ON r.m = s.a WHERE s.b <> r.n
      ) SELECT * FROM r),
    rep AS (SELECT n AS doc_id, LEAST(n, MIN(m)) AS r FROM reach GROUP BY n)
    SELECT CASE WHEN hb < 80 THEN 'train'
                WHEN hb < 90 THEN 'val' ELSE 'test' END AS split,
           lang, count(*)::BIGINT AS n_docs,
           sum(n_chars)::BIGINT AS sum_chars
    FROM (SELECT d.lang, d.n_chars,
                 ('0x' || substr(md5(CAST(COALESCE(rep.r, d.doc_id)
                                          AS VARCHAR)), 1, 8))::BIGINT
                   % 100 AS hb
          FROM documents d LEFT JOIN rep ON rep.doc_id = d.doc_id)
    GROUP BY 1, 2""".replace(
    "{NGRAM_PAIRS}", ORACLE_SQL["ngram_jaccard_pairs"])

# full cleaning composition: corpus_clean's quality+exact-dedup SQL minus
# the non-representative members of the recursive-CTE near-dup clusters
ORACLE_SQL["corpus_train_ready"] = f"""
    WITH base AS ({ORACLE_SQL["corpus_clean"]}),
    clusters AS ({ORACLE_SQL["dedup_clusters"]})
    SELECT base.* FROM base
    WHERE base.doc_id NOT IN
      (SELECT doc_id FROM clusters WHERE doc_id <> cluster_rep)"""


def _html_escape(w: str) -> str:
    """Minimal entity escape for synthesized anchor/body text — order
    matters (& first) so unescaping is unambiguous."""
    return w.replace("&", "&amp;").replace("<", "&lt;")


def _html_unescape(s: str) -> str:
    return s.replace("&lt;", "<").replace("&amp;", "&")


_HREF_RE = None


def _parse_link_edges(batch: pa.Table):
    """Shared crawl-edge derivation (q_link_graph / q_link_pagerank /
    q_link_triangles): build the deterministic per-doc HTML, then PARSE it
    back with the real href/anchor regex — the parse is the operator.
    Returns (srcs, dsts, anchors) lists."""
    global _HREF_RE
    if _HREF_RE is None:
        import re as _re
        _HREF_RE = _re.compile(
            r'<a href="https://example\.org/doc/(\d+)">([^<]*)</a>')
    split, empty = T._tokens_list(batch["text"].combine_chunks())
    toks_py = split.to_pylist()
    empties = empty.to_pylist()
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    srcs, dsts, anchors = [], [], []
    for did, toks, e in zip(ids, toks_py, empties):
        toks = [] if e else (toks or [])
        toks = [_html_escape(w) for w in toks]
        html = "<body>" + " ".join(
            f'<a href="https://example.org/doc/{(int(did) + i + 1) % 1000}">'
            f"{w}</a>" for i, w in enumerate(toks[:10])) \
            + " " + " ".join(toks[10:]) + "</body>"
        for m in _HREF_RE.finditer(html):
            srcs.append(int(did))
            dsts.append(int(m.group(1)))
            anchors.append(_html_unescape(m.group(2)))
    return srcs, dsts, anchors


def q_link_triangles(sf_dir: str) -> "ray.data.Dataset":
    """Per-node triangle counts over the undirected crawl link graph —
    the community/cohesion signal a link-spam or site-cluster analysis
    computes. Edges come from the SAME real HTML parse as q_link_graph;
    counting is the degree-ordered wedge algorithm
    (functions/graph.triangle_counts, Suri & Vassilvitskii 2011) whose
    orientation bounds wedge volume by O(sqrt(m)) per node at power-law
    scale. Exact DuckDB twin: the logical edge derivation + a three-way
    self-join in id order."""
    from ..functions.graph import triangle_counts

    def edges(batch: pa.Table) -> pa.Table:
        srcs, dsts, _ = _parse_link_edges(batch)
        return pa.table({"doc_a": pa.array(srcs, pa.int64()),
                         "doc_b": pa.array(dsts, pa.int64())})

    return triangle_counts(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(edges, batch_format="pyarrow"))


def q_link_graph(sf_dir: str) -> "ray.data.Dataset":
    """Web-link-graph construction (crawl-side op): deterministic HTML is
    built per document (first 10 tokens become anchors whose hrefs target
    doc (doc_id + i) % 1000), outlinks are extracted by a REAL href/anchor
    regex parse of the HTML, and in-links aggregate per target in ONE
    bucketed shuffle: map_batches pre-reduces to distinct (dst, src) rows
    carrying partial counts + min anchor, then groupby(dst).map_groups
    finishes (n_inlinks, n_distinct_src, min_anchor). The DuckDB twin
    derives the same edges logically from documents.text, so the hash gate
    verifies the HTML parse, not a pass-through.

    Tokens are HTML-escaped (&amp; then &lt;) when the page is BUILT and
    unescaped after the regex parse, so a token containing '<' can neither
    break the anchor match (dropping an edge the logical twin keeps) nor
    fabricate a spurious anchor from body text (round-3 ADVICE)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)

    def edges(batch: pa.Table) -> pa.Table:
        srcs, dsts, anchors = _parse_link_edges(batch)
        t = pa.table({
            "dst_doc": pa.array(dsts, pa.int64()),
            "src": pa.array(srcs, pa.int64()),
            "anchor": pa.array(anchors, pa.string())})
        # batch-local pre-reduce: distinct (dst, src) + count + min anchor
        t = t.group_by(["dst_doc", "src"]).aggregate(
            [("anchor", "count"), ("anchor", "min")]).rename_columns(
            ["dst_doc", "src", "c", "min_anchor"])
        dst = t["dst_doc"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "pkey", pa.array(bucket_of_ints(dst, nb), pa.int64()))

    def finish(g: pa.Table) -> pa.Table:
        t = g.group_by("dst_doc").aggregate(
            [("c", "sum"), ("src", "count_distinct"), ("min_anchor", "min")])
        return pa.table({
            "dst_doc": t["dst_doc"],
            "n_inlinks": pc.cast(t["c_sum"], pa.int64()),
            "n_src": pc.cast(t["src_count_distinct"], pa.int64()),
            "min_anchor": t["min_anchor_min"]})

    return ds.map_batches(edges, batch_format="pyarrow") \
        .groupby("pkey").map_groups(finish, batch_format="pyarrow")


def _bpe_merges_cached(sf_dir: str, fresh: bool = False):
    from ..functions.bpe import learn_bpe

    return _session_memo("bpe_merges", sf_dir, lambda: learn_bpe(
        _read(sf_dir, "documents", ["doc_id", "text"]), n_merges=12), fresh)


def q_bpe_encode(sf_dir: str) -> "ray.data.Dataset":
    """Tokenizer APPLY path: encode the corpus with the merges q_bpe_merges
    learns (reused from the session memo) on a stateful actor pool — the
    merge table is constructor state, a bounded per-actor word->len cache
    amortizes repeated words. The greedy merge application
    is not SQL-expressible, so the driver twin is a single-process
    reference encode dump (pipelines/oracle_dump.py: reference-learned
    merges + one plain encode pass); pytest additionally gates equality at
    two parallelism levels."""
    from ..functions.bpe import BpeEncoder

    from . import oracle_dump as OD

    OD.dump("bpe_encode",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.bpe_encode_expected(sf_dir))
    merges = _bpe_merges_cached(sf_dir)
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        BpeEncoder, fn_constructor_kwargs={"merges": merges},
        batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)


def _warc_shard_dir(sf_dir: str) -> str:
    """Shard-cache directory keyed on a CONTENT fingerprint (size+mtime) of
    the source documents.parquet, not just the sf basename — a regenerated
    table at the same path, or two sf dirs sharing a basename, get distinct
    cache dirs instead of silently serving stale shard bytes (round-3
    ADVICE)."""
    import hashlib as _hl

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    fp = _hl.md5(f"{os.path.normpath(sf_dir)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode()).hexdigest()[:12]
    sfname = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join("/tmp/dpray_warc", f"{sfname}_{fp}")


def _warc_records(sf_dir: str) -> "ray.data.Dataset":
    from ..sources.warc import read_warc, write_warc_shards

    shard_dir = write_warc_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _warc_shard_dir(sf_dir), num_shards=8)
    return read_warc(shard_dir)


def q_domain_stats(sf_dir: str) -> "ray.data.Dataset":
    """Crawl-side per-domain rollup: the WARC target_uri is parsed by a
    compiled URL regex (scheme://host/segment/...) and pages aggregate per
    (host, first path segment): page count + total payload bytes +
    min doc_id — combiner-first (pyarrow group_by per batch), ONE small
    groupby over the partials. The twin re-derives the URI fields from
    documents, so the hash gate checks the URL parse."""
    import re as _re

    url_re = _re.compile(r"^https://([^/]+)/([^/]+)/(\d+)$")
    recs = _warc_records(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        hosts, segs, ids, nb = [], [], [], []
        pays = batch["payload"].to_pylist()
        for uri, p in zip(batch["target_uri"].to_pylist(), pays):
            m = url_re.match(uri)
            hosts.append(m.group(1))
            segs.append(m.group(2))
            ids.append(int(m.group(3)))
            nb.append(len(p))
        t = pa.table({
            "host": pa.array(hosts, pa.string()),
            "section": pa.array(segs, pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
            "n_bytes": pa.array(nb, pa.int64())})
        return t.group_by(["host", "section"]).aggregate(
            [("doc_id", "count"), ("n_bytes", "sum"), ("doc_id", "min")]) \
            .rename_columns(["host", "section", "n", "b", "mn"])

    partials = recs.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["host", "section"]).aggregate(
        Sum("n", alias_name="n_pages"), Sum("b", alias_name="total_bytes"),
        ray.data.aggregate.Min("mn", alias_name="min_doc_id"))

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "host": batch["host"],
            "section": batch["section"],
            "n_pages": pc.cast(batch["n_pages"], pa.int64()),
            "total_bytes": pc.cast(batch["total_bytes"], pa.int64()),
            "min_doc_id": pc.cast(batch["min_doc_id"], pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow")


def q_robots_filter(sf_dir: str) -> "ray.data.Dataset":
    """Robots/blocklist gate over the crawl: a deterministic disallow set
    (sections whose md5 starts with hex 0-3 — a stand-in for fetched
    robots.txt rules) is BROADCAST as a frozenset in the task closure (the
    small-side-lookup pattern: no shuffle), and records from disallowed
    sections are dropped in-stream. Output: surviving (doc_id, target_uri,
    n_bytes)."""
    import hashlib
    import re as _re

    url_re = _re.compile(r"^https://([^/]+)/([^/]+)/(\d+)$")
    # rule derivation is itself deterministic from the section name
    blocked = frozenset("0123")
    recs = _warc_records(sf_dir)

    def keep(batch: pa.Table) -> pa.Table:
        ids, uris, nb = [], [], []
        for uri, p in zip(batch["target_uri"].to_pylist(),
                          batch["payload"].to_pylist()):
            m = url_re.match(uri)
            sec = m.group(2)
            if hashlib.md5(sec.encode()).hexdigest()[0] in blocked:
                continue
            ids.append(int(m.group(3)))
            uris.append(uri)
            nb.append(len(p))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "target_uri": pa.array(uris, pa.string()),
            "n_bytes": pa.array(nb, pa.int64())})

    return recs.map_batches(keep, batch_format="pyarrow")


def q_crawl_clean(sf_dir: str) -> "ray.data.Dataset":
    """END-TO-END crawl pipeline composition over the WARC source: shard
    bytes -> record parse -> payload UTF-8 decode -> quality gate
    (corpus_clean thresholds) -> exact-dedup keep-first semi-join ->
    surviving (doc_id, n_chars, n_tokens, fingerprint). Every stage is the
    production operator (sources/warc.py, textstats.quality_stats_batch,
    dedup.exact_dedup, joins.semi_join); the DuckDB twin derives the same
    result from documents.parquet directly, so the hash gate covers the
    whole source->clean composition, not any one stage."""
    import hashlib

    from ..functions.dedup import exact_dedup
    from ..functions.joins import semi_join
    from ..sources.warc import read_warc, write_warc_shards

    shard_dir = write_warc_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _warc_shard_dir(sf_dir), num_shards=8)

    def decode(batch: pa.Table) -> pa.Table:
        ids = [int(r.rsplit(":", 1)[-1].rstrip(">"))
               for r in batch["record_id"].to_pylist()]
        texts = [p.decode("utf-8") for p in batch["payload"].to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts, pa.string())})

    docs = read_warc(shard_dir).map_batches(decode, batch_format="pyarrow")
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()  # metadata-only

    stats = docs.map_batches(T.quality_stats_batch, batch_format="pyarrow")

    def gate(batch: pa.Table) -> pa.Table:
        n_chars = batch["n_chars"].to_numpy(zero_copy_only=False)
        n_tokens = batch["n_tokens"].to_numpy(zero_copy_only=False)
        n_alpha = batch["n_alpha"].to_numpy(zero_copy_only=False)
        mask = ((n_chars >= 100) & (n_tokens >= 20)
                & (5 * n_alpha >= 3 * n_chars))
        return batch.filter(pa.array(mask))

    gated = stats.map_batches(gate, batch_format="pyarrow")
    keep = exact_dedup(docs).select_columns(["keep_id"])
    stats_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_chars", pa.int64()),
        ("n_tokens", pa.int64()), ("n_alpha", pa.int64()),
        ("n_stop", pa.int64()),
    ])
    survivors = semi_join(gated, keep, left_on="doc_id", keep_on="keep_id",
                          size_hint=n_docs, left_schema=stats_schema)

    # re-join the fingerprint from the decoded text (id-keyed broadcast is
    # wrong at scale; just recompute the md5 inside the final projection
    # via a co-bucketed join with the decoded docs)
    from ..functions.joins import hash_join

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(
                [hashlib.md5(t.encode("utf-8")).hexdigest()
                 for t in batch["text"].to_pylist()], pa.string())})

    fps = docs.map_batches(fp, batch_format="pyarrow")
    out = hash_join(
        survivors.select_columns(["doc_id", "n_chars", "n_tokens"]), fps,
        on="doc_id", size_hint=n_docs,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("n_chars", pa.int64()),
                               ("n_tokens", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("fingerprint", pa.string())]))
    return out


def q_orders_nested(sf_dir: str) -> "ray.data.Dataset":
    """Relational -> training-text serialization (the 'flatten a star schema
    into LLM documents' step): each order and its lineitems become ONE
    deterministic text record. Both sides co-bucket on hash(o_orderkey) and
    reduce in a single exchange: item rows sort by (linenumber, partkey,
    qty, price) — a TOTAL order even with duplicate (orderkey, linenumber)
    rows — then segment-sliced joins build 'header | item ; item ; ...'.
    All numerics are integerized (cents / rounded qty) so the serialized
    string is hash-exact against the DuckDB string_agg twin."""
    from ..sharding import auto_buckets, bucket_of_ints

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_linenumber", "l_quantity",
                "l_extendedprice"])
    nb = auto_buckets(li.count(), rows_per_bucket=65536)

    def item_rows(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": pa.array(ok, pa.int64()),
            "ln": pc.cast(batch["l_linenumber"], pa.int64()),
            "part": batch["l_partkey"],
            "qty": pa.array(np.rint(
                batch["l_quantity"].to_numpy(zero_copy_only=False))
                .astype(np.int64), pa.int64()),
            "cents": pa.array(_cents(
                batch["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64()),
            "status": pa.nulls(len(ok), pa.string()),
            "total_cents": pa.nulls(len(ok), pa.int64()),
            "pkey": pa.array(bucket_of_ints(ok, nb), pa.int64()),
        })

    def header_rows(batch: pa.Table) -> pa.Table:
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        n = len(ok)
        return pa.table({
            "o_orderkey": pa.array(ok, pa.int64()),
            "ln": pa.nulls(n, pa.int64()),
            "part": pa.nulls(n, pa.int64()),
            "qty": pa.nulls(n, pa.int64()),
            "cents": pa.nulls(n, pa.int64()),
            "status": batch["o_orderstatus"],
            "total_cents": pa.array(_cents(
                batch["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64()),
            "pkey": pa.array(bucket_of_ints(ok, nb), pa.int64()),
        })

    items = li.map_batches(item_rows, batch_format="pyarrow")
    heads = _read(sf_dir, "orders",
                  ["o_orderkey", "o_orderstatus", "o_totalprice"]) \
        .map_batches(header_rows, batch_format="pyarrow")

    def assemble(g: pa.Table) -> pa.Table:
        is_item = pc.is_valid(g["ln"])
        it = g.filter(is_item).sort_by([
            ("o_orderkey", "ascending"), ("ln", "ascending"),
            ("part", "ascending"), ("qty", "ascending"),
            ("cents", "ascending")])
        hd = g.filter(pc.invert(is_item))
        ok = it["o_orderkey"].to_numpy(zero_copy_only=False)
        if len(ok) == 0 or hd.num_rows == 0:
            return pa.table({"o_orderkey": pa.array([], pa.int64()),
                             "n_items": pa.array([], pa.int64()),
                             "doc": pa.array([], pa.string())})
        ln = it["ln"].to_numpy(zero_copy_only=False)
        part = it["part"].to_numpy(zero_copy_only=False)
        qty = it["qty"].to_numpy(zero_copy_only=False)
        cents = it["cents"].to_numpy(zero_copy_only=False)
        segs = np.empty(len(ok), dtype=bool)
        segs[0] = True
        segs[1:] = ok[1:] != ok[:-1]
        starts = np.where(segs)[0]
        bounds = np.append(starts, len(ok))
        head_map = {int(k): (s, int(t)) for k, s, t in zip(
            hd["o_orderkey"].to_pylist(), hd["status"].to_pylist(),
            hd["total_cents"].to_pylist())}
        out_k, out_n, out_doc = [], [], []
        for si in range(len(starts)):
            lo, hi = starts[si], bounds[si + 1]
            key = int(ok[lo])
            if key not in head_map:
                continue  # item rows whose order header is absent
            st, tc = head_map[key]
            body = " ; ".join(
                f"item {ln[j]} part {part[j]} qty {qty[j]} "
                f"price_cents {cents[j]}" for j in range(lo, hi))
            out_k.append(key)
            out_n.append(int(hi - lo))
            out_doc.append(
                f"order {key} status {st} total_cents {tc} | {body}")
        return pa.table({"o_orderkey": pa.array(out_k, pa.int64()),
                         "n_items": pa.array(out_n, pa.int64()),
                         "doc": pa.array(out_doc, pa.string())})

    return items.union(heads).groupby("pkey") \
        .map_groups(assemble, batch_format="pyarrow")


def q_negative_samples(sf_dir: str) -> "ray.data.Dataset":
    """Contrastive-training negative sampling: for each of the 8 anchor
    vectors, the 5 pseudo-random negatives are the non-neighbor vec_ids
    with the lexicographically smallest md5(anchor|vec_id) — a seedless,
    platform-stable 'random' order both engines can replay. The top-10
    int8 neighbors + self form the exclusion set (80 ids, broadcast in
    the task closure); candidates stream through map_batches with a
    per-batch partial top-5 per anchor, so the global reduce sees at most
    5 x anchors x batches tiny rows."""
    import hashlib

    nn = S.knn_int8(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                    n_queries=8, k=10).take_all()  # 80 rows: tiny metadata
    excl: Dict[int, set] = {}
    for r in nn:
        excl.setdefault(int(r["qid"]), {int(r["qid"])}).add(int(r["vec_id"]))
    anchors = sorted(excl)

    ds = _read(sf_dir, "embeddings", ["vec_id"])

    def partial(batch: pa.Table) -> pa.Table:
        vids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out_q, out_v, out_k = [], [], []
        for a in anchors:
            ex = excl[a]
            cand = [(hashlib.md5(f"{a}|{v}".encode()).hexdigest(), int(v))
                    for v in vids if int(v) not in ex]
            cand.sort()
            for k, v in cand[:5]:
                out_q.append(a)
                out_v.append(v)
                out_k.append(k)
        return pa.table({"qid": pa.array(out_q, pa.int64()),
                         "neg_id": pa.array(out_v, pa.int64()),
                         "k": pa.array(out_k, pa.string())})

    def finish(g: pa.Table) -> pa.Table:
        t = g.sort_by([("qid", "ascending"), ("k", "ascending")])
        q = t["qid"].to_numpy(zero_copy_only=False)
        new = np.r_[True, q[1:] != q[:-1]]
        starts = np.flatnonzero(new)
        rank = np.arange(len(q)) - np.repeat(starts, np.diff(
            np.r_[starts, len(q)])) + 1
        keep = rank <= 5
        return pa.table({
            "qid": pa.array(q[keep], pa.int64()),
            "neg_rank": pa.array(rank[keep], pa.int64()),
            "neg_id": pa.array(
                t["neg_id"].to_numpy(zero_copy_only=False)[keep],
                pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(finish, batch_format="pyarrow",
                                    batch_size=None)


def q_price_bins(sf_dir: str) -> "ray.data.Dataset":
    """Feature bucketization for training (quantile binning): exact global
    decile edges of price cents via the distributed value histogram
    (functions/agg.grouped_quantile_disc — shuffle ∝ distinct values), the
    9-int edge vector broadcast in the task closure, rows assigned by
    vectorized searchsorted, per-bin stats combiner-first. Tie rule is
    explicit and integer-exact: bin = #edges strictly below the value
    (np.searchsorted side='left' == SQL's count of e < cents)."""
    from ..functions.agg import grouped_quantile_disc

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": pa.array(np.zeros(b.num_rows, np.int64)),
            "cents": pa.array(_cents(
                b["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})

    cents_ds = li.map_batches(to_cents, batch_format="pyarrow")
    qs = [round(0.1 * i, 1) for i in range(1, 10)]
    names = [f"e{i}" for i in range(1, 10)]
    erow = grouped_quantile_disc(cents_ds, keys=["k"], value="cents",
                                 qs=qs, q_names=names).take_all()[0]
    edges = np.array([int(erow[n]) for n in names], dtype=np.int64)

    def assign(b: pa.Table) -> pa.Table:
        cents = b["cents"].to_numpy(zero_copy_only=False)
        bins = np.searchsorted(edges, cents, side="left").astype(np.int64)
        t = pa.table({"bin": pa.array(bins, pa.int64()),
                      "cents": pa.array(cents, pa.int64())})
        return t.group_by("bin").aggregate(
            [("cents", "count"), ("cents", "sum"), ("cents", "min"),
             ("cents", "max")]).rename_columns(
            ["bin", "n", "s", "mn", "mx"])

    partials = cents_ds.map_batches(assign, batch_format="pyarrow")
    agg = partials.groupby("bin").aggregate(
        Sum("n", alias_name="n"), Sum("s", alias_name="sum_cents"),
        ray.data.aggregate.Min("mn", alias_name="min_cents"),
        ray.data.aggregate.Max("mx", alias_name="max_cents"))

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "bin": b["bin"],
            "n": pc.cast(b["n"], pa.int64()),
            "sum_cents": pc.cast(b["sum_cents"], pa.int64()),
            "min_cents": pc.cast(b["min_cents"], pa.int64()),
            "max_cents": pc.cast(b["max_cents"], pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow")


def q_reshard_plan(sf_dir: str) -> "ray.data.Dataset":
    """Cluster-resize planning via rendezvous (HRW) consistent hashing:
    each doc's shard under N shards is argmax over s of md5(doc_id|s), so
    growing 8 -> 12 shards moves only the docs whose winning shard is one
    of the 4 new ones (~1/3 here) instead of ~everything under mod-N.
    Stateless per-row compute, no shuffle; the twin replays the identical
    hex-string argmax in DuckDB. Output: (doc_id, old_shard, new_shard,
    moved)."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id"])

    def plan(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        old_s, new_s = [], []
        for d in ids:
            hs = [hashlib.md5(f"{d}|{s}".encode()).hexdigest()
                  for s in range(12)]
            old_s.append(max(range(8), key=lambda s: hs[s]))
            new_s.append(max(range(12), key=lambda s: hs[s]))
        moved = [a != b for a, b in zip(old_s, new_s)]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "old_shard": pa.array(old_s, pa.int64()),
            "new_shard": pa.array(new_s, pa.int64()),
            "moved": pa.array(moved, pa.bool_())})

    return ds.map_batches(plan, batch_format="pyarrow")


def q_cdc_compact(sf_dir: str) -> "ray.data.Dataset":
    """Changelog compaction (merge-on-read table maintenance): the events
    stream is read as CDC ops per user — 'error' rows are DELETE
    tombstones, everything else UPSERTs value_cents — and the latest op
    per key wins by (ts, event_id). One bucketed shuffle on hash(user_id);
    in-bucket lexsort + take-last; users whose final op is a tombstone
    vanish from the compacted state. The exact shape Iceberg/Delta
    compaction jobs run, expressed as a Ray Data exchange."""
    from ..sharding import auto_buckets, bucket_of_ints

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])
    nb = auto_buckets(None)

    def tag(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]") \
            .astype(np.int64)
        is_del = pc.equal(b["event_type"], "error")
        return pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "us": pa.array(us, pa.int64()),
            "event_id": b["event_id"],
            "is_del": pc.cast(is_del, pa.int64()),
            "value_cents": pa.array(_cents(
                b["value"].to_numpy(zero_copy_only=False)), pa.int64()),
            "pkey": pa.array(bucket_of_ints(uid, nb), pa.int64())})

    def compact(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        us = g["us"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))  # per user, last = latest op
        uid_s = uid[order]
        last = np.flatnonzero(np.r_[uid_s[1:] != uid_s[:-1], True])
        w = order[last]
        alive = g["is_del"].to_numpy(zero_copy_only=False)[w] == 0
        w = w[alive]
        return pa.table({
            "user_id": pa.array(uid[w], pa.int64()),
            "value_cents": pa.array(
                g["value_cents"].to_numpy(zero_copy_only=False)[w],
                pa.int64()),
            "updated_us": pa.array(us[w], pa.int64())})

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("pkey").map_groups(compact, batch_format="pyarrow")


def q_warc_audit(sf_dir: str) -> "ray.data.Dataset":
    """Per-shard ingestion audit (the metrics a resumable crawl loader
    keeps per input file): records parsed, payload bytes, min/max doc_id
    per WARC shard — computed inside the same parse pass, one row per
    file, no shuffle beyond the tiny per-file rollup."""
    recs = _warc_records(sf_dir)

    def audit(batch: pa.Table) -> pa.Table:
        ids = np.array([int(r.rsplit(":", 1)[-1].rstrip(">"))
                        for r in batch["record_id"].to_pylist()],
                       dtype=np.int64)
        nb = np.array([len(p) for p in batch["payload"].to_pylist()],
                      dtype=np.int64)
        shard = ids % 8  # the writer's shard assignment
        t = pa.table({"shard": pa.array(shard, pa.int64()),
                      "ids": pa.array(ids, pa.int64()),
                      "nb": pa.array(nb, pa.int64())})
        return t.group_by("shard").aggregate(
            [("ids", "count"), ("nb", "sum"), ("ids", "min"),
             ("ids", "max")]).rename_columns(
            ["shard", "n", "b", "mn", "mx"])

    partials = recs.map_batches(audit, batch_format="pyarrow")
    agg = partials.groupby("shard").aggregate(
        Sum("n", alias_name="n_records"), Sum("b", alias_name="n_bytes"),
        ray.data.aggregate.Min("mn", alias_name="min_doc_id"),
        ray.data.aggregate.Max("mx", alias_name="max_doc_id"))

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "shard": b["shard"],
            "n_records": pc.cast(b["n_records"], pa.int64()),
            "n_bytes": pc.cast(b["n_bytes"], pa.int64()),
            "min_doc_id": pc.cast(b["min_doc_id"], pa.int64()),
            "max_doc_id": pc.cast(b["max_doc_id"], pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow")


def q_warc_skips(sf_dir: str) -> "ray.data.Dataset":
    """Corruption-resync audit at the DATASET level (round-3 ADVICE: surface
    n_skipped from read_warc): a copy of the WARC shards gets shard 0's
    FIRST record's Content-Length header deterministically mangled, then
    read_warc_file_audit reports (shard_file, n_records, n_skipped) per
    file. The DuckDB twin derives the expected table from documents
    (shard = doc_id % 8; shard 0 loses exactly its min-doc_id record and
    logs one skip), so the hash gate proves the parser skips PRECISELY the
    corrupt record and counts it — no silent loss, no over-skipping."""
    import shutil

    from ..sources.warc import read_warc_file_audit, write_warc_shards

    src_dir = write_warc_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _warc_shard_dir(sf_dir), num_shards=8)
    cor_dir = _warc_shard_dir(sf_dir) + "_corrupt"
    marker = os.path.join(cor_dir, "_COMPLETE")
    if not os.path.exists(marker):
        os.makedirs(cor_dir, exist_ok=True)
        for f in sorted(os.listdir(src_dir)):
            if not f.endswith(".warc"):
                continue
            src = os.path.join(src_dir, f)
            dst = os.path.join(cor_dir, f)
            if f == "shard-00000.warc":
                with open(src, "rb") as fh:
                    blob = fh.read()
                # break the first record's header: the parser must resync
                # to the next WARC/1.0 magic and count one skip
                with open(dst, "wb") as fh:
                    fh.write(blob.replace(b"Content-Length: ",
                                          b"Content-Bength: ", 1))
            else:
                shutil.copyfile(src, dst)
        with open(marker, "w") as fh:
            fh.write("ok")
    return read_warc_file_audit(cor_dir)


ORACLE_SQL["warc_skips"] = """
    SELECT 'shard-' || printf('%05d', s) || '.warc' AS shard_file,
           (n - CASE WHEN s = 0 THEN 1 ELSE 0 END)::BIGINT AS n_records,
           (CASE WHEN s = 0 THEN 1 ELSE 0 END)::BIGINT AS n_skipped
    FROM (SELECT doc_id % 8 AS s, count(*)::BIGINT AS n
          FROM documents GROUP BY 1)"""


def q_late_events(sf_dir: str) -> "ray.data.Dataset":
    """Streaming watermark semantics: arrival order = event_id, watermark
    after each event = max(ts so far) - 5 min; an event is LATE if its ts
    is below the watermark formed by STRICTLY PRIOR events. The global
    sequential definition decomposes exactly: range-partition on event_id
    into contiguous slices (one materialized narrow pass), per-slice
    max-ts partials prefix-max into each slice's carry-in watermark (nb
    ints on the driver), then each slice flags its rows locally with one
    sorted cumulative-max — no global sort, no second pass. Output:
    (event_type, n_events, n_late), exactly SQL's running-max window."""
    from ray.data.aggregate import Max as AMax
    from ..sharding import auto_buckets

    LATENESS_US = np.int64(5 * 60 * 1_000_000)
    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])
    agg = ds.aggregate(ray.data.aggregate.Min("event_id"),
                       AMax("event_id"))
    lo, hi = int(agg["min(event_id)"]), int(agg["max(event_id)"])
    span = max(1, hi - lo + 1)
    nb = min(auto_buckets(None), span)
    chunk = np.int64(-(-span // nb))

    def tag(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]") \
            .astype(np.int64)
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "us": pa.array(us, pa.int64()),
            "event_type": b["event_type"],
            "pkey": pa.array((eid - np.int64(lo)) // chunk, pa.int64())})

    tagged = ds.map_batches(tag, batch_format="pyarrow").materialize()

    # per-slice max ts -> carry-in watermark per slice (nb ints, driver)
    slice_max = tagged.groupby("pkey").aggregate(
        AMax("us", alias_name="mx")).take_all()
    slice_max.sort(key=lambda r: r["pkey"])
    carry: Dict[int, int] = {}
    run = None
    for r in slice_max:
        carry[int(r["pkey"])] = -(1 << 62) if run is None else run
        run = max(run, int(r["mx"])) if run is not None else int(r["mx"])

    def flag(g: pa.Table) -> pa.Table:
        pk = int(g["pkey"][0].as_py())
        t = g.sort_by([("event_id", "ascending")])
        us = t["us"].to_numpy(zero_copy_only=False)
        prior = np.empty(len(us), np.int64)
        prior[0] = carry[pk]
        if len(us) > 1:
            np.maximum.accumulate(us[:-1], out=prior[1:])
            prior[1:] = np.maximum(prior[1:], carry[pk])
        late = us < prior - LATENESS_US
        out = pa.table({"event_type": t["event_type"],
                        "late": pa.array(late.astype(np.int64), pa.int64())})
        return out.group_by("event_type").aggregate(
            [("late", "sum"), ("late", "count")]).rename_columns(
            ["event_type", "l", "n"])

    partials = tagged.groupby("pkey").map_groups(flag,
                                                 batch_format="pyarrow")
    agg2 = partials.groupby("event_type").aggregate(
        Sum("n", alias_name="n_events"), Sum("l", alias_name="n_late"))

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"],
            "n_events": pc.cast(b["n_events"], pa.int64()),
            "n_late": pc.cast(b["n_late"], pa.int64())})

    return agg2.map_batches(fin, batch_format="pyarrow")


def q_link_pagerank(sf_dir: str) -> "ray.data.Dataset":
    """Graph analytics over EXTRACTED structure: the link_graph outlink
    edges (regex href parse of deterministic HTML) feed the integer-exact
    PageRank — link-based document centrality, the composition a crawl
    ranking pipeline actually runs. Same unrolled-CTE SQL twin as
    pagerank_dups over the logically-derived edge set."""
    import re as _re

    from ..functions.graph import pagerank

    href_re = _re.compile(
        r'<a href="https://example\.org/doc/(\d+)">([^<]*)</a>')
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def edges(batch: pa.Table) -> pa.Table:
        split, empty = T._tokens_list(batch["text"].combine_chunks())
        toks_py = split.to_pylist()
        empties = empty.to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        srcs, dsts = [], []
        for did, toks, e in zip(ids, toks_py, empties):
            toks = [] if e else (toks or [])
            html = " ".join(
                f'<a href="https://example.org/doc/{(int(did) + i + 1) % 1000}">'
                f"{_html_escape(w)}</a>" for i, w in enumerate(toks[:10]))
            for m in href_re.finditer(html):
                srcs.append(int(did))
                dsts.append(int(m.group(1)))
        return pa.table({"doc_a": pa.array(srcs, pa.int64()),
                         "doc_b": pa.array(dsts, pa.int64())})

    return pagerank(ds.map_batches(edges, batch_format="pyarrow"),
                    n_iters=8)


def q_warc_ingest(sf_dir: str) -> "ray.data.Dataset":
    """WARC crawl-shard ingestion (sources/warc.py): deterministic WARC/1.0
    shards are synthesized once per sf from documents.parquet, then read
    back DISTRIBUTED (read_binary_files -> Content-Length record walk) and
    reduced to (doc_id, target_uri, n_bytes, payload_md5). The DuckDB twin
    re-derives all four columns from documents directly, so a hash match
    proves the write -> shard -> parse -> payload round-trip is lossless —
    the driver gate covers the source format itself."""
    import hashlib

    from ..sources.warc import read_warc, write_warc_shards

    shard_dir = write_warc_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _warc_shard_dir(sf_dir), num_shards=8)
    recs = read_warc(shard_dir)

    def ex(batch: pa.Table) -> pa.Table:
        ids = [int(r.rsplit(":", 1)[-1].rstrip(">"))
               for r in batch["record_id"].to_pylist()]
        pays = batch["payload"].to_pylist()
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "target_uri": batch["target_uri"],
            "n_bytes": pa.array([len(p) for p in pays], pa.int64()),
            "payload_md5": pa.array(
                [hashlib.md5(p).hexdigest() for p in pays], pa.string()),
        })

    return recs.map_batches(ex, batch_format="pyarrow")


def q_bpe_merges(sf_dir: str) -> pa.Table:
    """Tokenizer training: learn 12 BPE merges over documents.text with
    exact integer pair counts (functions/bpe.py — vocab-level iteration,
    combiner-first pair counting, deterministic lexicographic tiebreak;
    small-vocab short-circuit runs all rounds in one worker task).
    The greedy data-dependent iteration is not SQL-expressible, so the
    driver twin is a single-process learn_bpe_reference dump
    (pipelines/oracle_dump.py) — rows+schema+hash against the independent
    Counter-loop implementation; pytest additionally gates bit-equality at
    two parallelism levels on BOTH paths. Merges are learned afresh on
    every call and memoized per (session, sf) for q_bpe_encode."""
    from . import oracle_dump as OD

    OD.dump("bpe_merges",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.bpe_merges_expected(sf_dir))
    merges = _bpe_merges_cached(sf_dir, fresh=True)
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64()),
    })


ORACLE_SQL["bitext_mine"] = """
    WITH mm AS (
      SELECT CASE WHEN max(abs(u)) > 0 THEN CAST(max(abs(u)) AS DOUBLE)
                  ELSE 1.0 END AS m
      FROM (SELECT unnest(embedding) AS u FROM embeddings)),
    qt AS (
      SELECT vec_id, label, list_transform(
        embedding,
        x -> floor(CAST(x AS DOUBLE) / m * 127 + 0.5)) AS qv
      FROM embeddings, mm),
    s AS (
      SELECT a.vec_id AS qid, c.vec_id AS vec_id,
        CAST(list_dot_product(a.qv, c.qv) AS BIGINT) AS score
      FROM qt a JOIN qt c ON a.label = 0 AND c.label = 1),
    r AS (
      SELECT qid, vec_id, score,
        row_number() OVER (PARTITION BY qid
                           ORDER BY score DESC, vec_id) AS rn
      FROM s)
    SELECT qid,
      max(CASE WHEN rn = 1 THEN vec_id END)::BIGINT AS best_vec_id,
      max(CASE WHEN rn = 1 THEN score END)::BIGINT AS best_score,
      max(CASE WHEN rn = 2 THEN score END)::BIGINT AS second_score,
      (max(CASE WHEN rn = 1 THEN score END)
       - max(CASE WHEN rn = 2 THEN score END))::BIGINT AS margin
    FROM r GROUP BY qid"""

ORACLE_SQL["url_canonical_dedup"] = """
    SELECT 'https://example.com/' || source || '/'
             || CAST(doc_id % 50 AS VARCHAR) || '?a=1&b=2' AS canonical_url,
           count(*)::BIGINT AS n_docs,
           min(doc_id)::BIGINT AS min_doc_id
    FROM documents
    GROUP BY source, doc_id % 50"""

ORACLE_SQL["quality_classifier"] = f"""
    WITH q AS ({{QSTATS}})
    SELECT doc_id,
      (800 * ((1000 * n_alpha) // greatest(n_chars, 1))
       + 1200 * ((1000 * n_stop) // greatest(n_tokens, 1))
       + 500 * least(n_tokens, 512) - 600000)::BIGINT AS logit_micro,
      (CASE WHEN 800 * ((1000 * n_alpha) // greatest(n_chars, 1))
                 + 1200 * ((1000 * n_stop) // greatest(n_tokens, 1))
                 + 500 * least(n_tokens, 512) - 600000 > 0
            THEN 1 ELSE 0 END)::BIGINT AS keep
    FROM q"""
ORACLE_SQL["quality_classifier"] = ORACLE_SQL["quality_classifier"].replace(
    "{QSTATS}", ORACLE_SQL["quality_stats"])

ORACLE_SQL["span_merge"] = r"""
    WITH tok AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = '' THEN 0
             ELSE len(regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'))
        END::BIGINT AS n_tokens
      FROM documents),
    t AS (SELECT doc_id, least(n_tokens, 20) AS k FROM tok WHERE n_tokens > 0),
    s AS (
      SELECT doc_id, k, u.i AS i,
        (doc_id * 7 + u.i * 13) % 200 AS st,
        (doc_id * 7 + u.i * 13) % 200 + 5 + (u.i * 11) % 17 AS en
      FROM t, unnest(range(0, k)) AS u(i)),
    w AS (
      SELECT doc_id, k, st, en,
        max(en) OVER (PARTITION BY doc_id ORDER BY st, en
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
          AS prev_max
      FROM s),
    g AS (
      SELECT doc_id, k, st, en,
        CASE WHEN prev_max IS NULL OR st > prev_max THEN 1 ELSE 0 END AS isl
      FROM w),
    gi AS (
      SELECT doc_id, k, st, en,
        sum(isl) OVER (PARTITION BY doc_id ORDER BY st, en
                       ROWS UNBOUNDED PRECEDING) AS island
      FROM g),
    m AS (
      SELECT doc_id, any_value(k) AS k, island,
        min(st) AS mst, max(en) AS men
      FROM gi GROUP BY doc_id, island)
    SELECT doc_id, any_value(k)::BIGINT AS n_spans,
      count(*)::BIGINT AS n_merged,
      sum(men - mst)::BIGINT AS covered_len
    FROM m GROUP BY doc_id"""


# ---------------------------------------- unigram-LM tokenizer (Kudo 2018)

def _unigram_scored_cached(sf_dir: str, fresh: bool = False):
    from ..functions.unigram import learn_unigram

    return _session_memo("unigram_vocab", sf_dir, lambda: learn_unigram(
        _read(sf_dir, "documents", ["doc_id", "text"])), fresh)


def q_unigram_vocab(sf_dir: str) -> pa.Table:
    """Tokenizer training, unigram-LM family (functions/unigram.py — the
    SentencePiece-style complement to q_bpe_merges): seed substring top-K,
    quantized-integer EM over the word vocab, count-based prune, final
    re-score. Every cross-block reduce sums per-task-quantized int64
    micro-units, so the learned (piece, ilogp) table is bit-identical at
    any parallelism. The data-dependent EM is not SQL-expressible; the
    driver twin is a single-process learn_unigram_reference dump
    (pipelines/oracle_dump.py); pytest gates parallelism invariance."""
    from . import oracle_dump as OD

    OD.dump("unigram_vocab",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.unigram_vocab_expected(sf_dir))
    scored = _unigram_scored_cached(sf_dir, fresh=True)
    return pa.table({
        "piece": pa.array([p for p, _ in scored], pa.string()),
        "ilogp": pa.array([lp for _, lp in scored], pa.int64())})


def q_unigram_encode(sf_dir: str) -> "ray.data.Dataset":
    """Tokenizer APPLY path for the unigram family: Viterbi best-path
    encode (max total ilogp, longest-piece tiebreak, UNK floor for unseen
    chars) on a stateful actor pool — the learned table is constructor
    state with a bounded per-actor word cache (the q_bpe_encode stage
    shape). Twin: single-process reference learn + encode dump."""
    from ..functions.unigram import UnigramEncoder

    from . import oracle_dump as OD

    OD.dump("unigram_encode",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.unigram_encode_expected(sf_dir))
    scored = _unigram_scored_cached(sf_dir)
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        UnigramEncoder, fn_constructor_kwargs={"scored": scored},
        batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)


# ------------------------------ WordPiece tokenizer (Schuster & Nakajima)

def _wordpiece_cached(sf_dir: str, fresh: bool = False):
    """(merges, corpus_alphabet), shared through the session memo."""
    from ..functions.wordpiece import corpus_alphabet, learn_wordpiece

    def build():
        docs = _read(sf_dir, "documents", ["doc_id", "text"])
        return learn_wordpiece(docs, n_merges=12), corpus_alphabet(docs)

    return _session_memo("wordpiece_merges", sf_dir, build, fresh)


def q_wordpiece_merges(sf_dir: str) -> pa.Table:
    """Tokenizer training, WordPiece family (functions/wordpiece.py — the
    BERT tokenizer; third family next to BPE and unigram-LM): same
    vocab-level iteration as learn_bpe but each round merges the pair
    maximizing the likelihood gain c(ab)/(c(a)·c(b)), ranked by EXACT
    bigint cross-multiplication (no float ordering), so the merge table is
    bit-identical at any parallelism. One groupby-sum exchange per round
    carries pair and symbol counts together. Twin: single-process
    learn_wordpiece_reference dump; pytest gates both paths at two
    parallelism levels."""
    from . import oracle_dump as OD

    OD.dump("wordpiece_merges",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.wordpiece_merges_expected(sf_dir))
    merges, _ = _wordpiece_cached(sf_dir, fresh=True)
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64()),
    })


def q_wordpiece_encode(sf_dir: str) -> "ray.data.Dataset":
    """Tokenizer APPLY path, WordPiece family: BERT-style greedy
    longest-prefix match ('##' continuations, [UNK] fallback, 64-char
    guard) on a stateful actor pool — vocab (merges + corpus alphabet) is
    constructor state with a bounded per-actor word cache. Twin:
    single-process reference learn + alphabet + encode dump."""
    from ..functions.wordpiece import WordPieceEncoder

    from . import oracle_dump as OD

    OD.dump("wordpiece_encode",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.wordpiece_encode_expected(sf_dir))
    merges, alpha = _wordpiece_cached(sf_dir)
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        WordPieceEncoder,
        fn_constructor_kwargs={"merges": merges, "alphabet": alpha},
        batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)


# Oracle-dump twins (pipelines/oracle_dump.py): operators whose semantics are
# not SQL-expressible get a rows+schema+hash gate against a parquet table an
# INDEPENDENT single-process implementation writes when the query is invoked.
from . import oracle_dump as _OD  # noqa: E402 — after ORACLE_SQL is built

for _dump_name in ("langid", "bpe_merges", "bpe_encode",
                   "image_phash_pairs", "kmeans_clusters", "semdedup",
                   "bigram_surprisal", "dsir_logweight", "trigram_backoff",
                   "kn_trigram", "tokbin_roundtrip", "cdc_chunk_stats", "source_divergence", "audio_fp_pairs", "video_clip_pairs", "text_tiling",
                   "trainready_shards",
                   "pca_project",
                   "winnow_fingerprint", "minhash_pairs", "simhash_pairs",
                   "embedding_neardup_lsh", "image_features",
                   "codec_matrix",
                   "audio_features", "audio_spectral", "audio_mfcc",
                   "gif_framesample",
                   "image_edges",
                   "video_motion", "video_framesample",
                   "compression_ratio", "event_users_hll",
                   "price_quantiles_approx", "event_heavy_hitters",
                   "knn_ivf", "knn_pq", "knn_ivfpq", "pack_bfd",
                   "unigram_vocab", "unigram_encode",
                   "wordpiece_merges", "wordpiece_encode"):
    ORACLE_SQL[_dump_name] = _OD.sql_for(_dump_name)

# ppl_buckets composes ON the trigram dump: identical quantile_disc + CASE
# blocklist_filter: identical normalize + token-boundary LIKE chain,
# generated from the same _BLOCKLIST constant the Ray side compiles
_BL_LIKE = ["p LIKE '% " + " ".join(p.split()) + " %'" for p in _BLOCKLIST]
ORACLE_SQL["blocklist_filter"] = (
    "WITH n AS (SELECT doc_id, ' ' || regexp_replace(regexp_replace("
    "lower(text), '^\\s+|\\s+$', '', 'g'), '\\s+', ' ', 'g') || ' ' AS p"
    " FROM documents) SELECT doc_id, "
    "(CASE WHEN " + " OR ".join(_BL_LIKE) + " THEN 1 ELSE 0 END)::BIGINT"
    " AS blocked, (" +
    " + ".join("(" + c + ")::BIGINT" for c in _BL_LIKE) +
    ") AS n_matches, CASE " +
    " ".join("WHEN " + c + " THEN '" + p + "'"
             for c, p in zip(_BL_LIKE, _BLOCKLIST)) +
    " ELSE NULL END AS matched_phrase FROM n")

ORACLE_SQL["mixture_quota"] = r"""
    WITH c AS (SELECT source, count(*) AS n FROM documents
               GROUP BY source),
    t AS (SELECT CAST(sum(n) AS BIGINT) AS tot FROM c),
    q AS (SELECT source, n, (10000 * n) // tot AS base,
                 (10000 * n) % tot AS rem FROM c, t),
    r AS (SELECT *, row_number() OVER (ORDER BY rem DESC, source) AS rk
          FROM q),
    l AS (SELECT 10000 - CAST(sum(base) AS BIGINT) AS leftover FROM q)
    SELECT source, CAST(n AS BIGINT) AS n,
           CAST(base + CASE WHEN rk <= l.leftover THEN 1 ELSE 0 END
                AS BIGINT) AS quota
    FROM r, l"""

ORACLE_SQL["spatial_knn"] = r"""
    WITH p AS (SELECT vec_id,
                      CAST(FLOOR(1e6 * embedding[1] + 0.5) AS BIGINT) AS x,
                      CAST(FLOOR(1e6 * embedding[2] + 0.5) AS BIGINT) AS y
               FROM embeddings),
    e AS (SELECT a.vec_id AS pid, b.vec_id AS nid,
                 (a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y) AS d2
          FROM p a JOIN p b ON a.vec_id <> b.vec_id
          WHERE (a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y)
                <= 2500000000),
    r AS (SELECT pid, nid, d2,
                 row_number() OVER (PARTITION BY pid
                                    ORDER BY d2, nid) AS rank
          FROM e)
    SELECT pid, nid, rank, d2 FROM r WHERE rank <= 5"""

ORACLE_SQL["match_pattern"] = r"""
    WITH o AS (SELECT user_id, event_id, event_type AS t0,
                      lead(event_type, 1) OVER w AS t1,
                      lead(event_type, 2) OVER w AS t2
               FROM events
               WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
    SELECT user_id, event_id AS start_event FROM o
    WHERE t0 = 'view' AND t1 = 'click' AND t2 = 'purchase'"""

ORACLE_SQL["spatial_join"] = r"""
    WITH p AS (SELECT vec_id,
                      CAST(FLOOR(1e6 * embedding[1] + 0.5) AS BIGINT) AS x,
                      CAST(FLOOR(1e6 * embedding[2] + 0.5) AS BIGINT) AS y
               FROM embeddings)
    SELECT a.vec_id AS id_a, b.vec_id AS id_b,
           (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) AS d2
    FROM p a JOIN p b ON a.vec_id < b.vec_id
    WHERE (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
          <= 2500000000"""

ORACLE_SQL["ppl_buckets"] = f"""
    WITH s AS (SELECT * FROM
               read_parquet('{_OD.dump_path("trigram_backoff")}')),
    t AS (SELECT quantile_disc(mean_surp_micro, 1.0/3) AS q1,
                 quantile_disc(mean_surp_micro, 2.0/3) AS q2 FROM s)
    SELECT s.doc_id, s.mean_surp_micro,
      CASE WHEN s.mean_surp_micro <= t.q1 THEN 'head'
           WHEN s.mean_surp_micro <= t.q2 THEN 'middle'
           ELSE 'tail' END AS bucket
    FROM s, t"""


# ------------------------------------------------- line-level filter family
# (C4 / Gopher / Dolma line rules — functions/linefilters.py). The sandbox
# corpus has no newlines, so each query derives a DETERMINISTIC lined text
# from the token stream (3 tokens per line; the Gopher/C4 variant adds
# modulo-scheduled terminal punctuation, '- ' bullets and injected
# bad-content lines) and the DuckDB twin re-derives the identical lines
# logically — the hash gate verifies the line parse + filter, not a
# pass-through.

def q_gopher_rules(sf_dir: str) -> "ray.data.Dataset":
    """Gopher document-filter signals (Rae et al. 2021 §A1.1) over the
    decorated lined corpus: integer word/line/symbol counts + the ANDed
    keep verdict, one vectorized Arrow pass per batch
    (functions/linefilters.gopher_stats_batch)."""
    from ..functions.linefilters import gopher_stats_batch, lined_text_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(lambda b: lined_text_batch(b, decorate=True),
                     batch_format="pyarrow") \
        .map_batches(gopher_stats_batch, batch_format="pyarrow")


def q_c4_rules(sf_dir: str) -> "ray.data.Dataset":
    """C4 line filtering (Raffel et al. 2020 §2.2) over the decorated lined
    corpus: retain lines ending in terminal punctuation with >= 3 words,
    flag 'lorem ipsum' / '{' documents, and hash the retained text
    (functions/linefilters.c4_stats_batch)."""
    from ..functions.linefilters import c4_stats_batch, lined_text_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(lambda b: lined_text_batch(b, decorate=True),
                     batch_format="pyarrow") \
        .map_batches(c4_stats_batch, batch_format="pyarrow")


def q_line_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Cross-document duplicate-line removal (the Dolma/CCNet paragraph
    rule) over the UNdecorated lined corpus — 3-token lines collide across
    documents naturally, so the dup set is non-trivial. Two bucketed
    shuffles; see functions/linefilters.line_dedup."""
    from ..functions.linefilters import line_dedup, lined_text_batch

    return line_dedup(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lambda b: lined_text_batch(b, decorate=False),
                     batch_format="pyarrow"))


# shared twin CTEs: tokens -> decorated lines (mirrors lined_text_batch)
_LINED_SQL = r"""
    t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    base AS (
      SELECT doc_id, i AS idx,
        (CASE WHEN (doc_id * 3 + i) % 11 = 0 THEN '- ' ELSE '' END)
        || array_to_string(
             list_slice(toks, i * 3 + 1, least(len(toks), i * 3 + 3)), ' ')
        || (CASE (doc_id + i) % 7
              WHEN 0 THEN ' ...' WHEN 1 THEN '.' WHEN 2 THEN '.'
              WHEN 3 THEN '.' WHEN 4 THEN '!' WHEN 5 THEN '?'
              ELSE '' END) AS line
      FROM t, unnest(generate_series(0, (len(toks) - 1) // 3)) AS s(i)
      WHERE len(toks) > 0),
    inj AS (
      SELECT doc_id, (len(toks) + 2) // 3 AS idx,
             'lorem ipsum dolor' AS line
      FROM t WHERE len(toks) > 0 AND doc_id % 97 = 0
      UNION ALL
      SELECT doc_id,
             (len(toks) + 2) // 3
               + (CASE WHEN doc_id % 97 = 0 THEN 1 ELSE 0 END) AS idx,
             '{ }' AS line
      FROM t WHERE len(toks) > 0 AND doc_id % 89 = 0),
    ln AS (SELECT * FROM base UNION ALL SELECT * FROM inj)"""

ORACLE_SQL["gopher_rules"] = f"""
    WITH {_LINED_SQL},
    lt AS (
      SELECT doc_id, line,
        regexp_split_to_array(line, '\\s+') AS ltoks,
        (length(line) - length(replace(line, '...', ''))) // 3 AS n_ell
      FROM ln),
    agg AS (
      SELECT doc_id,
        count(*) AS n_lines,
        sum(len(ltoks)) AS n_tokens,
        sum(length(replace(line, ' ', ''))) AS sum_tok_chars,
        sum(len(list_filter(ltoks,
            x -> regexp_matches(x, '[A-Za-z]')))) AS n_alpha_tok,
        sum(len(list_filter(ltoks,
            x -> lower(regexp_replace(x, '[.!?]+$', '')) IN
                 ('the','be','to','of','and','that','have','with'))))
          AS n_stop8,
        sum(CASE WHEN line LIKE '- %' THEN 1 ELSE 0 END) AS n_bullet,
        sum(CASE WHEN line LIKE '%...' THEN 1 ELSE 0 END)
          AS n_ellipsis_end,
        sum(n_ell) AS n_ellipsis
      FROM lt GROUP BY doc_id)
    SELECT d.doc_id,
      coalesce(a.n_lines, 0)::BIGINT AS n_lines,
      coalesce(a.n_tokens, 0)::BIGINT AS n_tokens,
      coalesce(a.sum_tok_chars, 0)::BIGINT AS sum_tok_chars,
      coalesce(a.n_alpha_tok, 0)::BIGINT AS n_alpha_tok,
      coalesce(a.n_stop8, 0)::BIGINT AS n_stop8,
      coalesce(a.n_bullet, 0)::BIGINT AS n_bullet,
      coalesce(a.n_ellipsis_end, 0)::BIGINT AS n_ellipsis_end,
      coalesce(a.n_ellipsis, 0)::BIGINT AS n_ellipsis,
      (CASE WHEN coalesce(a.n_tokens, 0) BETWEEN 50 AND 100000
             AND coalesce(a.sum_tok_chars, 0) >= 3 * coalesce(a.n_tokens, 0)
             AND coalesce(a.sum_tok_chars, 0) <= 10 * coalesce(a.n_tokens, 0)
             AND 10 * coalesce(a.n_ellipsis, 0) <= coalesce(a.n_tokens, 0)
             AND 10 * coalesce(a.n_bullet, 0) <= 9 * coalesce(a.n_lines, 0)
             AND 10 * coalesce(a.n_ellipsis_end, 0)
                 <= 3 * coalesce(a.n_lines, 0)
             AND 5 * coalesce(a.n_alpha_tok, 0)
                 >= 4 * coalesce(a.n_tokens, 0)
             AND coalesce(a.n_stop8, 0) >= 2
        THEN 1 ELSE 0 END)::BIGINT AS keep
    FROM documents d LEFT JOIN agg a USING (doc_id)"""

ORACLE_SQL["c4_rules"] = f"""
    WITH {_LINED_SQL},
    lt AS (
      SELECT doc_id, idx, line,
             len(regexp_split_to_array(line, '\\s+')) AS ntok
      FROM ln),
    k AS (
      SELECT doc_id, idx, line FROM lt
      WHERE (line LIKE '%.' OR line LIKE '%!' OR line LIKE '%?')
        AND ntok >= 3),
    ka AS (
      SELECT doc_id, count(*) AS n_kept,
             md5(string_agg(line, chr(10) ORDER BY idx)) AS clean_md5
      FROM k GROUP BY doc_id),
    la AS (
      SELECT doc_id, count(*) AS n_lines,
             max(CASE WHEN line LIKE '%lorem ipsum%' THEN 1 ELSE 0 END)
               AS has_lorem,
             max(CASE WHEN contains(line, '{{') THEN 1 ELSE 0 END)
               AS has_brace
      FROM ln GROUP BY doc_id)
    SELECT d.doc_id,
      coalesce(la.n_lines, 0)::BIGINT AS n_lines,
      coalesce(ka.n_kept, 0)::BIGINT AS n_kept,
      coalesce(la.has_lorem, 0)::BIGINT AS has_lorem,
      coalesce(la.has_brace, 0)::BIGINT AS has_brace,
      (CASE WHEN coalesce(ka.n_kept, 0) >= 3
             AND coalesce(la.has_lorem, 0) = 0
             AND coalesce(la.has_brace, 0) = 0
        THEN 1 ELSE 0 END)::BIGINT AS keep_doc,
      coalesce(ka.clean_md5, md5('')) AS clean_md5
    FROM documents d
    LEFT JOIN ka USING (doc_id) LEFT JOIN la USING (doc_id)"""

ORACLE_SQL["line_dedup"] = r"""
    WITH t AS (
      SELECT doc_id,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
             THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')
        END AS toks
      FROM documents),
    ln AS (
      SELECT doc_id, i AS idx,
        array_to_string(
          list_slice(toks, i * 3 + 1, least(len(toks), i * 3 + 3)), ' ')
          AS line
      FROM t, unnest(generate_series(0, (len(toks) - 1) // 3)) AS s(i)
      WHERE len(toks) > 0),
    dup AS (
      SELECT line FROM ln GROUP BY line
      HAVING count(DISTINCT doc_id) >= 2),
    kept AS (
      SELECT doc_id, idx, line FROM ln
      WHERE line NOT IN (SELECT line FROM dup)),
    ka AS (
      SELECT doc_id, count(*) AS n_kept,
             md5(string_agg(line, chr(10) ORDER BY idx)) AS m
      FROM kept GROUP BY doc_id),
    la AS (SELECT doc_id, count(*) AS n_lines FROM ln GROUP BY doc_id)
    SELECT d.doc_id,
      coalesce(la.n_lines, 0)::BIGINT AS n_lines,
      (coalesce(la.n_lines, 0) - coalesce(ka.n_kept, 0))::BIGINT
        AS n_dropped,
      coalesce(ka.m, md5('')) AS clean_md5
    FROM documents d
    LEFT JOIN la USING (doc_id) LEFT JOIN ka USING (doc_id)"""


# ----------------------------------------------------- k-core decomposition

def q_kcore(sf_dir: str) -> "ray.data.Dataset":
    """k-core decomposition (k=15) of the undirected crawl link graph —
    the dense-community / link-spam signal computed after PageRank. Edges
    come from the SAME real HTML parse as q_link_graph; peeling is the
    fixed-round iterative filter in functions/graph.kcore (12 rounds;
    peeling is monotone, so the early-exit at fixpoint returns exactly the
    12-round answer). Exact DuckDB twin: the logical edge derivation + the
    SAME 12 peel rounds unrolled as chained CTEs (the PageRank
    fixed-iteration lesson)."""
    from ..functions.graph import kcore

    def edges(batch: pa.Table) -> pa.Table:
        srcs, dsts, _ = _parse_link_edges(batch)
        return pa.table({"doc_a": pa.array(srcs, pa.int64()),
                         "doc_b": pa.array(dsts, pa.int64())})

    return kcore(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(edges, batch_format="pyarrow"),
        k=15, max_rounds=12)


_KCORE_ROUND = """d{r} AS MATERIALIZED (
      SELECT node, count(*) AS deg FROM (
        SELECT lo AS node FROM e{p} UNION ALL SELECT hi FROM e{p})
      GROUP BY node),
    a{r} AS MATERIALIZED (SELECT node FROM d{r} WHERE deg >= {k}),
    e{r} AS MATERIALIZED (
      SELECT lo, hi FROM e{p}
      WHERE lo IN (SELECT node FROM a{r})
        AND hi IN (SELECT node FROM a{r}))"""


def _kcore_sql(pairs_sql: str, k: int = 15, rounds: int = 12) -> str:
    """Unrolled fixed-round k-core peel over a (doc_a, doc_b) pair query —
    the SQL twin of functions/graph.kcore."""
    return (
        "WITH pairs AS ({PAIRS}),\n"
        "e0 AS MATERIALIZED (SELECT DISTINCT least(doc_a, doc_b) AS lo,\n"
        "       greatest(doc_a, doc_b) AS hi FROM pairs\n"
        "       WHERE doc_a <> doc_b),\n"
        + ",\n".join(_KCORE_ROUND.format(r=i, p=i - 1, k=k)
                     for i in range(1, rounds + 1))
        + f"\nSELECT node::BIGINT AS node, count(*)::BIGINT AS deg FROM (\n"
          f"  SELECT lo AS node FROM e{rounds}"
          f"  UNION ALL SELECT hi FROM e{rounds})\n"
          f"GROUP BY node"
    ).replace("{PAIRS}", pairs_sql)


ORACLE_SQL["kcore"] = _kcore_sql(_LINK_EDGES_SQL, k=15, rounds=12)


def q_link_communities(sf_dir: str) -> "ray.data.Dataset":
    """Synchronous label-propagation communities (Raghavan et al. 2007,
    deterministic min-tie variant) over the same real-HTML-parse link
    graph as q_link_graph/q_kcore — the domain-cluster signal a crawl
    pipeline uses for per-community caps. Exactly 5 rounds; per round the
    label table (nodes, not edges) ships through two co-bucketed joins
    and a counted-message exchange (functions/graph.label_propagation).
    Exact DuckDB twin: the same 5 rounds unrolled as chained CTEs with
    row_number() picking the (count DESC, label ASC) winner."""
    from ..functions.graph import label_propagation

    def edges(batch: pa.Table) -> pa.Table:
        srcs, dsts, _ = _parse_link_edges(batch)
        return pa.table({"doc_a": pa.array(srcs, pa.int64()),
                         "doc_b": pa.array(dsts, pa.int64())})

    return label_propagation(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(edges, batch_format="pyarrow"),
        n_rounds=5)


_LPA_ROUND = """m{r} AS MATERIALIZED (
      SELECT e0.hi AS node, l.label FROM e0 JOIN l{p} l ON e0.lo = l.node
      UNION ALL
      SELECT e0.lo AS node, l.label FROM e0 JOIN l{p} l ON e0.hi = l.node),
    l{r} AS MATERIALIZED (
      SELECT node, label FROM (
        SELECT node, label, row_number() OVER (
          PARTITION BY node ORDER BY cnt DESC, label ASC) AS rn
        FROM (SELECT node, label, count(*) AS cnt FROM m{r}
              GROUP BY node, label))
      WHERE rn = 1)"""


def _lpa_sql(pairs_sql: str, rounds: int = 5) -> str:
    """Unrolled fixed-round synchronous LPA over a (doc_a, doc_b) pair
    query — the SQL twin of functions/graph.label_propagation."""
    return (
        "WITH pairs AS ({PAIRS}),\n"
        "e0 AS MATERIALIZED (SELECT DISTINCT least(doc_a, doc_b) AS lo,\n"
        "       greatest(doc_a, doc_b) AS hi FROM pairs\n"
        "       WHERE doc_a <> doc_b),\n"
        "l0 AS MATERIALIZED (SELECT node, node AS label FROM (\n"
        "       SELECT lo AS node FROM e0 UNION SELECT hi FROM e0)),\n"
        + ",\n".join(_LPA_ROUND.format(r=i, p=i - 1)
                     for i in range(1, rounds + 1))
        + f"\nSELECT node::BIGINT AS node, label::BIGINT AS label"
          f" FROM l{rounds}"
    ).replace("{PAIRS}", pairs_sql)


ORACLE_SQL["link_communities"] = _lpa_sql(_LINK_EDGES_SQL, rounds=5)


# ------------------------------------------------------------ JSONL source

def _jsonl_shard_dir(sf_dir: str) -> str:
    """JSONL shard-cache dir, content-fingerprinted like _warc_shard_dir."""
    import hashlib as _hl

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    fp = _hl.md5(f"{os.path.normpath(sf_dir)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode()).hexdigest()[:12]
    sfname = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join("/tmp/dpray_jsonl", f"{sfname}_{fp}")


def q_jsonl_ingest(sf_dir: str) -> "ray.data.Dataset":
    """JSONL ingestion round trip: the documents table is serialized to
    newline-delimited JSON shards once (deterministic, cached), read back
    with ray.data.read_json (one task per shard file), and rolled up per
    (source, lang) — count, schema n_chars sum, text-length sum and the
    MIN per-group md5 of the text itself, so the hash gate verifies that
    JSON encode + Arrow JSON parse preserved every document byte-exactly.
    Combiner-first: per-batch pyarrow group_by partials, ONE small shuffle
    on source. The DuckDB twin re-derives the aggregate logically from the
    parquet view (no JSONL on the oracle side)."""
    from ..sources.jsonl import read_jsonl, write_jsonl_shards

    shard_dir = write_jsonl_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _jsonl_shard_dir(sf_dir), num_shards=8)
    return _jsonl_rollup(read_jsonl(shard_dir))


def _jsonl_rollup(recs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-(source, lang) byte-exactness rollup shared by the plain and
    gzip JSONL ingestion gates (count, n_chars sum, text-length sum, MIN
    per-group text md5)."""
    import hashlib as _hl

    def partial(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        md5s = [_hl.md5((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        t = pa.table({
            "source": b["source"],
            "lang": b["lang"],
            "n_docs": pa.array(np.ones(len(texts), np.int64)),
            "sum_chars": pc.cast(b["n_chars"], pa.int64()),
            "sum_text_chars": pc.cast(
                pc.utf8_length(b["text"].combine_chunks()), pa.int64()),
            "text_md5": pa.array(md5s, pa.string())})
        return t.group_by(["source", "lang"]).aggregate(
            [("n_docs", "sum"), ("sum_chars", "sum"),
             ("sum_text_chars", "sum"), ("text_md5", "min")])

    def finish(g: pa.Table) -> pa.Table:
        m = g.group_by(["source", "lang"]).aggregate(
            [("n_docs_sum", "sum"), ("sum_chars_sum", "sum"),
             ("sum_text_chars_sum", "sum"), ("text_md5_min", "min")])
        return m.rename_columns(
            ["source", "lang", "n_docs", "sum_chars", "sum_text_chars",
             "min_text_md5"])

    return recs.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").map_groups(finish, batch_format="pyarrow")


ORACLE_SQL["jsonl_ingest"] = """
    SELECT source, lang, count(*)::BIGINT AS n_docs,
           sum(n_chars)::BIGINT AS sum_chars,
           sum(length(text))::BIGINT AS sum_text_chars,
           min(md5(text)) AS min_text_md5
    FROM documents GROUP BY source, lang"""


# -------------------------------------------------------------- CSV source

def _csv_shard_dir(sf_dir: str) -> str:
    import hashlib as _hl

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    fp = _hl.md5(f"{os.path.normpath(sf_dir)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode()).hexdigest()[:12]
    sfname = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join("/tmp/dpray_csv", f"{sfname}_{fp}")


def q_csv_ingest(sf_dir: str) -> "ray.data.Dataset":
    """CSV ingestion round trip: documents serialized to QUOTE_MINIMAL CSV
    shards once (deterministic, cached), read back with ray.data.read_csv
    (one pyarrow CSV task per shard, newlines_in_values honored), rolled
    up per lang with min/max per-group text md5 — the hash gate proves the
    CSV quoting round trip preserved every document byte-exactly. The
    DuckDB twin re-derives the aggregate logically from the parquet view."""
    from ..sources.csv_source import read_csv, write_csv_shards

    shard_dir = write_csv_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _csv_shard_dir(sf_dir), num_shards=8)
    return _csv_rollup(read_csv(shard_dir))


def _csv_rollup(recs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-lang byte-exactness rollup shared by the plain and gzip CSV
    ingestion gates (count, text-length sum, min/max per-group text md5)."""
    import hashlib as _hl

    def partial(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        md5s = [_hl.md5((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        t = pa.table({
            "lang": b["lang"],
            "n_docs": pa.array(np.ones(len(texts), np.int64)),
            "sum_text_chars": pc.cast(
                pc.utf8_length(b["text"].combine_chunks()), pa.int64()),
            "lo_md5": pa.array(md5s, pa.string()),
            "hi_md5": pa.array(md5s, pa.string())})
        return t.group_by(["lang"]).aggregate(
            [("n_docs", "sum"), ("sum_text_chars", "sum"),
             ("lo_md5", "min"), ("hi_md5", "max")])

    def finish(g: pa.Table) -> pa.Table:
        m = g.group_by(["lang"]).aggregate(
            [("n_docs_sum", "sum"), ("sum_text_chars_sum", "sum"),
             ("lo_md5_min", "min"), ("hi_md5_max", "max")])
        return m.rename_columns(
            ["lang", "n_docs", "sum_text_chars", "min_text_md5",
             "max_text_md5"])

    return recs.map_batches(partial, batch_format="pyarrow") \
        .groupby("lang").map_groups(finish, batch_format="pyarrow")


ORACLE_SQL["csv_ingest"] = """
    SELECT lang, count(*)::BIGINT AS n_docs,
           sum(length(text))::BIGINT AS sum_text_chars,
           min(md5(text)) AS min_text_md5,
           max(md5(text)) AS max_text_md5
    FROM documents GROUP BY lang"""


# ----------------------------------------------- WebDataset tar-shard source

def _wds_shard_dir(sf_dir: str) -> str:
    import hashlib as _hl

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    fp = _hl.md5(f"{os.path.normpath(sf_dir)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode()).hexdigest()[:12]
    sfname = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join("/tmp/dpray_wds", f"{sfname}_{fp}")


def q_wds_ingest(sf_dir: str) -> "ray.data.Dataset":
    """WebDataset tar-shard ingestion round trip: documents serialized to
    deterministic tar shards once (one {key}.txt + {key}.json member pair
    per sample, zeroed headers; cached), read back with one tarfile parse
    task per shard (sources/wds.py), rolled up per (source, lang) with the
    min/max per-group md5 of the text AND the sum of the JSON-carried
    n_chars — the hash gate proves both members of every sample survived
    the tar encode + parse byte-exactly. Combiner-first, ONE small
    shuffle. The DuckDB twin re-derives the aggregate logically from the
    parquet view (no tar on the oracle side)."""
    import hashlib as _hl

    from ..sources.wds import read_wds, write_wds_shards

    shard_dir = write_wds_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _wds_shard_dir(sf_dir), num_shards=8)
    recs = read_wds(shard_dir)

    def partial(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        md5s = [_hl.md5((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        t = pa.table({
            "source": b["source"],
            "lang": b["lang"],
            "n_docs": pa.array(np.ones(len(texts), np.int64)),
            "sum_meta_chars": pc.cast(b["n_chars"], pa.int64()),
            "sum_text_chars": pc.cast(
                pc.utf8_length(b["text"].combine_chunks()), pa.int64()),
            "lo_md5": pa.array(md5s, pa.string()),
            "hi_md5": pa.array(md5s, pa.string())})
        return t.group_by(["source", "lang"]).aggregate(
            [("n_docs", "sum"), ("sum_meta_chars", "sum"),
             ("sum_text_chars", "sum"), ("lo_md5", "min"),
             ("hi_md5", "max")])

    def finish(g: pa.Table) -> pa.Table:
        m = g.group_by(["source", "lang"]).aggregate(
            [("n_docs_sum", "sum"), ("sum_meta_chars_sum", "sum"),
             ("sum_text_chars_sum", "sum"), ("lo_md5_min", "min"),
             ("hi_md5_max", "max")])
        return m.rename_columns(
            ["source", "lang", "n_docs", "sum_meta_chars",
             "sum_text_chars", "min_text_md5", "max_text_md5"])

    return recs.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").map_groups(finish, batch_format="pyarrow")


ORACLE_SQL["wds_ingest"] = """
    SELECT source, lang, count(*)::BIGINT AS n_docs,
           sum(n_chars)::BIGINT AS sum_meta_chars,
           sum(length(text))::BIGINT AS sum_text_chars,
           min(md5(text)) AS min_text_md5,
           max(md5(text)) AS max_text_md5
    FROM documents GROUP BY source, lang"""


# --------------------------------------- interleaved multimodal packing

def q_interleaved_pack(sf_dir: str) -> "ray.data.Dataset":
    """Interleaved text+image sequence packing (functions/interleave.py):
    each doc's interleaved stream — text tokens with doc_id%4 atomic
    64-patch image blocks at deterministic boundaries — packs doc-atomically
    into 256-token sequences (text splits, images defer-and-pad). ZERO
    shuffle, vectorized lockstep walk across the batch. The dump twin is an
    explicit span-by-span simulation; the hash gate checks n_seqs /
    n_pad_tokens per doc, where padding depends on every boundary
    interaction in the walk."""
    from ..functions.interleave import interleaved_pack_batch
    from . import oracle_dump as OD

    OD.dump("interleaved_pack",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.interleaved_pack_expected(sf_dir))
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        interleaved_pack_batch, batch_format="pyarrow")


ORACLE_SQL["interleaved_pack"] = _OD.sql_for("interleaved_pack")


# -------------------------------------------------- domain mixture weights

def q_domain_mixture(sf_dir: str) -> "ray.data.Dataset":
    """Temperature-scaled domain sampling weights (the mixture step of
    multi-source training pipelines, alpha = 0.5): per source, token count
    via the shared whitespace tokenizer, then
    w_ppm = floor(1e6 * sqrt(n_tokens) / sum_over_sources(sqrt(n_tokens))).
    sqrt and division are IEEE-exact-rounded, so the floored ppm integers
    are bit-stable across numpy and DuckDB — an integer hash gate over a
    float computation. Combiner-first: per-batch token-count partials, one
    tiny groupby; the normalization constant is a one-row driver reduce
    broadcast into the final projection."""
    import math as _math

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def partial(b: pa.Table) -> pa.Table:
        from ..functions.textstats import _tokens_list

        split, empty = _tokens_list(b["text"].combine_chunks())
        n = pc.if_else(empty, pa.scalar(0, pa.int64()),
                       pc.cast(pc.list_value_length(split), pa.int64()))
        t = pa.table({
            "source": b["source"],
            "n_docs": pa.array(np.ones(b.num_rows, np.int64)),
            "n_tokens": n})
        return t.group_by(["source"]).aggregate(
            [("n_docs", "sum"), ("n_tokens", "sum")])

    def finish(g: pa.Table) -> pa.Table:
        m = g.group_by(["source"]).aggregate(
            [("n_docs_sum", "sum"), ("n_tokens_sum", "sum")])
        return m.rename_columns(["source", "n_docs", "n_tokens"])

    per_source = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").map_groups(finish, batch_format="pyarrow") \
        .materialize()  # tiny: one row per source

    # one-row reduce over the per-source rows only (bounded by the domain
    # cardinality). sqrt is quantized to micro-units BEFORE the sum so the
    # denominator is an integer — float summation order can never move a
    # floor by one ulp (sqrt and the 1e6 multiply are IEEE-exact-rounded,
    # hence bit-identical in numpy and DuckDB; everything after is int64).
    rows = per_source.take_all()
    denom = sum(int(_math.floor(_math.sqrt(r["n_tokens"]) * 1e6))
                for r in rows)

    def weight(b: pa.Table) -> pa.Table:
        nt = b["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
        s_micro = np.floor(np.sqrt(nt) * 1e6).astype(np.int64)
        w = (1_000_000 * s_micro) // denom
        return b.append_column("w_ppm", pa.array(w, pa.int64()))

    return per_source.map_batches(weight, batch_format="pyarrow")


ORACLE_SQL["domain_mixture"] = r"""
    WITH tok AS (
      SELECT source,
        CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = '' THEN 0
             ELSE len(regexp_split_to_array(
                    regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'))
        END AS n FROM documents),
    agg AS (
      SELECT source, count(*)::BIGINT AS n_docs,
             sum(n)::BIGINT AS n_tokens
      FROM tok GROUP BY source)
    , sm AS (
      SELECT source, n_docs, n_tokens,
             floor(sqrt(n_tokens) * 1e6)::BIGINT AS s_micro
      FROM agg)
    SELECT source, n_docs, n_tokens,
           ((1000000 * s_micro)
            // (SELECT sum(s_micro) FROM sm))::BIGINT AS w_ppm
    FROM sm"""


# --------------------------------------------------------- curriculum pack

def q_curriculum_pack(sf_dir: str) -> "ray.data.Dataset":
    """Curriculum-ordered sequence packing: docs sorted by the integer
    quality-classifier logit DESCENDING (best-first curriculum, doc_id
    tie-break) and concatenated into fixed 512-token bins — the layout an
    ordered-curriculum LM run trains on. The order key folds (logit,
    doc_id) into one int64 so pack_sequences' range partition applies
    unchanged; everything is integer arithmetic, so the twin replays the
    identical key in SQL window functions."""
    from ..functions.window import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        T.quality_stats_batch, batch_format="pyarrow")

    def key(b: pa.Table) -> pa.Table:
        n_chars = b["n_chars"].to_numpy(zero_copy_only=False)
        n_tokens = b["n_tokens"].to_numpy(zero_copy_only=False)
        n_alpha = b["n_alpha"].to_numpy(zero_copy_only=False)
        n_stop = b["n_stop"].to_numpy(zero_copy_only=False)
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        alpha_milli = (1000 * n_alpha) // np.maximum(n_chars, 1)
        stop_milli = (1000 * n_stop) // np.maximum(n_tokens, 1)
        logit = (800 * alpha_milli + 1200 * stop_milli
                 + 500 * np.minimum(n_tokens, 512) - 600000).astype(np.int64)
        ok = (2_000_000 - logit) * 10_000_000 + doc_id
        return pa.table({
            "doc_id": pa.array(doc_id, pa.int64()),
            "n_tokens": pc.cast(b["n_tokens"], pa.int64()),
            "order_key": pa.array(ok, pa.int64())})

    return pack_sequences(
        ds.map_batches(key, batch_format="pyarrow"),
        n_col="n_tokens", order_col="order_key", bin_size=512,
        carry_cols=["doc_id"]).drop_columns(["order_key"])


ORACLE_SQL["curriculum_pack"] = r"""
    WITH t AS (
      SELECT doc_id, text,
             regexp_replace(text, '^\s+|\s+$', '', 'g') AS tt
      FROM documents),
    tok AS (
      SELECT doc_id, text,
        CASE WHEN tt = '' THEN CAST([] AS VARCHAR[])
             ELSE regexp_split_to_array(tt, '\s+') END AS toks
      FROM t),
    q AS (
      SELECT doc_id, len(toks)::BIGINT AS n,
        (800 * ((1000 * length(regexp_replace(text, '[^A-Za-z]', '', 'g')))
                // greatest(length(text), 1))
         + 1200 * ((1000 * len(list_filter(toks, x -> list_contains(
             ['the','a','an','and','or','of','to','in','is','it','for',
              'on','with','as','at','by','be','this','that'], lower(x)))))
                // greatest(len(toks), 1))
         + 500 * least(len(toks), 512) - 600000)::BIGINT AS logit
      FROM tok),
    c AS (
      SELECT doc_id, n,
        (sum(n) OVER (
           ORDER BY (2000000 - logit) * 10000000 + doc_id) - n)::BIGINT
          AS before
      FROM q),
    b AS (
      SELECT doc_id, n, before,
             unnest(generate_series(before // 512,
                                    (before + n - 1) // 512)) AS bin_id
      FROM c WHERE n > 0)
    SELECT doc_id, bin_id::BIGINT AS bin_id,
           greatest(0, bin_id * 512 - before)::BIGINT AS tok_start,
           least(n, (bin_id + 1) * 512 - before)::BIGINT AS tok_end
    FROM b"""


# ------------------------------------------------- FineWeb-style pipeline

def q_corpus_fineweb(sf_dir: str) -> "ray.data.Dataset":
    """The FineWeb recipe (Penedo et al. 2024) composed end-to-end from
    this engine's own gated operators: Gopher document rules AND C4 line
    rules (both verdicts computed in ONE vectorized pass over the lined
    corpus — zero shuffle), then the exact-dedup keep-list semi-join, then
    CCNet's perplexity-tercile tail drop (trigram stupid-backoff LM fit on
    the lang='en' slice). Survivor doc_ids only; every stage is the same
    operator the standalone queries gate, and the twin composes the same
    four SQL twins, so the full pipeline is hash-verified as one unit."""
    from ..functions.joins import semi_join
    from ..functions.linefilters import (c4_stats_batch, gopher_stats_batch,
                                         lined_text_batch)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()  # metadata-only

    def both_gates(b: pa.Table) -> pa.Table:
        lined = lined_text_batch(b, decorate=True)
        g = gopher_stats_batch(lined)
        c = c4_stats_batch(lined)
        keep = (g["keep"].to_numpy(zero_copy_only=False) == 1) \
            & (c["keep_doc"].to_numpy(zero_copy_only=False) == 1)
        return pa.table({"doc_id": pc.cast(g["doc_id"], pa.int64())}) \
            .filter(pa.array(keep))

    q_schema = pa.schema([("doc_id", pa.int64())])
    quality = docs.map_batches(both_gates, batch_format="pyarrow")

    exact_keep = D.exact_dedup(docs).select_columns(["keep_id"])
    surv = semi_join(quality, exact_keep, left_on="doc_id",
                     keep_on="keep_id", size_hint=n_docs,
                     left_schema=q_schema)

    def rename_ppl(b: pa.Table) -> pa.Table:
        return pa.table({"ppl_id": pc.cast(b["doc_id"], pa.int64())})

    nontail = q_ppl_buckets(sf_dir) \
        .filter(expr="bucket != 'tail'") \
        .select_columns(["doc_id"]) \
        .map_batches(rename_ppl, batch_format="pyarrow")
    return semi_join(surv, nontail, left_on="doc_id", keep_on="ppl_id",
                     size_hint=n_docs, left_schema=q_schema)


ORACLE_SQL["corpus_fineweb"] = f"""
    SELECT d.doc_id FROM documents d
    WHERE d.doc_id IN (SELECT doc_id FROM ({ORACLE_SQL["gopher_rules"]}) g
                       WHERE g.keep = 1)
      AND d.doc_id IN (SELECT doc_id FROM ({ORACLE_SQL["c4_rules"]}) c
                       WHERE c.keep_doc = 1)
      AND d.doc_id IN (SELECT min(doc_id) FROM documents GROUP BY text)
      AND d.doc_id IN (SELECT doc_id FROM ({ORACLE_SQL["ppl_buckets"]}) p
                       WHERE p.bucket != 'tail')"""


# corpus_dolma: blocklist SQL + the two dump tables + identical
# quantile_disc cut, composed as one hash-gated unit
ORACLE_SQL["corpus_dolma"] = f"""
    SELECT d.doc_id FROM documents d
    WHERE d.doc_id IN (SELECT doc_id FROM ({ORACLE_SQL["blocklist_filter"]}) b
                       WHERE b.blocked = 0)
      AND d.doc_id IN (SELECT doc_id FROM
                       read_parquet('{_OD.dump_path("cdc_chunk_stats")}') c
                       WHERE 2 * c.n_dup_chunks <= c.n_chunks)
      AND d.doc_id IN (
        WITH s AS (SELECT * FROM
                   read_parquet('{_OD.dump_path("kn_trigram")}')),
        t AS (SELECT quantile_disc(mean_kn_micro, 2.0/3) AS q2 FROM s)
        SELECT s.doc_id FROM s, t WHERE s.mean_kn_micro <= t.q2)"""


def q_ks_lang_length(sf_dir: str) -> "ray.data.Dataset":
    """Pairwise two-sample KS distance between every language pair's
    doc-length distribution (agg.ks_pairs) — the numeric-column drift
    monitor next to source_divergence's token-level JS. Micro-quantized
    ECDF sup-distance: both sides evaluate the identical
    floor(1e6*cum/n) integer formula on the union value grid, so the
    EXACT SQL twin hash-matches bit-for-bit."""
    from ..functions.agg import ks_pairs

    return ks_pairs(_read(sf_dir, "documents", ["lang", "n_chars"]),
                    "lang", "n_chars")


ORACLE_SQL["ks_lang_length"] = """
    WITH cells AS (SELECT lang AS g, n_chars AS v,
                          CAST(count(*) AS BIGINT) AS c
                   FROM documents GROUP BY 1, 2),
    grid AS (SELECT DISTINCT v FROM cells),
    tot AS (SELECT g, CAST(sum(c) AS BIGINT) AS n FROM cells GROUP BY g),
    f AS (SELECT t.g, t.n, gr.v,
                 CAST((1000000 * sum(COALESCE(c.c, 0))
                       OVER (PARTITION BY t.g ORDER BY gr.v)) // t.n
                      AS BIGINT) AS fm
          FROM tot t CROSS JOIN grid gr
          LEFT JOIN cells c ON c.g = t.g AND c.v = gr.v)
    SELECT a.g AS g_a, b.g AS g_b,
           CAST(max(a.n) AS BIGINT) AS n_a,
           CAST(max(b.n) AS BIGINT) AS n_b,
           CAST(max(abs(a.fm - b.fm)) AS BIGINT) AS d_micro
    FROM f a JOIN f b ON a.v = b.v AND a.g < b.g
    GROUP BY a.g, b.g"""


def q_chi2_lang_source(sf_dir: str) -> "ray.data.Dataset":
    """Chi-square association between lang and source (agg.chi2_assoc) —
    the categorical-balance audit (is language independent of source?).
    Integer-exact: per cell of the FULL category cross product,
    floor(1e6*(N*o - r*c)^2 / (r*c*N)) summed; engine uses unbounded
    Python ints over the tiny cell table, the twin HUGEINT."""
    from ..functions.agg import chi2_assoc

    return chi2_assoc(_read(sf_dir, "documents", ["lang", "source"]),
                      "lang", "source")


ORACLE_SQL["chi2_lang_source"] = """
    WITH cells AS (SELECT lang AS a, source AS b,
                          CAST(count(*) AS HUGEINT) AS o
                   FROM documents GROUP BY 1, 2),
    ra AS (SELECT a, sum(o) AS r FROM cells GROUP BY a),
    cb AS (SELECT b, sum(o) AS c FROM cells GROUP BY b),
    nn AS (SELECT sum(o) AS n FROM cells),
    grid AS (SELECT ra.a, ra.r, cb.b, cb.c FROM ra CROSS JOIN cb),
    fl AS (SELECT g.a, g.b, g.r, g.c, COALESCE(cl.o, 0) AS o
           FROM grid g LEFT JOIN cells cl ON cl.a = g.a AND cl.b = g.b),
    contrib AS (SELECT (1000000::HUGEINT * (nn.n * o - r * c)
                        * (nn.n * o - r * c)) // (r * c * nn.n) AS cm
                FROM fl, nn)
    SELECT CAST((SELECT sum(cm) FROM contrib) AS BIGINT) AS chi2_micro,
           CAST((SELECT (count(DISTINCT a) - 1) * (count(DISTINCT b) - 1)
                 FROM cells) AS BIGINT) AS dof,
           CAST((SELECT n FROM nn) AS BIGINT) AS n"""


def q_substring_prune(sf_dir: str) -> "ray.data.Dataset":
    """Duplicate-span REMOVAL (Lee et al. 2022's ExactSubstr delete step;
    substring_dedup only counts): contamination.substring_prune — dup
    window-hash sets bounce back to their documents through doc-bucketed
    exchanges (nothing broadcast), spans merge and excise on UTF-8 char
    boundaries. Oracle-DUMP twin: dict replay through the shared
    _window_hashes/_excise kernels."""
    from ..functions.contamination import substring_prune
    from . import oracle_dump as OD

    OD.dump("substring_prune",
            OD.file_fingerprint(os.path.join(sf_dir, "documents.parquet")),
            lambda: OD.substring_prune_expected(sf_dir))
    return substring_prune(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=40)


ORACLE_SQL["substring_prune"] = _OD.sql_for("substring_prune")


def q_mwu_lang_length(sf_dir: str) -> "ray.data.Dataset":
    """Pairwise Mann-Whitney U (midrank ties, DOUBLED so integer-exact)
    between every language pair's doc-length distribution
    (agg.mannwhitney_pairs) — location-shift test next to
    ks_lang_length's shape test. EXACT SQL twin: the identical
    sum(cnt_a * (2*cum_b - cnt_b)) over the union grid."""
    from ..functions.agg import mannwhitney_pairs

    return mannwhitney_pairs(
        _read(sf_dir, "documents", ["lang", "n_chars"]), "lang", "n_chars")


ORACLE_SQL["mwu_lang_length"] = """
    WITH cells AS (SELECT lang AS g, n_chars AS v,
                          CAST(count(*) AS BIGINT) AS c
                   FROM documents GROUP BY 1, 2),
    grid AS (SELECT DISTINCT v FROM cells),
    tot AS (SELECT g, CAST(sum(c) AS BIGINT) AS n FROM cells GROUP BY g),
    f AS (SELECT t.g, t.n, gr.v,
                 CAST(COALESCE(c.c, 0) AS BIGINT) AS c,
                 CAST(sum(COALESCE(c.c, 0))
                      OVER (PARTITION BY t.g ORDER BY gr.v) AS BIGINT) AS cm
          FROM tot t CROSS JOIN grid gr
          LEFT JOIN cells c ON c.g = t.g AND c.v = gr.v)
    SELECT a.g AS g_a, b.g AS g_b,
           CAST(max(a.n) AS BIGINT) AS n_a,
           CAST(max(b.n) AS BIGINT) AS n_b,
           CAST(sum(a.c * (2 * b.cm - b.c)) AS BIGINT) AS u2_a
    FROM f a JOIN f b ON a.v = b.v AND a.g < b.g
    GROUP BY a.g, b.g"""


def q_knn_recall(sf_dir: str) -> "ray.data.Dataset":
    """ANN index-quality audit: recall@10 of the partition-pruned IVF-flat
    path against the exact brute-force neighbors, per query — the
    operational health check a 100-TB ANN deployment runs after every
    index build (is nprobe/n_lists still adequate as the corpus drifts?).
    Both legs run their full distributed paths (pruned probe reads;
    broadcast query matrix); the recall join touches only Q*k rows. Twin:
    the knn_bruteforce EXACT SQL joined against the hash-gated knn_ivf
    dump — so this gate also cross-checks the two ANN gates against each
    other."""
    bf = q_knn_bruteforce(sf_dir)
    ivf = q_knn_ivf(sf_dir)
    bf_rows = bf.to_pylist() if isinstance(bf, pa.Table) else bf.take_all()
    ivf_rows = (ivf.to_pylist() if isinstance(ivf, pa.Table)
                else ivf.take_all())
    bf_sets: Dict[int, set] = {}
    for r in bf_rows:
        bf_sets.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    ivf_sets: Dict[int, set] = {}
    for r in ivf_rows:
        ivf_sets.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    k = 10
    qids = sorted(bf_sets)
    n_match = [len(bf_sets[q] & ivf_sets.get(q, set())) for q in qids]
    return ray.data.from_arrow(pa.table({
        "qid": pa.array(qids, pa.int64()),
        "n_match": pa.array(n_match, pa.int64()),
        "recall_micro": pa.array(
            [(1_000_000 * m) // k for m in n_match], pa.int64()),
    }))


ORACLE_SQL["knn_recall"] = f"""
    WITH bf AS ({ORACLE_SQL["knn_bruteforce"]}),
    ivf AS (SELECT * FROM read_parquet('{_OD.dump_path("knn_ivf")}'))
    SELECT bf.qid AS qid,
           CAST(count(ivf.vec_id) AS BIGINT) AS n_match,
           CAST((1000000 * count(ivf.vec_id)) // 10 AS BIGINT)
               AS recall_micro
    FROM bf LEFT JOIN ivf ON ivf.qid = bf.qid AND ivf.vec_id = bf.vec_id
    GROUP BY bf.qid"""


def q_jsonl_gz_ingest(sf_dir: str) -> "ray.data.Dataset":
    """Gzip-compressed JSONL ingestion (the Common Crawl / Dolma shard
    reality): deterministic .jsonl.gz shards (gzip mtime=0 so bytes are
    reproducible), read back via Arrow's gzip input stream INSIDE the read
    tasks (sources/jsonl.py:read_jsonl — decompression never touches the
    driver), same per-(source, lang) byte-exactness rollup and the same
    logical DuckDB twin as jsonl_ingest."""
    from ..sources.jsonl import read_jsonl, write_jsonl_shards

    shard_dir = write_jsonl_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _jsonl_shard_dir(sf_dir) + "_gz", num_shards=8, compress="gzip")
    return _jsonl_rollup(read_jsonl(shard_dir))


ORACLE_SQL["jsonl_gz_ingest"] = ORACLE_SQL["jsonl_ingest"]


def q_csv_gz_ingest(sf_dir: str) -> "ray.data.Dataset":
    """Gzip-compressed CSV ingestion: deterministic .csv.gz shards (gzip
    mtime=0), decompressed inside the pyarrow CSV read tasks
    (sources/csv_source.py:read_csv), same per-lang byte-exactness rollup
    and the same logical DuckDB twin as csv_ingest."""
    from ..sources.csv_source import read_csv, write_csv_shards

    shard_dir = write_csv_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _csv_shard_dir(sf_dir) + "_gz", num_shards=8, compress="gzip")
    return _csv_rollup(read_csv(shard_dir))


ORACLE_SQL["csv_gz_ingest"] = ORACLE_SQL["csv_ingest"]


def q_jsonl_zst_ingest(sf_dir: str) -> "ray.data.Dataset":
    """Zstandard-compressed JSONL ingestion (the modern interchange
    compression — RedPajama/Dolma ship .jsonl.zst): deterministic
    one-shot-frame shards via Arrow's zstd codec, decompressed inside the
    read tasks, same rollup and twin as jsonl_ingest."""
    from ..sources.jsonl import read_jsonl, write_jsonl_shards

    shard_dir = write_jsonl_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _jsonl_shard_dir(sf_dir) + "_zst", num_shards=8, compress="zstd")
    return _jsonl_rollup(read_jsonl(shard_dir))


ORACLE_SQL["jsonl_zst_ingest"] = ORACLE_SQL["jsonl_ingest"]


def _columnar_shard_dir(sf_dir: str, fmt: str) -> str:
    src = os.path.join(sf_dir, "documents.parquet")
    sfname = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join(f"/tmp/dpray_{fmt}",
                        f"{sfname}_{_dir_key(src, version=fmt + '-v1')}")


def q_orc_ingest(sf_dir: str) -> "ray.data.Dataset":
    """ORC ingestion round trip (the warehouse interchange format):
    documents serialized once to ORC shards (pyarrow.orc), decoded back
    DISTRIBUTED — one read_binary_files block per shard, ORC parse inside
    the read task (sources/columnar.py) — and rolled up per lang with
    min/max per-group text md5. The hash gate proves the ORC encode +
    distributed-decode round trip preserved every document byte-exactly;
    the DuckDB twin re-derives the rollup logically from the parquet
    view (same twin as csv_ingest)."""
    from ..sources.columnar import read_orc, write_orc_shards

    shard_dir = write_orc_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _columnar_shard_dir(sf_dir, "orc"), num_shards=8)
    return _csv_rollup(read_orc(shard_dir))


ORACLE_SQL["orc_ingest"] = ORACLE_SQL["csv_ingest"]


def q_ipc_ingest(sf_dir: str) -> "ray.data.Dataset":
    """Arrow IPC / Feather V2 ingestion round trip (the Arrow-native
    interchange format, zstd-compressed record batches): deterministic
    .arrow shards decoded distributed via pa.ipc.open_file inside the
    read tasks, same rollup and twin as orc_ingest/csv_ingest."""
    from ..sources.columnar import read_ipc, write_ipc_shards

    shard_dir = write_ipc_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _columnar_shard_dir(sf_dir, "ipc"), num_shards=8)
    return _csv_rollup(read_ipc(shard_dir))


ORACLE_SQL["ipc_ingest"] = ORACLE_SQL["csv_ingest"]


def q_copurchase_pairs(sf_dir: str) -> "ray.data.Dataset":
    """Market-basket frequent item pairs with lift (A-Priori k=2,
    functions/itemsets.frequent_pairs): parts co-occurring in >= 2 orders,
    support + floor(1e6*N*supp(a,b)/(supp(a)*supp(b))). One basket
    exchange generates pairs with per-bucket pre-aggregation; item
    supports and the basket count ride the same kernel as sentinel rows;
    lift resolves via two hash_join exchanges (item vocabulary never
    broadcast). EXACT SQL twin: distinct self-join + HUGEINT lift."""
    from ..functions.itemsets import frequent_pairs

    n_rows = _read(sf_dir, "lineitem", ["l_orderkey"]).count()  # metadata
    return frequent_pairs(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        group_col="l_orderkey", item_col="l_partkey", min_support=2,
        size_hint=n_rows)


def q_regr_price_qty(sf_dir: str) -> "ray.data.Dataset":
    """Grouped OLS regression (price ~ quantity per (l_returnflag,
    l_linestatus)) as a CONSUMER of the distributed comoment sums
    (q_grouped_comoments): slope = (n*Sxy - Sx*Sy)/(n*Sxx - Sx^2) and
    intercept = (Sy*D - N*Sx)/(n*D) evaluated in unbounded Python ints
    over the tiny merged cell table (one row per group), quantized with
    TRUNCATING division to match DuckDB's HUGEINT `//`. The heavy work —
    one pass + one bounded-cell exchange — is the already-gated comoment
    plan; regression adds zero additional shuffles."""
    cm = q_grouped_comoments(sf_dir)

    def tdiv(n: int, d: int) -> int:
        s = -1 if (n < 0) != (d < 0) else 1
        return s * (abs(n) // abs(d))

    def fit(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        out = []
        for r in rows:
            n, sx, sy = r["n_rows"], r["sum_x"], r["sum_y"]
            sxx, sxy = r["sum_xx"], r["sum_xy"]
            num = n * sxy - sx * sy
            den = n * sxx - sx * sx
            out.append({
                "l_returnflag": r["l_returnflag"],
                "l_linestatus": r["l_linestatus"],
                "n_rows": n,
                "slope_micro": tdiv(1_000_000 * num, den),
                "icept_micro": tdiv(1_000_000 * (sy * den - num * sx),
                                    n * den)})
        return pa.Table.from_pylist(out)

    # repartition(1): the cell table is one row per group — the
    # trivial-gather discipline (no groupby Sort for bounded payloads)
    return cm.repartition(1).map_batches(fit, batch_format="pyarrow",
                                         batch_size=None)


ORACLE_SQL["regr_price_qty"] = """
    WITH s AS (
      SELECT l_returnflag, l_linestatus,
             count(*)::HUGEINT AS n,
             sum(CAST(floor(l_quantity + 0.5) AS HUGEINT)) AS sx,
             sum(CAST(floor(l_extendedprice + 0.5) AS HUGEINT)) AS sy,
             sum(CAST(floor(l_quantity + 0.5) AS HUGEINT)
                 * CAST(floor(l_quantity + 0.5) AS HUGEINT)) AS sxx,
             sum(CAST(floor(l_quantity + 0.5) AS HUGEINT)
                 * CAST(floor(l_extendedprice + 0.5) AS HUGEINT)) AS sxy
      FROM lineitem GROUP BY 1, 2)
    SELECT l_returnflag, l_linestatus, CAST(n AS BIGINT) AS n_rows,
           CAST((1000000 * (n*sxy - sx*sy)) // (n*sxx - sx*sx) AS BIGINT)
               AS slope_micro,
           CAST((1000000 * (sy*(n*sxx - sx*sx) - (n*sxy - sx*sy)*sx))
                // (n * (n*sxx - sx*sx)) AS BIGINT) AS icept_micro
    FROM s"""


def q_acf_daily_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Autocorrelation of the daily revenue series at lags 1..7 (the
    seasonality probe a forecasting user runs before picking a model).
    The heavy pass is distributed: orders stream through a per-batch
    (day, cents) partial then ONE bucketed exchange merges daily cells —
    bounded by the calendar span, never by row count. The ACF itself is
    bounded-payload math over those cells (trivial-gather discipline:
    repartition(1), unbounded Python ints): with S = sum(x), n = days,
    dev_t = n*x_t - S,  acf_micro(k) = trunc(1e6 * sum_t dev_t*dev_{t+k}
    / sum_t dev_t^2) — integer-exact, no rational mean ever computed.
    Lag alignment is over the ordered sequence of PRESENT days. EXACT
    SQL twin via HUGEINT deviations + row_number self-join."""
    from ..functions.agg import bucketed_group_sum

    def partial(b: pa.Table) -> pa.Table:
        day = (b["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        t = pa.table({
            "day": pa.array(day, pa.int64()),
            "rev": pa.array(_cents(
                b["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.int64())})
        g = t.group_by("day").aggregate([("rev", "sum")])
        return pa.table({"day": g["day"],
                         "rev": pc.cast(g["rev_sum"], pa.int64())})

    daily = bucketed_group_sum(
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        key="day", cols=["rev"])

    def acf(t: pa.Table) -> pa.Table:
        rows = sorted(zip(t["day"].to_pylist(), t["rev"].to_pylist()))
        x = [int(r) for _, r in rows]
        n, s = len(x), sum(int(v) for v in x)
        dev = [n * v - s for v in x]
        den = sum(d * d for d in dev)
        out = []
        for k in range(1, 8):
            num = sum(dev[i] * dev[i + k] for i in range(n - k))
            sg = -1 if (num < 0) != (den < 0) else 1
            out.append({"lag": k,
                        "acf_micro": sg * (abs(1_000_000 * num)
                                           // abs(den))})
        return pa.Table.from_pylist(out, schema=pa.schema(
            [("lag", pa.int64()), ("acf_micro", pa.int64())]))

    return daily.repartition(1).map_batches(acf, batch_format="pyarrow",
                                            batch_size=None)


ORACLE_SQL["acf_daily_revenue"] = """
    WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                      sum(CAST(round(o_totalprice * 100) AS HUGEINT))
                          AS rev
               FROM orders GROUP BY 1),
    p AS (SELECT count(*)::HUGEINT AS n, sum(rev) AS s FROM d),
    r AS (SELECT row_number() OVER (ORDER BY day) AS rk,
                 (SELECT n FROM p) * rev - (SELECT s FROM p) AS dev
          FROM d),
    den AS (SELECT sum(dev * dev) AS dd FROM r),
    lags AS (SELECT l.lag, sum(a.dev * b.dev) AS num
             FROM (VALUES (1),(2),(3),(4),(5),(6),(7)) l(lag)
             JOIN r a ON TRUE
             JOIN r b ON b.rk = a.rk + l.lag
             GROUP BY 1)
    SELECT CAST(lag AS BIGINT) AS lag,
           CAST((1000000 * num) // (SELECT dd FROM den) AS BIGINT)
               AS acf_micro
    FROM lags"""


ORACLE_SQL["copurchase_pairs"] = """
    WITH items AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    prs AS (SELECT a.l_partkey AS part_a, b.l_partkey AS part_b
            FROM items a JOIN items b
              ON a.l_orderkey = b.l_orderkey
             AND b.l_partkey > a.l_partkey),
    pcnt AS (SELECT part_a, part_b, count(*)::BIGINT AS support
             FROM prs GROUP BY 1, 2),
    icnt AS (SELECT l_partkey, count(*)::BIGINT AS cnt
             FROM items GROUP BY 1),
    nb AS (SELECT count(DISTINCT l_orderkey)::HUGEINT AS n FROM items)
    SELECT p.part_a, p.part_b, p.support,
           CAST((nb.n * p.support * 1000000)
                // (ia.cnt::HUGEINT * ib.cnt::HUGEINT) AS BIGINT)
               AS lift_micro
    FROM pcnt p, nb
    JOIN icnt ia ON ia.l_partkey = p.part_a
    JOIN icnt ib ON ib.l_partkey = p.part_b
    WHERE p.support >= 2"""


def q_skyline_lineitem(sf_dir: str) -> "ray.data.Dataset":
    """2D skyline (Pareto front) over lineitem: line items not dominated
    under (maximize price_cents, minimize disc_pct) — the multi-criteria
    'best rows' operator (agg.skyline_2d). Distributed as
    local-front-then-front-of-fronts (dominance transitivity), so the
    gather is bounded by front sizes, never rows. EXACT SQL twin via the
    per-price-group min-discount + reverse running-min formulation
    (O(n log n), no NOT EXISTS all-pairs)."""
    from ..functions.agg import skyline_2d

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice",
                "l_discount"])

    def to_int(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "l_linenumber": pc.cast(b["l_linenumber"], pa.int64()),
            "price_cents": pa.array(_cents(
                b["l_extendedprice"].to_numpy(zero_copy_only=False)),
                pa.int64()),
            "disc_pct": pa.array(_cents(
                b["l_discount"].to_numpy(zero_copy_only=False)) // 1,
                pa.int64()),
        })

    return skyline_2d(ds.map_batches(to_int, batch_format="pyarrow",
                                      batch_size=None),
                      max_col="price_cents", min_col="disc_pct",
                      keep_cols=["l_orderkey", "l_linenumber"])


ORACLE_SQL["skyline_lineitem"] = """
    WITH t AS (SELECT l_orderkey, CAST(l_linenumber AS BIGINT)
                          AS l_linenumber,
                      CAST(round(l_extendedprice * 100) AS BIGINT)
                          AS price_cents,
                      CAST(round(l_discount * 100) AS BIGINT) AS disc_pct
               FROM lineitem),
    cells AS (SELECT price_cents, min(disc_pct) AS dmin
              FROM t GROUP BY price_cents),
    f AS (SELECT price_cents, dmin,
                 min(dmin) OVER (ORDER BY price_cents DESC
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING) AS best_higher
          FROM cells),
    front AS (SELECT price_cents, dmin FROM f
              WHERE best_higher IS NULL OR dmin < best_higher)
    SELECT t.l_orderkey, t.l_linenumber, t.price_cents, t.disc_pct
    FROM t JOIN front ON t.price_cents = front.price_cents
                     AND t.disc_pct = front.dmin"""


def q_snm_customer_pairs(sf_dir: str) -> "ray.data.Dataset":
    """Sorted-neighborhood entity-resolution pairs over customer names
    (functions/fuzzy.snm_pairs): distinct names ranked in sorted order
    (sample-sort global_rank, no global sort), rank-range buckets with a
    window-row overlap (each pair owned exactly once by its min rank),
    banded-DP Levenshtein <= 3 inside windows of 3. The complementary
    blocking to fuzzy_name_pairs' length blocks. EXACT SQL twin:
    row_number + rank-distance self-join + levenshtein."""
    from ..functions.fuzzy import snm_pairs

    return snm_pairs(_read(sf_dir, "customer", ["c_name"]), "c_name",
                     window=3, max_dist=3)


ORACLE_SQL["snm_customer_pairs"] = """
    WITH d AS (SELECT DISTINCT c_name FROM customer),
    r AS (SELECT c_name, row_number() OVER (ORDER BY c_name) AS rk FROM d)
    SELECT a.c_name AS name_a, b.c_name AS name_b,
           CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist
    FROM r a JOIN r b ON b.rk > a.rk AND b.rk <= a.rk + 3
    WHERE levenshtein(a.c_name, b.c_name) <= 3"""


def q_view_purchase_band(sf_dir: str) -> "ray.data.Dataset":
    """Big-big temporal band join (temporal.band_join): every (view,
    purchase) pair by the same user within 10 minutes of each other —
    both sides are event-scale tables, so neither can broadcast
    (range_join_broadcast's documented limit); time quantizes to
    band-wide cells, right side replicates x3, pairs form exactly once in
    the left row's home cell. EXACT SQL twin: equi-join on user + abs
    time-difference band."""
    from ..functions.temporal import band_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def prep(kind: str, out_id: str):
        def f(b: pa.Table) -> pa.Table:
            m = pc.equal(b["event_type"], kind)
            t = b.filter(m)
            return pa.table({
                "user_id": t["user_id"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
                out_id: t["event_id"]})
        return f

    views = ev.map_batches(prep("view", "view_event"),
                           batch_format="pyarrow")
    purchases = ev.map_batches(prep("purchase", "purchase_event"),
                               batch_format="pyarrow")
    return band_join(views, purchases, key="user_id", ts="ts_us",
                     band=600_000_000, left_id="view_event",
                     right_id="purchase_event")


ORACLE_SQL["view_purchase_band"] = """
    SELECT v.user_id,
           v.event_id AS view_event,
           p.event_id AS purchase_event,
           CAST(epoch_us(p.ts) - epoch_us(v.ts) AS BIGINT) AS dt
    FROM events v JOIN events p
      ON p.user_id = v.user_id
     AND v.event_type = 'view' AND p.event_type = 'purchase'
     AND abs(epoch_us(p.ts) - epoch_us(v.ts)) < 600000000"""


# ------------------------------------------- Avro and Delta-log ingestion

def q_avro_ingest(sf_dir: str) -> "ray.data.Dataset":
    """Apache Avro object-container ingestion round trip (the Kafka /
    Hadoop row-interchange format, from-scratch codec per the public
    Avro 1.11 spec — sources/avro.py): documents serialized once to
    deflate-coded .avro shards, decoded back DISTRIBUTED (one
    read_binary_files block per shard, zigzag-varint parse inside the
    read task) and rolled up per lang with min/max per-group text md5.
    The hash gate proves the encode + distributed-decode round trip
    byte-exact; same DuckDB twin as csv_ingest."""
    from ..sources.avro import read_avro, write_avro_shards

    shard_dir = write_avro_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _columnar_shard_dir(sf_dir, "avro"), num_shards=8)
    return _csv_rollup(read_avro(shard_dir))


ORACLE_SQL["avro_ingest"] = ORACLE_SQL["csv_ingest"]


def q_delta_ingest(sf_dir: str) -> "ray.data.Dataset":
    """Delta-log snapshot ingestion (lakehouse hand-off,
    sources/deltalog.py): a deterministic Delta table is built from the
    documents parquet with real history — version 0 adds 8 part files,
    version 1 REWRITES partition 3 keeping only n_chars >= 500 (a
    delete-where compaction) — then the LATEST snapshot is resolved by
    transaction-log replay and read as plain pruned parquet. The twin
    re-derives the surviving row set logically, so the gate proves the
    add/remove replay picked exactly the active files. Time travel
    (version=0) is pytest-gated (tests/test_deltalog.py)."""
    from ..sources.deltalog import read_delta, write_delta_table

    table_dir = write_delta_table(
        os.path.join(sf_dir, "documents.parquet"),
        _columnar_shard_dir(sf_dir, "delta"),
        num_files=8, prune_mod=3, prune_min_chars=500)
    return _csv_rollup(read_delta(table_dir,
                                  columns=["doc_id", "text", "lang"]))


ORACLE_SQL["delta_ingest"] = """
    SELECT lang, count(*)::BIGINT AS n_docs,
           sum(length(text))::BIGINT AS sum_text_chars,
           min(md5(text)) AS min_text_md5,
           max(md5(text)) AS max_text_md5
    FROM documents
    WHERE doc_id % 8 != 3 OR n_chars >= 500
    GROUP BY lang"""


def q_scd2_priority(sf_dir: str) -> "ray.data.Dataset":
    """Slowly-changing-dimension TYPE-2 history build (the classic
    warehouse op: Kimball's SCD2): per customer, the history of
    o_orderpriority over their orders ordered by (orderdate, orderkey),
    with consecutive equal values collapsed into one interval row —
    (o_custkey, priority, valid_from, valid_to, n_orders, is_current).
    valid_to is the first timestamp of the NEXT interval (half-open
    ranges; NULL while current). One hash(customer) shuffle; per bucket
    one lexsort + vectorized run-collapse answers every customer at
    once (no per-group tasks). EXACT SQL twin: LAG change flags ->
    running SUM run ids -> per-run MIN/COUNT -> LEAD(valid_from)."""
    from ..sharding import auto_buckets, bucket_of_ints

    nb = auto_buckets(None)

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table({
            "o_custkey": b["o_custkey"],
            "ts_us": pc.cast(b["o_orderdate"], pa.int64()),
            "o_orderkey": b["o_orderkey"],
            "priority": b["o_orderpriority"]})
        return t.append_column("pkey", pa.array(bucket_of_ints(
            t["o_custkey"].to_numpy(zero_copy_only=False), nb)))

    def intervals(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        ck = g["o_custkey"].to_numpy(zero_copy_only=False)
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        ok = g["o_orderkey"].to_numpy(zero_copy_only=False)
        da = pc.dictionary_encode(g["priority"].combine_chunks())
        codes = da.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = da.dictionary.to_pylist()
        order = np.lexsort((ok, ts, ck))
        ck, ts, codes = ck[order], ts[order], codes[order]
        n = len(ck)
        start = np.ones(n, bool)
        if n > 1:
            start[1:] = (ck[1:] != ck[:-1]) | (codes[1:] != codes[:-1])
        st = np.flatnonzero(start)
        run_cust = ck[st]
        run_from = ts[st]
        run_len = np.diff(np.r_[st, n])
        has_next = np.zeros(len(st), bool)
        if len(st) > 1:
            has_next[:-1] = run_cust[1:] == run_cust[:-1]
        valid_to = np.zeros(len(st), np.int64)
        if len(st) > 1:
            valid_to[:-1] = run_from[1:]
        return pa.table({
            "o_custkey": pa.array(run_cust, pa.int64()),
            "priority": pa.array([vocab[c] for c in codes[st]],
                                 pa.string()),
            "valid_from": pa.array(run_from, pa.int64()),
            "valid_to": pa.array(valid_to, pa.int64(), mask=~has_next),
            "n_orders": pa.array(run_len.astype(np.int64), pa.int64()),
            "is_current": pa.array((~has_next).astype(np.int64),
                                   pa.int64())})

    return _read(sf_dir, "orders",
                 ["o_custkey", "o_orderdate", "o_orderkey",
                  "o_orderpriority"]) \
        .map_batches(prep, batch_format="pyarrow") \
        .groupby("pkey").map_groups(intervals, batch_format="pyarrow")


ORACLE_SQL["scd2_priority"] = """
    WITH seq AS (
      SELECT o_custkey, o_orderpriority,
             epoch_us(o_orderdate)::BIGINT AS ts_us, o_orderkey,
             CASE WHEN LAG(o_orderpriority) OVER w
                       IS DISTINCT FROM o_orderpriority
                  THEN 1 ELSE 0 END AS chg
      FROM orders
      WINDOW w AS (PARTITION BY o_custkey
                   ORDER BY epoch_us(o_orderdate), o_orderkey)
    ), runs AS (
      SELECT *, SUM(chg) OVER (PARTITION BY o_custkey
                               ORDER BY ts_us, o_orderkey
                               ROWS UNBOUNDED PRECEDING) AS run_id
      FROM seq
    ), agg AS (
      SELECT o_custkey, run_id, MIN(o_orderpriority) AS priority,
             MIN(ts_us) AS valid_from, COUNT(*)::BIGINT AS n_orders
      FROM runs GROUP BY o_custkey, run_id
    )
    SELECT o_custkey, priority, valid_from,
           LEAD(valid_from) OVER w2 AS valid_to, n_orders,
           (CASE WHEN LEAD(valid_from) OVER w2 IS NULL
                 THEN 1 ELSE 0 END)::BIGINT AS is_current
    FROM agg WINDOW w2 AS (PARTITION BY o_custkey ORDER BY run_id)"""


def q_benford_digits(sf_dir: str) -> "ray.data.Dataset":
    """Benford first-significant-digit audit over order totals (the
    classic fraud/data-quality screen; Benford 1938; Nigrini 2012):
    per leading digit 1-9, the order count and the observed frequency
    in exact ppm (floor(n*1e6/total) — integer arithmetic end-to-end,
    no libm, so the twin hashes bit-equal). Combiner-first: each batch
    reduces to <= 9 digit counts (leading digit by vectorized
    divide-by-10 on cents, no string formatting); the 9-row merge uses
    the trivial-gather shape (repartition(1), the session-2 lesson —
    NOT a single-group groupby Sort)."""

    def partial(b: pa.Table) -> pa.Table:
        c = _cents(b["o_totalprice"].to_numpy(zero_copy_only=False))
        d = np.abs(c)
        while (d >= 10).any():
            big = d >= 10
            d[big] //= 10
        t = pa.table({"digit": pa.array(d, pa.int64()),
                      "n": pa.array(np.ones(len(d), np.int64))})
        g = t.group_by("digit").aggregate([("n", "sum")])
        return pa.table({"digit": g["digit"],
                         "n": pc.cast(g["n_sum"], pa.int64())})

    def finish(g: pa.Table) -> pa.Table:
        m = g.group_by("digit").aggregate([("n", "sum")])
        dig = m["digit"].to_numpy(zero_copy_only=False)
        n = m["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(dig)
        dig, n = dig[order], n[order]
        total = np.int64(n.sum())
        return pa.table({
            "digit": pa.array(dig, pa.int64()),
            "n_orders": pa.array(n, pa.int64()),
            "obs_ppm": pa.array(n * np.int64(1_000_000) // total,
                                pa.int64())})

    return _read(sf_dir, "orders", ["o_totalprice"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(finish, batch_format="pyarrow", batch_size=None)


ORACLE_SQL["benford_digits"] = """
    WITH d AS (
      SELECT CAST(substr(CAST(abs(CAST(round(o_totalprice * 100)
                                       AS BIGINT)) AS VARCHAR),
                  1, 1) AS BIGINT) AS digit
      FROM orders
    ), c AS (
      SELECT digit, COUNT(*)::BIGINT AS n_orders FROM d GROUP BY digit
    )
    SELECT digit, n_orders,
           CAST((n_orders * 1000000) // (SELECT SUM(n_orders) FROM c)
                AS BIGINT) AS obs_ppm
    FROM c"""


def q_avro_quarantine(sf_dir: str) -> "ray.data.Dataset":
    """Bad-records ingestion (the Spark badRecordsPath / permissive-mode
    semantics): a COPY of the avro shards with shard 5's trailing sync
    marker deliberately clobbered is read with
    read_avro(on_error="quarantine") — the corrupt shard contributes
    zero rows and a WARNING instead of killing the job; the seven good
    shards roll up as usual. The twin re-derives the surviving row set
    logically (doc_id % 8 != 5), so the gate proves quarantine dropped
    EXACTLY the rotten file — no over- or under-drop."""
    import shutil

    import pyarrow as _pa

    from ..sources.avro import read_avro, write_avro_shards

    good_dir = write_avro_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _columnar_shard_dir(sf_dir, "avro"), num_shards=8)
    bad_dir = _columnar_shard_dir(sf_dir, "avrobad")
    marker = os.path.join(bad_dir, "_COMPLETE")
    if not os.path.exists(marker):
        os.makedirs(bad_dir, exist_ok=True)
        for f in sorted(os.listdir(good_dir)):
            if f.endswith(".avro"):
                shutil.copy(os.path.join(good_dir, f),
                            os.path.join(bad_dir, f))
        victim = os.path.join(bad_dir, "shard-00005.avro")
        blob = bytearray(open(victim, "rb").read())
        blob[-1] ^= 0xFF  # clobber the trailing sync marker
        with open(victim, "wb") as fh:
            fh.write(bytes(blob))
        with open(marker, "w") as fh:
            fh.write("ok")
    schema = _pa.schema([("doc_id", _pa.int64()),
                         ("text", _pa.string()),
                         ("lang", _pa.string()),
                         ("source", _pa.string()),
                         ("n_chars", _pa.int64())])
    return _csv_rollup(read_avro(bad_dir, on_error="quarantine",
                                 schema=schema))


ORACLE_SQL["avro_quarantine"] = """
    SELECT lang, count(*)::BIGINT AS n_docs,
           sum(length(text))::BIGINT AS sum_text_chars,
           min(md5(text)) AS min_text_md5,
           max(md5(text)) AS max_text_md5
    FROM documents
    WHERE doc_id % 8 != 5
    GROUP BY lang"""


def q_zorder_cluster(sf_dir: str) -> "ray.data.Dataset":
    """Z-order (Morton) clustering — the lakehouse OPTIMIZE ZORDER
    shape (Delta/Iceberg data-skipping layout; Morton 1966): embedding
    dims 1-2 quantized to ints (the spatial_join convention), bits
    interleaved into a 42-bit Morton key (vectorized magic-number
    spread), rows globally ordered by (morton, vec_id) via the
    scale-safe global_rank (distributed offsets, driver never holds
    the histogram), and packed 64 rows per target file. Output: per
    file the row count and each dimension's min/max envelope — the
    stats a scan planner prunes on; Z-ordering makes those envelopes
    tight in BOTH dims at once. EXACT SQL twin: the same bit-spread
    chain in BIGINT arithmetic + row_number + integer division."""
    from ..functions.window import global_rank

    SHIFT = np.int64(1 << 20)
    ROWS_PER_FILE = np.int64(64)

    def _spread(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.uint64)
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        return v

    def _compact(v: np.ndarray) -> np.ndarray:
        v = v & np.uint64(0x5555555555555555)
        v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
        v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
        return v

    def to_morton(b: pa.Table) -> pa.Table:
        col = b["embedding"].combine_chunks()
        n = len(col)
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mat = flat.reshape(n, -1)
        ux = (np.floor(1e6 * mat[:, 0] + 0.5).astype(np.int64)
              + SHIFT).astype(np.uint64)
        uy = (np.floor(1e6 * mat[:, 1] + 0.5).astype(np.int64)
              + SHIFT).astype(np.uint64)
        morton = (_spread(ux) | (_spread(uy) << np.uint64(1))) \
            .astype(np.int64)
        return pa.table({
            "morton": pa.array(morton, pa.int64()),
            "vec_id": pc.cast(b["vec_id"], pa.int64())})

    ranked = global_rank(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(to_morton, batch_format="pyarrow"),
        key="morton", tie_col="vec_id", descending=False)

    def file_partial(b: pa.Table) -> pa.Table:
        m = b["morton"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = _compact(m).astype(np.int64) - SHIFT
        y = _compact(m >> np.uint64(1)).astype(np.int64) - SHIFT
        rnk = b["rnk"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "file_id": pa.array((rnk - 1) // ROWS_PER_FILE, pa.int64()),
            "n": pa.array(np.ones(len(rnk), np.int64)),
            "min_x": pa.array(x, pa.int64()),
            "max_x": pa.array(x, pa.int64()),
            "min_y": pa.array(y, pa.int64()),
            "max_y": pa.array(y, pa.int64())})
        g = t.group_by("file_id").aggregate(
            [("n", "sum"), ("min_x", "min"), ("max_x", "max"),
             ("min_y", "min"), ("max_y", "max")])
        return g.rename_columns(["file_id", "n", "min_x", "max_x",
                                 "min_y", "max_y"])

    def finish(g: pa.Table) -> pa.Table:
        m = g.group_by("file_id").aggregate(
            [("n", "sum"), ("min_x", "min"), ("max_x", "max"),
             ("min_y", "min"), ("max_y", "max")])
        return m.rename_columns(["file_id", "n_rows", "min_x", "max_x",
                                 "min_y", "max_y"])

    return ranked.map_batches(file_partial, batch_format="pyarrow") \
        .groupby("file_id").map_groups(finish, batch_format="pyarrow")


ORACLE_SQL["zorder_cluster"] = """
    WITH p AS (
      SELECT vec_id,
             CAST(FLOOR(1e6 * embedding[1] + 0.5) AS BIGINT)
                 + 1048576 AS ux,
             CAST(FLOOR(1e6 * embedding[2] + 0.5) AS BIGINT)
                 + 1048576 AS uy
      FROM embeddings),
    s1 AS (SELECT vec_id, ux, uy,
                  (ux | (ux << 16)) & 281470681808895 AS ax,
                  (uy | (uy << 16)) & 281470681808895 AS ay FROM p),
    s2 AS (SELECT vec_id, ux, uy,
                  (ax | (ax << 8)) & 71777214294589695 AS ax,
                  (ay | (ay << 8)) & 71777214294589695 AS ay FROM s1),
    s3 AS (SELECT vec_id, ux, uy,
                  (ax | (ax << 4)) & 1085102592571150095 AS ax,
                  (ay | (ay << 4)) & 1085102592571150095 AS ay FROM s2),
    s4 AS (SELECT vec_id, ux, uy,
                  (ax | (ax << 2)) & 3689348814741910323 AS ax,
                  (ay | (ay << 2)) & 3689348814741910323 AS ay FROM s3),
    s5 AS (SELECT vec_id, ux, uy,
                  (ax | (ax << 1)) & 6148914691236517205 AS ax,
                  (ay | (ay << 1)) & 6148914691236517205 AS ay FROM s4),
    r AS (SELECT vec_id, ux, uy,
                 row_number() OVER (ORDER BY (ax | (ay << 1)), vec_id)
                     AS rnk
          FROM s5)
    SELECT CAST((rnk - 1) // 64 AS BIGINT) AS file_id,
           COUNT(*)::BIGINT AS n_rows,
           (MIN(ux) - 1048576)::BIGINT AS min_x,
           (MAX(ux) - 1048576)::BIGINT AS max_x,
           (MIN(uy) - 1048576)::BIGINT AS min_y,
           (MAX(uy) - 1048576)::BIGINT AS max_y
    FROM r GROUP BY file_id"""


def q_avro_evolve(sf_dir: str) -> "ray.data.Dataset":
    """Avro SCHEMA RESOLUTION in the read path (spec 'Schema
    Resolution'; the evolution story every Kafka consumer relies on):
    the same shards are read under a READER schema that drops two
    writer fields (source, n_chars — decoded and discarded per the
    wire format), reorders the rest, and adds a reader-only
    ``quality: long`` with a default. The rollup twin is csv_ingest's;
    the defaulted column and promotion legs are pytest-gated
    (tests/test_r5s3_sources.py::TestAvroEvolution)."""
    from ..sources.avro import read_avro, write_avro_shards

    shard_dir = write_avro_shards(
        os.path.join(sf_dir, "documents.parquet"),
        _columnar_shard_dir(sf_dir, "avro"), num_shards=8)
    reader = {"type": "record", "name": "doc", "fields": [
        {"name": "lang", "type": "string"},
        {"name": "doc_id", "type": "long"},
        {"name": "text", "type": "string"},
        {"name": "quality", "type": "long", "default": 0}]}
    return _csv_rollup(read_avro(shard_dir, reader_schema=reader))


ORACLE_SQL["avro_evolve"] = ORACLE_SQL["csv_ingest"]


def q_delta_time_travel(sf_dir: str) -> "ray.data.Dataset":
    """Delta-log TIME TRAVEL under a driver gate: the same table as
    delta_ingest read AS OF version 0 — before the delete-where
    compaction — so the snapshot must contain every document. The twin
    is the plain full-table rollup; together with delta_ingest (latest
    version) the pair proves the log replay resolves each version's
    exact file set."""
    from ..sources.deltalog import read_delta, write_delta_table

    table_dir = write_delta_table(
        os.path.join(sf_dir, "documents.parquet"),
        _columnar_shard_dir(sf_dir, "delta"),
        num_files=8, prune_mod=3, prune_min_chars=500)
    return _csv_rollup(read_delta(table_dir, version=0,
                                  columns=["doc_id", "text", "lang"]))


ORACLE_SQL["delta_time_travel"] = ORACLE_SQL["csv_ingest"]


def q_delta_write_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """Delta-log WRITE path (sources/deltalog.write_delta): documents
    stream out as version 0 (append — per-block staging tasks, then one
    JSON commit of the files they wrote), then an overwrite commits
    version 1 keeping only n_chars >= 500; the final snapshot is read
    back and rolled up. The twin re-derives the overwrite's survivor
    set, so the gate proves the sink's staging + commit + remove
    bookkeeping end-to-end (and the append leg via version-0 time
    travel in the sink pytests)."""
    from ..sources.deltalog import read_delta, write_delta

    table_dir = _columnar_shard_dir(sf_dir, "deltaw")
    log_dir = os.path.join(table_dir, "_delta_log")
    have = sorted(os.listdir(log_dir)) if os.path.isdir(log_dir) else []
    if len(have) != 2:
        import shutil

        shutil.rmtree(table_dir, ignore_errors=True)
        docs = _read(sf_dir, "documents",
                     ["doc_id", "text", "lang", "n_chars"])
        v0 = write_delta(docs, table_dir, mode="append")
        survivors = docs.filter(expr="n_chars >= 500")
        v1 = write_delta(survivors, table_dir, mode="overwrite")
        assert (v0, v1) == (0, 1)
    return _csv_rollup(read_delta(table_dir,
                                  columns=["doc_id", "text", "lang"]))


ORACLE_SQL["delta_write_roundtrip"] = """
    SELECT lang, count(*)::BIGINT AS n_docs,
           sum(length(text))::BIGINT AS sum_text_chars,
           min(md5(text)) AS min_text_md5,
           max(md5(text)) AS max_text_md5
    FROM documents
    WHERE n_chars >= 500
    GROUP BY lang"""


def q_delta_compact(sf_dir: str) -> "ray.data.Dataset":
    """OPTIMIZE-style compaction under a driver gate
    (sources/deltalog.compact_delta): four fragmented appends (n_chars
    bands) -> one bin-packed overwrite commit -> snapshot read-back.
    Data must be untouched by the layout rewrite, so the twin is the
    plain full-table rollup; the fragmented pre-compaction version
    stays time-travelable (pytest-gated,
    TestDeltaMaintenance.test_compact_preserves_data_and_shrinks_layout)."""
    from ..sources.deltalog import compact_delta, read_delta, write_delta

    table_dir = _columnar_shard_dir(sf_dir, "deltac")
    log_dir = os.path.join(table_dir, "_delta_log")
    have = sorted(os.listdir(log_dir)) if os.path.isdir(log_dir) else []
    compacted = False
    if have:
        with open(os.path.join(log_dir, have[-1])) as fh:
            compacted = '"mode": "overwrite"' in fh.read()
    if not compacted:
        import shutil

        shutil.rmtree(table_dir, ignore_errors=True)
        docs = _read(sf_dir, "documents",
                     ["doc_id", "text", "lang", "n_chars"])
        for lo, hi in ((0, 200), (200, 350), (350, 500),
                       (500, 1 << 40)):
            part = docs.filter(
                expr=f"n_chars >= {lo} and n_chars < {hi}")
            if part.count():  # empty bands have no files to commit
                write_delta(part, table_dir, mode="append")
        compact_delta(table_dir, target_files=4)
    return _csv_rollup(read_delta(table_dir,
                                  columns=["doc_id", "text", "lang"]))


ORACLE_SQL["delta_compact"] = ORACLE_SQL["csv_ingest"]


def q_audio_mfcc(sf_dir: str) -> "ray.data.Dataset":
    """MFCC front end per audio asset (Davis & Mermelstein 1980): mel
    filterbank + log + DCT-II over Hann-framed power spectra, mean
    8-coefficient vector milli-quantized — the classic speech/audio-ML
    feature. Actor pool; filterbank/DCT basis built once per actor.
    Driver twin: single-process stage dump (same class, bit-equal);
    pytest feeds pure tones through the REAL WAV codec and checks
    tone separation and determinism."""
    from ..stages.multimodal import build_media_pipeline

    _dump_media_twin("audio_mfcc", sf_dir, "audio", "AudioMFCCStage")
    return build_media_pipeline(_media_ds(sf_dir), "audio_mfcc")


def q_gif_framesample(sf_dir: str) -> "ray.data.Dataset":
    """Animated-GIF frame sampling as a DISTRIBUTED video stage: real
    encode_gif_anim payloads (sub-rect frames, transparency, all three
    disposal modes) flow through VideoFrameSampleStage on the RealCodec
    — _gif_decode_frames composites each frame per the GIF89a animation
    model — emitting per-sampled-frame luma rows. The oracle-dump twin
    runs the SAME stage single-process on the same table, so a hash
    match proves the distributed compositing bit-exact."""
    from ..stages.multimodal import (
        RealCodec, VideoFrameSampleStage, synth_gif_anim_table)
    from . import oracle_dump as OD

    n = max(24, int(2400 * _sf_of_dir(sf_dir)))
    OD.dump("gif_framesample", f"gifanim:v1:n{n}:seed7",
            lambda: VideoFrameSampleStage(codec=RealCodec(), stride=2)(
                synth_gif_anim_table(n_assets=n, seed=7)))
    ds = ray.data.from_arrow(synth_gif_anim_table(n_assets=n, seed=7))
    return ds.map_batches(
        VideoFrameSampleStage,
        fn_constructor_kwargs={"codec": RealCodec(), "stride": 2},
        batch_format="pyarrow", batch_size=8, concurrency=(1, 4))


def q_delta_partition_prune(sf_dir: str) -> "ray.data.Dataset":
    """Partitioned Delta write + METADATA-pruned read: documents
    committed with partition_by='lang' (one sub-prefix per language,
    add actions stamped with partitionValues), then read back with
    partition_filter={'lang': 'de'} — the prune happens on the LOG
    metadata before any data file opens, so only the de partition's
    bytes are ever read (file-level skip asserted in
    TestDeltaPartitioned). The twin re-derives the de rollup
    logically."""
    from ..sources.deltalog import read_delta, write_delta

    table_dir = _columnar_shard_dir(sf_dir, "deltap")
    log_dir = os.path.join(table_dir, "_delta_log")
    if not os.path.isdir(log_dir) or not os.listdir(log_dir):
        import shutil

        shutil.rmtree(table_dir, ignore_errors=True)
        docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
        write_delta(docs, table_dir, mode="append", partition_by="lang")
    return _csv_rollup(read_delta(table_dir,
                                  partition_filter={"lang": "de"},
                                  columns=["doc_id", "text", "lang"]))


ORACLE_SQL["delta_partition_prune"] = """
    SELECT lang, count(*)::BIGINT AS n_docs,
           sum(length(text))::BIGINT AS sum_text_chars,
           min(md5(text)) AS min_text_md5,
           max(md5(text)) AS max_text_md5
    FROM documents
    WHERE lang = 'de'
    GROUP BY lang"""


def check_registry(queries: Dict[str, Any], oracle_sql: Dict[str, str]) -> None:
    """Raise when a query has no oracle twin or a twin has no query."""
    no_twin = sorted(set(queries) - set(oracle_sql))
    no_query = sorted(set(oracle_sql) - set(queries))
    if no_twin or no_query:
        raise ValueError(f"query registry: no oracle twin for {no_twin}; "
                         f"no query for twin {no_query}")


# The query registry: every q_<name> function of this module, under <name>.
QUERIES: Dict[str, Callable[[str], Any]] = {
    name[2:]: fn for name, fn in list(globals().items())
    if name.startswith("q_") and getattr(fn, "__module__", None) == __name__}
check_registry(QUERIES, ORACLE_SQL)
