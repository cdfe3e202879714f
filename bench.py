"""Benchmark harness: headline extraction pipeline + operator suite.

Prints ONE JSON line:
  {"metric": "e2e_wall_sec", "value": <headline wall sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": <sf>, "num_cpus": N,
   "docs_per_sec": <headline throughput>, ...}

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS (default:
the CPUs this process may run on).

--scaling runs the headline extraction job twice in FRESH subprocesses at
num_cpus=1 and num_cpus=4 on the same corpus and reports both throughputs
plus scaling efficiency = (docs_per_sec_4 / docs_per_sec_1) / 4 — the
sandbox stand-in for the N- vs 4N-node cluster criterion (BASELINE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Benchmarks time the DISTRIBUTED pipelines only: the single-process
# oracle-dump twins (pipelines/oracle_dump.py) are correctness-gate
# scaffolding and are skipped on the bench path.
os.environ.setdefault("DPRAY_SKIP_ORACLE_DUMP", "1")

# queries cheap enough to run per-round at sf0.1 (jaccard_pairs is excluded:
# its sf0.1 output is quadratic in near-identical word-soup docs, which is a
# property of the synthetic corpus, not the operator)
BENCH_QUERIES = [
    "normalize_text", "nfc_normalize", "main_content", "pdf_extract",
    "dom_main", "substring_dedup", "phrase_search", "split_leakage",
    "warc_ingest", "bpe_merges", "link_graph", "orders_nested",
    "crawl_clean", "bpe_encode", "domain_stats", "robots_filter", "link_pagerank", "late_events", "cdc_compact", "warc_audit", "warc_skips", "reshard_plan", "price_bins", "negative_samples",
    "token_count", "token_count_bpe", "quality_stats",
    "fingerprint", "langid", "winnow_fingerprint", "exact_dedup", "chunk_dedup",
    "incremental_dedup",
    "pii_redact", "redact_numbers", "compression_ratio", "props_extract", "repetition_stats",
    "doc_length_rank", "doc_rank_dist", "codec_matrix", "revenue_rollup",
    "event_pivot",
    "length_outliers",
    "user_activity_full", "funnel", "source_cap", "source_lang_mode",
    "pack_sequences", "pack_shuffled", "source_enrich", "chunk_text",
    "customer_nation",
    "inverted_index", "top_terms", "doc_top_terms", "bigram_rarity",
    "ngram_jaccard_pairs", "dedup_clusters", "pagerank_dups", "corpus_clean",
    "corpus_train_ready", "decontaminate", "minhash_pairs",
    "simhash_pairs", "embedding_neardup", "embedding_neardup_lsh",
    "knn_bruteforce", "knn_ivf", "knn_int8", "bitext_mine",
    "url_canonical_dedup", "quality_classifier", "span_merge", "kmeans_clusters",
    "semdedup", "bigram_surprisal", "dsir_logweight", "split_no_leakage",
    "link_triangles", "incremental_neardup", "pca_project",
    "image_features", "audio_features", "audio_spectral", "audio_mfcc",
    "gif_framesample", "video_framesample",
    "image_edges", "video_motion",
    "image_phash_pairs",
    "pricing_summary", "top_customers", "order_revenue_join", "line_flag_share", "bloom_prefilter",
    "events_rollup", "event_users_hll", "event_heavy_hitters", "events_tumbling", "events_hopping",
    "top_orders_per_customer", "sessionize", "click_attribution",
    "next_purchase", "retention",
    "quantity_quantiles", "customer_price_quantiles", "lang_length_quantiles", "length_mad",
    "price_quantiles_approx",
    "order_price_bands",
    "customer_running_revenue", "user_rolling_value",
    "normalize_boxes", "raw_text_join", "vendor_topk", "doc_sample", "doc_sample_n", "length_variance",
    "label_centroids", "label_scatter", "grouped_comoments", "zscore_outliers",
    "forecast_revenue", "large_orders",
    "purchasers_minus_errors", "purchase_and_click_users",
    "priority_region_matrix", "event_unpivot", "cube_revenue",
    "fuzzy_name_pairs", "winsorized_revenue", "nation_customer_rank",
    "latest_event_per_user", "char_trigram_topk", "qty_discount_histogram",
    "user_growth_daily", "purchase_ohlc_hourly",
    "cluster_canonical", "lang_sample_n", "lang_sources_concat",
    "monthly_revenue", "events_dow_hour", "small_quantity_revenue",
    "brand_type_share", "activity_streaks", "customer_order_gaps",
    "table_audit", "dataset_split", "fk_orphans",
    "weighted_sample_n", "bm25_topk", "price_band_pairs",
    "activity_feed", "lang_dict_encode", "rolling_active_users",
    "late_ship_orders",
    "lang_stats", "lang_balanced_sample", "quality_weighted_sample", "low_order_customers", "customers_no_big_orders",
    "nation_revenue", "extract_amount",
    "extract_date", "detect_currency", "verify_totals", "extract_scored",
    "gopher_rules", "c4_rules", "line_dedup", "kcore", "jsonl_ingest",
    "csv_ingest", "domain_mixture", "curriculum_pack", "wds_ingest",
    "interleaved_pack", "unigram_vocab", "unigram_encode",
    "wordpiece_merges", "wordpiece_encode", "extract_corrected",
    "knn_pq", "knn_ivfpq", "pack_bfd", "kn_trigram", "tokbin_roundtrip", "blocklist_filter", "cdc_chunk_stats", "corpus_dolma", "trainready_shards", "source_divergence", "audio_fp_pairs", "video_clip_pairs", "text_tiling", "spatial_join", "match_pattern", "spatial_knn", "mixture_quota", "trigram_backoff", "link_communities", "ppl_buckets",
    "corpus_fineweb",
    "ks_lang_length", "chi2_lang_source", "substring_prune",
    "mwu_lang_length", "knn_recall", "jsonl_gz_ingest", "csv_gz_ingest", "jsonl_zst_ingest", "skyline_lineitem", "snm_customer_pairs", "view_purchase_band",
    "orc_ingest", "ipc_ingest", "avro_ingest", "delta_ingest", "scd2_priority",
    "benford_digits", "avro_quarantine", "zorder_cluster", "avro_evolve",
    "delta_time_travel", "delta_write_roundtrip", "delta_compact",
    "delta_partition_prune",
    "copurchase_pairs", "regr_price_qty",
    "acf_daily_revenue",
]


def _consume(res) -> int:
    """Fully execute a lazy result; return row count."""
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.count()
    if isinstance(res, pa.Table):
        return res.num_rows
    return len(res)


def run_suite(sf_dir: str, num_cpus: int, headline_only: bool = False,
              n_docs: int = 0, warmup: bool = False, reps: int = 3) -> dict:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import __ray_entry__ as E

    qs = E.queries()
    out_queries = {}
    out_min = {}

    # headline: flagship interleaved extraction, docs/sec
    if not n_docs:
        n_docs = max(40, int(4000 * E._sf_of(sf_dir)))
    docs_dir, media_dir = E._corpus_for(n_docs)  # generated outside the timed region

    from documentprocessor_ray.pipelines.extract import run_extraction

    def headline_run() -> int:
        return run_extraction(docs_dir, media_dir).count()

    if warmup:
        headline_run()  # steady-state measurement: workers + code paths warm
    t0 = time.time()
    n_rows = headline_run()
    headline = time.time() - t0
    out_queries["extract_receipts"] = round(headline, 3)

    if not headline_only:
        from documentprocessor_ray.pipelines import analysis as A

        for name in BENCH_QUERIES:
            # median of `reps` runs so hypervisor noise (documented 2-3x
            # swings on untouched queries) is distinguishable from real
            # regressions; min is reported alongside. The memoized 3-gram
            # pair Dataset is cleared per rep for the query that BUILDS it,
            # so its median reflects the true pair-generation cost, while
            # its consumers (dedup_clusters, corpus_train_ready) measure
            # with a warm cache — their in-suite reality.
            times = []
            for _ in range(max(1, reps)):
                if name == "ngram_jaccard_pairs":
                    A._PAIR_CACHE.clear()
                if name == "bpe_merges":
                    # same honesty rule as the pair cache: the query that
                    # BUILDS the memoized merges must pay the build every
                    # rep; bpe_encode then measures with a warm cache
                    A._BPE_MERGE_CACHE.clear()
                if name == "unigram_vocab":
                    # ditto: the unigram learn pays EM every rep;
                    # unigram_encode measures with a warm table
                    A._UNIGRAM_CACHE.clear()
                if name == "wordpiece_merges":
                    A._WORDPIECE_CACHE.clear()
                if name in ("trigram_backoff", "kn_trigram"):
                    # builders pay the LM pass every rep; the composed
                    # cleaners (ppl_buckets/fineweb/dolma) measure warm
                    A._LM_SCORE_CACHE.clear()
                t0 = time.time()
                _consume(qs[name](sf_dir))
                times.append(time.time() - t0)
            times.sort()
            out_queries[name] = round(times[len(times) // 2], 3)
            out_min[name] = round(times[0], 3)

    ray.shutdown()
    sf = E._sf_of(sf_dir)
    return {
        "metric": "e2e_wall_sec",
        "value": round(sum(out_queries.values()), 3),
        "unit": "sec",
        "queries": out_queries,
        "queries_min": out_min,
        "reps": reps,
        "sf": sf,
        "num_cpus": num_cpus,
        "headline_docs": n_docs,
        "headline_rows": n_rows,
        "docs_per_sec": round(n_docs / headline, 3),
    }


def run_scaling(sf_dir: str, low: int, high: int) -> dict:
    """Same headline job in fresh processes at two parallelism levels.

    Uses a 10x-headline corpus and a warmup pass so the measurement is
    steady-state compute, not session startup: the scaling criterion is about
    how THROUGHPUT scales with parallelism, so fixed per-session costs
    (ray.init, first-task module import) are excluded by design."""
    import __ray_entry__ as E

    # 2x the per-round corpus: read blocks large enough that tail
    # imbalance between the span tasks (one per block) doesn't read as
    # poor scaling
    n_docs = max(800, int(80000 * E._sf_of(sf_dir)))
    results = {}
    for cpus in (low, high):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--cpus", str(cpus),
             "--headline-only", "--docs", str(n_docs), "--warmup"],
            env={**os.environ, "GRAFT_SF_DIR": sf_dir, "RAY_GRAFT_CPUS": str(cpus)},
            capture_output=True, text=True, timeout=1800,
        )
        line = proc.stdout.strip().splitlines()[-1]
        results[cpus] = json.loads(line)
    tput_low = results[low]["docs_per_sec"]
    tput_high = results[high]["docs_per_sec"]
    return {
        "metric": "scaling_efficiency",
        "value": round((tput_high / tput_low) / (high / low), 3),
        "unit": "ratio",
        "sf": results[high]["sf"],
        "low_cpus": low, "high_cpus": high,
        "docs_per_sec_low": tput_low,
        "docs_per_sec_high": tput_high,
        "headline_docs": results[high]["headline_docs"],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--headline-only", action="store_true")
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS")
                                or len(os.sched_getaffinity(0))))
    ap.add_argument("--scaling-low", type=int, default=1)
    ap.add_argument("--scaling-high", type=int, default=4)
    ap.add_argument("--docs", type=int, default=0)
    ap.add_argument("--reps", type=int,
                    default=int(os.environ.get("RAY_GRAFT_REPS", "3")))
    ap.add_argument("--warmup", action="store_true")
    ap.add_argument("--stats", action="store_true",
                    help="print the headline pipeline's ds.stats() to stderr")
    args = ap.parse_args()
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

    if args.stats:
        import ray

        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
        import __ray_entry__ as E
        from documentprocessor_ray.pipelines.extract import run_extraction

        n_docs = args.docs or max(400, int(4000 * E._sf_of(sf_dir)))
        docs_dir, media_dir = E._corpus_for(n_docs)
        ds = run_extraction(docs_dir, media_dir)
        ds.count()
        print(ds.stats(), file=sys.stderr)
        ray.shutdown()
        return

    if args.scaling:
        print(json.dumps(run_scaling(sf_dir, args.scaling_low, args.scaling_high)))
    else:
        print(json.dumps(run_suite(sf_dir, args.cpus, args.headline_only,
                                   n_docs=args.docs, warmup=args.warmup,
                                   reps=args.reps)))


if __name__ == "__main__":
    main()
