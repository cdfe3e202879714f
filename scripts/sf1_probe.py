"""sf1 (10x sf0.1) scale-proof run — r4 VERDICT item #3.

Builds a deterministic sf1 dataset under /tmp/dpray_sf1 by 10x replication
of /root/testdata/sf0.1 with key remapping (no external data):

  * documents: replica k offsets doc_id by k*DOC_OFF and suffixes every
    token with the replica id (disjoint token spaces — replicas are NOT
    near-duplicates of each other, so dedup workloads scale like 10x real
    data instead of degenerating into a clone-pair explosion; vocab grows
    10x, the honest worst case for the LM/tokenizer queries).
  * orders/lineitem/customer: replica k offsets every key-domain column
    (orderkey/custkey/partkey/suppkey) by k*KEY_OFF — join cardinalities
    scale exactly 10x with zero cross-replica matches.

Then runs the flagship extraction at 80k docs (10x the sf0.1 headline) and
the top-10 costliest registry queries at sf1 / 32 CPUs, sampling object
store usage, and writes BENCH_r05_sf1.json.

Usage: python scripts/sf1_probe.py [out_json]
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.1"
DST = "/tmp/dpray_sf1"
N_REPLICAS = 10
DOC_OFF = 1_000_000
KEY_OFF = 10_000_000
OUT_JSON = sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "BENCH_r05_sf1.json")

TOP10 = ["incremental_neardup", "corpus_dolma", "corpus_train_ready",
         "ngram_jaccard_pairs", "kn_trigram", "fk_orphans",
         "corpus_fineweb", "minhash_pairs", "price_bins",
         "trainready_shards"]

KEY_COLS = {
    "orders": ["o_orderkey", "o_custkey"],
    "lineitem": ["l_orderkey", "l_partkey", "l_suppkey"],
    "customer": ["c_custkey", "c_nationkey"],
}


def build_documents():
    out = os.path.join(DST, "documents.parquet")
    if os.path.exists(out):
        return
    t = pq.read_table(os.path.join(SRC, "documents.parquet"))
    reps = []
    for k in range(N_REPLICAS):
        ids = pc.add(t["doc_id"], k * DOC_OFF)
        if k == 0:
            texts = t["text"]
        else:
            # suffix every token: same token/byte statistics, disjoint
            # vocabulary per replica
            suf = f"·{k}"  # middle dot + digit: never splits a token
            texts = pc.replace_substring_regex(
                t["text"], pattern=r"(\S+)", replacement=rf"\1{suf}")
        cols = {"doc_id": ids, "text": texts,
                "n_chars": pc.cast(pc.utf8_length(texts), pa.int64())}
        for c in t.column_names:
            if c not in cols:
                cols[c] = t[c]
        reps.append(pa.table({c: cols[c] for c in t.column_names}))
    pq.write_table(pa.concat_tables(reps), out)


def build_keyed(tbl: str):
    out = os.path.join(DST, f"{tbl}.parquet")
    if os.path.exists(out):
        return
    t = pq.read_table(os.path.join(SRC, f"{tbl}.parquet"))
    reps = []
    for k in range(N_REPLICAS):
        cols = {}
        for c in t.column_names:
            if c in KEY_COLS[tbl] and c != "c_nationkey":
                cols[c] = pc.add(t[c], k * KEY_OFF)
            else:
                cols[c] = t[c]
        reps.append(pa.table(cols))
    pq.write_table(pa.concat_tables(reps), out)


class StoreSampler(threading.Thread):
    """Samples free object-store bytes once a second; peak usage =
    capacity - min(free)."""

    def __init__(self):
        super().__init__(daemon=True)
        import ray

        self.capacity = ray.cluster_resources().get("object_store_memory", 0)
        self.min_free = self.capacity
        self.stop = threading.Event()

    def run(self):
        import ray

        while not self.stop.is_set():
            free = ray.available_resources().get("object_store_memory", 0)
            self.min_free = min(self.min_free, free)
            self.stop.wait(1.0)

    def peak_bytes(self) -> int:
        return int(self.capacity - self.min_free)


def main():
    os.makedirs(DST, exist_ok=True)
    t0 = time.time()
    build_documents()
    for tbl in KEY_COLS:
        build_keyed(tbl)
    build_s = time.time() - t0
    sizes = {f: round(os.path.getsize(os.path.join(DST, f)) / 2**20, 1)
             for f in sorted(os.listdir(DST)) if f.endswith(".parquet")}
    print(f"sf1 tables built in {build_s:.0f}s: {sizes} MiB", flush=True)

    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    sampler = StoreSampler()
    sampler.start()

    results = {}

    # flagship at 80k docs (10x the sf0.1 headline corpus)
    from documentprocessor_ray.corpus import generate_corpus
    from documentprocessor_ray.pipelines.extract import run_extraction

    t0 = time.time()
    docs_dir, media_dir = generate_corpus(
        "/tmp/dpray_sf1_corpus", n_docs=80_000, seed=11, heavy_frac=0.03,
        num_partitions=16)
    gen_s = time.time() - t0
    t0 = time.time()
    n = run_extraction(docs_dir, media_dir, batch_size=64).count()
    flagship_s = time.time() - t0
    results["flagship_extract_80k"] = {
        "secs": round(flagship_s, 1), "docs": int(n),
        "docs_per_sec": round(n / flagship_s, 1),
        "corpus_gen_s": round(gen_s, 1)}
    print(f"flagship: {n} docs in {flagship_s:.1f}s "
          f"({n / flagship_s:.0f} docs/s)", flush=True)

    import __ray_entry__ as E

    qs = E.queries()
    for name in TOP10:
        t0 = time.time()
        try:
            ds = qs[name](DST)
            rows = ds.count() if hasattr(ds, "count") else len(ds)
            secs = round(time.time() - t0, 1)
            results[name] = {"secs": secs, "rows": int(rows)}
            print(f"{name}: {rows} rows in {secs}s", flush=True)
        except Exception as e:
            results[name] = {"error": f"{type(e).__name__}: {e}"}
            print(f"{name}: FAILED {e}", flush=True)

    sampler.stop.set()
    sampler.join(2)
    artifact = {
        "sf": 1.0, "num_cpus": 32, "replication": N_REPLICAS,
        "table_mib": sizes, "build_s": round(build_s, 1),
        "peak_object_store_mib": round(sampler.peak_bytes() / 2**20, 1),
        "object_store_capacity_mib":
            round(sampler.capacity / 2**20, 1),
        "results": results,
    }
    with open(OUT_JSON, "w") as f:
        json.dump(artifact, f, indent=1)
    print(json.dumps(artifact, indent=1))
    ray.shutdown()


if __name__ == "__main__":
    main()
