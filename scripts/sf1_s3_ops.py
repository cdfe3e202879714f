"""sf1 (10x sf0.1) scale probe for the round-5 SESSION-3 operators:
the Avro family (plain / quarantine / schema-resolution reads), the
Delta-log snapshot read, SCD2 history, the Benford audit and Z-order
clustering. Same deterministic sf1 tables as scripts/sf1_probe.py;
results merge into BENCH_r05_sf1.json under "results_s3_ops".

Usage: python scripts/sf1_s3_ops.py [OUT_JSON]
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

os.environ.setdefault("DPRAY_SKIP_ORACLE_DUMP", "1")

from sf1_probe import DST, ROOT, StoreSampler, build_documents, build_keyed

OUT_JSON = sys.argv[1] if len(sys.argv) > 1 else \
    os.path.join(ROOT, "BENCH_r05_sf1.json")

S3_OPS = ["avro_ingest", "avro_quarantine", "avro_evolve",
          "delta_ingest", "delta_time_travel", "delta_write_roundtrip",
          "delta_compact", "delta_partition_prune", "scd2_priority",
          "benford_digits", "zorder_cluster", "audio_mfcc",
          "gif_framesample"]


def main():
    os.makedirs(DST, exist_ok=True)
    t0 = time.time()
    build_documents()
    build_keyed("orders")
    emb = os.path.join(DST, "embeddings.parquet")
    if not os.path.exists(emb):
        import shutil

        # same rationale as sf1_new_ops.py: replication would change
        # the ANN/spatial geometry, not scale it
        shutil.copyfile("/root/testdata/sf0.1/embeddings.parquet", emb)
    build_s = time.time() - t0
    print(f"sf1 tables ready in {build_s:.0f}s", flush=True)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    sampler = StoreSampler()
    sampler.start()

    import __ray_entry__ as E

    qs = E.queries()
    results = {}
    for name in S3_OPS:
        t0 = time.time()
        try:
            ds = qs[name](DST)
            rows = ds.count() if hasattr(ds, "count") else len(ds)
            secs = round(time.time() - t0, 1)
            results[name] = {"secs": secs, "rows": int(rows)}
            print(f"{name}: {rows} rows in {secs}s", flush=True)
        except Exception as e:  # record, keep probing
            results[name] = {"error": f"{type(e).__name__}: {e}"}
            print(f"{name}: FAILED {e}", flush=True)

    sampler.stop.set()
    sampler.join(2)

    artifact = json.load(open(OUT_JSON)) if os.path.exists(OUT_JSON) else {}
    artifact["results_s3_ops"] = {
        "build_s": round(build_s, 1),
        "peak_object_store_mib": round(sampler.peak_bytes() / 2**20, 1),
        "results": results,
    }
    with open(OUT_JSON, "w") as f:
        json.dump(artifact, f, indent=1)
    print(json.dumps(artifact["results_s3_ops"], indent=1))
    ray.shutdown()


if __name__ == "__main__":
    main()
