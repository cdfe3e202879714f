"""Shuffle-width policy: bucket count must grow with data size (the round-1
fixed-64-bucket defect) and never fall below the cluster-width floor."""

import numpy as np
import pyarrow as pa

from documentprocessor_ray.sharding import auto_buckets, bucket_of_ints, bucket_of_strs


class TestAutoBuckets:
    def test_grows_with_input_size(self):
        small = auto_buckets(10_000, rows_per_bucket=4096)
        large = auto_buckets(10_000_000, rows_per_bucket=4096)
        assert large > small
        assert large >= 10_000_000 // 4096

    def test_floor_is_cluster_width_not_constant(self, ray_session):
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 0))
        assert auto_buckets(None) >= max(64, 2 * cpus)
        assert auto_buckets(0) == auto_buckets(None)

    def test_flagship_pipeline_uses_scaled_buckets(self, ray_session):
        """explode_spans stamps pkey in [0, num_buckets), and the width
        auto_buckets derives from a doc count grows with it."""
        from documentprocessor_ray.pipelines.extract import DOCS_PER_BUCKET, explode_spans

        docs = pa.table({
            "doc_id": pa.array([f"d{i}" for i in range(100)], pa.string()),
            "spans": pa.array(
                [[{"kind": "text", "text": "hi", "media_ref": "", "offset": 0}]] * 100,
                pa.list_(pa.struct([("kind", pa.string()), ("text", pa.string()),
                                    ("media_ref", pa.string()), ("offset", pa.int32())]))),
        })
        wide = explode_spans(docs, num_buckets=1024)
        narrow = explode_spans(docs, num_buckets=4)
        assert wide["pkey"].to_pylist() != narrow["pkey"].to_pylist()
        assert max(narrow["pkey"].to_pylist()) < 4
        # at 100x the bench corpus the derived width exceeds the old constant
        assert auto_buckets(800_000, rows_per_bucket=DOCS_PER_BUCKET) > 64


class TestBucketHashes:
    def test_int_buckets_spread_sequential_keys(self):
        b = bucket_of_ints(np.arange(1000, dtype=np.int64), 64)
        counts = np.bincount(b, minlength=64)
        # well-mixed: no empty bucket striping, no hot bucket (raw modulo of
        # sequential keys would stripe: some buckets 2x the others exactly)
        assert (counts > 0).sum() >= 60
        assert counts.max() <= 3 * 1000 // 64

    def test_str_buckets_stable(self):
        assert bucket_of_strs(["a", "b", "a"], 16)[0] == bucket_of_strs(["a"], 16)[0]
