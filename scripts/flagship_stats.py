"""Print the flagship extraction pipeline's Ray Data stage stats at sf0.1
scale — the evidence trail that wall time is spent in the span stage
(useful compute), not in driver hops.

Usage: python scripts/flagship_stats.py [n_docs]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray  # noqa: E402


def main() -> int:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS")
                          or len(os.sched_getaffinity(0))),
             include_dashboard=False, logging_level="ERROR")
    import __ray_entry__ as E
    from documentprocessor_ray.pipelines.extract import run_extraction

    docs_dir, media_dir = E._corpus_for(n_docs)
    ds = run_extraction(docs_dir, media_dir)
    t0 = time.time()
    mat = ds.materialize()  # stats() needs an executed plan handle
    n = mat.count()
    wall = time.time() - t0
    print(mat.stats())
    print(f"\n=== {n} docs in {wall:.2f}s = {n / wall:.1f} docs/s ===")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
