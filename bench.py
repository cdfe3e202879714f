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

# Every registered query is timed except these, each for its reason.
BENCH_SKIP = {
    "extract_receipts": "timed once above the suite, as the headline",
    "jaccard_pairs": "its sf0.1 output is quadratic in the corpus's "
                     "near-identical word-soup docs, a property of the "
                     "synthetic corpus, not of the operator",
    "extract_sftext": "the flagship's text path; the headline times it",
    "extract_mixed_kinds": "the flagship's html/pdf path; the headline "
                           "and perfbench's web_text time it",
    "extract_scored_sftext": "extract_scored's scorer pool over text-only "
                             "words",
    "extract_scored_donut": "extract_scored with another output parser",
    "extract_scored_idefics": "extract_scored with another output parser",
}


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
        for name in (n for n in qs if n not in BENCH_SKIP):
            # median of `reps` runs so hypervisor noise (documented 2-3x
            # swings on untouched queries) is distinguishable from real
            # regressions; min is reported alongside. A query that builds
            # a memoized artifact (the 3-gram pairs, the tokenizer tables)
            # pays the build every rep; its consumers reuse it, as in a
            # suite run.
            times = []
            for _ in range(max(1, reps)):
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
