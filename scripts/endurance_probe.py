"""Checkpoint endurance probe at 100k+ docs (r4 VERDICT item #9).

Phase A launches `run_partitioned` in a CHILD process and SIGKILLs it once
roughly half the partitions have committed manifests — a real mid-run
death, not the max_partitions simulation. Phase B resumes in a fresh
process to completion. Asserts:

  * every manifest committed before the kill is BYTE-IDENTICAL after the
    resume (completed partitions never recompute),
  * the resume summary marks exactly those partitions "skipped",
  * counters reconcile: sum(docs_in) == corpus size, docs_ok+docs_failed
    == docs_in per partition, and the written output holds exactly
    sum(docs_in) rows with no duplicate doc_ids across partitions.

Writes the artifact to out_json (default ENDURANCE_r05.json, repo root).
Both runs use RAY_GRAFT_CPUS CPUs, else every CPU this process may run on.

Usage: python scripts/endurance_probe.py [n_docs] [out_json]
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
OUT_JSON = sys.argv[2] if len(sys.argv) > 2 else os.path.join(ROOT, "ENDURANCE_r05.json")
BASE = "/tmp/dpray_endurance"
OUT = os.path.join(BASE, "out")
N_PARTS = 16
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0)))

RUN_SNIPPET = f"""
import sys
sys.path.insert(0, {ROOT!r})
import ray
ray.init(address="local", num_cpus={NUM_CPUS}, include_dashboard=False,
         logging_level="ERROR")
from documentprocessor_ray.state.checkpoint import run_partitioned
s = run_partitioned("{BASE}/documents", "{BASE}/media", "{OUT}")
import json
print("SUMMARY_JSON:" + json.dumps(
    {{k: v for k, v in s.items() if k != "partitions"}}
    | {{"partitions": s["partitions"]}}))
ray.shutdown()
"""
# the child and its Ray workers import the package from this checkout
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [ROOT, os.environ.get("PYTHONPATH")])))


def manifest_paths():
    return sorted(glob.glob(os.path.join(OUT, "_manifest", "*.json")))


def digest(path: str) -> str:
    return hashlib.md5(open(path, "rb").read()).hexdigest()


def main():
    t_gen0 = time.time()
    from documentprocessor_ray.corpus import generate_corpus

    docs_dir, media_dir = generate_corpus(
        BASE, n_docs=N_DOCS, seed=404, heavy_frac=0.01,
        num_partitions=N_PARTS)
    gen_s = time.time() - t_gen0
    print(f"corpus ready: {N_DOCS} docs, {N_PARTS} partitions "
          f"({gen_s:.0f}s)", flush=True)

    # clean output of any previous probe
    import shutil

    if os.path.isdir(OUT):
        shutil.rmtree(OUT)

    # ---- Phase A: run and SIGKILL mid-flight -------------------------
    child = subprocess.Popen([sys.executable, "-c", RUN_SNIPPET],
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, env=CHILD_ENV)
    target = N_PARTS // 2
    t0 = time.time()
    while True:
        n = len(manifest_paths())
        if n >= target:
            os.kill(child.pid, signal.SIGKILL)
            break
        if child.poll() is not None:
            print("child finished before kill threshold — corpus too "
                  "small for the probe", flush=True)
            sys.exit(2)
        if time.time() - t0 > 3600:
            os.kill(child.pid, signal.SIGKILL)
            print("timeout waiting for manifests", flush=True)
            sys.exit(2)
        time.sleep(0.5)
    child.wait()
    pre = {os.path.basename(p): digest(p) for p in manifest_paths()}
    print(f"killed mid-run after {len(pre)} committed manifests "
          f"({time.time() - t0:.0f}s)", flush=True)

    # ---- Phase B: resume to completion --------------------------------
    t1 = time.time()
    out = subprocess.run([sys.executable, "-c", RUN_SNIPPET],
                         capture_output=True, text=True, timeout=3600,
                         env=CHILD_ENV)
    resume_s = time.time() - t1
    line = [l for l in out.stdout.splitlines()
            if l.startswith("SUMMARY_JSON:")]
    assert line, f"resume produced no summary: {out.stderr[-2000:]}"
    summary = json.loads(line[0][len("SUMMARY_JSON:"):])

    # committed manifests byte-identical -> no recompute
    post = {os.path.basename(p): digest(p) for p in manifest_paths()}
    recomputed = [k for k in pre if post.get(k) != pre[k]]
    assert not recomputed, f"completed partitions recomputed: {recomputed}"
    skipped = {f"{p}.json" for p in summary["skipped"]}
    assert skipped == set(pre), (
        f"resume skipped {sorted(skipped)} but pre-kill committed "
        f"{sorted(pre)}")
    assert len(post) == N_PARTS

    # counters reconcile
    tot_in = tot_ok = tot_failed = 0
    for p in manifest_paths():
        m = json.load(open(p))
        c = m["counters"]
        assert c["docs_ok"] + c["docs_failed"] == c["docs_in"], m["partition"]
        tot_in += c["docs_in"]
        tot_ok += c["docs_ok"]
        tot_failed += c["docs_failed"]
    assert tot_in == N_DOCS, (tot_in, N_DOCS)

    # output rows == docs, doc_ids unique (duckdb scan, no driver frame)
    import duckdb

    n_rows, n_ids = duckdb.sql(
        f"SELECT count(*), count(DISTINCT doc_id) FROM "
        f"read_parquet('{OUT}/part=*/*.parquet', "
        f"hive_partitioning=0)").fetchone()
    assert n_rows == N_DOCS == n_ids, (n_rows, n_ids)

    artifact = {
        "n_docs": N_DOCS,
        "n_partitions": N_PARTS,
        "num_cpus": NUM_CPUS,
        "committed_before_kill": len(pre),
        "recomputed_after_resume": 0,
        "skipped_on_resume": sorted(summary["skipped"]),
        "docs_in": tot_in, "docs_ok": tot_ok, "docs_failed": tot_failed,
        "output_rows": int(n_rows), "distinct_doc_ids": int(n_ids),
        "corpus_gen_s": round(gen_s, 1),
        "resume_wall_s": round(resume_s, 1),
        "verdict": "PASS",
    }
    with open(OUT_JSON, "w") as f:
        json.dump(artifact, f, indent=1)
    print(json.dumps(artifact, indent=1))


if __name__ == "__main__":
    main()
