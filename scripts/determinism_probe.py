"""Determinism across parallelism levels (SURVEY.md §7.4): the same corpus at
num_cpus=1 and num_cpus=4 in FRESH processes must produce byte-identical
sorted (doc_id, status, spans_out) — the scaling benchmark's correctness
twin. Exits nonzero on mismatch. Runs the package of the checkout this
script sits in.

    python scripts/determinism_probe.py [n_docs]
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPUS = (1, 4)

# runs in a fresh interpreter with ROOT on PYTHONPATH, which the Ray
# workers it starts inherit
_CHILD = r'''
import sys, hashlib, json
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from documentprocessor_ray.pipelines.extract import run_extraction
rows = run_extraction(sys.argv[2], sys.argv[3]).take_all()
canon = sorted(
    (r["doc_id"], r["status"],
     tuple((s["kind"], s["text"], s["media_ref"], s["order"]) for s in r["spans_out"]))
    for r in rows)
h = hashlib.sha256(json.dumps(canon).encode()).hexdigest()
print("HASH:" + h)
ray.shutdown()
'''


def main() -> int:
    sys.path.insert(0, ROOT)
    from documentprocessor_ray.corpus import generate_corpus

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 80
    out = f"/tmp/dpray_determinism_n{n_docs}"
    docs_dir, media_dir = generate_corpus(out, n_docs=n_docs, seed=23,
                                          heavy_frac=0.03, num_partitions=8)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [ROOT, os.environ.get("PYTHONPATH")])))
    hashes = {}
    for cpus in CPUS:
        p = subprocess.run([sys.executable, "-c", _CHILD, str(cpus), docs_dir, media_dir],
                           capture_output=True, text=True, timeout=600, env=env)
        line = [l for l in p.stdout.splitlines() if l.startswith("HASH:")]
        if not line:
            print(f"num_cpus={cpus}: no hash produced\n{p.stderr[-2000:]}")
            return 1
        hashes[cpus] = line[0][5:]
        print(f"num_cpus={cpus}: {hashes[cpus]}")
    lo, hi = CPUS
    if hashes[lo] != hashes[hi]:
        print("DETERMINISM VIOLATION: outputs differ across parallelism levels")
        return 1
    print(f"deterministic: identical output at num_cpus={lo} and num_cpus={hi}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
